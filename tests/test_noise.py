"""Noise layer: Hahn-echo constant, dephasing rates, closed-form optima."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resgate import (
    NoiseSpec,
    dephasing_rate,
    hahn_eta,
    infidelity_first_order,
    infidelity_power_law,
    optimal_drive,
)
from resgate.config import RunConfig
from resgate.constants import EV_TO_J, h_ghz_to_energy_J, uev_to_J
from resgate.device import EXCHANGE_SOFT_MAX_J, EXCHANGE_SOFT_MIN_J
from resgate.errors import DomainError


def test_hahn_eta_reference_values():
    assert hahn_eta(0.67) == pytest.approx(0.08596892635849994, rel=1e-12)
    assert hahn_eta(0.5) == pytest.approx(0.11016486876421575, rel=1e-12)


@given(beta=st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=50, deadline=None)
def test_hahn_eta_positive_and_finite(beta):
    v = hahn_eta(beta)
    assert v > 0.0
    assert math.isfinite(v)


def test_noise_spec_defaults():
    ns = NoiseSpec()
    assert ns.S_eps == 1.4e-16
    assert ns.beta == 0.67
    assert ns.m == 1
    # eta defaults to the echo value for the configured beta
    assert ns.eta_value == pytest.approx(hahn_eta(0.67), rel=1e-14)
    explicit = NoiseSpec(eta=0.05)
    assert explicit.eta_value == 0.05


def test_dephasing_rate_reference_point(noise, eps_a):
    j_opt = 3.5230341138540733e-07 * EV_TO_J
    base = dephasing_rate(j_opt, 0.0, noise, eps_a)
    assert base.gamma_phi_0 == pytest.approx(518243.7882592353, rel=1e-10)
    assert base.gamma_phi == base.gamma_phi_0  # no drive, no broadening
    driven = dephasing_rate(j_opt, 2.443388887018247 * eps_a, noise, eps_a)
    assert driven.gamma_phi == pytest.approx(1547227.1139152115, rel=1e-10)


@given(
    scale=st.floats(min_value=0.2, max_value=5.0),
    y=st.floats(min_value=0.0, max_value=6.0),
)
@settings(max_examples=60, deadline=None)
def test_dephasing_rate_scaling_laws(scale, y):
    noise = NoiseSpec()
    eps_a = uev_to_J(5.0)
    j0 = 1e-25
    a = dephasing_rate(j0, 0.0, noise, eps_a)
    b = dephasing_rate(scale * j0, 0.0, noise, eps_a)
    # gamma_0 ~ J^(2/(1+beta))
    assert b.gamma_phi_0 / a.gamma_phi_0 == pytest.approx(
        scale ** (2.0 / (1.0 + noise.beta)), rel=1e-10
    )
    # drive broadening is (1 + y^2/4)^(2/(1+beta))
    d = dephasing_rate(j0, y * eps_a, noise, eps_a)
    assert d.gamma_phi / d.gamma_phi_0 == pytest.approx(
        (1.0 + y * y / 4.0) ** (2.0 / (1.0 + noise.beta)), rel=1e-10
    )


def test_dephasing_rate_rejects_bad_inputs(noise, eps_a):
    with pytest.raises(DomainError):
        dephasing_rate(0.0, 0.0, noise, eps_a)
    with pytest.raises(DomainError):
        dephasing_rate(1e-25, -1.0, noise, eps_a)


def test_optimal_drive_reference_point(res, noise, eps_a):
    kappa = res.omega_r / (2.0 * res.Q)
    # J_opt does not depend on the dephasing rate handed in
    o1 = optimal_drive(noise, kappa, 2, eps_a, 1.0)
    o2 = optimal_drive(noise, kappa, 2, eps_a, 12345.0)
    assert o1.J_opt == o2.J_opt
    assert o1.J_opt / EV_TO_J == pytest.approx(3.5230341138540733e-07, rel=1e-10)
    assert not o1.clamped
    # eps_d does: re-evaluate gamma_0 at J_opt, then fix eps_d
    g0 = dephasing_rate(o1.J_opt, 0.0, noise, eps_a).gamma_phi_0
    o3 = optimal_drive(noise, kappa, 2, eps_a, g0)
    assert o3.eps_d_opt / eps_a == pytest.approx(2.443388887018247, rel=1e-10)


def test_optimal_drive_lossless_limit(noise, eps_a):
    # kappa -> 0: the drive optimum collapses to exactly 2 eps_a
    o = optimal_drive(noise, 0.0, 2, eps_a, 1e6, j_min=1e-40, j_max=1e10)
    assert o.eps_d_opt / eps_a == pytest.approx(2.0, rel=1e-14)


def test_optimal_drive_clamps_and_flags(noise, eps_a):
    kappa = 1e6
    wide = optimal_drive(noise, kappa, 2, eps_a, 1e6)
    tight = optimal_drive(
        noise, kappa, 2, eps_a, 1e6, j_min=2.0 * wide.J_opt, j_max=4.0 * wide.J_opt
    )
    assert tight.clamped
    assert tight.J_opt == 2.0 * wide.J_opt
    assert tight.J_opt_unclamped == wide.J_opt
    assert not (EXCHANGE_SOFT_MIN_J <= 0.0)  # sanity on the imported band edges
    assert EXCHANGE_SOFT_MIN_J < EXCHANGE_SOFT_MAX_J
    # the config's default clamp window is the band the device layer warns on
    cfg = RunConfig()
    assert (h_ghz_to_energy_J(cfg.j_min_ghz), h_ghz_to_energy_J(cfg.j_max_ghz)) == (
        EXCHANGE_SOFT_MIN_J, EXCHANGE_SOFT_MAX_J)


def test_optimal_drive_rejects_degenerate_exponents(eps_a):
    with pytest.raises(DomainError):
        optimal_drive(NoiseSpec(beta=1.0), 1e6, 2, eps_a, 1e6)
    with pytest.raises(DomainError):
        optimal_drive(NoiseSpec(), 1e6, 0, eps_a, 1e6)


def test_first_order_infidelity_composition():
    # the two decay contributions add linearly with the stated weights
    base = infidelity_first_order(0.0, 0.0, 10e-9, 2)
    assert base == 0.0
    dep = infidelity_first_order(1e6, 0.0, 10e-9, 2)
    loss = infidelity_first_order(0.0, 1e6, 10e-9, 2)
    both = infidelity_first_order(1e6, 1e6, 10e-9, 2)
    assert both == pytest.approx(dep + loss, rel=1e-14)
    assert dep == pytest.approx(0.8 * 1e6 * 10e-9, rel=1e-14)
    assert loss == pytest.approx(0.8 * 1e6 * 10e-9 / 4.0, rel=1e-14)


def test_power_law_reference_values(res, noise):
    consistent = infidelity_power_law(noise, res, 0.18, 2)
    printed = infidelity_power_law(noise, res, 0.18, 2, printed_constant=True)
    assert consistent == pytest.approx(0.007876108086635194, rel=1e-12)
    assert consistent / printed == pytest.approx(1.1429976863324565, rel=1e-12)


def test_power_law_scalings(res, noise):
    base = infidelity_power_law(noise, res, 0.18, 2)
    import dataclasses

    hi_q = dataclasses.replace(res, Q=10.0 * res.Q)
    assert infidelity_power_law(noise, hi_q, 0.18, 2) / base == pytest.approx(
        10.0 ** (-(1.0 - noise.beta) / 2.0), rel=1e-12
    )
    hi_z = dataclasses.replace(res, Z_r=4.0 * res.Z_r)
    assert infidelity_power_law(noise, hi_z, 0.18, 2) / base == pytest.approx(0.5, rel=1e-12)
    # doubling the lever arm halves the estimate
    assert infidelity_power_law(noise, res, 0.36, 2) / base == pytest.approx(0.5, rel=1e-12)


def test_power_law_rejects_single_loop(res, noise):
    with pytest.raises(DomainError):
        infidelity_power_law(noise, res, 0.18, 1)
