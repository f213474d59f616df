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
    infidelity_power_law,
    optimal_drive,
)
from resgate.config import RunConfig, config_from_dict
from resgate.constants import EV_TO_J, h_ghz_to_energy_J, uev_to_J
from resgate.device import EXCHANGE_SOFT_MAX_J, EXCHANGE_SOFT_MIN_J
from resgate.errors import DomainError
from resgate.sweep import resolve_operating_point


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
    # eta defaults to the echo value for the configured beta
    assert ns.eta_value == pytest.approx(hahn_eta(0.67), rel=1e-14)
    explicit = NoiseSpec(eta=0.05)
    assert explicit.eta_value == 0.05


def test_dephasing_rate_reference_point(noise, eps_a):
    j_opt = 3.5230341138540733e-07 * EV_TO_J
    # the rate itself, a float; at eps_d = 0 it is gamma_phi_0
    base = dephasing_rate(j_opt, 0.0, noise, eps_a)
    assert type(base) is float
    assert base == pytest.approx(518243.7882592353, rel=1e-10)
    driven = dephasing_rate(j_opt, 2.443388887018247 * eps_a, noise, eps_a)
    assert driven == pytest.approx(1547227.1139152115, rel=1e-10)


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
    assert b / a == pytest.approx(scale ** (2.0 / (1.0 + noise.beta)), rel=1e-10)
    # drive broadening is (1 + y^2/4)^(2/(1+beta))
    d = dephasing_rate(j0, y * eps_a, noise, eps_a)
    assert d / a == pytest.approx(
        (1.0 + y * y / 4.0) ** (2.0 / (1.0 + noise.beta)), rel=1e-10
    )


def test_dephasing_rate_rejects_bad_inputs(noise, eps_a):
    with pytest.raises(DomainError):
        dephasing_rate(0.0, 0.0, noise, eps_a)
    with pytest.raises(DomainError):
        dephasing_rate(1e-25, -1.0, noise, eps_a)


def test_dephasing_rate_names_J_when_the_rate_underflows(noise, eps_a):
    # (J/eps_a)^2 underflows to 0 at a pinned exchange near 1e-170 GHz: the
    # rate would read 0, and the error names the exchange instead
    tiny = h_ghz_to_energy_J(1e-170)
    for eps_d in (0.0, 2.0 * eps_a):
        with pytest.raises(DomainError, match=r"underflows .* at J = 6\.6"):
            dephasing_rate(tiny, eps_d, noise, eps_a)
    # a hundred-fold smaller J/eps_a squared stays representable, and positive
    assert dephasing_rate(h_ghz_to_energy_J(1e-150), 0.0, noise, eps_a) > 0.0


def test_optimal_drive_reference_point(res, noise, eps_a):
    kappa = res.omega_r / (2.0 * res.Q)
    opt = optimal_drive(noise, kappa, 2, eps_a)
    assert opt.J_opt / EV_TO_J == pytest.approx(3.5230341138540733e-07, rel=1e-10)
    assert not opt.clamped
    assert opt.eps_d_opt / eps_a == pytest.approx(2.443388887018247, rel=1e-10)


def _two_call_drive(noise, kappa, n, eps_a, J):
    """The drive optimum formed by hand: gamma_phi_0 at J from dephasing_rate,
    then eps_d_opt = 2 eps_a sqrt(1 + kappa/(2 n gamma_phi_0))."""
    gamma0 = dephasing_rate(J, 0.0, noise, eps_a)
    return 2.0 * eps_a * math.sqrt(1.0 + kappa / (2.0 * n * gamma0))


def test_optimal_drive_matches_the_two_call_recipe(res, eps_a):
    # one call gives bit for bit the drive of the rate evaluated by hand at
    # the optimized, the clamped and a pinned exchange
    for noise, kappa, n in ((NoiseSpec(), res.omega_r / (2.0 * res.Q), 2),
                            (NoiseSpec(beta=0.5, S_eps=3e-17), 4.1e7, 3),
                            (NoiseSpec(eta=0.05), 2.2e7, 1)):
        opt = optimal_drive(noise, kappa, n, eps_a)
        assert not opt.clamped
        assert opt.eps_d_opt == _two_call_drive(noise, kappa, n, eps_a, opt.J_opt)
        tight = optimal_drive(noise, kappa, n, eps_a, j_min=2.0 * opt.J_opt,
                              j_max=4.0 * opt.J_opt)
        assert tight.clamped and tight.J_opt == 2.0 * opt.J_opt
        assert tight.eps_d_opt == _two_call_drive(noise, kappa, n, eps_a, tight.J_opt)
        pinned_J = h_ghz_to_energy_J(1.3)
        pinned = optimal_drive(noise, kappa, n, eps_a, J=pinned_J)
        assert pinned.J_opt == opt.J_opt and not pinned.clamped
        assert pinned.eps_d_opt == _two_call_drive(noise, kappa, n, eps_a, pinned_J)
        assert pinned.eps_d_opt != opt.eps_d_opt


def test_optimal_drive_takes_its_window_and_exchange_by_keyword(noise, eps_a):
    # a rate passed fifth must not be read as j_min
    with pytest.raises(TypeError):
        optimal_drive(noise, 1e6, 2, eps_a, 1e6)
    with pytest.raises(TypeError):
        optimal_drive(noise, 1e6, 2, eps_a, EXCHANGE_SOFT_MIN_J, EXCHANGE_SOFT_MAX_J)


def test_optimal_drive_lossless_limit(noise, eps_a):
    # kappa -> 0: the drive optimum collapses to exactly 2 eps_a
    o = optimal_drive(noise, 0.0, 2, eps_a, J=h_ghz_to_energy_J(0.1))
    assert o.eps_d_opt / eps_a == pytest.approx(2.0, rel=1e-14)


def test_optimal_drive_clamps_and_flags(noise, eps_a):
    kappa = 1e6
    wide = optimal_drive(noise, kappa, 2, eps_a)
    tight = optimal_drive(
        noise, kappa, 2, eps_a, j_min=2.0 * wide.J_opt, j_max=4.0 * wide.J_opt
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
        optimal_drive(NoiseSpec(beta=1.0), 1e6, 2, eps_a)
    with pytest.raises(DomainError):
        optimal_drive(NoiseSpec(), 1e6, 0, eps_a)
    for kappa in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="kappa"):
            optimal_drive(NoiseSpec(), kappa, 2, eps_a)


@pytest.mark.parametrize("point", [
    {},
    {"z_r_ohm": 500.0, "q_factor": 1e4},
    {"z_r_ohm": 50.0, "q_factor": 1e3},
    {"n": 3, "z_r_ohm": 5000.0, "q_factor": 5e3},
    {"beta": 0.5, "n": 4, "z_r_ohm": 2000.0, "q_factor": 1e3},
    {"beta": 0.6, "z_r_ohm": 500.0, "q_factor": 1e4, "c_r": 0.3},
    {"beta": 0.75, "n": 4, "z_r_ohm": 50.0, "q_factor": 500.0},
    {"beta": 0.8, "n": 3, "z_r_ohm": 2e4, "q_factor": 1e5},
], ids=str)
def test_power_law_is_the_first_order_infidelity_at_the_closed_form_point(point):
    # (4/5)(gamma t_g + kappa t_g/2n) at the unclamped closed-form point, with
    # gamma the linearized rate gamma_phi_0 (1 + y^2/4) of optimal_drive's
    # objective; a clamped point is not the optimum the law assumes, so each
    # point must be unclamped
    cfg = config_from_dict({**point, "refine": False})
    op = resolve_operating_point(cfg)
    assert not op.clamped
    eps_a = uev_to_J(cfg.eps_a_uev)
    t_g, kappa = op.params.t_g, op.params.kappa

    def first_order(gamma):
        return 0.8 * (gamma * t_g + kappa * t_g / (2.0 * cfg.n))

    gamma_0 = dephasing_rate(op.J, 0.0, op.noise, eps_a)
    law = infidelity_power_law(op.noise, op.res, cfg.c_r, cfg.n)
    assert first_order(gamma_0 * (1.0 + op.y**2 / 4.0)) == pytest.approx(law, rel=1e-9)
    # the full drive broadening is not that rate: it reads 8-17% higher here
    assert first_order(op.gamma_phi) > 1.05 * law


def test_power_law_reference_values(res, noise):
    assert infidelity_power_law(noise, res, 0.18, 2) == pytest.approx(
        0.007876108086635194, rel=1e-12)


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
