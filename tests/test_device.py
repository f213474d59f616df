"""Device layer: photon voltage, decay, exchange model, couplings, schedule."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resgate import (
    QubitTuning,
    ResonatorSpec,
    StepPolicy,
    cavity_decay,
    coupling_strengths,
    derive_gate_params,
    exchange_and_derivatives,
    gate_schedule,
    photon_voltage,
)
from resgate.constants import HBAR_J_S, TWO_PI, h_ghz_to_energy_J, uev_to_J
from resgate.errors import DomainError

from conftest import make_params


def test_photon_voltage_reference_value(res):
    # sqrt(hbar * 5000) * 2*pi*6.5e9, frozen once and pinned
    assert photon_voltage(res) == pytest.approx(2.9656255016686044e-05, rel=1e-12)


def test_photon_voltage_scales_with_sqrt_impedance(res):
    hi = ResonatorSpec(res.omega_r, 4.0 * res.Z_r, res.Q)
    assert photon_voltage(hi) == pytest.approx(2.0 * photon_voltage(res), rel=1e-12)


def test_cavity_decay_reference_value(res):
    # omega_r / (2 Q) at the default point
    assert cavity_decay(res) == pytest.approx(1021017.6124166828, rel=1e-12)


def test_exchange_derivatives_are_powers_of_inverse_scale():
    tun = QubitTuning(J0=h_ghz_to_energy_J(0.5), eps_a=uev_to_J(5.0))
    eps = uev_to_J(2.0)
    j, d1, d2, d3 = exchange_and_derivatives(tun, eps)
    assert j == pytest.approx(tun.J0 * math.exp(eps / tun.eps_a), rel=1e-14)
    assert d1 == pytest.approx(j / tun.eps_a, rel=1e-14)
    assert d2 == pytest.approx(j / tun.eps_a**2, rel=1e-14)
    assert d3 == pytest.approx(j / tun.eps_a**3, rel=1e-14)


def test_exchange_rejects_points_outside_trust_window():
    tun = QubitTuning(J0=h_ghz_to_energy_J(0.05), eps_a=uev_to_J(5.0))
    with pytest.raises(DomainError):
        exchange_and_derivatives(tun, 6.5 * tun.eps_a)
    # just inside is fine (and, with this J0, still in the soft band)
    exchange_and_derivatives(tun, 5.9 * tun.eps_a)


def test_exchange_warns_outside_soft_band():
    tun = QubitTuning(J0=h_ghz_to_energy_J(0.010), eps_a=uev_to_J(5.0))
    with pytest.warns(UserWarning, match="trusted band"):
        exchange_and_derivatives(tun, 0.0)


@given(
    g1=st.floats(min_value=1e-28, max_value=1e-23),
    g2=st.floats(min_value=1e-28, max_value=1e-23),
    n=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_schedule_closes_loops_exactly(g1, g2, n):
    delta, t_g = gate_schedule(g1, g2, n)
    assert delta * t_g == pytest.approx(TWO_PI * n, rel=1e-14)
    assert delta == pytest.approx(2.0 * math.sqrt(n * g1 * g2) / HBAR_J_S, rel=1e-14)
    # the phase the schedule is designed to hit: g1 g2 t_g / (2 hbar^2 Delta) = pi/4
    phase = g1 * g2 * t_g / (2.0 * HBAR_J_S**2 * delta)
    assert phase == pytest.approx(math.pi / 4.0, rel=1e-12)


def test_schedule_rejects_bad_inputs():
    with pytest.raises(DomainError):
        gate_schedule(0.0, 1e-25, 2)
    with pytest.raises(DomainError):
        gate_schedule(1e-25, 1e-25, 0)


def test_coupling_strengths_linear_in_drive(res):
    base = dict(J0=h_ghz_to_energy_J(0.5), eps_a=uev_to_J(5.0), c_r=0.18)
    c1 = coupling_strengths(QubitTuning(eps_d=uev_to_J(4.0), **base), res)
    c2 = coupling_strengths(QubitTuning(eps_d=uev_to_J(8.0), **base), res)
    assert c2.g == pytest.approx(2.0 * c1.g, rel=1e-12)
    # chi does not depend on the drive
    assert c2.chi == pytest.approx(c1.chi, rel=1e-12)
    assert c1.chi_over_g == pytest.approx(
        2.0 * 1.602176634e-19 * 0.18 * photon_voltage(res) / uev_to_J(4.0), rel=1e-12
    )


def test_coupling_vanishes_without_drive(res):
    c = coupling_strengths(QubitTuning(J0=h_ghz_to_energy_J(0.5), eps_a=uev_to_J(5.0)), res)
    assert c.g == 0.0
    assert c.chi_over_g is None


def test_derive_gate_params_schedule_consistency(res):
    tun = QubitTuning(
        J0=h_ghz_to_energy_J(0.0852), eps_a=uev_to_J(5.0), eps_d=2.4 * uev_to_J(5.0)
    )
    p = derive_gate_params(res, tun, 2)
    assert p.Delta * p.t_g == pytest.approx(TWO_PI * 2, rel=1e-14)
    assert p.kappa == pytest.approx(cavity_decay(res), rel=1e-14)
    assert p.g1 == p.g2
    # internal-unit properties are plain rescalings
    assert p.delta_rad_ns == pytest.approx(p.Delta * 1e-9, rel=1e-15)
    assert p.t_g_ns == pytest.approx(p.t_g * 1e9, rel=1e-15)
    assert p.g_geom_rad_ns == pytest.approx(p.g1 / HBAR_J_S * 1e-9, rel=1e-14)


def test_derive_gate_params_sideband_sign(res):
    tun = QubitTuning(
        J0=h_ghz_to_energy_J(0.0852), eps_a=uev_to_J(5.0), eps_d=2.4 * uev_to_J(5.0)
    )
    lo = derive_gate_params(res, tun, 2, delta_sign=+1)
    hi = derive_gate_params(res, tun, 2, delta_sign=-1)
    assert hi.Delta == -lo.Delta
    assert hi.t_g == lo.t_g
    with pytest.raises(DomainError):
        derive_gate_params(res, tun, 2, delta_sign=0)


def test_derive_gate_params_geometric_mean_two_tunings(res):
    base = dict(eps_a=uev_to_J(5.0), c_r=0.18)
    t1 = QubitTuning(J0=h_ghz_to_energy_J(0.08), eps_d=uev_to_J(10.0), **base)
    t2 = QubitTuning(J0=h_ghz_to_energy_J(0.16), eps_d=uev_to_J(10.0), **base)
    p = derive_gate_params(res, t1, 2, tuning2=t2)
    assert p.g2 == pytest.approx(2.0 * p.g1, rel=1e-12)
    assert p.Delta == pytest.approx(2.0 * math.sqrt(2 * p.g1 * p.g2) / HBAR_J_S, rel=1e-14)
    assert p.g_geom_rad_ns == pytest.approx(
        math.sqrt(p.g1_rad_ns * p.g2_rad_ns), rel=1e-14
    )


def test_make_params_helper_matches_schedule():
    p = make_params(0.35, 1e-3, n=2)
    assert p.g_geom_rad_ns == pytest.approx(0.35, rel=1e-12)
    assert p.delta_rad_ns * p.t_g_ns == pytest.approx(TWO_PI * 2, rel=1e-12)
    assert p.kappa_per_ns == pytest.approx(1e-3, rel=1e-15)


@pytest.mark.parametrize(
    "fields, name",
    [({"dt_ns": 0.0}, "dt_ns"), ({"dt_ns": -0.02}, "dt_ns"), ({"dt_ns": math.nan}, "dt_ns"),
     ({"dt_ns": math.inf}, "dt_ns"), ({"min_steps": 0}, "min_steps"),
     ({"min_steps": 2.5}, "min_steps"), ({"min_steps": True}, "min_steps"),
     ({"max_steps": 0}, "max_steps"), ({"max_steps": 100.0}, "max_steps"),
     ({"min_steps": 300, "max_steps": 100}, "max_steps")],
    ids=str,
)
def test_step_policy_checks_its_fields(fields, name):
    # a zero or NaN step once failed deep inside resolve, and an inverted
    # clamp silently ran max_steps steps
    with pytest.raises(DomainError, match=name):
        StepPolicy(**fields)


def test_step_policy_resolves_a_valid_grid():
    assert StepPolicy(dt_ns=0.5, min_steps=1, max_steps=1).resolve(7.3) == (1, 7.3)
    assert StepPolicy(min_steps=300, max_steps=300).resolve(7.3) == (300, 7.3 / 300)
    assert StepPolicy().resolve(7.3) == (365, 7.3 / 365)
