"""Device layer: photon voltage, decay, exchange model, couplings, schedule."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resgate import (
    NoiseSpec,
    QubitTuning,
    ResonatorSpec,
    cavity_decay,
    coupling_strengths,
    dephasing_rate,
    derive_gate_params,
    gate_schedule,
    infidelity_power_law,
    photon_voltage,
)
from resgate import lindblad
from resgate.constants import E_CHARGE_C, HBAR_J_S, TWO_PI, h_ghz_to_energy_J, uev_to_J
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


def test_exchange_warns_outside_soft_band(res):
    tun = QubitTuning(J0=h_ghz_to_energy_J(0.010), eps_a=uev_to_J(5.0), eps_d=uev_to_J(10.0))
    with pytest.warns(UserWarning, match="trusted band"):
        coupling_strengths(tun, res)


_RES = ResonatorSpec(2e10, 5e3, 2e4)
# (field named in the error, a call that must raise it), keyed by test id
_BAD_INPUTS = {
    "Z_r=0": ("Z_r", lambda: ResonatorSpec(2e10, 0.0, 2e4)),
    "Z_r=nan": ("Z_r", lambda: ResonatorSpec(2e10, math.nan, 2e4)),
    "omega_r=inf": ("omega_r", lambda: ResonatorSpec(math.inf, 5e3, 2e4)),
    "Q=inf": ("Q", lambda: ResonatorSpec(2e10, 5e3, math.inf)),
    "c_r=0": ("c_r", lambda: QubitTuning(J0=1e-25, eps_a=1e-24, c_r=0.0)),
    "J0=inf": ("J0", lambda: QubitTuning(J0=math.inf, eps_a=1e-24)),
    "eps_a=nan": ("eps_a", lambda: QubitTuning(J0=1e-25, eps_a=math.nan)),
    "eps_d=inf": ("eps_d", lambda: QubitTuning(J0=1e-25, eps_a=1e-24, eps_d=math.inf)),
    "S_eps=inf": ("S_eps", lambda: NoiseSpec(S_eps=math.inf)),
    "beta=nan": ("beta", lambda: NoiseSpec(beta=math.nan)),
    "eta=inf": ("eta", lambda: NoiseSpec(eta=math.inf)),
    "rate eps_a=0": ("eps_a", lambda: dephasing_rate(1e-25, 0.0, NoiseSpec(), 0.0)),
    "rate eps_a=inf": ("eps_a", lambda: dephasing_rate(1e-25, 0.0, NoiseSpec(), math.inf)),
    "rate J=inf": ("J", lambda: dephasing_rate(math.inf, 0.0, NoiseSpec(), 1e-24)),
    "rate eps_d=nan": ("eps_d", lambda: dephasing_rate(1e-25, math.nan, NoiseSpec(), 1e-24)),
    "power law c_r=0": ("c_r", lambda: infidelity_power_law(NoiseSpec(), _RES, 0.0, 2)),
}


@pytest.mark.parametrize("field, make", _BAD_INPUTS.values(), ids=_BAD_INPUTS)
def test_device_and_noise_inputs_are_checked_by_name(field, make):
    with pytest.raises(DomainError, match=rf"^{field} must be"):
        make()


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
    # positive couplings whose product underflows to 0 give no detuning
    with pytest.raises(DomainError, match="g1=1e-170, g2=1e-170 J with n=2"):
        gate_schedule(1e-170, 1e-170, 2)


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
    # the curvature at the operating point is J'' = J0/eps_a^2
    d2J = base["J0"] / base["eps_a"] ** 2
    e_cr_v0 = E_CHARGE_C * 0.18 * photon_voltage(res)
    assert c1.g == pytest.approx(0.5 * d2J * e_cr_v0 * uev_to_J(4.0), rel=1e-14)
    assert c1.chi == pytest.approx(d2J * e_cr_v0**2, rel=1e-14)


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


def test_step_policy_resolves_a_valid_grid():
    # every gate time the schedule fixes resolves, under the lab-frame step
    # policy (lindblad._step_grid), to a whole number of steps in
    # [200, 10000] that spans the gate exactly; 7.3 ns is 365 steps of 20 ps
    assert lindblad._step_grid(7.3) == (365, 7.3 / 365)
    for g in (0.01, 0.35, 5.0):
        for n in (1, 2, 3):
            t_g = make_params(g, 1e-3, n=n).t_g_ns
            steps, dt = lindblad._step_grid(t_g)
            assert type(steps) is int and 200 <= steps <= 10000
            assert steps * dt == pytest.approx(t_g, rel=1e-12)
