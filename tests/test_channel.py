"""Analytic channel layer: displacement, phase, b-factor, Kraus families."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from resgate import (
    TwoQubitChannel,
    accumulated_entangling_phase,
    alpha_closed_form,
    analytic_avg_fidelity,
    analytic_gate_channel,
    average_gate_fidelity,
    b_factor,
    b_factor_simplified,
    correlated_dephasing_channel,
    drive_frame_displacement,
    extract_channel,
    gate_target,
    ideal_gate_unitary,
    intrinsic_dephasing_channel,
    textbook_cphase_decomposition,
)
from resgate.errors import DomainError, NonPhysicalChannelError

from conftest import make_params


def test_alpha_solves_its_ode():
    g, delta, kappa = 0.4, 1.1, 0.05

    def rhs(t, y):
        al = y[0] + 1j * y[1]
        d = -kappa * al + (g / 2.0) * np.exp(1j * delta * t)
        return [d.real, d.imag]

    sol = solve_ivp(rhs, (0.0, 9.0), [0.0, 0.0], rtol=1e-11, atol=1e-13, dense_output=True)
    for t in (0.7, 3.0, 9.0):
        num = complex(*sol.sol(t))
        assert alpha_closed_form(g, delta, kappa, t) == pytest.approx(num, abs=1e-9)


def test_alpha_vanishes_at_loop_closures():
    g, delta = 0.4, 1.1
    for k in (1, 2, 5):
        t = 2.0 * math.pi * k / delta
        assert abs(alpha_closed_form(g, delta, 0.0, t)) < 1e-14


def test_drive_frame_displacement_is_rotated_alpha():
    g, delta, kappa, t = 0.3, 0.9, 0.02, 4.0
    a = alpha_closed_form(g, delta, kappa, t)
    ad = drive_frame_displacement(g, delta, kappa, t)
    assert ad == pytest.approx(-1j * np.exp(-1j * delta * t) * a, abs=1e-15)
    assert abs(ad) == pytest.approx(abs(a), abs=1e-15)


def test_entangling_phase_closed_form_vs_quadrature():
    g, delta, kappa = 0.35, 0.9899494936611665, 1.021e-3

    def integrand(t):
        return -g * drive_frame_displacement(g, delta, kappa, t).real

    for t_end in (3.0, 7.0, 12.6953125):
        num, _ = quad(integrand, 0.0, t_end, limit=400)
        assert accumulated_entangling_phase(g, delta, kappa, t_end) == pytest.approx(
            num, abs=1e-10
        )


def test_entangling_phase_hits_quarter_pi_at_schedule():
    p = make_params(0.35, 0.0, n=2)
    phi = accumulated_entangling_phase(
        p.g_geom_rad_ns, p.delta_rad_ns, 0.0, p.t_g_ns
    )
    assert phi == pytest.approx(math.pi / 4.0, rel=1e-12)
    # with loss the phase falls short by ~3 kappa^2/delta^2 (relative)
    p2 = make_params(0.35, 1e-3, n=2)
    phi2 = accumulated_entangling_phase(
        p2.g_geom_rad_ns, p2.delta_rad_ns, p2.kappa_per_ns, p2.t_g_ns
    )
    rel = (math.pi / 4.0 - phi2) / (math.pi / 4.0)
    expected = 3.0 * (p2.kappa_per_ns / p2.delta_rad_ns) ** 2
    assert rel == pytest.approx(expected, rel=0.05)


def test_b_factor_splits_exactly():
    for kappa in (1e-4, 1.021e-3, 8e-3):
        p = make_params(0.35, kappa, n=2)
        b, b_l, b_e = b_factor(p.g_geom_rad_ns, p.delta_rad_ns, kappa, p.t_g_ns)
        assert b == b_l * b_e
        assert 0.0 < b <= 1.0
        assert b_e <= 1.0 and b_l <= 1.0


def test_b_factor_entanglement_term_is_alpha_closed_form():
    # b_factor takes |alpha(t_g)|^2 in scalar cmath; the array form is the reference
    rng = np.random.default_rng(23)
    for k in range(400):
        g = rng.uniform(0.01, 0.7)
        delta = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 5.0)
        kappa = 0.0 if k % 4 == 0 else 10.0 ** rng.uniform(-5.0, -0.5)
        t = rng.uniform(0.0, 40.0)
        _, _, b_e = b_factor(g, delta, kappa, t)
        ref = math.exp(-2.0 * abs(alpha_closed_form(g, delta, kappa, np.array([t]))[0]) ** 2)
        assert abs(b_e - ref) <= 1e-14 * ref, (g, delta, kappa, t)


def test_b_factor_lossless_is_unity():
    p = make_params(0.35, 0.0, n=2)
    b, b_l, b_e = b_factor(p.g_geom_rad_ns, p.delta_rad_ns, 0.0, p.t_g_ns)
    assert b_l == 1.0
    assert b_e == pytest.approx(1.0, abs=1e-14)
    assert b == pytest.approx(1.0, abs=1e-14)


def test_b_factor_simplified_direction():
    # simplified form ignores the residual-entanglement term, so it
    # overestimates b slightly; both agree to leading order in kappa
    g, n = 0.35, 2
    p = make_params(g, 0.0, n=n)
    for kod in (1e-3, 1e-2, 5e-2):
        kappa = kod * p.delta_rad_ns
        b, _, _ = b_factor(g, p.delta_rad_ns, kappa, p.t_g_ns)
        bs = b_factor_simplified(g, kappa, n)
        assert abs(b - bs) / bs < 3.0 * kod


def test_ideal_gate_unitary_structure():
    u = ideal_gate_unitary(math.pi / 4.0)
    assert np.allclose(u, np.diag(np.exp(1j * math.pi / 4.0 * np.array([1, -1, -1, 1]))))
    # group property
    u2 = ideal_gate_unitary(0.3) @ ideal_gate_unitary(0.5)
    assert np.allclose(u2, ideal_gate_unitary(0.8), atol=1e-14)


def test_textbook_cphase_decomposition_identity():
    u_cz, u_locals = textbook_cphase_decomposition()
    assert np.allclose(u_cz, np.diag([1.0, 1.0, 1.0, -1.0]), atol=1e-14)
    # the decomposition differs from the bare entangling unitary by the
    # local dressing and one global phase
    recon = u_locals @ ideal_gate_unitary(math.pi / 4.0)
    ratio = np.diag(u_cz) / np.diag(recon)
    assert np.allclose(np.abs(ratio), 1.0, atol=1e-14)
    assert np.allclose(ratio, ratio[0], atol=1e-14)


@given(
    b1=st.floats(min_value=0.01, max_value=1.0),
    b2=st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_correlated_dephasing_semigroup(b1, b2):
    e1 = correlated_dephasing_channel(b1)
    e2 = correlated_dephasing_channel(b2)
    lhs = e1.then(e2).superop
    rhs = correlated_dephasing_channel(b1 * b2).superop
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@given(
    g1t=st.floats(min_value=0.0, max_value=2.0),
    g2t=st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=40, deadline=None)
def test_intrinsic_dephasing_semigroup(g1t, g2t):
    e1 = intrinsic_dephasing_channel(g1t, g1t, 1.0)
    e2 = intrinsic_dephasing_channel(g2t, g2t, 1.0)
    lhs = e1.then(e2).superop
    rhs = intrinsic_dephasing_channel(g1t + g2t, g1t + g2t, 1.0).superop
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@given(b=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_correlated_dephasing_is_cptp(b):
    chan = correlated_dephasing_channel(b)
    assert chan.completeness_defect() < 1e-12
    assert chan.choi_min_eigenvalue() > -1e-12


def test_correlated_dephasing_coherence_pattern():
    # the channel damps only the "odd-parity vs even-parity" coherences:
    # rho_{00,11} by b^... — check action on a uniform superposition
    b = 0.7
    chan = correlated_dephasing_channel(b)
    plus = np.full((4, 4), 0.25, dtype=complex)
    out = chan.apply(plus)
    # populations untouched
    assert np.allclose(np.diag(out), 0.25, atol=1e-14)
    # opposite-parity coherences (01<->00 etc.) scale by b
    assert out[0, 1] == pytest.approx(0.25 * b, abs=1e-14)
    assert out[2, 3] == pytest.approx(0.25 * b, abs=1e-14)
    # same-parity cross coherence (00<->11) scales by b^4
    assert out[0, 3] == pytest.approx(0.25 * b**4, abs=1e-14)
    assert out[1, 2] == pytest.approx(0.25, abs=1e-14)


def test_channel_rejects_misshapen_input():
    with pytest.raises(DomainError):
        TwoQubitChannel.from_kraus([np.eye(4), np.eye(2)])
    with pytest.raises(DomainError):
        TwoQubitChannel(np.eye(16))
    with pytest.raises(DomainError):
        TwoQubitChannel(np.ones((4, 3)))


def test_channel_rejects_non_diagonal_kraus_and_unitary():
    # only Z-diagonal maps have a coherence matrix; a CNOT has none
    cnot = np.eye(4)[[0, 1, 3, 2]]
    with pytest.raises(DomainError):
        TwoQubitChannel.from_unitary(cnot)
    k = np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex)
    k[0, 3] = 1e-9
    with pytest.raises(DomainError):
        TwoQubitChannel.from_kraus([np.eye(4), k])


def test_channel_validate_catches_broken_kraus():
    k = [np.eye(4, dtype=complex) * 0.9]
    chan = TwoQubitChannel.from_kraus(k)
    with pytest.raises(NonPhysicalChannelError):
        chan.validate()
    # trace preserving (C_ii = 1) but not positive: |C_03| > 1
    c = np.eye(4, dtype=complex)
    c[0, 3] = c[3, 0] = 1.2
    with pytest.raises(NonPhysicalChannelError) as err:
        TwoQubitChannel(c).validate()
    assert err.value.tp_defect == 0.0
    assert err.value.choi_eigenvalues[0] == pytest.approx(-0.2, abs=1e-14)
    # positive but not trace preserving
    with pytest.raises(NonPhysicalChannelError) as err:
        TwoQubitChannel(np.diag([1.0, 1.0, 1.0, 1.0 + 1e-9])).validate()
    assert err.value.tp_defect == pytest.approx(1e-9, rel=1e-6)


def test_channel_validate_rejects_non_hermitian_coherence():
    # C = I with C_01 = 0.5i: trace preserving and its Hermitian part is
    # positive (eigenvalues >= 0.75), yet it maps the state |0+><0+| to a
    # non-Hermitian matrix, so it is not a CP map
    c = np.eye(4, dtype=complex)
    c[0, 1] = 0.5j
    chan = TwoQubitChannel(c)
    plus = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
    out = chan.apply(np.outer(plus, plus))
    assert np.abs(out - out.conj().T).max() == pytest.approx(0.25)
    with pytest.raises(NonPhysicalChannelError, match="non-Hermitian") as err:
        chan.validate()
    assert err.value.tp_defect == 0.0
    assert err.value.choi_eigenvalues[0] == pytest.approx(0.75, abs=1e-14)
    # a skew within tp_tol is rounding, not a defect
    c[0, 1], c[1, 0] = 0.5j, -0.5j + 1e-12
    TwoQubitChannel(c).validate()


def test_coherence_cp_check_matches_choi_spectrum():
    # the Choi matrix of rho -> C o rho is C on the |ii> span: its spectrum
    # is eig(C) plus 12 zeros, so the 4x4 verdict is the 16x16 one
    rng = np.random.default_rng(11)
    verdicts = []
    for rank in (1, 2, 3, 4) * 5:
        v = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        np.fill_diagonal(h, 0.0)
        chan = TwoQubitChannel(v @ v.conj().T + rng.uniform(0.0, 0.3) * h)
        choi_eigs = np.linalg.eigvalsh(chan.choi_matrix())
        eigs = np.linalg.eigvalsh(chan.coherence)
        assert np.allclose(choi_eigs, np.sort(np.concatenate([eigs, np.zeros(12)])), atol=1e-12)
        assert min(chan.choi_min_eigenvalue(), 0.0) == pytest.approx(choi_eigs[0], abs=1e-12)
        try:
            chan.validate()
            verdicts.append(False)
        except NonPhysicalChannelError as exc:
            assert np.allclose(exc.choi_eigenvalues, eigs, atol=1e-12)
            verdicts.append(True)
        assert verdicts[-1] == (choi_eigs[0] < -1e-8)
    assert any(verdicts) and not all(verdicts)


def test_analytic_gate_channel_composition():
    p = make_params(0.35, 1.021e-3, n=2)
    gamma = 1.5473e-3 * 1e9  # 1/s
    chan = analytic_gate_channel(p, gamma, gamma)
    assert chan.completeness_defect() < 1e-12
    # sideband choice flips the sign of the unitary phase but not fidelity
    p_neg = make_params(0.35, 1.021e-3, n=2, delta_sign=-1)
    chan_neg = analytic_gate_channel(p_neg, gamma, gamma)
    rho = np.full((4, 4), 0.25, dtype=complex)
    out_pos = chan.apply(rho)
    out_neg = chan_neg.apply(rho)
    assert out_neg[0, 1] == pytest.approx(np.conj(out_pos[0, 1]), abs=1e-14)


def test_analytic_gate_channel_rejects_unequal_couplings():
    # one b-factor at g = sqrt(g1 g2) misses most of the loss of the branch
    # driven at g1 + g2: at g2/g1 = 3 its 1 - F_e is ~0.6 of the exact
    # channel's, so the analytic channel refuses and names the exact model
    p = make_params(0.7, 5e-2, n=2, g2_over_g1=3.0)
    with pytest.raises(DomainError, match="extract_channel"):
        analytic_gate_channel(p, 0.0, 0.0)
    target = gate_target(p)
    b, _, _ = b_factor(p.g_geom_rad_ns, p.delta_rad_ns, p.kappa_per_ns, p.t_g_ns)
    collapsed = correlated_dephasing_channel(b).then(TwoQubitChannel.from_unitary(target))
    exact, _ = extract_channel(p, 0.0, 0.0, n_ph=14)
    loss = [1.0 - average_gate_fidelity(c, target, validate=False).f_e
            for c in (collapsed, exact)]
    assert loss[0] < 0.7 * loss[1]


def test_analytic_avg_fidelity_limits():
    assert analytic_avg_fidelity(1.0, 0.0, 10.0) == 1.0
    # fully dephased floor
    assert analytic_avg_fidelity(0.0, 1e9, 10.0) == pytest.approx(0.4, abs=1e-12)
    with pytest.raises(DomainError):
        analytic_avg_fidelity(1.5, 0.0, 1.0)


def test_degenerate_drive_guards():
    with pytest.raises(DomainError):
        alpha_closed_form(0.3, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        b_factor(0.3, 0.0, 0.0, 1.0)
