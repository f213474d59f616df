"""Analytic channel layer: displacement, phase, b-factor, Kraus families."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from resgate import (
    TwoQubitChannel,
    analytic_avg_fidelity,
    analytic_gate_channel,
    b_factor,
    correlated_dephasing_channel,
    entanglement_fidelity,
    extract_channel,
    gate_target,
    ideal_gate_unitary,
    intrinsic_dephasing_channel,
    textbook_cphase_decomposition,
)
from resgate.channel import _loops
from resgate.errors import DomainError, NonPhysicalChannelError

from conftest import (
    b_simplified,
    kraus_correlated_dephasing,
    kraus_intrinsic_dephasing,
    lab_alpha,
    make_params,
)


# branch k's coupling lam_k = g1 s1 + g2 s2, from the (s1, s2) of |00>, |01>, |10>, |11>
_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _drive_frame_loops(p, t: float) -> np.ndarray:
    """beta_k (1 - e^{-z t}) of channel._loops: the amplitude branch k holds
    in the frame of the drive at time t, started from the vacuum."""
    z, beta = _loops(p)
    return beta * (1.0 - np.exp(-z * t))


def test_alpha_solves_its_ode():
    # each branch's drive-frame amplitude solves
    # d(alpha_k)/dt = -(kappa + i delta) alpha_k - i lam_k/2, alpha_k(0) = 0
    p = make_params(0.4, 0.05, n=2, g2_over_g1=1.5)
    kappa, delta = p.kappa_per_ns, p.delta_rad_ns
    for k, (s1, s2) in enumerate(_SIGNS):
        lam = s1 * p.g1_rad_ns + s2 * p.g2_rad_ns

        def rhs(t, y, lam=lam):
            al = y[0] + 1j * y[1]
            d = -(kappa + 1j * delta) * al - 0.5j * lam
            return [d.real, d.imag]

        sol = solve_ivp(rhs, (0.0, 9.0), [0.0, 0.0], rtol=1e-11, atol=1e-13,
                        dense_output=True)
        for t in (0.7, 3.0, 9.0):
            num = complex(*sol.sol(t))
            assert _drive_frame_loops(p, t)[k] == pytest.approx(num, abs=1e-9)


def test_alpha_vanishes_at_loop_closures():
    # lossless loops close whenever delta t is a multiple of 2 pi
    p = make_params(0.4, 0.0, n=2, g2_over_g1=1.5)
    for k in (1, 2, 5):
        t = 2.0 * math.pi * k / abs(p.delta_rad_ns)
        assert np.abs(_drive_frame_loops(p, t)).max() < 1e-14


def test_drive_frame_displacement_is_rotated_alpha():
    # the drive-frame loop of each branch is lam_k times the lab-frame
    # amplitude per unit coupling, rotated by -i e^{-i delta t}
    p = make_params(0.3, 0.02, n=2, g2_over_g1=1.5, delta_sign=-1)
    delta, t = p.delta_rad_ns, 4.0
    a = complex(lab_alpha(1.0, delta, p.kappa_per_ns, t))
    ad = _drive_frame_loops(p, t)
    for k, (s1, s2) in enumerate(_SIGNS):
        lam = s1 * p.g1_rad_ns + s2 * p.g2_rad_ns
        assert ad[k] == pytest.approx(-1j * np.exp(-1j * delta * t) * lam * a, abs=1e-15)
        assert abs(ad[k]) == pytest.approx(abs(lam * a), abs=1e-15)


def _entangling_phase(p) -> float:
    """ZZ phase by t_g: d(phi)/dt = -g Re A(t), A the drive-frame displacement
    (conftest's lab-frame amplitude rotated by -i e^{-i delta t}), integrated
    by quadrature."""
    g, delta, kappa = p.g_geom_rad_ns, p.delta_rad_ns, p.kappa_per_ns

    def rate(t):
        drive_frame = -1j * cmath.exp(-1j * delta * t) * complex(lab_alpha(g, delta, kappa, t))
        return -g * drive_frame.real

    phi, err = quad(rate, 0.0, p.t_g_ns, limit=400, epsabs=1e-14, epsrel=1e-14)
    assert err < 1e-12
    return phi


def test_entangling_phase_hits_quarter_pi_at_schedule():
    phi = _entangling_phase(make_params(0.35, 0.0, n=2))
    assert phi == pytest.approx(math.pi / 4.0, rel=1e-12)
    # with loss the phase falls short by ~3 kappa^2/delta^2 (relative)
    p2 = make_params(0.35, 1e-3, n=2)
    phi2 = _entangling_phase(p2)
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
        ref = math.exp(-2.0 * abs(lab_alpha(g, delta, kappa, np.array([t]))[0]) ** 2)
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
        bs = b_simplified(g, kappa, n)
        assert abs(b - bs) / bs < 3.0 * kod


def test_ideal_gate_unitary_structure():
    # the gate is passed as its Z diagonal
    u = ideal_gate_unitary(math.pi / 4.0)
    assert u.shape == (4,)
    assert np.allclose(u, np.exp(1j * math.pi / 4.0 * np.array([1, -1, -1, 1])))
    # group property
    u2 = ideal_gate_unitary(0.3) * ideal_gate_unitary(0.5)
    assert np.allclose(u2, ideal_gate_unitary(0.8), atol=1e-14)


def test_textbook_cphase_decomposition_identity():
    u_cz, u_locals = textbook_cphase_decomposition()
    assert np.allclose(u_cz, [1.0, 1.0, 1.0, -1.0], atol=1e-14)
    # the decomposition differs from the bare entangling unitary by the
    # local dressing and one global phase
    recon = u_locals * ideal_gate_unitary(math.pi / 4.0)
    ratio = u_cz / recon
    assert np.allclose(np.abs(ratio), 1.0, atol=1e-14)
    assert np.allclose(ratio, ratio[0], atol=1e-14)


@given(
    b1=st.floats(min_value=0.01, max_value=1.0),
    b2=st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_correlated_dephasing_semigroup(b1, b2):
    # on the paper's Kraus form: the table b**W is a semigroup by construction
    e1 = kraus_correlated_dephasing(b1)
    e2 = kraus_correlated_dephasing(b2)
    lhs = e1.then(e2).coherence
    rhs = kraus_correlated_dephasing(b1 * b2).coherence
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@given(
    g1t=st.floats(min_value=0.0, max_value=2.0),
    g2t=st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=40, deadline=None)
def test_intrinsic_dephasing_semigroup(g1t, g2t):
    # on the four-Kraus form: the table exp(-R t) is a semigroup by construction
    e1 = kraus_intrinsic_dephasing(g1t, g1t, 1.0)
    e2 = kraus_intrinsic_dephasing(g2t, g2t, 1.0)
    lhs = e1.then(e2).coherence
    rhs = kraus_intrinsic_dephasing(g1t + g2t, g1t + g2t, 1.0).coherence
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_dephasing_tables_equal_their_kraus_sums():
    # b**W and exp(-R t) against the paper's three- and four-Kraus sums,
    # over a grid of b, rates and times, the lossless and fully dephased
    # ends included
    for b in np.linspace(0.0, 1.0, 21):
        table = correlated_dephasing_channel(b).coherence
        assert np.abs(table - kraus_correlated_dephasing(b).coherence).max() < 1e-14, b
    rates = (0.0, 1e-3, 0.05, 0.7, 2.0, 30.0)
    for g1 in rates:
        for g2 in rates:
            for t in (0.0, 0.3, 1.0, 7.3):
                table = intrinsic_dephasing_channel(g1, g2, t).coherence
                kraus = kraus_intrinsic_dephasing(g1, g2, t).coherence
                assert np.abs(table - kraus).max() < 1e-14, (g1, g2, t)


def test_analytic_channels_build_no_kraus_sum(monkeypatch):
    # every analytic channel is a product of tables; none goes through from_kraus
    def refuse(cls, ops):
        raise AssertionError("from_kraus called")

    monkeypatch.setattr(TwoQubitChannel, "from_kraus", classmethod(refuse))
    p = make_params(0.35, 1.021e-3, n=2)
    correlated_dephasing_channel(0.7)
    intrinsic_dephasing_channel(0.2, 0.3, 1.5)
    analytic_gate_channel(p, 1.5e6, 1.5e6).validate()


@pytest.mark.parametrize("gamma_1, gamma_2, t", [
    (math.nan, 0.0, 7.3), (0.0, math.inf, 7.3), (-0.1, 0.0, 7.3),
    (0.1, 0.1, math.nan), (0.1, 0.1, math.inf), (0.1, 0.1, -1.0),
])
def test_intrinsic_dephasing_rejects_bad_rates_and_times(gamma_1, gamma_2, t):
    # a NaN rate used to reach the Kraus diagonal check and be reported as
    # a non-diagonal Kraus operator; the rates and the time are named
    with pytest.raises(DomainError, match="rates" if t == 7.3 else "time"):
        intrinsic_dephasing_channel(gamma_1, gamma_2, t)


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
        TwoQubitChannel.from_kraus([np.ones(4), np.ones(2)])
    with pytest.raises(DomainError):
        TwoQubitChannel(np.eye(16))
    with pytest.raises(DomainError):
        TwoQubitChannel(np.ones((4, 3)))


def test_channel_rejects_non_diagonal_kraus_and_unitary():
    # only Z-diagonal maps have a coherence matrix, so each Kraus operator
    # is given as its diagonal, shape (4,); a 4x4 matrix is refused by its
    # shape, whether it is a CNOT, a diagonal with one stray entry or diagonal
    cnot = np.eye(4)[[0, 1, 3, 2]]
    k = np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex)
    k[0, 3] = 1e-9
    for dense in (cnot, k, np.eye(4)):
        with pytest.raises(DomainError, match="diagonal"):
            TwoQubitChannel.from_kraus([dense])
        with pytest.raises(DomainError, match="diagonal"):
            TwoQubitChannel.from_kraus([np.ones(4), dense])


def test_channel_validate_catches_broken_kraus():
    k = [np.ones(4, dtype=complex) * 0.9]
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
    # a skew within the 1e-10 tolerance is rounding, not a defect
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
        choi = np.zeros((16, 16), dtype=complex)
        choi[::5, ::5] = chan.coherence  # row-major pairing: rows 0, 5, 10, 15
        choi_eigs = np.linalg.eigvalsh(choi)
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
    collapsed = correlated_dephasing_channel(b).then(TwoQubitChannel.from_kraus((target,)))
    exact, _ = extract_channel(p, 0.0, 0.0, n_ph=14)
    loss = [1.0 - entanglement_fidelity(c, target, validate=False)
            for c in (collapsed, exact)]
    assert loss[0] < 0.7 * loss[1]


def test_analytic_avg_fidelity_limits():
    assert analytic_avg_fidelity(1.0, 0.0, 10.0) == 1.0
    # fully dephased floor
    assert analytic_avg_fidelity(0.0, 1e9, 10.0) == pytest.approx(0.4, abs=1e-12)
    with pytest.raises(DomainError):
        analytic_avg_fidelity(1.5, 0.0, 1.0)
    # a NaN rate or time raises instead of returning nan
    for gamma_phi, t_g in ((math.nan, 7.3), (0.1, math.nan), (-0.1, 7.3)):
        with pytest.raises(DomainError, match="gamma_phi"):
            analytic_avg_fidelity(0.9, gamma_phi, t_g)


def test_degenerate_drive_guards():
    with pytest.raises(DomainError):
        b_factor(0.3, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("args", [
    (0.5, 1.0, -0.1, 7.0),  # unchecked, b_l = 1 would drop the loss term
    (0.5, 1.0, math.nan, 7.0),
    (0.5, 1.0, math.inf, 7.0),
    (0.5, 1.0, 0.1, -1.0),
    (0.5, 1.0, 0.1, math.inf),
    (0.5, 1.0, 0.1, math.nan),
    (math.nan, 1.0, 0.1, 7.0),
    (0.5, -math.inf, 0.1, 7.0),
    (math.inf, -math.inf, 0.1, 7.0),
])
def test_b_factor_rejects_bad_rates_couplings_and_times(args):
    with pytest.raises(DomainError, match="finite g, delta and finite non-negative kappa"):
        b_factor(*args)
