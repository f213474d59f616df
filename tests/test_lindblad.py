"""Master-equation solver: Fock tools, RK4 evolution, channel extraction."""

from __future__ import annotations

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import resgate
from resgate import (
    CavityPrep,
    analytic_gate_channel,
    average_gate_fidelity,
    choose_n_ph,
    extract_channel,
    ideal_gate_unitary,
    polaron_residual,
    trajectory_rows,
)
from resgate import lindblad
from resgate.channel import _loops
from resgate.errors import DomainError

from conftest import lab_alpha, make_params
from rk4_reference import (
    CompositeState,
    annihilation,
    build_hamiltonian,
    coherent_ket,
    coherent_rho,
    evolve_rk4,
    lindblad_rhs,
    vacuum_rho,
)


def test_fock_coherent_state_statistics():
    # the kets every start of the engines is built from: normalized, with
    # the coherent state's photon number and amplitude, the vacuum exactly
    # |0>, and each the reference's ket from its definition
    beta = 0.9 - 0.4j
    ket, vac = lindblad._coherent_kets(20, [beta, 0.0])
    a = annihilation(20)
    assert np.linalg.norm(ket) == pytest.approx(1.0, abs=1e-12)
    assert np.vdot(a @ ket, a @ ket).real == pytest.approx(abs(beta) ** 2, rel=1e-6)
    assert np.vdot(ket, a @ ket) == pytest.approx(beta, abs=1e-6)
    assert np.array_equal(vac, np.eye(20)[0])
    assert np.abs(ket - coherent_ket(20, beta)).max() < 1e-15


def test_step_policy_clamps():
    # the lab-frame step policy (_step_grid): 20 ps steps, at least 200 and
    # at most 10000
    steps, dt = lindblad._step_grid(1.0)  # would be 50 raw steps
    assert steps == 200
    assert dt == pytest.approx(0.005)
    steps, dt = lindblad._step_grid(1000.0)  # would be 50000 raw steps
    assert steps == 10000
    assert dt == pytest.approx(0.1)
    steps, dt = lindblad._step_grid(10.0)
    assert steps == 500
    assert dt == pytest.approx(0.02)
    with pytest.raises(DomainError):
        lindblad._step_grid(0.0)


def test_hamiltonian_structure():
    p = make_params(0.35, 1e-3, n=2)
    h = build_hamiltonian(p, n_ph=5)
    assert h.shape == (20, 20)
    assert np.allclose(h, h.conj().T, atol=1e-14)
    # the drive conserves qubit populations: H commutes with both sigma_z's
    eye_f = np.eye(5)
    z = np.diag([1.0, -1.0])
    z1 = np.kron(np.kron(z, np.eye(2)), eye_f)
    z2 = np.kron(np.kron(np.eye(2), z), eye_f)
    assert np.max(np.abs(h @ z1 - z1 @ h)) < 1e-14
    assert np.max(np.abs(h @ z2 - z2 @ h)) < 1e-14


def test_cavity_decay_rates():
    # nearly decoupled qubits: photon number decays at 2*kappa, trace stays 1
    p = make_params(1e-8, 0.0, n=2)
    kappa = 0.3
    qubit = np.zeros((4, 4), dtype=complex)
    qubit[0, 0] = 1.0
    rho0 = CompositeState.from_parts(qubit, coherent_rho(10, 1.2))
    h = build_hamiltonian(p, n_ph=10)
    final, diag = evolve_rk4(rho0, h, kappa, 0.0, 0.0, 3.0, 200)
    assert not diag.failed
    assert final.trace == pytest.approx(1.0, abs=1e-12)
    # d<n>/dt = -2 kappa <n> holds exactly, also on the truncated space;
    # start from the state's own (truncation-renormalized) photon number
    assert final.mean_photon == pytest.approx(
        rho0.mean_photon * math.exp(-2.0 * kappa * 3.0), rel=1e-8
    )


def test_qubit_dephasing_rate_convention():
    # gamma enters as gamma/2 D[sigma_z], so a coherence decays at exactly
    # gamma — the rate is 1/T2, not 2/T2
    p = make_params(1e-8, 0.0, n=2)
    h = build_hamiltonian(p, n_ph=3)
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    ground = np.array([[1, 0], [0, 0]], dtype=complex)
    rho0 = CompositeState.from_parts(np.kron(plus, ground), vacuum_rho(3))
    gamma_1 = 0.2
    final, diag = evolve_rk4(rho0, h, 0.0, gamma_1, 0.0, 2.0, 200)
    coh = final.qubit_rho()[0, 2]
    assert abs(coh) == pytest.approx(0.5 * math.exp(-gamma_1 * 2.0), rel=1e-9)
    # dephasing never moves populations
    assert final.qubit_rho()[0, 0].real == pytest.approx(0.5, abs=1e-10)
    assert not diag.failed


def test_rk4_self_convergence_order():
    p = make_params(0.7, 5e-3, n=2)
    qubit = np.full((4, 4), 0.25, dtype=complex)
    rho0 = CompositeState.from_parts(qubit, vacuum_rho(4))
    h = build_hamiltonian(p, n_ph=4)

    def run(dt):
        final, _ = evolve_rk4(rho0, h, 5e-3, 2e-3, 2e-3, 4.0, round(4.0 / dt))
        return final.matrix

    ref = run(0.005)
    err_coarse = np.max(np.abs(run(0.08) - ref))
    err_fine = np.max(np.abs(run(0.04) - ref))
    ratio = err_coarse / err_fine
    assert 12.0 < ratio < 20.0


def test_lindblad_rhs_traceless():
    p = make_params(0.35, 1e-3, n=2)
    h = build_hamiltonian(p, n_ph=4)
    rng = np.random.default_rng(5)
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    d = lindblad_rhs(rho, h, 1e-3, 2e-4, 3e-4)
    assert abs(np.trace(d)) < 1e-14
    assert np.allclose(d, d.conj().T, atol=1e-13)


def test_choose_n_ph_behaviour():
    assert choose_n_ph(0.0) == 6
    assert choose_n_ph(1.0 / math.sqrt(2.0)) == 8
    assert choose_n_ph(0.05) == 6  # floor dominates for tiny amplitudes
    sizes = [choose_n_ph(a) for a in (0.3, 0.8, 1.5, 2.5)]
    assert sizes == sorted(sizes)


def test_extract_channel_matches_analytic_sample():
    p = make_params(0.7, 5e-3, n=2)
    gamma = 1.5473e-3 * 1e9  # 1/s
    chan, diag = extract_channel(p, gamma, gamma, n_ph=7)
    assert not diag.failed
    chan.validate()
    target = ideal_gate_unitary(math.pi / 4.0)
    f_num = average_gate_fidelity(chan, target, validate=False)
    f_ana = average_gate_fidelity(analytic_gate_channel(p, gamma, gamma), target)
    assert abs(f_num - f_ana) < 1e-3


def _rk4_reference_coherence(p, gamma_1, gamma_2, cav):
    """Channel from one RK4 run of |++> (x) cav: C_ij = 4 Tr_cav of block ij,
    and the run's largest guard-level population.

    Two RK4 steps per lab-frame grid step, ~10 ps each, keep RK4's own error
    near 1e-7; at the grid's 20 ps it reaches ~2e-6 on displaced starts.
    """
    n_ph = cav.shape[0]
    plus = np.full((4, 4), 0.25, dtype=complex)
    final, diag = evolve_rk4(
        CompositeState.from_parts(plus, cav), build_hamiltonian(p, n_ph),
        p.kappa_per_ns, gamma_1 * 1e-9, gamma_2 * 1e-9, p.t_g_ns,
        2 * lindblad._step_grid(p.t_g_ns)[0],
    )
    return 4.0 * final.qubit_rho(), diag.max_top_level_pop


@pytest.mark.parametrize(
    "p, gamma_1, gamma_2, alpha",
    [
        (make_params(0.7, 5e-3), 0.0, 0.0, None),
        (make_params(0.7, 5e-3, g2_over_g1=1.5), 0.0, 0.0, None),
        (make_params(0.7, 5e-3, g2_over_g1=3.0), 1e6, 1e6, None),
        (make_params(0.7, 5e-3, delta_sign=-1), 1e6, 1e6, None),
        (make_params(0.7, 5e-3, n=3), 1e6, 1e6, None),
        (make_params(0.7, 5e-3), 2e6, 0.5e6, None),
        (make_params(0.7, 5e-3), 1e6, 1e6, 0.3 + 0.4j),
    ],
    ids=["equal", "g2=1.5g1", "g2=3g1", "lower-sideband", "n=3", "gamma1!=gamma2",
         "coherent"],
)
def test_extract_channel_matches_rk4_reference(p, gamma_1, gamma_2, alpha):
    # the engine at a pinned size (7 levels, 10 for the coherent start) in
    # its displaced frame, against RK4 on the whole composite state in the
    # lab frame at a size its own guard level certifies (< 1e-8 over the
    # run), so neither side's truncation shows at the 1e-6 bound
    n_ph, n_ref = (7, 11) if alpha is None else (10, 13)
    prep = CavityPrep.vacuum() if alpha is None else CavityPrep.coherent(alpha)
    chan, diag = extract_channel(p, gamma_1, gamma_2, prep, n_ph=n_ph)
    assert not diag.failed
    ref, ref_top = _rk4_reference_coherence(p, gamma_1, gamma_2,
                                            coherent_rho(n_ref, alpha or 0.0))
    assert ref_top < 1e-8
    assert np.max(np.abs(chan.coherence - ref)) < 1e-6


_BRANCHES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _dense_block_generator(p, n_ph, lam_i, lam_j, shift=0j):
    """L(lam_i, lam_j) of the block r' = D(b_i)^dag r D(b_j), b = shift lam,
    from its operator form: r' -> -i(H_i r' - r' H_j)
    + kappa(2 A_i r' A_j^dag - A_i^dag A_i r' - r' A_j^dag A_j), with A = a + b
    and H = Delta A^dag A + (lam/2)(A + A^dag), as a matrix on row-major
    vec(r'). Shift 0 is the lab frame."""
    a, eye = annihilation(n_ph), np.eye(n_ph)

    def ops(lam):
        big_a = a + shift * lam * eye
        return big_a, big_a.conj().T @ big_a, (
            p.delta_rad_ns * big_a.conj().T @ big_a + 0.5 * lam * (big_a + big_a.conj().T))

    (a_i, n_i, h_i), (a_j, n_j, h_j) = ops(lam_i), ops(lam_j)
    return (-1j * (np.kron(h_i, eye) - np.kron(eye, h_j.T))
            + p.kappa_per_ns * (2.0 * np.kron(a_i, a_j.conj()) - np.kron(n_i, eye)
                                - np.kron(eye, n_j.T)))


def _branch_lams(p):
    return [p.g1_rad_ns * s1 + p.g2_rad_ns * s2 for s1, s2 in _BRANCHES]


def _steady_shift(p):
    """beta_i / lam_i = -i / (2 (i Delta + kappa)), the same for every branch:
    the shift that centres each branch's displaced frame on its steady state."""
    return -0.5j / complex(p.kappa_per_ns, p.delta_rad_ns)


def _steady_states(p):
    """beta_i = -i lam_i / (2 (i Delta + kappa)), the steady state of branch i."""
    return _steady_shift(p) * np.array(_branch_lams(p))


def test_loops_are_the_branch_steady_states():
    # channel._loops forms z and the branch steady states once for every
    # reader (gate target, displaced frame, readout, thermal kernel, polaron
    # check); its beta is the reference's, bit for bit
    for g2_over_g1, delta_sign, kappa in ((1.0, 1, 5e-3), (1.5, -1, 5e-2), (3.0, 1, 0.0)):
        p = make_params(0.7, kappa, n=2, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
        z, beta = _loops(p)
        assert z == complex(p.kappa_per_ns, p.delta_rad_ns)
        assert np.array_equal(beta, _steady_states(p))


def _block_classes(lam):
    """For each block (i, j) of lindblad._UPPER: ((lam_a, lam_b), flip, conj),
    the traces of block (i, j) being those of a block with amplitudes
    (lam_a, lam_b) from the start at -alpha if flip, conjugated if conj.

    Parity Pi = (-1)^n is exact on the truncated space (Pi a Pi = -a), so
    Pi L(lam_i, lam_j)[r] Pi = L(-lam_i, -lam_j)[Pi r Pi], and Pi|alpha> =
    |-alpha>; from a Hermitian start r_ji = r_ij^dag. So one propagator per
    class serves blocks (lam_i, lam_j), (-lam_i, -lam_j) and their swaps,
    in the lab frame and in any frame shift lam (b_i = shift lam_i) alike."""
    classes = []
    for i, j in lindblad._UPPER:
        li, lj = lam[i], lam[j]
        seen = {key for key, _, _ in classes}
        for key, flip, conj in (((li, lj), False, False), ((-li, -lj), True, False),
                                ((lj, li), False, True), ((-lj, -li), True, True)):
            if key in seen:
                break
        else:
            key, flip, conj = (li, lj), False, False
        classes.append((key, flip, conj))
    return classes


def _dense_displacement(n_ph, delta, room=40):
    """<m|D(delta)|n> on n_ph levels, from expm in a space room levels larger."""
    from scipy.linalg import expm

    a = annihilation(n_ph + room)
    return expm(delta * a.conj().T - np.conj(delta) * a)[:n_ph, :n_ph]


def _displaced_start(n_ph, alpha, b_i, b_j):
    """psi_i psi_j^dag, psi = exp(i Im(b^* alpha)) |alpha - b>: the block start
    D(b_i)^dag |alpha><alpha| D(b_j), each ket truncated and renormalized."""
    psi_i, psi_j = (cmath.exp(1j * (b.conjugate() * alpha).imag) * coherent_ket(n_ph, alpha - b)
                    for b in (b_i, b_j))
    return np.outer(psi_i, psi_j.conj())


def _dense_coherence(p, gamma_1, gamma_2, n_ph, alphas, shift=0j):
    """(len(alphas), 4, 4) coherence matrices, one per cavity start, with
    each block on or above the diagonal propagated by its own dense
    expm(L(lam_i, lam_j) t_g) from its own start in the frame of shift: no
    stepping and no closed form used. The trace is read as
    Tr[r' D(b_j)^dag D(b_i)], the displacements taken from a larger space.
    Neither the propagator nor the readout depends on the start, and the
    blocks of one class of _block_classes share both, so each is computed
    once, from the starts at +-alpha."""
    from scipy.linalg import expm

    coh = np.zeros((len(alphas), 4, 4), dtype=complex)
    traces = {}
    for (i, j), (key, flip, conj) in zip(lindblad._UPPER, _block_classes(_branch_lams(p))):
        if key not in traces:
            b_i, b_j = shift * key[0], shift * key[1]
            block = expm(_dense_block_generator(p, n_ph, *key, shift) * p.t_g_ns)
            starts = np.array([_displaced_start(n_ph, sign * alpha, b_i, b_j).reshape(-1)
                               for sign in (1, -1) for alpha in alphas])
            finals = (starts @ block.T).reshape(2, len(alphas), n_ph, n_ph)
            frame = (_dense_displacement(n_ph + 40, -b_j)
                     @ _dense_displacement(n_ph + 40, b_i))[:n_ph, :n_ph]
            traces[key] = np.einsum("samn,nm->sa", finals, frame)
        trace = traces[key][int(flip)]
        rate = 1e-9 * sum(g for g, si, sj in zip((gamma_1, gamma_2), _BRANCHES[i],
                                                  _BRANCHES[j]) if si != sj)
        coh[:, i, j] = math.exp(-rate * p.t_g_ns) * (trace.conj() if conj else trace)
        coh[:, j, i] = np.conj(coh[:, i, j])
    return coh


@given(
    g2_over_g1=st.floats(min_value=0.3, max_value=3.0),
    delta_sign=st.sampled_from([1, -1]),
    n=st.integers(min_value=1, max_value=4),
    gamma_1=st.floats(min_value=0.0, max_value=3e6),
    gamma_2=st.floats(min_value=0.0, max_value=3e6),
    alpha=st.one_of(
        st.none(),
        st.tuples(st.sampled_from([1, -1]), st.floats(min_value=0.05, max_value=0.8),
                  st.sampled_from([1, -1]), st.floats(min_value=0.05, max_value=0.8)),
    ),
    n_ph=st.integers(min_value=4, max_value=7),
)
@settings(max_examples=30, deadline=None)
def test_extract_channel_orbit_rule_matches_dense_blocks(
    g2_over_g1, delta_sign, n, gamma_1, gamma_2, alpha, n_ph
):
    # every block on and above the diagonal against its own dense expm over
    # the whole gate in the displaced frame extract_channel steps in, from
    # its own displaced start, for vacuum and for coherent starts off both
    # axes; the trace read back through dense displacements
    assume(gamma_1 != gamma_2)
    p = make_params(0.7, 5e-3, n=n, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    beta = 0j if alpha is None else complex(alpha[0] * alpha[1], alpha[2] * alpha[3])
    prep = CavityPrep.vacuum() if alpha is None else CavityPrep.coherent(beta)
    chan, _ = extract_channel(p, gamma_1, gamma_2, prep, n_ph=n_ph)
    (ref,) = _dense_coherence(p, gamma_1, gamma_2, n_ph, [beta], _steady_shift(p))
    assert np.max(np.abs(chan.coherence - ref)) < 1e-12


@pytest.mark.parametrize("g2_over_g1", [1.0, 1.5])
def test_extract_channel_guard_reads_mirrored_branches(g2_over_g1):
    # this start sends |11>, the branch mirrored from |00>, far up the
    # ladder of its displaced frame (|alpha - beta_3| ~ 1
    # against |alpha - beta_0| ~ 0.5: ~6e-5 in the guard level against
    # ~2e-8): the guard maximum must be the dense per-branch stepping maximum
    # in that frame, each branch from its own displaced start
    from scipy.linalg import expm

    p = make_params(0.7, 5e-3, n=2, g2_over_g1=g2_over_g1)
    alpha, n_ph, shift = -0.5 + 0.5j, 8, _steady_shift(p)
    steps, dt = lindblad._step_grid(p.t_g_ns)
    worst = []
    for lam in _branch_lams(p):
        prop = expm(_dense_block_generator(p, n_ph, lam, lam, shift) * dt)
        vec, top = _displaced_start(n_ph, alpha, shift * lam, shift * lam).reshape(-1), 0.0
        for step in range(steps + 1):
            if step:
                vec = prop @ vec
            top = max(top, vec[-1].real)
        worst.append(top)
    assert int(np.argmax(worst)) == 3 and worst[3] > 100 * worst[0]
    _, diag = extract_channel(p, 0.0, 0.0, CavityPrep.coherent(alpha), n_ph=n_ph)
    assert diag.max_top_level_pop == pytest.approx(worst[3], rel=1e-12)


@pytest.mark.parametrize("g2_over_g1", [1.0, 1.5])
def test_channel_paths_call_expm_zero_times(monkeypatch, g2_over_g1):
    # extract_channel carries each block over the gate in closed form: no
    # propagator is built, from vacuum, coherent or thermal starts, while
    # the lab-frame trajectory builds the ten block propagators once, as one
    # stack, and reads its residual column by overlap with coherent kets
    p = make_params(0.7, 5e-3, n=2, g2_over_g1=g2_over_g1)
    args = []
    real_expm = lindblad._expm
    monkeypatch.setattr(lindblad, "_expm", lambda m: args.append(m) or real_expm(m))
    for prep in (CavityPrep.vacuum(), CavityPrep.coherent(0.3 - 0.2j)):
        extract_channel(p, 1e6, 2e6, prep, n_ph=6)
    extract_channel(p, 1e6, 2e6, CavityPrep.thermal(0.2))
    assert args == []
    rows = trajectory_rows(p, 0.0, 0.0, n_ph=6)
    assert len(rows) > 2
    assert [m.shape for m in args] == [(10, 36, 36)]


@given(
    g2_over_g1=st.one_of(st.just(1.0), st.floats(min_value=0.3, max_value=3.0)),
    delta_sign=st.sampled_from([1, -1]),
    kappa=st.floats(min_value=1e-3, max_value=5e-2),
    n_ph=st.integers(min_value=4, max_value=10),
)
@settings(max_examples=12, deadline=None)
def test_step_propagator_matches_expm(g2_over_g1, delta_sign, kappa, n_ph):
    # every block's lab-frame propagator, as _lab_blocks builds the stack,
    # against the complex expm of the dense generator; its first grid step
    # applies exactly that stack to the cavity start of every block
    from scipy.linalg import expm

    p = make_params(0.7, kappa, n=2, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    _, dt = lindblad._step_grid(p.t_g_ns)
    lam = _branch_lams(p)
    alpha = 0.3 + 0.4j
    props = []
    real_expm = lindblad._expm
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lindblad, "_expm", lambda m: props.append(real_expm(m)) or props[-1])
        start, stepped = lindblad._lab_blocks(p, alpha, n_ph, dt, 1)
        start, stepped = start.copy(), stepped.copy()
    assert len(props) == 1 and props[0].shape == (len(lindblad._UPPER), n_ph**2, n_ph**2)
    cav = _displaced_start(n_ph, alpha, 0j, 0j)
    for u, (i, j) in enumerate(lindblad._UPPER):
        ref = expm(_dense_block_generator(p, n_ph, lam[i], lam[j]) * dt)
        assert np.abs(props[0][u] - ref).max() < 1e-13
        assert np.abs(start[u] - cav).max() < 1e-15
        assert np.abs(stepped[u].reshape(-1) - ref @ cav.reshape(-1)).max() < 1e-13


@pytest.mark.parametrize("n_ph", [4, 7, 10])
@pytest.mark.parametrize("delta_sign", [1, -1])
@pytest.mark.parametrize("g2_over_g1", [1.0, 1.5, 3.0], ids=["1.0", "1.5", "3.0"])
def test_real_stepping_matches_complex_stepping(g2_over_g1, delta_sign, n_ph):
    # the lab-frame stepping trajectory_rows runs (one batched propagator
    # stack, one batched matmul per grid step, every block from the cavity
    # start) against each block stepped on its own with its own dense
    # complex expm(L dt): at every one of the first 12 steps, from vacuum
    # and from coherent starts, on both sidebands
    from scipy.linalg import expm

    p = make_params(0.7, 5e-3, n=2, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    _, dt = lindblad._step_grid(p.t_g_ns)
    lam = _branch_lams(p)
    props = np.array([expm(_dense_block_generator(p, n_ph, lam[i], lam[j]) * dt)
                      for i, j in lindblad._UPPER])
    steps = 12
    for alpha in (0j, 0.5 - 0.4j, -0.2 + 0.6j):
        vec = np.array([_displaced_start(n_ph, alpha, 0j, 0j).reshape(-1, 1)
                        for _ in lindblad._UPPER])
        seen = 0
        for step, blocks in enumerate(lindblad._lab_blocks(p, alpha, n_ph, dt, steps)):
            if step:
                vec = props @ vec
            seen += 1
            assert blocks.shape == (len(lindblad._UPPER), n_ph, n_ph)
            assert np.abs(blocks.reshape(vec.shape) - vec).max() < 1e-12
        assert seen == steps + 1


def test_generator_keeps_every_term_of_the_frame():
    # the lab generator is the operator form's, one pair or a stack; at the
    # steady shift the dense displaced generator of every block is exactly
    # L0 + c_a a r' + c_b r' a^dag + s with _frame_terms' coefficients, so
    # the closed form drops no term: no entry raises the ladder, and a
    # diagonal block sees the undriven damped oscillator L0 alone
    p = make_params(0.7, 5e-3, n=2, g2_over_g1=1.5)
    n_ph, lam = 6, _branch_lams(p)
    lab = lindblad._block_generator(p, n_ph)
    assert np.abs(lab(np.array(lam), np.array(lam[::-1]))
                  - np.array([lab(li, lj) for li, lj in zip(lam, lam[::-1])])).max() < 1e-15
    for li in lam:
        for lj in lam:
            ref = _dense_block_generator(p, n_ph, li, lj)
            assert np.abs(lab(li, lj) - ref).max() <= 1e-15 * np.abs(ref).max()

    shift = _steady_shift(p)
    _, beta, c_a, scalar = lindblad._frame_terms(p)
    assert np.abs(beta - shift * np.array(lam)).max() == 0.0
    a, eye = annihilation(n_ph), np.eye(n_ph)
    idle = _dense_block_generator(p, n_ph, 0.0, 0.0)
    level = np.add.outer(np.arange(n_ph), np.arange(n_ph)).ravel()  # m + n of vec(r')
    raising = level[:, None] > level[None, :]  # entries that move r' up the ladder
    for u, (i, j) in enumerate(lindblad._UPPER):
        displaced = _dense_block_generator(p, n_ph, lam[i], lam[j], shift)
        pieces = (idle + c_a[u] * np.kron(a, eye) - c_a[u].conjugate() * np.kron(eye, a)
                  + scalar[u] * np.eye(n_ph * n_ph))
        assert np.abs(displaced - pieces).max() < 1e-14
        assert np.abs(displaced[raising]).max() < 1e-14
        if i == j:
            assert c_a[u] == 0.0 and scalar[u] == 0.0


def test_displaced_starts_are_the_displaced_cavity():
    # at a size where truncation cannot show, each block the closed form
    # starts from, psi_i psi_j^dag of the branch kets, is
    # D(beta_i)^dag |alpha><alpha| D(beta_j) with both displacements dense:
    # the starts' phases, for every block
    p = make_params(0.7, 5e-3, n=2, g2_over_g1=1.5)
    n_ph, big = 14, 50
    lam, shift = _branch_lams(p), _steady_shift(p)
    for alpha in (0.5 - 0.4j, 0j):
        psi = lindblad._branch_kets(lindblad._frame_terms(p)[1], alpha, n_ph)
        blocks = np.einsum("up,uq->upq", psi[lindblad._UPPER_I], psi[lindblad._UPPER_J].conj())
        cav = coherent_rho(big, alpha)
        for k, (i, j) in enumerate(lindblad._UPPER):
            ref = (_dense_displacement(big, shift * lam[i]).conj().T @ cav
                   @ _dense_displacement(big, shift * lam[j]))[:n_ph, :n_ph]
            assert np.abs(blocks[k] - ref).max() < 1e-10


@given(
    g2_over_g1=st.floats(min_value=0.3, max_value=3.0),
    delta_sign=st.sampled_from([1, -1]),
    kappa=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5e-2)),
    alpha=st.complex_numbers(max_magnitude=1.5),
)
@settings(max_examples=40, deadline=None)
def test_reach_is_the_largest_branch_amplitude(g2_over_g1, delta_sign, kappa, alpha):
    # lab frame (trajectory_rows, polaron_residual): _reach bounds
    # |alpha_i(t)| = |alpha e^{-(i Delta + kappa) t} + lam_i alpha_unit(t)|
    # over the branches on a fine grid of the first two drive periods, and
    # at kappa = 0 (a closed circle) equals the grid's maximum; it never
    # exceeds the old rule |alpha| + loop radius. Displaced frame
    # (extract_channel): |alpha_i(t) - beta_i| on the same grid peaks at
    # t = 0, at max_i |alpha - beta_i|, the displaced frame's size rule; that
    # never exceeds the lab reach, so no Fock size grows
    p = make_params(0.7, kappa, n=2, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    delta, lam = p.delta_rad_ns, np.array(_branch_lams(p))
    t = np.linspace(0.0, 2 * 2 * math.pi / abs(delta), 2 * 2**16, endpoint=False)
    # the drive-frame loop per unit coupling: the lab frame's rotated by -i e^{-i delta t}
    unit = -1j * np.exp(-1j * delta * t) * lab_alpha(1.0, delta, kappa, t)
    amps = alpha * np.exp(-(1j * delta + kappa) * t) + lam[:, None] * unit
    grid_max = float(np.abs(amps).max())
    reach = lindblad._reach(p, alpha)
    assert grid_max <= reach * (1 + 1e-12)
    if kappa == 0.0:
        assert reach <= grid_max * (1 + 1e-9)
    radius = lindblad._reach(p)
    assert radius == (abs(p.g1_rad_ns) + abs(p.g2_rad_ns)) / math.hypot(delta, kappa)
    assert reach <= (abs(alpha) + radius) * (1 + 1e-15)
    assert choose_n_ph(reach) <= choose_n_ph(abs(alpha) + radius)

    beta = _steady_states(p)
    held = np.abs(amps - beta[:, None])
    displaced = float(np.abs(alpha - beta).max())
    assert held.max() == pytest.approx(held[:, 0].max(), rel=1e-12)
    assert held.max() <= displaced * (1 + 1e-12)
    assert float(np.abs(beta).max()) == pytest.approx(radius / 2.0, rel=1e-12)
    assert displaced <= reach * (1 + 1e-15)
    assert choose_n_ph(displaced) <= choose_n_ph(reach)


@pytest.mark.parametrize("kappa", [5e-3, 5e-2])
@pytest.mark.parametrize("delta_sign", [1, -1])
@pytest.mark.parametrize("g2_over_g1", [1.5, 3.0])
def test_auto_fock_size_covers_the_largest_branch(g2_over_g1, delta_sign, kappa):
    # with n_ph unset a coherent start sizes its displaced-frame space from
    # max_i |alpha - beta_i|, which counts the branch driven hardest
    # (|g1| + |g2|), not 2 sqrt(g1 g2): the guard level of that frame then
    # stays below choose_n_ph's default tail of 1e-5. Every steady state
    # beta_i lies along one phase u; an alpha along +-u holds |alpha| plus
    # the largest |beta_i|, one along +-i u the least, so its space is the
    # smallest
    p = make_params(0.7, kappa, n=2, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    u = -1j * complex(kappa, -p.delta_rad_ns) / math.hypot(kappa, p.delta_rad_ns)
    for alpha in (0.5, 1.0, -0.7 + 0.7j, u, -u, 0.9j * u, -0.9j * u):
        _, diag = extract_channel(p, 0.0, 0.0, CavityPrep.coherent(alpha))
        assert diag.n_ph == choose_n_ph(float(np.abs(alpha - _steady_states(p)).max()))
        assert diag.max_top_level_pop < 1e-5, (alpha, diag.n_ph)


@pytest.mark.parametrize("kappa", [5e-3, 5e-2])
@pytest.mark.parametrize("delta_sign", [1, -1])
@pytest.mark.parametrize("g2_over_g1", [1.0, 1.5, 3.0])
def test_displaced_frame_agrees_with_the_lab_frame(g2_over_g1, delta_sign, kappa):
    # pinned-size channels of extract_channel (closed form, displaced frame)
    # against the lab frame at n_ph 20 (each block's dense expm over the
    # whole gate), from vacuum and from |alpha| = 0.95 at a phase off the
    # steady states: at 6 and 8 levels they agree within the lab frame's own
    # truncation error at that size. A
    # frame 3 % off the steady state in size or phase (dense expm of the
    # operator-form generator, which keeps every term of any frame) moves
    # the channel by no more than twice the displaced frame's own truncation
    # error (the frame is a choice of basis, not of physics), while the
    # halfway shift breaks that bound
    p = make_params(0.7, kappa, n=2, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    alphas = [0j, 0.95 * cmath.exp(2.1j)]
    shift = _steady_shift(p)
    upper = tuple(np.array(lindblad._UPPER).T)

    def lab(n_ph):
        # Tr r_ij(t_g) of each block, from both cavity starts, with one dense
        # expm per class of _block_classes, applied to the starts at +-alpha
        from scipy.linalg import expm

        starts = np.array([_displaced_start(n_ph, sign * alpha, 0j, 0j).reshape(-1)
                           for sign in (1, -1) for alpha in alphas])
        by_class, traces = {}, []
        for key, flip, conj in _block_classes(_branch_lams(p)):
            if key not in by_class:
                prop = expm(_dense_block_generator(p, n_ph, *key) * p.t_g_ns)
                final = (starts @ prop.T).reshape(2, len(alphas), n_ph, n_ph)
                by_class[key] = np.trace(final, axis1=2, axis2=3)
            trace = by_class[key][int(flip)]
            traces.append(trace.conj() if conj else trace)
        return np.array(traces).T

    def dense(n_ph, frame):
        return _dense_coherence(p, 0.0, 0.0, n_ph, alphas, frame)[(slice(None),) + upper]

    ref = lab(20)
    for n_ph in (6, 8):
        lab_error = np.abs(lab(n_ph) - ref).max(axis=1)
        ours = np.array([extract_channel(p, 0.0, 0.0, CavityPrep.coherent(alpha), n_ph=n_ph)[0]
                         .coherence[upper] for alpha in alphas])
        error = np.abs(ours - ref).max(axis=1)
        assert np.all(error <= lab_error), (n_ph, error, lab_error)
        for off in (1.03, cmath.exp(0.03j)):
            moved = np.abs(dense(n_ph, off * shift) - ours).max(axis=1)
            assert np.all(moved <= 2.0 * error + 1e-13), (n_ph, off, moved, error)
        assert np.all(np.abs(dense(n_ph, 0.5 * shift) - ours).max(axis=1) > 2.0 * error + 1e-13)


def _dense_guard_track(p, n_ph, alpha, steps):
    """Top-level population of each diagonal block, stepped densely at
    stride 1 in the displaced frame from its own displaced start over a
    grid of steps steps: a (4, steps + 1) array."""
    from scipy.linalg import expm

    shift, dt = _steady_shift(p), p.t_g_ns / steps
    tracks = []
    for lam in _branch_lams(p):
        prop = expm(_dense_block_generator(p, n_ph, lam, lam, shift) * dt)
        vec = _displaced_start(n_ph, alpha, shift * lam, shift * lam).reshape(-1)
        pops = [vec[-1].real]
        for _ in range(steps):
            vec = prop @ vec
            pops.append(vec[-1].real)
        tracks.append(pops)
    return np.array(tracks)


@pytest.mark.parametrize("steps", [3, 200, 203, 365])
@pytest.mark.parametrize("g2_over_g1", [1.0, 1.5])
@pytest.mark.parametrize("alpha", [0j, -0.5 + 0.5j], ids=["vacuum", "coherent"])
def test_extract_channel_guard_is_read_at_every_step(alpha, g2_over_g1, steps):
    # extract_channel reads the guard off the start alone; that must be the
    # maximum over every grid step of dense stride-1 stepping in the
    # displaced frame, on coarse and fine grids alike, and it reports one
    # exact propagation
    p = make_params(0.7, 5e-3, n=2, g2_over_g1=g2_over_g1)
    n_ph = 8
    every = _dense_guard_track(p, n_ph, alpha, steps).max()
    _, diag = extract_channel(p, 0.0, 0.0, CavityPrep.coherent(alpha), n_ph=n_ph)
    assert (diag.steps, diag.dt_ns) == (1, p.t_g_ns)
    assert diag.max_top_level_pop == pytest.approx(every, rel=1e-12)


@pytest.mark.parametrize("kappa", [5e-3, 5e-2])
@pytest.mark.parametrize("delta_sign", [1, -1])
@pytest.mark.parametrize("g2_over_g1", [1.0, 1.5, 3.0])
def test_displaced_guard_population_never_rises(g2_over_g1, delta_sign, kappa):
    # in the displaced frame a diagonal block sees only the damped
    # oscillator, which lowers: under dense stride-1 stepping its top-level
    # population never rises, and at t it is exp(-2 kappa t (n_ph - 1))
    # times the start's, so the start holds the gate's maximum
    p = make_params(0.7, kappa, n=2, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    n_ph, steps = 8, 365
    pops = _dense_guard_track(p, n_ph, -0.5 + 0.5j, steps)
    assert pops.min() > 1e-12
    assert np.all(np.diff(pops, axis=1) < 0.0)
    decay = np.exp(-2.0 * kappa * (n_ph - 1) * p.t_g_ns * np.arange(steps + 1) / steps)
    assert np.abs(pops / (pops[:, :1] * decay) - 1.0).max() < 1e-9


@given(
    g2_over_g1=st.one_of(st.just(1.0), st.floats(min_value=0.3, max_value=3.0)),
    delta_sign=st.sampled_from([1, -1]),
    kappa=st.floats(min_value=1e-3, max_value=5e-2),
    n_ph=st.integers(min_value=4, max_value=12),
    alpha=st.one_of(st.just(0j), st.complex_numbers(max_magnitude=0.8)),
)
@settings(max_examples=20, deadline=None)
@example(g2_over_g1=1.0, delta_sign=1, kappa=5e-3, n_ph=17, alpha=0.95 * cmath.exp(2.1j))
@example(g2_over_g1=1.5, delta_sign=-1, kappa=2e-2, n_ph=14, alpha=1.0 + 0j)
def test_closed_form_readout_matches_dense_expm(g2_over_g1, delta_sign, kappa, n_ph, alpha):
    # every block's closed-form trace Tr[r'_ij(t) D(b_j)^dag D(b_i)] against
    # the dense expm of the operator-form generator at the steady shift
    # applied to that block's own displaced start, read back through dense
    # displacements, after one grid step and over the whole gate; the two
    # explicit cases are the benchmark's largest sizes and amplitudes
    from scipy.linalg import expm

    p = make_params(0.7, kappa, n=2, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    _, dt = lindblad._step_grid(p.t_g_ns)
    lam, shift = _branch_lams(p), _steady_shift(p)
    frame = lindblad._frame_terms(p)
    psi = lindblad._branch_kets(frame[1], alpha, n_ph)
    times = (dt, p.t_g_ns)
    traces = [lindblad._readout(frame, psi, alpha, t) for t in times]
    refs = {}  # per class of _block_classes, from the starts at +-alpha and per time
    for u, (key, flip, conj) in enumerate(_block_classes(lam)):
        if key not in refs:
            b_i, b_j = shift * key[0], shift * key[1]
            starts = np.array([_displaced_start(n_ph, sign * alpha, b_i, b_j).reshape(-1)
                               for sign in (1, -1)])
            generator = _dense_block_generator(p, n_ph, *key, shift)
            readout = (_dense_displacement(n_ph + 40, -b_j)
                       @ _dense_displacement(n_ph + 40, b_i))[:n_ph, :n_ph]
            refs[key] = [np.einsum("smn,nm->s", (starts @ expm(generator * t).T)
                                   .reshape(2, n_ph, n_ph), readout) for t in times]
        for t, trace, ref in zip(times, traces, refs[key]):
            ref = ref[int(flip)].conj() if conj else ref[int(flip)]
            assert abs(trace[u] - ref) < 1e-12, (t, lindblad._UPPER[u])


def test_extract_channel_guard_is_max_over_gate():
    # in the displaced frame the guard level holds ~2.9e-4 at the start and
    # decays with the displaced state, to ~4.3e-5 by t_g, below the 1e-4
    # threshold (its final value comes from one dense expm over the whole
    # gate, no stepping): only a check over the whole gate, its start
    # included, flags it
    from scipy.linalg import expm

    p = make_params(0.7, 5e-2, n=2)
    threshold, n_ph = lindblad.DEFAULT_TOP_LEVEL_THRESHOLD, 4
    shift = _steady_shift(p)
    worst_end = 0.0
    for lam in _branch_lams(p):
        b = shift * lam
        final = (expm(_dense_block_generator(p, n_ph, lam, lam, shift) * p.t_g_ns)
                 @ _displaced_start(n_ph, 0j, b, b).reshape(-1))
        worst_end = max(worst_end, final[-1].real)
    assert worst_end < threshold
    _, diag = extract_channel(p, 0.0, 0.0, n_ph=n_ph)
    assert diag.failed
    assert diag.max_top_level_pop > threshold
    assert any("population" in r for r in diag.failure_reasons)


def test_extract_channel_flags_tight_guard():
    # 4 levels leave ~2.9e-4 in the guard level, above the 1e-4 threshold
    p = make_params(0.7, 5e-3, n=2)
    _, diag = extract_channel(p, 0.0, 0.0, n_ph=4)
    assert diag.failed
    assert any("guard" in r or "population" in r for r in diag.failure_reasons)


def test_trajectory_rows_shape_and_content():
    p = make_params(0.7, 1e-3, n=2)
    rows = trajectory_rows(p, 0.0, 0.0, n_ph=6)
    assert rows[0]["t_ns"] == 0.0
    assert rows[-1]["t_ns"] == pytest.approx(p.t_g_ns, rel=1e-12)
    for key in ("trace", "purity", "mean_photon", "top_level_pop", "polaron_residual"):
        assert key in rows[0]
    assert rows[0]["mean_photon"] == pytest.approx(0.0, abs=1e-14)
    assert all(r["trace"] == pytest.approx(1.0, abs=1e-9) for r in rows)
    # mid-gate the cavity is displaced, at the end it has returned
    mid = max(r["mean_photon"] for r in rows)
    assert mid > 0.1
    assert rows[-1]["mean_photon"] < 1e-3
    with pytest.raises(DomainError):
        trajectory_rows(p, 0.0, 0.0, initial_cavity=CavityPrep.thermal(0.1), n_ph=6)


def _check_trajectory_rows_against_rk4(g2_over_g1, delta_sign):
    # unequal couplings, a coherent start, unequal dephasing and the |++>
    # qubit start, whose every coherence is 1/4, so all 16 blocks count;
    # 6 levels leave up to ~1e-3 in the guard level, so top_level_pop is
    # not ~0; RK4 takes two steps per grid step, ~10 ps
    p = make_params(0.7, 5e-3, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    gamma_1, gamma_2, alpha, n_ph = 2e6, 0.5e6, 0.3 + 0.4j, 6
    qubit = np.full((4, 4), 0.25, dtype=complex)
    rows = trajectory_rows(p, gamma_1, gamma_2, CavityPrep.coherent(alpha), n_ph=n_ph)
    steps, dt = lindblad._step_grid(p.t_g_ns)
    assert len(rows) == steps + 1
    state = CompositeState.from_parts(qubit, coherent_rho(n_ph, alpha))
    h = build_hamiltonian(p, n_ph)
    done = 0
    for k in (steps // 7, steps // 2, steps):
        # RK4 continues from the previous grid time, k - done grid steps of dt
        state, _ = evolve_rk4(
            state, h, p.kappa_per_ns, gamma_1 * 1e-9, gamma_2 * 1e-9, (k - done) * dt,
            2 * (k - done),
        )
        done = k
        assert rows[k]["t_ns"] == pytest.approx(k * dt, rel=1e-12)
        for key in ("trace", "purity", "mean_photon", "top_level_pop"):
            assert abs(rows[k][key] - getattr(state, key)) < 1e-6, (k, key)


def test_trajectory_rows_match_rk4_reference():
    _check_trajectory_rows_against_rk4(1.5, 1)


@pytest.mark.parametrize("g2_over_g1, delta_sign", [(1.5, -1), (3.0, 1), (3.0, -1)])
def test_trajectory_rows_match_rk4_reference_on_both_sidebands(g2_over_g1, delta_sign):
    # the same check on the lower sideband and at g2/g1 = 3
    _check_trajectory_rows_against_rk4(g2_over_g1, delta_sign)


def test_import_loads_no_scipy_until_the_oracle_runs():
    # the channel paths are closed-form numpy: neither importing resgate nor
    # extracting a vacuum, coherent or thermal channel loads scipy; the
    # lab-frame trajectory imports it (for expm) on its first use
    script = (
        "import sys\n"
        "import resgate\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded(), loaded()\n"
        "params = resgate.resolve_operating_point(resgate.config_from_dict({})).params\n"
        "for prep in (None, resgate.CavityPrep.coherent(0.4 - 0.3j)):\n"
        "    chan, diag = resgate.extract_channel(params, 0.0, 0.0, prep, n_ph=7)\n"
        "    chan.validate()\n"
        "    assert not diag.failed\n"
        "chan, diag = resgate.extract_channel(params, 0.0, 0.0, "
        "resgate.CavityPrep.thermal(0.2))\n"
        "assert not diag.failed and not loaded(), loaded()\n"
        "resgate.trajectory_rows(params, 0.0, 0.0)\n"
        "assert 'scipy.linalg' in sys.modules\n"
    )
    src = str(Path(resgate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_polaron_residual_matches_dense_reference():
    # the residual column against an independent route: the RK4 composite
    # state (two steps per grid step, ~10 ps), each diagonal block r_ii read
    # against the coherent ket |lam_i alpha_unit(t)> built from its
    # definition, alpha_unit the lab-frame amplitude rotated into the drive
    # frame by -i e^{-i Delta t}
    for g2_over_g1 in (1.0, 1.5):
        p = make_params(0.7, 1.021e-3, n=2, g2_over_g1=g2_over_g1)
        n_ph = 8
        rows = trajectory_rows(p, 0.0, 0.0, n_ph=n_ph)
        steps, dt = lindblad._step_grid(p.t_g_ns)
        plus = np.full(4, 0.5, dtype=complex)
        state = CompositeState.from_parts(np.outer(plus, plus.conj()), vacuum_rho(n_ph))
        h = build_hamiltonian(p, n_ph)
        lam = [p.g1_rad_ns * s1 + p.g2_rad_ns * s2 for s1 in (1, -1) for s2 in (1, -1)]
        done = 0
        for k in [*range(steps // 40, steps, steps // 40), steps]:
            state, _ = evolve_rk4(
                state, h, p.kappa_per_ns, 0.0, 0.0, (k - done) * dt, 2 * (k - done),
            )
            done = k
            delta, t = p.delta_rad_ns, k * dt
            unit = -1j * cmath.exp(-1j * delta * t) * complex(
                lab_alpha(1.0, delta, p.kappa_per_ns, t))
            held = 0.0
            for i, lam_i in enumerate(lam):
                phi = coherent_ket(n_ph, lam_i * unit)
                block = state.matrix[i * n_ph:(i + 1) * n_ph, i * n_ph:(i + 1) * n_ph]
                held += (phi.conj() @ block @ phi).real
            ref = 1.0 - held / state.trace
            # measured <= 5.1e-10 apart (RK4's own error at ~10 ps); the
            # conjugate amplitude lam_i alpha_unit^* moves the column by ~0.2
            assert abs(rows[k]["polaron_residual"] - ref) < 1e-8, (g2_over_g1, k)


def test_polaron_residual_small_on_schedule():
    p = make_params(0.7, 1.021e-3, n=2)
    assert polaron_residual(p) < 1e-5


def test_per_size_tables_are_read_only():
    # the module's block index tables are shared by every call, so neither
    # can be written through
    for table in (lindblad._UPPER_I, lindblad._UPPER_J):
        with pytest.raises(ValueError):
            table[0] = 1


def test_thermal_channel_deterministic_and_continuous():
    p = make_params(0.7, 1e-3, n=2)
    a = extract_channel(p, 0.0, 0.0, CavityPrep.thermal(0.05), n_ph=6)[0].coherence
    b = extract_channel(p, 0.0, 0.0, CavityPrep.thermal(0.05), n_ph=6)[0].coherence
    assert np.array_equal(a, b)
    # n_bar = 0 is the vacuum extraction, bit for bit
    vac = extract_channel(p, 0.0, 0.0, n_ph=6)[0].coherence
    zero = extract_channel(p, 0.0, 0.0, CavityPrep.thermal(0.0), n_ph=6)[0].coherence
    assert np.array_equal(vac, zero)
    # and the channel leaves it continuously: the change is linear in small n_bar
    moves = [np.abs(extract_channel(p, 0.0, 0.0, CavityPrep.thermal(n_bar), n_ph=6)[0]
                    .coherence - vac).max() for n_bar in (1e-8, 1e-6, 1e-4)]
    assert moves[0] > 0.0
    assert moves[1] / moves[0] == pytest.approx(100.0, rel=1e-3)
    assert moves[2] / moves[1] == pytest.approx(100.0, rel=1e-3)
    with pytest.raises(DomainError, match="n_bar"):
        extract_channel(p, 0.0, 0.0, CavityPrep.thermal(-0.1))


def test_thermal_diagnostics_report_the_largest_fock_size():
    # the diagnostics are the vacuum extraction's: its Fock size, guard
    # population and flags, with n_ph passed through
    p = make_params(0.7, 1e-3, n=2)
    for kwargs in ({}, {"n_ph": 4}, {"n_ph": 5}):
        _, diag = extract_channel(p, 1e6, 2e6, CavityPrep.thermal(0.2), **kwargs)
        assert diag == extract_channel(p, 1e6, 2e6, **kwargs)[1]
    assert diag.n_ph == 5 and not diag.failed
    assert extract_channel(p, 0.0, 0.0, CavityPrep.thermal(0.2), n_ph=4)[1].failed


@pytest.mark.parametrize("delta_sign", [1, -1])
@pytest.mark.parametrize("g2_over_g1", [1.0, 3.0])
def test_thermal_channel_matches_dense_thermal_propagation(g2_over_g1, delta_sign):
    # the closed form against each off-diagonal block of the thermal state
    # rho_th, sum_k n_bar^k / (1 + n_bar)^(k+1) |k><k| truncated and
    # renormalized, propagated by the dense lab-frame expm(L(lam_i, lam_j) t_g)
    # at 21 levels (~2e-10 from convergence); the thermal factor moves these
    # entries by up to ~8e-3 here. Diagonal blocks keep their trace, 1.
    from scipy.linalg import expm

    n_bar, n_ph = 0.3, 21
    p = make_params(0.7, 5e-2, n=2, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    chan, _ = extract_channel(p, 0.0, 0.0, CavityPrep.thermal(n_bar), n_ph=n_ph)
    pops = n_bar ** np.arange(n_ph) / (1.0 + n_bar) ** np.arange(1, n_ph + 1)
    rho = np.diag(pops / pops.sum()).reshape(-1)
    lam = _branch_lams(p)
    for i, j in lindblad._UPPER:
        if i != j:
            block = expm(_dense_block_generator(p, n_ph, lam[i], lam[j]) * p.t_g_ns) @ rho
            assert abs(np.trace(block.reshape(n_ph, n_ph)) - chan.coherence[i, j]) < 1e-9


@pytest.mark.parametrize("delta_sign", [1, -1])
@pytest.mark.parametrize("g2_over_g1", [1.0, 3.0])
def test_thermal_channel_is_the_mean_of_coherent_channels(g2_over_g1, delta_sign):
    # the thermal state is the average of |alpha><alpha| over its
    # P-function, so the channel is the mean of the coherent-start channels
    # over draws of alpha: within 5 standard errors of that mean in every
    # entry the draws move (the vacuum channel sits ~45 of them away). The
    # others (the diagonal, and branches of equal lam at g2 = g1) are the
    # same for every draw and equal the thermal entry to rounding.
    n_bar, samples = 0.3, 4000
    p = make_params(0.7, 5e-2, n=2, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    chan, _ = extract_channel(p, 1e6, 2e6, CavityPrep.thermal(n_bar))
    draws = np.random.default_rng(5).normal(0.0, math.sqrt(n_bar / 2.0), (samples, 2))
    cohs = np.array([
        extract_channel(p, 1e6, 2e6, CavityPrep.coherent(complex(*z)))[0].coherence
        for z in draws])
    for part in (np.real, np.imag):
        x, ref = part(cohs).reshape(samples, 16), part(chan.coherence).reshape(16)
        sem = x.std(axis=0, ddof=1) / math.sqrt(samples)
        still = np.ptp(x, axis=0) < 1e-12
        assert np.all(np.abs(x.mean(axis=0) - ref)[~still] < 5.0 * sem[~still])
        assert np.abs(x[:, still] - ref[still]).max() < 1e-12


@pytest.mark.parametrize("delta_sign", [1, -1])
@pytest.mark.parametrize("g2_over_g1", [1.0, 3.0])
def test_thermal_channel_is_the_vacuum_one_for_a_lossless_gate(g2_over_g1, delta_sign):
    # without loss every branch returns to its start at t_g (the loops
    # close, exp(-z t_g) = 1), so the gate does not depend on the cavity's
    # initial state: a thermal start gives the vacuum channel. The branches'
    # steady states differ by ~0.5 here, so a factor without
    # |1 - exp(-z t_g)|^2 would move the entries by ~0.1
    p = make_params(0.7, 0.0, n=2, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    vac = extract_channel(p, 1e6, 2e6)[0].coherence
    chan, _ = extract_channel(p, 1e6, 2e6, CavityPrep.thermal(0.3))
    assert np.abs(chan.coherence - vac).max() < 1e-14


@given(
    g1=st.floats(min_value=0.1, max_value=1.0),
    g2_over_g1=st.floats(min_value=0.3, max_value=3.0),
    kappa=st.floats(min_value=0.0, max_value=5e-2),
    gamma=st.floats(min_value=0.0, max_value=3e6),
    n_bar=st.floats(min_value=0.0, max_value=10.0),
    delta_sign=st.sampled_from([1, -1]),
)
@settings(max_examples=100, deadline=None)
def test_thermal_channel_is_cptp(g1, g2_over_g1, kappa, gamma, n_bar, delta_sign):
    # the vacuum channel times a Gaussian kernel in the steady states beta_i
    # is a Schur product of two positive semidefinite matrices
    p = make_params(g1, kappa, n=2, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    extract_channel(p, gamma, 0.5 * gamma, CavityPrep.thermal(n_bar))[0].validate()


def test_trajectory_and_polaron_residual_share_one_fock_size(monkeypatch):
    # with n_ph unset both lab-frame paths size a vacuum start by one rule,
    # choose_n_ph(_reach): here 8 levels, where the channel's displaced
    # frame takes 6; so the residual column's maximum is the residual
    sizes = []
    real_blocks = lindblad._lab_blocks

    def recording(params, alpha, n_ph, dt, steps):
        sizes.append(n_ph)
        return real_blocks(params, alpha, n_ph, dt, steps)

    monkeypatch.setattr(lindblad, "_lab_blocks", recording)
    p = make_params(0.35, 5e-3)
    rows = trajectory_rows(p, 0.0, 0.0)
    residual = polaron_residual(p)
    assert sizes == [8, 8] == [choose_n_ph(lindblad._reach(p))] * 2
    assert residual == max(row["polaron_residual"] for row in rows)
    assert extract_channel(p, 0.0, 0.0)[1].n_ph == 6


def test_composite_state_partial_traces():
    qubit = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    cav = coherent_rho(5, 0.6)
    st = CompositeState.from_parts(qubit, cav)
    assert np.allclose(st.qubit_rho(), qubit, atol=1e-14)
    assert np.allclose(st.cavity_rho(), cav, atol=1e-14)
    assert st.mean_photon == pytest.approx((np.arange(5) * np.diag(cav).real).sum(), abs=1e-13)
    assert st.purity == pytest.approx(
        float(np.trace(qubit @ qubit).real * np.trace(cav @ cav).real), rel=1e-12
    )


def test_extract_channel_does_not_run_a_thermal_cavity_as_vacuum():
    # a thermal cavity is a mixture: its channel is the vacuum channel times
    # the Gaussian kernel exp(-n_bar |1 - exp(-z t_g)|^2 |beta_i - beta_j|^2),
    # which moves the off-diagonal entries here by up to ~2.7e-3
    p = make_params(0.7, 5e-2, n=2)
    vac = extract_channel(p, 1e6, 2e6, n_ph=6)[0].coherence
    chan, _ = extract_channel(p, 1e6, 2e6, CavityPrep.thermal(0.1), n_ph=6)
    z = complex(p.kappa_per_ns, p.delta_rad_ns)
    beta = _steady_shift(p) * np.array(_branch_lams(p))
    kernel = np.exp(-0.1 * abs(1.0 - cmath.exp(-z * p.t_g_ns)) ** 2
                    * np.abs(beta[:, None] - beta) ** 2)
    assert np.abs(chan.coherence - vac * kernel).max() < 1e-15
    assert np.abs(chan.coherence - vac).max() > 1e-3


def test_trajectory_rows_rejects_a_thermal_cavity():
    # a trajectory follows one cavity state; a thermal cavity is a mixture,
    # which the lab-frame path must not run as vacuum
    p = make_params(0.7, 1e-3, n=2)
    with pytest.raises(DomainError, match="thermal"):
        trajectory_rows(p, 0.0, 0.0, CavityPrep.thermal(0.1), n_ph=6)


@pytest.mark.parametrize("n_ph", [True, 1.5, 1, 0, -3], ids=str)
def test_a_given_fock_size_is_an_int_of_at_least_two_levels(n_ph):
    p = make_params(0.7, 1e-3, n=2)
    with pytest.raises(DomainError, match="2 Fock levels"):
        extract_channel(p, 0.0, 0.0, n_ph=n_ph)
    with pytest.raises(DomainError, match="2 Fock levels"):
        trajectory_rows(p, 0.0, 0.0, n_ph=n_ph)


def test_a_given_fock_size_may_be_a_numpy_integer():
    p = make_params(0.7, 1e-3, n=2)
    chan, diag = extract_channel(p, 1e6, 2e6, n_ph=np.int64(7))
    ref, ref_diag = extract_channel(p, 1e6, 2e6, n_ph=7)
    assert type(diag.n_ph) is int and diag == ref_diag
    assert np.array_equal(chan.coherence, ref.coherence)
    assert (trajectory_rows(p, 0.0, 0.0, n_ph=np.int64(6))
            == trajectory_rows(p, 0.0, 0.0, n_ph=6))


@pytest.mark.parametrize("gammas", [(-5e7, 0.0), (math.nan, 0.0), (0.0, -1.0), (0.0, math.inf)],
                         ids=str)
def test_dephasing_rates_must_be_finite_and_non_negative(gammas):
    # a negative rate once returned a channel with |C| up to 1.37 and a
    # trajectory with purity 1.42, and a NaN one NaN coherences, unflagged
    p = make_params(0.7, 5e-3, n=2)
    with pytest.raises(DomainError, match="dephasing rates"):
        extract_channel(p, *gammas)
    with pytest.raises(DomainError, match="dephasing rates"):
        trajectory_rows(p, *gammas, n_ph=6)


def test_cavity_prep_validation():
    with pytest.raises(DomainError):
        CavityPrep.thermal(-0.1)
    with pytest.raises(DomainError):
        CavityPrep(kind="squeezed")
    for n_bar in (math.nan, math.inf):
        with pytest.raises(DomainError, match="n_bar"):
            CavityPrep.thermal(n_bar)
    for alpha in (math.nan, complex(0.3, math.inf), complex(math.nan, 0.0)):
        with pytest.raises(DomainError, match="alpha"):
            CavityPrep.coherent(alpha)
    # each kind carries only its own field: alpha is a coherent start's,
    # n_bar a thermal one's
    for kind, field in (("vacuum", {"alpha": 0.9j}), ("vacuum", {"n_bar": 0.5}),
                        ("coherent", {"alpha": 0.5, "n_bar": 0.5}),
                        ("thermal", {"alpha": 0.3, "n_bar": 0.5})):
        with pytest.raises(DomainError, match="needs"):
            CavityPrep(kind=kind, **field)
    assert CavityPrep(kind="coherent", alpha=0j) == CavityPrep.coherent(0)
    assert CavityPrep(kind="thermal", n_bar=0.0) == CavityPrep.thermal(0.0)
