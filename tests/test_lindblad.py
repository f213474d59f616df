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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import resgate
from resgate import (
    CavityPrep,
    FockSpace,
    StepPolicy,
    analytic_gate_channel,
    average_gate_fidelity,
    choose_n_ph,
    drive_frame_displacement,
    extract_channel,
    ideal_gate_unitary,
    polaron_residual,
    thermal_average_channel,
    trajectory_rows,
)
from resgate import lindblad
from resgate.errors import DomainError

from conftest import make_params
from rk4_reference import CompositeState, build_hamiltonian, evolve_rk4, lindblad_rhs


def test_fock_operators_truncated_commutator():
    f = FockSpace(8)
    a = f.annihilation()
    comm = a @ a.conj().T - a.conj().T @ a
    # [a, a^dag] = 1 except in the guard corner
    expect = np.eye(8)
    expect[-1, -1] = -(8 - 1)
    assert np.allclose(comm, expect, atol=1e-13)
    assert np.allclose(f.number_op(), a.conj().T @ a, atol=1e-13)


def test_fock_coherent_state_statistics():
    f = FockSpace(20)
    beta = 0.9 - 0.4j
    rho = f.coherent_rho(beta)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    n_mean = np.trace(f.number_op() @ rho).real
    assert n_mean == pytest.approx(abs(beta) ** 2, rel=1e-6)
    a_mean = np.trace(f.annihilation() @ rho)
    assert a_mean == pytest.approx(beta, abs=1e-6)
    vac = f.vacuum_rho()
    assert vac[0, 0] == 1.0
    assert np.trace(vac) == 1.0


def test_step_policy_clamps():
    pol = StepPolicy(dt_ns=0.02, min_steps=200, max_steps=10000)
    steps, dt = pol.resolve(1.0)  # would be 50 raw steps
    assert steps == 200
    assert dt == pytest.approx(0.005)
    steps, dt = pol.resolve(1000.0)  # would be 50000 raw steps
    assert steps == 10000
    assert dt == pytest.approx(0.1)
    steps, dt = pol.resolve(10.0)
    assert steps == 500
    assert dt == pytest.approx(0.02)
    with pytest.raises(DomainError):
        pol.resolve(0.0)


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
    f = FockSpace(10)
    qubit = np.zeros((4, 4), dtype=complex)
    qubit[0, 0] = 1.0
    rho0 = CompositeState.from_parts(qubit, f.coherent_rho(1.2))
    h = build_hamiltonian(p, n_ph=10)
    final, diag = evolve_rk4(rho0, h, kappa, 0.0, 0.0, 3.0)
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
    f = FockSpace(3)
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    ground = np.array([[1, 0], [0, 0]], dtype=complex)
    rho0 = CompositeState.from_parts(np.kron(plus, ground), f.vacuum_rho())
    gamma_1 = 0.2
    final, diag = evolve_rk4(rho0, h, 0.0, gamma_1, 0.0, 2.0)
    coh = final.qubit_rho()[0, 2]
    assert abs(coh) == pytest.approx(0.5 * math.exp(-gamma_1 * 2.0), rel=1e-9)
    # dephasing never moves populations
    assert final.qubit_rho()[0, 0].real == pytest.approx(0.5, abs=1e-10)
    assert not diag.failed


def test_rk4_self_convergence_order():
    p = make_params(0.7, 5e-3, n=2)
    f = FockSpace(4)
    qubit = np.full((4, 4), 0.25, dtype=complex)
    rho0 = CompositeState.from_parts(qubit, f.vacuum_rho())
    h = build_hamiltonian(p, n_ph=4)

    def run(dt):
        pol = StepPolicy(dt_ns=dt, min_steps=1, max_steps=10**6)
        final, _ = evolve_rk4(rho0, h, 5e-3, 2e-3, 2e-3, 4.0, pol)
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
    f_num = average_gate_fidelity(chan, target, validate=False).f_avg
    f_ana = average_gate_fidelity(
        analytic_gate_channel(p, gamma, gamma), target
    ).f_avg
    assert abs(f_num - f_ana) < 1e-3


def _rk4_reference_superop(p, gamma_1, gamma_2, cav):
    """Channel from one RK4 run of |++> (x) cav: C_ij = 4 Tr_cav of block ij,
    and the run's largest guard-level population.

    A 10 ps step keeps RK4's own error near 1e-7; at the default 20 ps it
    reaches ~2e-6 on displaced starts.
    """
    n_ph = cav.shape[0]
    plus = np.full((4, 4), 0.25, dtype=complex)
    final, diag = evolve_rk4(
        CompositeState.from_parts(plus, cav), build_hamiltonian(p, n_ph),
        p.kappa_per_ns, gamma_1 * 1e-9, gamma_2 * 1e-9, p.t_g_ns,
        StepPolicy(dt_ns=0.010),
    )
    return np.diag(4.0 * final.qubit_rho().reshape(16)), diag.max_top_level_pop


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
    ref, ref_top = _rk4_reference_superop(p, gamma_1, gamma_2,
                                          FockSpace(n_ref).coherent_rho(alpha or 0.0))
    assert ref_top < 1e-8
    assert np.max(np.abs(chan.superop - ref)) < 1e-6


_BRANCHES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _dense_block_generator(p, n_ph, lam_i, lam_j, shift=0j):
    """L(lam_i, lam_j) of the block r' = D(b_i)^dag r D(b_j), b = shift lam,
    from its operator form: r' -> -i(H_i r' - r' H_j)
    + kappa(2 A_i r' A_j^dag - A_i^dag A_i r' - r' A_j^dag A_j), with A = a + b
    and H = Delta A^dag A + (lam/2)(A + A^dag), as a matrix on row-major
    vec(r'). Shift 0 is the lab frame."""
    a, eye = FockSpace(n_ph).annihilation(), np.eye(n_ph)

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


def _dense_displacement(n_ph, delta, room=40):
    """<m|D(delta)|n> on n_ph levels, from expm in a space room levels larger."""
    from scipy.linalg import expm

    a = FockSpace(n_ph + room).annihilation()
    return expm(delta * a.conj().T - np.conj(delta) * a)[:n_ph, :n_ph]


def _ket(n_ph, gamma):
    """|gamma> on n_ph levels from its definition, truncated and renormalized."""
    ket = np.array([gamma**m / math.sqrt(math.factorial(m)) for m in range(n_ph)],
                   dtype=complex)
    return ket / np.linalg.norm(ket)


def _displaced_start(n_ph, alpha, b_i, b_j):
    """psi_i psi_j^dag, psi = exp(i Im(b^* alpha)) |alpha - b>: the block start
    D(b_i)^dag |alpha><alpha| D(b_j), each ket truncated and renormalized."""
    psi_i, psi_j = (cmath.exp(1j * (b.conjugate() * alpha).imag) * _ket(n_ph, alpha - b)
                    for b in (b_i, b_j))
    return np.outer(psi_i, psi_j.conj())


def _dense_coherence(p, gamma_1, gamma_2, n_ph, alpha, shift=0j):
    """4x4 coherence matrix with each block on or above the diagonal
    propagated by its own dense expm(L(lam_i, lam_j) t_g) from its own start
    in the frame of shift: no stepping, no closed form and no symmetry used.
    The trace is read as Tr[r' D(b_j)^dag D(b_i)], the displacements taken
    from a larger space."""
    from scipy.linalg import expm

    lam = _branch_lams(p)
    coh = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(i, 4):
            rate = 1e-9 * sum(g for g, si, sj in zip((gamma_1, gamma_2), _BRANCHES[i],
                                                      _BRANCHES[j]) if si != sj)
            b_i, b_j = shift * lam[i], shift * lam[j]
            block = expm(_dense_block_generator(p, n_ph, lam[i], lam[j], shift) * p.t_g_ns)
            final = (block @ _displaced_start(n_ph, alpha, b_i, b_j).reshape(-1))
            frame = (_dense_displacement(n_ph + 40, -b_j) @ _dense_displacement(n_ph + 40, b_i))
            coh[i, j] = math.exp(-rate * p.t_g_ns) * np.trace(
                final.reshape(n_ph, n_ph) @ frame[:n_ph, :n_ph])
            coh[j, i] = np.conj(coh[i, j])
    return coh


def _dense_reference_superop(p, gamma_1, gamma_2, n_ph, alpha, shift=0j):
    """The superoperator diagonal of _dense_coherence."""
    return np.diag(_dense_coherence(p, gamma_1, gamma_2, n_ph, alpha, shift).reshape(16))


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
    ref = _dense_reference_superop(p, gamma_1, gamma_2, n_ph, beta, lindblad._steady_shift(p))
    assert np.max(np.abs(chan.superop - ref)) < 1e-12


@pytest.mark.parametrize("g2_over_g1", [1.0, 1.5])
def test_extract_channel_guard_reads_mirrored_branches(g2_over_g1):
    # this start sends |11>, the branch mirrored from |00>, far up the
    # ladder of its displaced frame (|alpha - beta_3| ~ 1
    # against |alpha - beta_0| ~ 0.5: ~6e-5 in the guard level against
    # ~2e-8): the guard maximum must be the dense per-branch stepping maximum
    # in that frame, each branch from its own displaced start
    from scipy.linalg import expm

    p = make_params(0.7, 5e-3, n=2, g2_over_g1=g2_over_g1)
    alpha, n_ph, shift = -0.5 + 0.5j, 8, lindblad._steady_shift(p)
    steps, dt = StepPolicy().resolve(p.t_g_ns)
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
    # the channel paths carry each block over the gate in closed form: no
    # propagator is built, from vacuum, coherent or thermal starts, while
    # the lab-frame trajectory builds the ten block propagators once, as one
    # stack, and then takes only the residual's (4, n_ph, n_ph) displacements
    # at each row
    p = make_params(0.7, 5e-3, n=2, g2_over_g1=g2_over_g1)
    args = []
    real_expm = lindblad._expm
    monkeypatch.setattr(lindblad, "_expm", lambda m: args.append(m) or real_expm(m))
    for prep in (CavityPrep.vacuum(), CavityPrep.coherent(0.3 - 0.2j)):
        extract_channel(p, 1e6, 2e6, prep, n_ph=6)
    thermal_average_channel(p, 0.2, 3, 5, gamma_1=1e6, gamma_2=2e6)
    assert args == []
    rows = trajectory_rows(p, 0.0, 0.0, n_ph=6, stride=100)
    assert len(rows) > 2
    assert [m.shape for m in args] == [(10, 36, 36)] + [(4, 6, 6)] * len(rows)


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
    _, dt = StepPolicy().resolve(p.t_g_ns)
    lam = _branch_lams(p)
    alpha = 0.3 + 0.4j
    props = []
    real_expm = lindblad._expm
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lindblad, "_expm", lambda m: props.append(real_expm(m)) or props[-1])
        (_, start), (_, stepped) = lindblad._lab_blocks(p, alpha, n_ph, dt, [0, 1])
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
    # the stepping trajectory_rows really runs (one batched propagator
    # stack, one batched matmul per grid step, every block from the cavity
    # start) against each block stepped on its own with its own dense
    # complex expm(L dt): at every one of the first steps and at stops that
    # skip steps, from vacuum and from coherent starts, on both sidebands
    from scipy.linalg import expm

    p = make_params(0.7, 5e-3, n=2, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    _, dt = StepPolicy().resolve(p.t_g_ns)
    lam = _branch_lams(p)
    props = np.array([expm(_dense_block_generator(p, n_ph, lam[i], lam[j]) * dt)
                      for i, j in lindblad._UPPER])
    stops = [0, 1, 2, 3, 4, 7, 12]
    for alpha in (0j, 0.5 - 0.4j, -0.2 + 0.6j):
        vec = np.array([_displaced_start(n_ph, alpha, 0j, 0j).reshape(-1, 1)
                        for _ in lindblad._UPPER])
        seen, done = [], 0
        for step, blocks in lindblad._lab_blocks(p, alpha, n_ph, dt, stops):
            for _ in range(step - done):
                vec = props @ vec
            done = step
            seen.append(step)
            assert blocks.shape == (len(lindblad._UPPER), n_ph, n_ph)
            assert np.abs(blocks.reshape(vec.shape) - vec).max() < 1e-12
        assert seen == stops


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

    shift = lindblad._steady_shift(p)
    beta, c_a, scalar = lindblad._frame_terms(p)
    assert np.abs(beta - shift * np.array(lam)).max() == 0.0
    a, eye = FockSpace(n_ph).annihilation(), np.eye(n_ph)
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
    lam, shift = _branch_lams(p), lindblad._steady_shift(p)
    alphas = [0.5 - 0.4j, 0j]
    psi = lindblad._branch_kets(lindblad._frame_terms(p)[0], alphas, n_ph)
    blocks = np.einsum("usp,usq->supq", psi[lindblad._UPPER_I], psi[lindblad._UPPER_J].conj())
    for s, alpha in enumerate(alphas):
        cav = np.outer(_ket(big, alpha), _ket(big, alpha).conj())
        for k, (i, j) in enumerate(lindblad._UPPER):
            ref = (_dense_displacement(big, shift * lam[i]).conj().T @ cav
                   @ _dense_displacement(big, shift * lam[j]))[:n_ph, :n_ph]
            assert np.abs(blocks[s, k] - ref).max() < 1e-10


def test_displacement_has_the_exact_kept_elements():
    # the closed form's readout D(delta) = exp(-|delta|^2/2) exp(delta a^dag)
    # exp(-delta^* a), from the truncated lowering exponentials of
    # _lowering_exp, has the displacement's elements on the kept levels:
    # against expm in a much larger space; expm of the truncated generator
    # misses them
    from scipy.linalg import expm

    n_ph = 8
    deltas = np.array([0.0, 0.3 - 0.2j, -0.9j, 1.4])
    raising = lindblad._lowering_exp(n_ph, deltas).swapaxes(-1, -2)
    lowering = lindblad._lowering_exp(n_ph, -deltas.conj())
    exact = np.exp(-0.5 * np.abs(deltas) ** 2)[:, None, None] * np.einsum(
        "dmk,dkn->dmn", raising, lowering)
    a = FockSpace(n_ph).annihilation()
    for got, delta in zip(exact, deltas):
        assert np.abs(got - _dense_displacement(n_ph, delta)).max() < 1e-14
        truncated = expm(delta * a.conj().T - np.conj(delta) * a)
        assert delta == 0.0 or np.abs(truncated - got).max() > 1e-6


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
    # (extract_channel, thermal_average_channel): |alpha_i(t) - beta_i| on the
    # same grid peaks at t = 0, at max_i |alpha - beta_i|, which is the
    # displaced reach; that never exceeds the lab reach, so no Fock size grows
    p = make_params(0.7, kappa, n=2, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    delta, lam = p.delta_rad_ns, np.array(_branch_lams(p))
    t = np.linspace(0.0, 2 * 2 * math.pi / abs(delta), 2 * 2**16, endpoint=False)
    amps = (alpha * np.exp(-(1j * delta + kappa) * t)
            + lam[:, None] * drive_frame_displacement(1.0, delta, kappa, t))
    grid_max = float(np.abs(amps).max())
    reach = lindblad._reach(p, alpha)
    assert grid_max <= reach * (1 + 1e-12)
    if kappa == 0.0:
        assert reach <= grid_max * (1 + 1e-9)
    radius = lindblad._reach(p)
    assert radius == (abs(p.g1_rad_ns) + abs(p.g2_rad_ns)) / math.hypot(delta, kappa)
    assert reach <= (abs(alpha) + radius) * (1 + 1e-15)
    assert choose_n_ph(reach) <= choose_n_ph(abs(alpha) + radius)

    beta = lindblad._steady_shift(p) * lam
    held = np.abs(amps - beta[:, None])
    displaced = lindblad._reach(p, alpha, displaced=True)
    assert held.max() == pytest.approx(held[:, 0].max(), rel=1e-12)
    assert displaced == pytest.approx(float(np.abs(alpha - beta).max()), rel=1e-12)
    assert held.max() <= displaced * (1 + 1e-12)
    assert lindblad._reach(p, displaced=True) == pytest.approx(radius / 2.0, rel=1e-12)
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
        assert diag.n_ph == choose_n_ph(lindblad._reach(p, alpha, displaced=True))
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
    shift = lindblad._steady_shift(p)
    upper = tuple(np.array(lindblad._UPPER).T)

    def lab(n_ph):
        # Tr r_ij(t_g) of each block, from both cavity starts, with one dense
        # expm per distinct amplitude pair (lam_i, lam_j)
        from scipy.linalg import expm

        lam = _branch_lams(p)
        starts = np.array([_displaced_start(n_ph, alpha, 0j, 0j).reshape(-1)
                           for alpha in alphas])
        props, traces = {}, []
        for i, j in lindblad._UPPER:
            if (lam[i], lam[j]) not in props:
                props[lam[i], lam[j]] = expm(
                    _dense_block_generator(p, n_ph, lam[i], lam[j]) * p.t_g_ns)
            final = (starts @ props[lam[i], lam[j]].T).reshape(-1, n_ph, n_ph)
            traces.append(np.trace(final, axis1=1, axis2=2))
        return np.array(traces).T

    def dense(n_ph, frame):
        return np.array([_dense_coherence(p, 0.0, 0.0, n_ph, alpha, frame)[upper]
                         for alpha in alphas])

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

    shift, dt = lindblad._steady_shift(p), p.t_g_ns / steps
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
def test_closed_form_readout_matches_dense_expm(g2_over_g1, delta_sign, kappa, n_ph, alpha):
    # every block's closed-form trace Tr[r'_ij(t) D(b_j)^dag D(b_i)] against
    # the dense expm of the operator-form generator at the steady shift
    # applied to that block's own displaced start, read back through dense
    # displacements, after one grid step and over the whole gate
    from scipy.linalg import expm

    p = make_params(0.7, kappa, n=2, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    _, dt = StepPolicy().resolve(p.t_g_ns)
    lam, shift = _branch_lams(p), lindblad._steady_shift(p)
    frame = lindblad._frame_terms(p)
    psi = lindblad._branch_kets(frame[0], [alpha], n_ph)
    for t in (dt, p.t_g_ns):
        (traces,) = lindblad._readout(p, frame, psi, t)
        for u, (i, j) in enumerate(lindblad._UPPER):
            b_i, b_j = shift * lam[i], shift * lam[j]
            start = _displaced_start(n_ph, alpha, b_i, b_j).reshape(-1)
            block = expm(_dense_block_generator(p, n_ph, lam[i], lam[j], shift) * t) @ start
            readout = (_dense_displacement(n_ph + 40, -b_j)
                       @ _dense_displacement(n_ph + 40, b_i))[:n_ph, :n_ph]
            ref = np.trace(block.reshape(n_ph, n_ph) @ readout)
            assert abs(traces[u] - ref) < 1e-12, (t, i, j)


@pytest.mark.parametrize("stride", [3, 8, 20, 203])
def test_trajectory_rows_are_the_same_at_any_stride(stride):
    # a stride s run stops at multiples of s and steps the gaps between
    # stops unseen: its rows must be the stride-1 rows at the same steps,
    # the final step included
    p = make_params(0.7, 5e-3, g2_over_g1=1.5)
    policy = StepPolicy(min_steps=203, max_steps=203)
    prep = CavityPrep.coherent(0.3 + 0.4j)
    every = trajectory_rows(p, 2e6, 0.5e6, prep, n_ph=8, policy=policy)
    rows = trajectory_rows(p, 2e6, 0.5e6, prep, n_ph=8, policy=policy, stride=stride)
    picked = [row for k, row in enumerate(every) if k % stride == 0 or k == 203]
    assert len(rows) == len(picked) and rows[-1]["t_ns"] == every[-1]["t_ns"]
    for row, ref in zip(rows, picked):
        assert row["t_ns"] == ref["t_ns"]
        for key in ("trace", "purity", "mean_photon", "top_level_pop", "polaron_residual"):
            assert row[key] == pytest.approx(ref[key], rel=1e-12, abs=1e-15), key


def test_extract_channel_guard_is_max_over_gate():
    # in the displaced frame the guard level holds ~9e-6 at the start and
    # decays with the displaced state, to ~7e-7 by t_g (its final value
    # comes from one dense expm over the whole gate, no stepping): only a
    # check over the whole gate, its start included, flags it
    from scipy.linalg import expm

    p = make_params(0.7, 5e-2, n=2)
    threshold, n_ph = 1e-6, 5
    shift = lindblad._steady_shift(p)
    worst_end = 0.0
    for lam in _branch_lams(p):
        b = shift * lam
        final = (expm(_dense_block_generator(p, n_ph, lam, lam, shift) * p.t_g_ns)
                 @ _displaced_start(n_ph, 0j, b, b).reshape(-1))
        worst_end = max(worst_end, final[-1].real)
    assert worst_end < threshold
    _, diag = extract_channel(p, 0.0, 0.0, n_ph=n_ph, top_level_threshold=threshold)
    assert diag.failed
    assert diag.max_top_level_pop > threshold
    assert any("population" in r for r in diag.failure_reasons)


def test_extract_channel_flags_tight_guard():
    p = make_params(0.7, 5e-3, n=2)
    _, diag = extract_channel(p, 0.0, 0.0, n_ph=7, top_level_threshold=1e-12)
    assert diag.failed
    assert any("guard" in r or "population" in r for r in diag.failure_reasons)


def test_trajectory_rows_shape_and_content():
    p = make_params(0.7, 1e-3, n=2)
    rows = trajectory_rows(p, 0.0, 0.0, n_ph=6, stride=8)
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
    # unequal couplings, a coherent start, unequal dephasing and a mixed
    # qubit state with every coherence non-zero, so all 16 blocks count;
    # 6 levels leave up to ~1e-3 in the guard level, so top_level_pop is
    # not ~0
    p = make_params(0.7, 5e-3, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    gamma_1, gamma_2, alpha, n_ph = 2e6, 0.5e6, 0.3 + 0.4j, 6
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    qubit = m @ m.conj().T / np.trace(m @ m.conj().T)
    policy = StepPolicy(dt_ns=0.010)
    rows = trajectory_rows(
        p, gamma_1, gamma_2, CavityPrep.coherent(alpha), n_ph=n_ph, policy=policy,
        initial_qubit=qubit,
    )
    steps, dt = policy.resolve(p.t_g_ns)
    assert len(rows) == steps + 1
    state = CompositeState.from_parts(qubit, FockSpace(n_ph).coherent_rho(alpha))
    h = build_hamiltonian(p, n_ph)
    done = 0
    for k in (steps // 7, steps // 2, steps):
        # RK4 continues from the previous grid time, k - done steps of dt
        state, _ = evolve_rk4(
            state, h, p.kappa_per_ns, gamma_1 * 1e-9, gamma_2 * 1e-9, (k - done) * dt,
            StepPolicy(dt_ns=dt, min_steps=1, max_steps=10**6),
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
        "chan, diag = resgate.thermal_average_channel(params, 0.2, 2, 3)\n"
        "assert not diag.failed and not loaded(), loaded()\n"
        "resgate.trajectory_rows(params, 0.0, 0.0, stride=400)\n"
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
    # state, displaced back by one dense expm of the conditional displacement
    # generator sum_i |i><i| (x) (A_i a^dag - A_i^* a), A_i = -lam_i alpha_unit(t)
    from scipy.linalg import expm

    for g2_over_g1 in (1.0, 1.5):
        p = make_params(0.7, 1.021e-3, n=2, g2_over_g1=g2_over_g1)
        n_ph, policy = 8, StepPolicy(dt_ns=0.010)
        rows = trajectory_rows(p, 0.0, 0.0, n_ph=n_ph, policy=policy)
        steps, dt = policy.resolve(p.t_g_ns)
        fock = FockSpace(n_ph)
        a = fock.annihilation()
        plus = np.full(4, 0.5, dtype=complex)
        state = CompositeState.from_parts(np.outer(plus, plus.conj()), fock.vacuum_rho())
        h = build_hamiltonian(p, n_ph)
        lam = [p.g1_rad_ns * s1 + p.g2_rad_ns * s2 for s1 in (1, -1) for s2 in (1, -1)]
        done = 0
        for k in [*range(steps // 40, steps, steps // 40), steps]:
            state, _ = evolve_rk4(
                state, h, p.kappa_per_ns, 0.0, 0.0, (k - done) * dt,
                StepPolicy(dt_ns=dt, min_steps=1, max_steps=10**6),
            )
            done = k
            unit = drive_frame_displacement(1.0, p.delta_rad_ns, p.kappa_per_ns, k * dt)
            amps = [-lam_i * unit for lam_i in lam]
            gen = sum(
                np.kron(np.diag(np.eye(4)[i]), amp * a.conj().T - np.conj(amp) * a)
                for i, amp in enumerate(amps)
            )
            disp = expm(gen)
            cav = CompositeState(disp @ state.matrix @ disp.conj().T, n_ph).cavity_rho()
            ref = 1.0 - cav[0, 0].real / np.trace(cav).real
            # measured <= 5.1e-10 apart (RK4's own error at 10 ps); a transposed
            # displacement moves the column by up to ~1e-5 (at ~0.85 t_g)
            assert abs(rows[k]["polaron_residual"] - ref) < 1e-8, (g2_over_g1, k)


def test_polaron_residual_small_on_schedule():
    p = make_params(0.7, 1.021e-3, n=2)
    ts = np.linspace(0.0, p.t_g_ns, 9)
    res = polaron_residual(p, ts, n_ph=8)
    assert res < 1e-5


@pytest.mark.parametrize("samples", [1, 2, 64])
def test_thermal_average_is_the_mean_of_per_sample_fits(samples):
    # the batched local-Z fit of thermal_average_channel gives each sample
    # the compensation fit_local_z gives it alone: the average equals the
    # mean of the per-sample fits of the same seeded draws' channels
    p = make_params(0.7, 5e-3, n=2, delta_sign=-1)
    sigma = math.sqrt(0.3 / 2.0)
    draws = np.random.default_rng(41).normal(0.0, sigma, (samples, 2))
    cohs, _ = lindblad._coherences(p, 1e6, 2e6, [complex(*z) for z in draws], None,
                                   lindblad.DEFAULT_TOP_LEVEL_THRESHOLD)
    target = resgate.gate_target(p)
    fits = [resgate.fit_local_z(resgate.TwoQubitChannel(c), target, validate=False)
            for c in cohs]
    chan, _ = thermal_average_channel(p, 0.3, samples, 41, gamma_1=1e6, gamma_2=2e6)
    mean = np.mean([fit.channel.coherence for fit in fits], axis=0)
    assert np.abs(chan.coherence - mean).max() <= 1e-15
    # the samples' compensated channels differ far beyond that bound
    assert samples == 1 or np.abs(fits[0].channel.coherence - mean).max() > 1e-12


def test_per_size_tables_are_read_only():
    # the cached tables of one Fock size are shared by every later call at
    # that size, so none of them can be written through
    tables = lindblad._lowering_tables(7)
    assert all(a is b for a, b in zip(tables, lindblad._lowering_tables(7)))
    for table in tables + (lindblad._UPPER_I, lindblad._UPPER_J):
        with pytest.raises(ValueError):
            table[0] = 1


def test_thermal_channel_deterministic_and_continuous():
    p = make_params(0.7, 1e-3, n=2)
    a = thermal_average_channel(p, 0.05, 3, 11, n_ph=6)[0].superop
    b = thermal_average_channel(p, 0.05, 3, 11, n_ph=6)[0].superop
    assert np.array_equal(a, b)
    c = thermal_average_channel(p, 0.05, 3, 12, n_ph=6)[0].superop
    assert not np.array_equal(a, c)  # the seed really enters
    # n_bar = 0 short-circuits to the vacuum extraction, bit for bit
    vac = extract_channel(p, 0.0, 0.0, n_ph=6)[0].superop
    zero = thermal_average_channel(p, 0.0, 3, 11, n_ph=6)[0].superop
    assert np.array_equal(vac, zero)


def test_thermal_diagnostics_report_the_largest_fock_size(monkeypatch):
    # the Monte-Carlo samples share one Fock space, sized from the largest
    # displaced reach max_i |alpha_s - beta_i| among them, and one
    # closed-form pass; the diagnostics report that size
    p = make_params(0.7, 1e-3, n=2)
    stacks = []
    real_readout = lindblad._readout

    def recording(params, frame, psi, t):
        stacks.append(psi.shape[1:])
        return real_readout(params, frame, psi, t)

    monkeypatch.setattr(lindblad, "_readout", recording)
    _, diag = thermal_average_channel(p, 0.2, 2, 2)
    draws = np.random.default_rng(2).normal(0.0, math.sqrt(0.1), (2, 2))
    sizes = [choose_n_ph(lindblad._reach(p, complex(*z), displaced=True)) for z in draws]
    assert len(set(sizes)) > 1  # each sample alone would take another size
    assert stacks == [(2, max(sizes))]
    assert diag.n_ph == max(sizes)
    assert diag.to_json_dict()["n_ph"] == max(sizes)


def test_trajectory_and_polaron_residual_share_one_fock_size(monkeypatch):
    # with n_ph unset both lab-frame paths size a vacuum start by one rule,
    # choose_n_ph(_reach): here 8 levels, where the channel's displaced
    # frame takes 6; so the residual column's maximum is the residual
    sizes = []
    real_blocks = lindblad._lab_blocks

    def recording(params, alpha, n_ph, dt, stops):
        sizes.append(n_ph)
        return real_blocks(params, alpha, n_ph, dt, stops)

    monkeypatch.setattr(lindblad, "_lab_blocks", recording)
    p = make_params(0.35, 5e-3)
    rows = trajectory_rows(p, 0.0, 0.0)
    steps, dt = StepPolicy().resolve(p.t_g_ns)
    residual = polaron_residual(p, np.arange(steps + 1) * dt)
    assert sizes == [8, 8] == [choose_n_ph(lindblad._reach(p))] * 2
    assert residual == max(row["polaron_residual"] for row in rows)
    assert extract_channel(p, 0.0, 0.0)[1].n_ph == 6


def test_composite_state_partial_traces():
    f = FockSpace(5)
    qubit = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    cav = f.coherent_rho(0.6)
    st = CompositeState.from_parts(qubit, cav)
    assert np.allclose(st.qubit_rho(), qubit, atol=1e-14)
    assert np.allclose(st.cavity_rho(), cav, atol=1e-14)
    assert st.mean_photon == pytest.approx(np.trace(f.number_op() @ cav).real, abs=1e-13)
    assert st.purity == pytest.approx(
        float(np.trace(qubit @ qubit).real * np.trace(cav @ cav).real), rel=1e-12
    )


def test_extract_channel_rejects_a_thermal_cavity():
    # a thermal cavity is a seeded mixture: extract_channel must not run it
    # as vacuum, it is thermal_average_channel's to sample
    p = make_params(0.7, 1e-3, n=2)
    with pytest.raises(DomainError, match="thermal"):
        extract_channel(p, 0.0, 0.0, CavityPrep.thermal(0.1, samples=2), n_ph=6)


def test_cavity_prep_validation():
    with pytest.raises(DomainError):
        CavityPrep.thermal(-0.1)
    with pytest.raises(DomainError):
        CavityPrep(kind="squeezed")
    with pytest.raises(DomainError):
        CavityPrep.thermal(0.1, samples=0)
