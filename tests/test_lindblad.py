"""Master-equation solver: Fock tools, RK4 evolution, channel extraction."""

from __future__ import annotations

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
    """Channel from one RK4 run of |++> (x) cav: C_ij = 4 Tr_cav of block ij.

    A 10 ps step keeps RK4's own error near 1e-7; at the default 20 ps it
    reaches ~2e-6 on displaced starts.
    """
    n_ph = cav.shape[0]
    plus = np.full((4, 4), 0.25, dtype=complex)
    final, _ = evolve_rk4(
        CompositeState.from_parts(plus, cav), build_hamiltonian(p, n_ph),
        p.kappa_per_ns, gamma_1 * 1e-9, gamma_2 * 1e-9, p.t_g_ns,
        StepPolicy(dt_ns=0.010),
    )
    return np.diag(4.0 * final.qubit_rho().reshape(16))


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
    fock = FockSpace(7 if alpha is None else 10)
    if alpha is None:
        prep, cav = CavityPrep.vacuum(), fock.vacuum_rho()
    else:
        prep, cav = CavityPrep.coherent(alpha), fock.coherent_rho(alpha)
    chan, diag = extract_channel(p, gamma_1, gamma_2, prep, n_ph=fock.n_levels)
    assert not diag.failed
    ref = _rk4_reference_superop(p, gamma_1, gamma_2, cav)
    assert np.max(np.abs(chan.superop - ref)) < 1e-6


_BRANCHES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _dense_block_generator(p, n_ph, lam_i, lam_j):
    """L(lam_i, lam_j) from scratch: r -> -i(H_i r - r H_j) + kappa(2 a r a^dag - n r - r n),
    H = Delta n + (lam/2)(a + a^dag), as a matrix on row-major vec(r)."""
    fock = FockSpace(n_ph)
    a, num, eye = fock.annihilation(), fock.number_op(), np.eye(n_ph)

    def h(lam):
        return p.delta_rad_ns * num + 0.5 * lam * (a + a.conj().T)

    return (-1j * (np.kron(h(lam_i), eye) - np.kron(eye, h(lam_j).T))
            + p.kappa_per_ns * (2.0 * np.kron(a, a.conj()) - np.kron(num, eye)
                                - np.kron(eye, num.T)))


def _branch_lams(p):
    return [p.g1_rad_ns * s1 + p.g2_rad_ns * s2 for s1, s2 in _BRANCHES]


def _dense_reference_superop(p, gamma_1, gamma_2, cav):
    """Channel with each block on or above the diagonal propagated by its own
    dense expm(L(lam_i, lam_j) t_g): no stepping and no symmetry used."""
    from scipy.linalg import expm

    n_ph, lam = cav.shape[0], _branch_lams(p)
    coh = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(i, 4):
            rate = 1e-9 * sum(g for g, si, sj in zip((gamma_1, gamma_2), _BRANCHES[i],
                                                      _BRANCHES[j]) if si != sj)
            block = expm(_dense_block_generator(p, n_ph, lam[i], lam[j]) * p.t_g_ns)
            coh[i, j] = math.exp(-rate * p.t_g_ns) * np.trace(
                (block @ cav.reshape(-1)).reshape(n_ph, n_ph))
            coh[j, i] = np.conj(coh[i, j])
    return np.diag(coh.reshape(16))


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
    # the whole gate, for vacuum and for coherent starts off both axes
    assume(gamma_1 != gamma_2)
    p = make_params(0.7, 5e-3, n=n, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    fock = FockSpace(n_ph)
    if alpha is None:
        prep, cav = CavityPrep.vacuum(), fock.vacuum_rho()
    else:
        beta = complex(alpha[0] * alpha[1], alpha[2] * alpha[3])
        prep, cav = CavityPrep.coherent(beta), fock.coherent_rho(beta)
    chan, _ = extract_channel(p, gamma_1, gamma_2, prep, n_ph=n_ph)
    ref = _dense_reference_superop(p, gamma_1, gamma_2, cav)
    assert np.max(np.abs(chan.superop - ref)) < 1e-12


@pytest.mark.parametrize("g2_over_g1", [1.0, 1.5])
def test_extract_channel_guard_reads_mirrored_branches(g2_over_g1):
    # this start sends |11>, whose block is read off the mirrored track of
    # |00>, far up the ladder (~1.5e-3 in the guard level against ~1e-5 for
    # |00>): the guard maximum must be the dense per-branch stepping maximum
    from scipy.linalg import expm

    p = make_params(0.7, 5e-3, n=2, g2_over_g1=g2_over_g1)
    alpha, n_ph = -0.5 + 0.5j, 8
    cav = FockSpace(n_ph).coherent_rho(alpha)
    steps, dt = StepPolicy().resolve(p.t_g_ns)
    worst = []
    for lam in _branch_lams(p):
        prop = expm(_dense_block_generator(p, n_ph, lam, lam) * dt)
        vec, top = cav.reshape(-1), 0.0
        for step in range(steps + 1):
            if step:
                vec = prop @ vec
            top = max(top, vec[-1].real)
        worst.append(top)
    assert int(np.argmax(worst)) == 3 and worst[3] > 100 * worst[0]
    _, diag = extract_channel(p, 0.0, 0.0, CavityPrep.coherent(alpha), n_ph=n_ph)
    assert diag.max_top_level_pop == pytest.approx(worst[3], rel=1e-12)


def _dense_real_basis(n_ph, parity):
    """W from its definition: the fixed vectors of K r = r^dag (parity False)
    or K r = Pi r^dag Pi (parity True). Column p = (a, a) is e_p; for
    p = (a, b), q = (b, a), a < b, column p is (e_p + s e_q)/sqrt2 and
    column q is i(e_p - s e_q)/sqrt2, with s = 1 or (-1)^(a+b)."""
    w = np.zeros((n_ph * n_ph,) * 2, dtype=complex)
    for a in range(n_ph):
        w[a * n_ph + a, a * n_ph + a] = 1.0
        for b in range(a + 1, n_ph):
            p, q, s = a * n_ph + b, b * n_ph + a, (-1) ** (a + b) if parity else 1
            w[p, p], w[q, p] = math.sqrt(0.5), s * math.sqrt(0.5)
            w[p, q], w[q, q] = 1j * math.sqrt(0.5), -1j * s * math.sqrt(0.5)
    return w


@pytest.mark.parametrize("g2_over_g1, expected, real", [(1.0, 4, 3), (1.5, 6, 4)],
                         ids=["1.0-4", "1.5-6"])
def test_extract_channel_builds_one_propagator_per_orbit(monkeypatch, g2_over_g1, expected,
                                                         real):
    # one expm per orbit of (i, j) <-> (3-j, 3-i), none over the whole gate:
    # expm(L dt) itself, or real(W^H L dt W) where that is exact (an orbit
    # with lam_i = +-lam_j; the imaginary part dropped is zero)
    p = make_params(0.7, 5e-3, n=2, g2_over_g1=g2_over_g1)
    _, dt = StepPolicy().resolve(p.t_g_ns)
    lam = _branch_lams(p)
    steps_dt = [_dense_block_generator(p, 6, lam[i], lam[j]) * dt
                for i in range(4) for j in range(i, 4)]
    real_forms = [w.conj().T @ m @ w for m in steps_dt
                  for w in (_dense_real_basis(6, False), _dense_real_basis(6, True))]
    real_forms = [m.real for m in real_forms if np.abs(m.imag).max() < 1e-14]
    args = []
    real_expm = lindblad._expm
    monkeypatch.setattr(lindblad, "_expm", lambda m: args.append(m) or real_expm(m))
    for prep in (CavityPrep.vacuum(), CavityPrep.coherent(0.3 - 0.2j)):
        args.clear()
        extract_channel(p, 1e6, 2e6, prep, n_ph=6)
        assert len(args) == expected
        assert sum(np.isrealobj(m) for m in args) == real
        assert all(any(m.shape == ref.shape and np.allclose(m, ref, rtol=0.0, atol=1e-14)
                       for ref in (real_forms if np.isrealobj(m) else steps_dt))
                   for m in args)


@pytest.mark.parametrize("n_ph", [2, 3, 6])
@pytest.mark.parametrize("parity", [False, True])
def test_real_form_basis_is_unitary_and_matches_its_gathers(n_ph, parity):
    # the index gathers of _to_real (a matrix) and of _to_k_basis and
    # _from_k_basis (vectors, over the last axis) apply the W of its definition
    w = _dense_real_basis(n_ph, parity)
    assert np.allclose(w.conj().T @ w, np.eye(n_ph * n_ph), rtol=0.0, atol=1e-15)
    rng = np.random.default_rng(n_ph)
    m = rng.normal(size=w.shape) + 1j * rng.normal(size=w.shape)
    lam = (0.4, -0.4) if parity else (0.4, 0.4)
    pairs = lindblad._conjugation(n_ph, *lam)
    assert np.allclose(lindblad._to_real(m.copy(), *pairs), (w.conj().T @ m @ w).real,
                       rtol=0.0, atol=1e-14)
    v = rng.normal(size=(3, n_ph * n_ph)) + 1j * rng.normal(size=(3, n_ph * n_ph))
    assert np.allclose(lindblad._to_k_basis(v, *pairs), v @ w.conj(), rtol=0.0, atol=1e-14)
    assert np.allclose(lindblad._from_k_basis(v, *pairs), v @ w.T, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("parity", [False, True])
def test_real_form_check_fires_off_the_symmetric_orbits(parity):
    # an orbit (lam, 0) commutes with neither antiunitary: W^H L W keeps an
    # imaginary part, so it must take the complex expm
    p = make_params(0.7, 5e-3, n=2, g2_over_g1=1.5)
    w = _dense_real_basis(6, parity)
    lam = _branch_lams(p)[0]
    for pair, symmetric in (((lam, 0.0), False), ((lam, -lam if parity else lam), True)):
        gen = _dense_block_generator(p, 6, *pair)
        imag = np.abs((w.conj().T @ gen @ w).imag).max()
        if symmetric:
            assert imag < 1e-12 * np.abs(gen).max()
        else:
            assert imag > 1e-3 * np.abs(gen).max()
            assert lindblad._conjugation(6, *pair) is None


@given(
    g2_over_g1=st.one_of(st.just(1.0), st.floats(min_value=0.3, max_value=3.0)),
    delta_sign=st.sampled_from([1, -1]),
    kappa=st.floats(min_value=1e-3, max_value=5e-2),
    n_ph=st.integers(min_value=4, max_value=10),
)
@settings(max_examples=12, deadline=None)
def test_step_propagator_matches_expm(g2_over_g1, delta_sign, kappa, n_ph):
    # every orbit's propagator against the complex expm: a real one is
    # E = W^H expm(L dt) W, so W E W^H (W built densely here) must match
    from scipy.linalg import expm

    p = make_params(0.7, kappa, n=2, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    _, dt = StepPolicy().resolve(p.t_g_ns)
    lam = _branch_lams(p)
    generator = lindblad._block_generator(p, n_ph)
    for i, j in lindblad._UPPER:
        ref = expm(_dense_block_generator(p, n_ph, lam[i], lam[j]) * dt)
        prop = lindblad._step_propagator(generator, lam[i], lam[j], dt)
        if np.isrealobj(prop):
            w = _dense_real_basis(n_ph, lam[i] != lam[j])
            prop = w @ prop @ w.conj().T
        assert np.abs(prop - ref).max() < 1e-13


@pytest.mark.parametrize("n_ph", [4, 7, 10])
@pytest.mark.parametrize("delta_sign", [1, -1])
@pytest.mark.parametrize("g2_over_g1, real_orbits, orbits",
                         [(1.0, 3, 4), (1.5, 4, 6), (3.0, 4, 6)], ids=["1.0", "1.5", "3.0"])
def test_real_stepping_matches_complex_stepping(g2_over_g1, real_orbits, orbits, delta_sign,
                                                n_ph):
    # the self-conjugate orbits step real columns in K's fixed basis; mapped
    # back by blocks(), every block of the first chunk must match that block
    # stepped from cav with its own dense complex expm(L dt), and traces()
    # must read the same traces (a mirrored block's conjugated)
    from scipy.linalg import expm

    p = make_params(0.7, 5e-3, n=2, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    steps, dt = StepPolicy().resolve(p.t_g_ns)
    lam = _branch_lams(p)
    props = np.array([expm(_dense_block_generator(p, n_ph, lam[i], lam[j]) * dt)
                      for i, j in lindblad._UPPER])
    # a stack of states steps as more columns of the same tracks, each
    # state's blocks and traces its own; a parity-even vacuum among coherent
    # states is stepped with its (equal) flipped copy
    fock = FockSpace(n_ph)
    coherent = fock.coherent_rho(0.5 - 0.4j)
    for cavs in ([fock.vacuum_rho()], [coherent],
                 [coherent, fock.coherent_rho(-0.2 + 0.6j), fock.vacuum_rho()]):
        cavs = np.array(cavs)
        tracks = lindblad._BlockTracks(p, cavs, dt)
        assert tracks.real_ops.dtype == np.float64 and len(tracks.real_ops) == real_orbits
        assert len(tracks.real_ops) + len(tracks.cplx_ops) == orbits
        assert tracks.real_start.shape[-1] <= 2 * len(cavs)
        _, states = next(tracks.run(steps))
        assert len(states) == min(lindblad._CHUNK,
                                  lindblad._CHUNK_BYTES // (8 * tracks.width)) > 1
        vec = np.tile(cavs.reshape(len(cavs), 1, -1, 1), (1, len(props), 1, 1))
        for k, blocks in enumerate(tracks.blocks(states)):
            if k:
                vec = props @ vec
            assert np.abs(blocks.reshape(vec.shape) - vec).max() < 1e-12
        traces = vec.reshape(len(cavs), -1, n_ph, n_ph).trace(axis1=2, axis2=3)
        assert np.abs(tracks.traces(states[-1]) - traces).max() < 1e-12


@given(
    g2_over_g1=st.floats(min_value=0.3, max_value=3.0),
    delta_sign=st.sampled_from([1, -1]),
    kappa=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5e-2)),
    alpha=st.complex_numbers(max_magnitude=1.5),
)
@settings(max_examples=40, deadline=None)
def test_reach_is_the_largest_branch_amplitude(g2_over_g1, delta_sign, kappa, alpha):
    # _reach bounds |alpha_i(t)| = |alpha e^{-(i Delta + kappa) t} + lam_i alpha_unit(t)|
    # over the branches on a fine grid of the first two drive periods, and
    # at kappa = 0 (a closed circle) equals the grid's maximum; it never
    # exceeds the old rule |alpha| + loop radius, so no Fock size grows
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


@pytest.mark.parametrize("kappa", [5e-3, 5e-2])
@pytest.mark.parametrize("delta_sign", [1, -1])
@pytest.mark.parametrize("g2_over_g1", [1.5, 3.0])
def test_auto_fock_size_covers_the_largest_branch(g2_over_g1, delta_sign, kappa):
    # with n_ph unset a coherent start sizes its space from the branches'
    # exact reach, which counts the largest branch amplitude |g1| + |g2|,
    # not 2 sqrt(g1 g2): the guard level then stays below choose_n_ph's
    # default tail of 1e-5. Every steady state beta_i lies along one phase
    # u; an alpha along +-u reaches |alpha| + radius (the old rule), one
    # along +-i u the least, so its space is the smallest
    p = make_params(0.7, kappa, n=2, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    u = -1j * complex(kappa, -p.delta_rad_ns) / math.hypot(kappa, p.delta_rad_ns)
    for alpha in (0.5, 1.0, -0.7 + 0.7j, u, -u, 0.9j * u, -0.9j * u):
        _, diag = extract_channel(p, 0.0, 0.0, CavityPrep.coherent(alpha))
        assert diag.max_top_level_pop < 1e-5, (alpha, diag.n_ph)


@pytest.mark.parametrize("steps", [3, 200, 203, 365])
@pytest.mark.parametrize("g2_over_g1", [1.0, 1.5])
@pytest.mark.parametrize("alpha", [None, -0.5 + 0.5j], ids=["vacuum", "coherent"])
def test_extract_channel_guard_is_read_at_every_step(alpha, g2_over_g1, steps):
    # extract_channel stops only every _MACRO grid steps; its guard maximum
    # must still be the maximum over every grid step of stride-1 stepping,
    # for fewer steps than _MACRO, a multiple of it and remainders
    p = make_params(0.7, 5e-3, n=2, g2_over_g1=g2_over_g1)
    n_ph = 8
    fock = FockSpace(n_ph)
    prep, cav = ((CavityPrep.vacuum(), fock.vacuum_rho()) if alpha is None
                 else (CavityPrep.coherent(alpha), fock.coherent_rho(alpha)))
    policy = StepPolicy(min_steps=steps, max_steps=steps)
    _, dt = policy.resolve(p.t_g_ns)
    tracks = lindblad._BlockTracks(p, cav[None], dt)
    every = max(float(states[:, tracks.guard].max()) for _, states in tracks.run(steps))
    _, diag = extract_channel(p, 0.0, 0.0, prep, n_ph=n_ph, policy=policy)
    assert diag.steps == steps
    assert diag.max_top_level_pop == pytest.approx(every, rel=1e-12)


@given(
    g2_over_g1=st.one_of(st.just(1.0), st.floats(min_value=0.3, max_value=3.0)),
    delta_sign=st.sampled_from([1, -1]),
    kappa=st.floats(min_value=1e-3, max_value=5e-2),
    n_ph=st.integers(min_value=4, max_value=10),
    alpha=st.one_of(st.none(), st.complex_numbers(max_magnitude=0.8)),
    half_steps=st.integers(min_value=1, max_value=205),
)
@settings(max_examples=15, deadline=None)
def test_extract_channel_is_the_same_at_any_stride(g2_over_g1, delta_sign, kappa, n_ph,
                                                   alpha, half_steps):
    # stepping by P = E^_MACRO (and E for the remainder) against E at every
    # grid step, over odd step counts
    p = make_params(0.7, kappa, n=2, delta_sign=delta_sign, g2_over_g1=g2_over_g1)
    prep = CavityPrep.vacuum() if alpha is None else CavityPrep.coherent(alpha)
    steps = 2 * half_steps + 1
    policy = StepPolicy(min_steps=steps, max_steps=steps)
    runs = []
    for macro in (1, lindblad._MACRO):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lindblad, "_MACRO", macro)
            runs.append(extract_channel(p, 1e6, 2e6, prep, n_ph=n_ph, policy=policy))
    (chan_a, diag_a), (chan_b, diag_b) = runs
    assert np.abs(chan_a.superop - chan_b.superop).max() < 1e-13
    assert diag_a.max_top_level_pop == pytest.approx(diag_b.max_top_level_pop, rel=1e-12)


@pytest.mark.parametrize("stride", [3, 8, 20, 203])
def test_trajectory_rows_are_the_same_at_any_stride(stride):
    # a stride s run stops at multiples of s and of _MACRO, and steps a gap
    # of _MACRO by P: its rows must be the stride-1 rows at the same steps,
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
    # the guard level fills to ~1e-5 mid-gate and empties to ~7e-8 by t_g:
    # only a check over the whole gate flags it
    p = make_params(0.7, 5e-3, n=2)
    threshold = 1e-6
    fock = FockSpace(7)
    worst_end = 0.0
    for k in range(4):
        qubit = np.zeros((4, 4), dtype=complex)
        qubit[k, k] = 1.0
        final, _ = evolve_rk4(
            CompositeState.from_parts(qubit, fock.vacuum_rho()),
            build_hamiltonian(p, 7), p.kappa_per_ns, 0.0, 0.0, p.t_g_ns,
        )
        worst_end = max(worst_end, final.top_level_pop)
    assert worst_end < threshold
    _, diag = extract_channel(p, 0.0, 0.0, n_ph=7, top_level_threshold=threshold)
    assert diag.failed
    assert diag.max_top_level_pop > threshold
    assert any("population" in r for r in diag.failure_reasons)


def test_extract_channel_memory_does_not_grow_with_steps():
    # only the running guard maximum and the final blocks are kept, so a
    # 5000-step gate needs no more memory than a 200-step one
    import tracemalloc

    p = make_params(0.7, 5e-3, n=2)
    extract_channel(p, 0.0, 0.0, n_ph=6)  # first use imports scipy: not measured
    peaks = []
    for steps in (200, 5000):
        tracemalloc.start()
        try:
            extract_channel(p, 0.0, 0.0, n_ph=6,
                            policy=StepPolicy(min_steps=steps, max_steps=steps))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1e6, peaks


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


def test_trajectory_rows_match_rk4_reference():
    # unequal couplings, a coherent start, unequal dephasing and a mixed
    # qubit state with every coherence non-zero, so all 16 blocks count;
    # 6 levels leave ~1e-4 in the guard level, so top_level_pop is not ~0
    p = make_params(0.7, 5e-3, g2_over_g1=1.5)
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


def test_import_loads_no_scipy_until_the_oracle_runs():
    # scipy is imported on the numeric engine's first use, not with resgate
    script = (
        "import sys\n"
        "import resgate\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
        "params = resgate.resolve_operating_point(resgate.config_from_dict({})).params\n"
        "chan, diag = resgate.extract_channel(params, 0.0, 0.0, n_ph=7)\n"
        "chan.validate()\n"
        "assert not diag.failed and 'scipy.linalg' in sys.modules\n"
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
    # reach among them, and one set of block tracks; the diagnostics report
    # that size
    p = make_params(0.7, 1e-3, n=2)
    stacks = []
    real_tracks = lindblad._BlockTracks

    def recording(params, cavs, dt):
        stacks.append(cavs.shape)
        return real_tracks(params, cavs, dt)

    monkeypatch.setattr(lindblad, "_BlockTracks", recording)
    _, diag = thermal_average_channel(p, 0.2, 2, 2)
    draws = np.random.default_rng(2).normal(0.0, math.sqrt(0.1), (2, 2))
    sizes = [choose_n_ph(lindblad._reach(p, complex(*z))) for z in draws]
    assert len(set(sizes)) > 1  # each sample alone would take another size
    assert stacks == [(2, max(sizes), max(sizes))]
    assert diag.n_ph == max(sizes)
    assert diag.to_json_dict()["n_ph"] == max(sizes)


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
