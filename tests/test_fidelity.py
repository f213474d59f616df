"""Fidelity layer: trace kernel, product-basis route, local-Z fitting."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resgate import (
    CavityPrep,
    TwoQubitChannel,
    analytic_avg_fidelity,
    average_gate_fidelity,
    correlated_dephasing_channel,
    entanglement_fidelity,
    extract_channel,
    fit_local_z,
    ideal_gate_unitary,
    intrinsic_dephasing_channel,
    textbook_cphase_decomposition,
)

from conftest import (
    PRODUCT_STATES,
    entanglement_fidelity_product_basis,
    make_params,
)
from local_z_reference import reference_fit


def _ideal_channel(phi=math.pi / 4.0) -> TwoQubitChannel:
    return TwoQubitChannel.from_unitary(ideal_gate_unitary(phi))


def test_product_states_are_states_and_informationally_complete():
    assert len(PRODUCT_STATES) == 16
    for rho in PRODUCT_STATES:
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(rho, rho.conj().T, atol=1e-14)
        evals = np.linalg.eigvalsh(rho)
        assert evals.min() > -1e-14
    gram = np.array(
        [[np.trace(a.conj().T @ b) for b in PRODUCT_STATES] for a in PRODUCT_STATES]
    )
    # invertible Gram matrix <=> the 16 states span operator space
    assert abs(np.linalg.det(gram)) > 1e-6


def test_identity_channel_has_unit_fidelity():
    ident = TwoQubitChannel.from_unitary(np.eye(4, dtype=complex))
    rep = average_gate_fidelity(ident, np.eye(4, dtype=complex))
    assert rep.f_avg == pytest.approx(1.0, abs=1e-14)
    assert rep.f_e == pytest.approx(1.0, abs=1e-14)


def test_ideal_vs_itself_and_textbook_dressing():
    chan = _ideal_channel()
    rep = average_gate_fidelity(chan)
    assert rep.f_avg == pytest.approx(1.0, abs=1e-13)
    # against textbook CZ the channel needs the local Z dressing appended
    cz, local = textbook_cphase_decomposition()
    rep_tb = average_gate_fidelity(chan.then(TwoQubitChannel.from_unitary(local)), cz)
    assert rep_tb.f_avg == pytest.approx(1.0, abs=1e-13)


def test_two_fidelity_routes_agree():
    # the trace kernel (entanglement_fidelity, average_gate_fidelity and
    # fit_local_z's report) against the product-basis route, on a composed
    # analytic channel and on the solver's exact channels at
    # unequal couplings from a vacuum and a coherent start, scored against
    # the gate and against a random non-diagonal unitary (of which the
    # kernel reads only the diagonal)
    p = make_params(0.7, 5e-3, n=2, g2_over_g1=1.5)
    chans = [
        correlated_dephasing_channel(0.77).then(
            intrinsic_dephasing_channel(0.02, 0.05, 1.0)
        ).then(_ideal_channel()),
        extract_channel(p, 1e6, 2e6, CavityPrep.vacuum(), n_ph=8)[0],
        extract_channel(p, 1e6, 2e6, CavityPrep.coherent(0.3 - 0.4j), n_ph=8)[0],
    ]
    rng = np.random.default_rng(5)
    scrambled, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    for target, chan in itertools.product(
        (ideal_gate_unitary(math.pi / 4.0), scrambled), chans
    ):
        fe_basis = entanglement_fidelity_product_basis(chan, target)
        assert entanglement_fidelity(chan, target) == pytest.approx(fe_basis, abs=1e-12)
        rep = average_gate_fidelity(chan, target)
        assert rep.f_e == pytest.approx(fe_basis, abs=1e-12)
        assert rep.f_avg == pytest.approx((4.0 * fe_basis + 1.0) / 5.0, abs=1e-12)
        fit = fit_local_z(chan, target)
        fe_fit = entanglement_fidelity_product_basis(fit.channel, target)
        assert fit.report.f_e == pytest.approx(fe_fit, abs=1e-12)
        assert fit.report.f_avg == pytest.approx((4.0 * fe_fit + 1.0) / 5.0, abs=1e-12)


@given(
    b=st.floats(min_value=0.2, max_value=1.0),
    x=st.floats(min_value=0.0, max_value=1.5),
)
@settings(max_examples=40, deadline=None)
def test_average_fidelity_closed_form(b, x):
    # channel built from the two dephasing factors plus the entangling
    # unitary, scored against that unitary, has the closed-form fidelity
    chan = intrinsic_dephasing_channel(x, x, 1.0).then(
        correlated_dephasing_channel(b)
    ).then(_ideal_channel())
    rep = average_gate_fidelity(chan, ideal_gate_unitary(math.pi / 4.0))
    assert rep.f_avg == pytest.approx(analytic_avg_fidelity(b, x, 1.0), abs=1e-11)


def test_unequal_intrinsic_rates():
    # independent dephasing against the bare unitary has the product form
    # F_e = (1+e^{-g1 t})(1+e^{-g2 t})/4; check it and the Jensen direction
    # (at fixed total rate the unequal split loses *less* fidelity).
    target = ideal_gate_unitary(math.pi / 4.0)
    chan1 = intrinsic_dephasing_channel(0.3, 0.1, 1.0).then(_ideal_channel())
    chan2 = intrinsic_dephasing_channel(0.2, 0.2, 1.0).then(_ideal_channel())
    rep1 = average_gate_fidelity(chan1, target)
    rep2 = average_gate_fidelity(chan2, target)
    fe1 = (1.0 + math.exp(-0.3)) * (1.0 + math.exp(-0.1)) / 4.0
    assert rep1.f_e == pytest.approx(fe1, abs=1e-12)
    assert rep1.f_avg == pytest.approx(
        (4.0 * entanglement_fidelity_product_basis(chan1, target) + 1.0) / 5.0,
        abs=1e-12,
    )
    assert rep1.f_avg > rep2.f_avg


def test_fit_local_z_recovers_injected_angles():
    th1, th2 = 0.37, -1.12
    rz = np.diag([np.exp(-1j * th1 / 2.0), np.exp(1j * th1 / 2.0)])
    rz2 = np.diag([np.exp(-1j * th2 / 2.0), np.exp(1j * th2 / 2.0)])
    dressed = TwoQubitChannel.from_unitary(
        np.kron(rz, rz2) @ ideal_gate_unitary(math.pi / 4.0)
    )
    bare = average_gate_fidelity(dressed).f_avg
    fit = fit_local_z(dressed)
    assert bare < 0.9  # the dressing really hurts before compensation
    assert fit.report.f_avg == pytest.approx(1.0, abs=1e-9)
    comp = fit.channel
    assert average_gate_fidelity(comp).f_avg == pytest.approx(1.0, abs=1e-9)


def test_fit_local_z_no_op_on_clean_channel():
    chan = correlated_dephasing_channel(0.9).then(_ideal_channel())
    plain = average_gate_fidelity(chan).f_avg
    fit = fit_local_z(chan)
    assert fit.report.f_avg >= plain - 1e-12
    assert fit.report.f_avg == pytest.approx(plain, abs=1e-9)


def _random_channels(rng):
    """Six random CPTP Z-diagonal channels: coherence matrices C of ranks
    3, 3, 3, 1, 2 and 4."""
    chans = []
    for rank in (3, 3, 3, 1, 2, 4):
        # unit-diagonal Gram matrix: the coherence factors of a CPTP diagonal map
        v = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        chans.append(TwoQubitChannel(v @ v.conj().T))
    return chans


def _local_z_fidelity_grid(chan, target, theta):
    """F_avg of chan followed by Rz(t1) (x) Rz(t2), on the grid theta x theta.

    The rotation multiplies C_ij by r_p conj(r_r) r_q conj(r_s) for
    i = (p, q), j = (r, s) and r(t) = (e^{-it/2}, e^{it/2}), so F_e is a
    bilinear form in the per-qubit factors.
    """
    u = np.diag(target)
    w = chan.coherence * np.conj(np.outer(u, u.conj()))
    d = w.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    r = np.exp(-0.5j * np.outer(theta, [1.0, -1.0]))
    a = (r[:, :, None] * r.conj()[:, None, :]).reshape(len(theta), 4)
    f_e = (a @ d @ a.T).real / 16.0
    return (4.0 * f_e + 1.0) / 5.0


def test_fit_local_z_not_below_brute_force_grid():
    rng = np.random.default_rng(2024)
    target = ideal_gate_unitary(math.pi / 4.0)
    theta = np.linspace(-math.pi, math.pi, 721)
    for chan in _random_channels(rng):
        grid = _local_z_fidelity_grid(chan, target, theta)
        # the grid formula agrees with the standard fidelity route
        i, j = 100, 517
        rz = [np.diag(np.exp(-0.5j * np.array([t, -t]))) for t in (theta[i], theta[j])]
        direct = average_gate_fidelity(
            chan.then(TwoQubitChannel.from_unitary(np.kron(*rz))), target
        ).f_avg
        assert grid[i, j] == pytest.approx(direct, abs=1e-13)
        fit = fit_local_z(chan, target)
        assert fit.report.f_avg >= grid.max() - 1e-12


@given(
    rank=st.integers(min_value=1, max_value=4),
    sideband=st.sampled_from([1, -1]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_fit_local_z_matches_the_four_probe_reference(rank, sideband, seed):
    # the coefficient-form fit against the four-probe coordinate ascent it
    # replaced (tests/local_z_reference.py), on random CPTP channels of
    # every rank against both sidebands' targets: the same F_avg, and never
    # below the brute-force grid maximum
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    chan = TwoQubitChannel(v @ v.conj().T)
    target = ideal_gate_unitary(sideband * math.pi / 4.0)
    fit = fit_local_z(chan, target)
    _, _, f_ref = reference_fit(chan.coherence, target)
    assert fit.report.f_avg == pytest.approx(f_ref, abs=1e-13)
    grid = _local_z_fidelity_grid(chan, target, np.linspace(-math.pi, math.pi, 181))
    assert fit.report.f_avg >= grid.max() - 1e-12
    # the report is the fidelity of the compensated channel it returns
    assert average_gate_fidelity(fit.channel, target).f_avg == pytest.approx(
        fit.report.f_avg, abs=1e-14)
    # only C's Hermitian part enters F_avg: an unvalidated C with an added
    # anti-Hermitian part fits as the reference fits it
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    skewed = chan.coherence + 0.1j * (h + h.conj().T)
    _, _, f_skew = reference_fit(skewed, target)
    assert fit_local_z(TwoQubitChannel(skewed), target, validate=False).report.f_avg \
        == pytest.approx(f_skew, abs=1e-13)


def test_analytic_channel_fidelity_invariant_under_sideband():
    gamma = 1.2e6
    p_pos = make_params(0.35, 1.021e-3, n=2, delta_sign=+1)
    p_neg = make_params(0.35, 1.021e-3, n=2, delta_sign=-1)
    from resgate import analytic_gate_channel

    f_pos = average_gate_fidelity(
        analytic_gate_channel(p_pos, gamma, gamma),
        ideal_gate_unitary(math.pi / 4.0),
    ).f_avg
    f_neg = average_gate_fidelity(
        analytic_gate_channel(p_neg, gamma, gamma),
        ideal_gate_unitary(-math.pi / 4.0),
    ).f_avg
    assert f_pos == pytest.approx(f_neg, abs=1e-13)
