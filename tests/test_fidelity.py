"""Fidelity layer: trace kernel, product-basis route, the local Z of a coherent start."""

from __future__ import annotations

import cmath
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
    gate_target,
    ideal_gate_unitary,
    intrinsic_dephasing_channel,
    textbook_cphase_decomposition,
)
from resgate.errors import DomainError

from conftest import (
    PRODUCT_STATES,
    entanglement_fidelity_product_basis,
    make_params,
)


def _ideal_channel(phi=math.pi / 4.0) -> TwoQubitChannel:
    return TwoQubitChannel.from_kraus((ideal_gate_unitary(phi),))


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
    ident = TwoQubitChannel.from_kraus((np.ones(4),))
    assert average_gate_fidelity(ident, np.ones(4)) == pytest.approx(1.0, abs=1e-14)
    assert entanglement_fidelity(ident, np.ones(4)) == pytest.approx(1.0, abs=1e-14)


def test_a_complex_fidelity_raises_without_validation():
    # an unvalidated non-Hermitian C gives a complex sum: a DomainError that
    # names the imaginary part, under python -O too, not a fidelity of 0.25
    coh = np.eye(4, dtype=complex)
    coh[0, 3] = 0.5j
    chan = TwoQubitChannel(coh)
    for scorer in (entanglement_fidelity, average_gate_fidelity):
        with pytest.raises(DomainError, match="imaginary part"):
            scorer(chan, validate=False)


def test_target_is_passed_as_its_diagonal():
    # every target is Z-diagonal and travels as its diagonal, shape (4,); a
    # 4x4 matrix, even a diagonal one, is refused by its shape
    chan = _ideal_channel()
    u = ideal_gate_unitary(math.pi / 4.0)
    for scorer in (entanglement_fidelity, average_gate_fidelity):
        assert isinstance(scorer(chan, u), float)
        for bad in (np.diag(u), u[:3], np.ones((4, 1))):
            with pytest.raises(DomainError, match="shape"):
                scorer(chan, bad)


def test_ideal_vs_itself_and_textbook_dressing():
    chan = _ideal_channel()
    assert average_gate_fidelity(chan) == pytest.approx(1.0, abs=1e-13)
    # against textbook CZ the channel needs the local Z dressing appended
    cz, local = textbook_cphase_decomposition()
    f_tb = average_gate_fidelity(chan.then(TwoQubitChannel.from_kraus((local,))), cz)
    assert f_tb == pytest.approx(1.0, abs=1e-13)


def test_two_fidelity_routes_agree():
    # the trace kernel (entanglement_fidelity and average_gate_fidelity)
    # against the product-basis route, on a composed analytic channel and on
    # the solver's exact channels at unequal couplings from a vacuum and a
    # coherent start, scored against the gate, against the gate the coherent
    # start realizes (gate_target) and against a random non-diagonal unitary
    # (the product-basis route takes each whole target, the kernel only its
    # diagonal, which is all that F_e of a Z-diagonal channel depends on)
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
        (np.diag(ideal_gate_unitary(math.pi / 4.0)), np.diag(gate_target(p, 0.3 - 0.4j)),
         scrambled), chans
    ):
        fe_basis = entanglement_fidelity_product_basis(chan, target)
        u = np.diag(target)
        assert entanglement_fidelity(chan, u) == pytest.approx(fe_basis, abs=1e-12)
        assert average_gate_fidelity(chan, u) == pytest.approx(
            (4.0 * fe_basis + 1.0) / 5.0, abs=1e-12)


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
    f_avg = average_gate_fidelity(chan, ideal_gate_unitary(math.pi / 4.0))
    assert f_avg == pytest.approx(analytic_avg_fidelity(b, x, 1.0), abs=1e-11)


def test_unequal_intrinsic_rates():
    # independent dephasing against the bare unitary has the product form
    # F_e = (1+e^{-g1 t})(1+e^{-g2 t})/4; check it and the Jensen direction
    # (at fixed total rate the unequal split loses *less* fidelity).
    target = ideal_gate_unitary(math.pi / 4.0)
    chan1 = intrinsic_dephasing_channel(0.3, 0.1, 1.0).then(_ideal_channel())
    chan2 = intrinsic_dephasing_channel(0.2, 0.2, 1.0).then(_ideal_channel())
    f1 = average_gate_fidelity(chan1, target)
    fe1 = (1.0 + math.exp(-0.3)) * (1.0 + math.exp(-0.1)) / 4.0
    assert entanglement_fidelity(chan1, target) == pytest.approx(fe1, abs=1e-12)
    assert f1 == pytest.approx(
        (4.0 * entanglement_fidelity_product_basis(chan1, np.diag(target)) + 1.0) / 5.0,
        abs=1e-12,
    )
    assert f1 > average_gate_fidelity(chan2, target)


@given(
    g1=st.floats(min_value=0.1, max_value=1.0),
    g2_over_g1=st.floats(min_value=1.0, max_value=3.0),
    kappa=st.floats(min_value=0.0, max_value=0.1),
    gammas=st.tuples(*[st.floats(min_value=0.0, max_value=3e7)] * 2),
    radius=st.floats(min_value=0.0, max_value=1.0),
    angle=st.floats(min_value=-math.pi, max_value=math.pi),
    n=st.integers(min_value=1, max_value=4),
    sideband=st.sampled_from([1, -1]),
)
@settings(max_examples=40, deadline=None)
def test_coherent_start_adds_the_local_z_of_gate_target(
    g1, g2_over_g1, kappa, gammas, radius, angle, n, sideband,
):
    # a coherent start alpha multiplies C_ij by v_i conj(v_j), where v is
    # gate_target(p, alpha) over gate_target(p): the exact channel with
    # that phase taken off is the vacuum's, on a Fock space large enough to
    # make truncation negligible; and v = 1 where a lossless loop closes, to
    # the rounding of Delta t_g = 2 pi n (up to 4.2e-15 over 12000 draws)
    alpha = radius * cmath.exp(1j * angle)
    p = make_params(g1, kappa, n=n, delta_sign=sideband, g2_over_g1=g2_over_g1)
    v = gate_target(p, alpha) / gate_target(p)
    c_vac = extract_channel(p, *gammas, n_ph=30)[0].coherence
    c_coh = extract_channel(p, *gammas, CavityPrep.coherent(alpha), n_ph=30)[0].coherence
    assert np.abs(c_coh * np.conj(np.outer(v, v.conj())) - c_vac).max() < 1e-13
    lossless = make_params(g1, 0.0, n=n, delta_sign=sideband, g2_over_g1=g2_over_g1)
    closed = gate_target(lossless, alpha) / gate_target(lossless)
    assert np.abs(closed - 1.0).max() < 1e-14


def test_analytic_channel_fidelity_invariant_under_sideband():
    gamma = 1.2e6
    p_pos = make_params(0.35, 1.021e-3, n=2, delta_sign=+1)
    p_neg = make_params(0.35, 1.021e-3, n=2, delta_sign=-1)
    from resgate import analytic_gate_channel

    f_pos = average_gate_fidelity(
        analytic_gate_channel(p_pos, gamma, gamma),
        ideal_gate_unitary(math.pi / 4.0),
    )
    f_neg = average_gate_fidelity(
        analytic_gate_channel(p_neg, gamma, gamma),
        ideal_gate_unitary(-math.pi / 4.0),
    )
    assert f_pos == pytest.approx(f_neg, abs=1e-13)
