"""Shared fixtures: the default device point, synthetic internal-unit params,
and the product-basis fidelity route the tests score channels against."""

from __future__ import annotations

import os

# One BLAS thread unless the caller chose otherwise. The matrices here are at
# most a few hundred rows, where a second OpenBLAS thread saves nothing (on 2
# cores the suite took as long with two as with one). It must be set before numpy
# loads; neither pytest nor hypothesis imports numpy before this file.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import math

import numpy as np
import pytest

from resgate import (
    DerivedGateParams,
    NoiseSpec,
    ResonatorSpec,
    TwoQubitChannel,
    gate_schedule,
    ideal_gate_unitary,
)
from resgate.constants import HBAR_J_S, TWO_PI, uev_to_J

_S1 = [
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    np.array([1.0, 1j], dtype=complex) / math.sqrt(2.0),
]
# The 16 product states |s_a s_b><s_a s_b|; they span two-qubit operator space.
PRODUCT_STATES = tuple(
    np.outer(np.kron(a, b), np.kron(a, b).conj()) for a in _S1 for b in _S1
)


# diagonals of I, Z1, Z2 and Z1 Z2 in the basis order |00>, |01>, |10>, |11>
_I = np.ones(4)
_Z1 = np.array([1.0, 1.0, -1.0, -1.0])
_Z2 = np.array([1.0, -1.0, 1.0, -1.0])
_ZZ = _Z1 * _Z2


def kraus_correlated_dephasing(b: float) -> TwoQubitChannel:
    """The paper's three-Kraus E_b, through from_kraus (each K_k by its diagonal):
    K0 = [(1+b) I - (1-b) Z1 Z2]/2, K1 = sqrt((1-b^4)/2) (Z1 + Z2)/2,
    K2 = ((1-b^2)/sqrt(2)) (I + Z1 Z2)/2."""
    ks = (0.5 * ((1.0 + b) * _I - (1.0 - b) * _ZZ),
          math.sqrt((1.0 - b**4) / 2.0) * 0.5 * (_Z1 + _Z2),
          ((1.0 - b**2) / math.sqrt(2.0)) * 0.5 * (_I + _ZZ))
    return TwoQubitChannel.from_kraus(ks)


def kraus_intrinsic_dephasing(gamma_1: float, gamma_2: float, t: float) -> TwoQubitChannel:
    """The four-Kraus E_q, through from_kraus (each K_k by its diagonal):
    sqrt(w) * {I, Z1, Z2, Z1 Z2}
    with p_j = (1 - e^{-gamma_j t})/2 and weights (1-p1)(1-p2), p1(1-p2),
    p2(1-p1), p1 p2."""
    p1 = 0.5 * (1.0 - math.exp(-gamma_1 * t))
    p2 = 0.5 * (1.0 - math.exp(-gamma_2 * t))
    weights_ops = (((1.0 - p1) * (1.0 - p2), _I), (p1 * (1.0 - p2), _Z1),
                   (p2 * (1.0 - p1), _Z2), (p1 * p2, _ZZ))
    return TwoQubitChannel.from_kraus(math.sqrt(w) * op for w, op in weights_ops)


def b_simplified(g: float, kappa: float, n: int) -> float:
    """Leading-order b at the schedule point, exp(-pi kappa/(2 g sqrt(n))): the
    small-kappa limit of b_factor, which drops the residual-entanglement term."""
    return math.exp(-math.pi * kappa / (2.0 * g * math.sqrt(n)))


def lab_alpha(g: float, delta: float, kappa: float, t):
    """Cavity displacement per unit sigma_z eigenvalue in the lab frame,
    alpha(t) = -(g/2) (e^{-kappa t} - e^{i delta t}) / (i delta + kappa): the
    solution of d(alpha)/dt = -kappa alpha + (g/2) e^{i delta t}, alpha(0) = 0
    (t scalar or array). resgate works in the drive frame; this is the
    paper's form, an independent reference."""
    t = np.asarray(t, dtype=float)
    return -(g / 2.0) * (np.exp(-kappa * t) - np.exp(1j * delta * t)) / (1j * delta + kappa)


def make_params(
    g_rad_ns: float, kappa_per_ns: float, n: int = 2, delta_sign: int = 1,
    g2_over_g1: float = 1.0,
) -> DerivedGateParams:
    """Gate parameters straight in internal units (equal couplings by default).

    Bypasses the device layer: pick g (qubit 1; qubit 2 gets g2_over_g1
    times it) and kappa, let the schedule fix Delta and t_g. chi is not
    used by the channel or the simulator, so it is left at zero.
    """
    g_J = g_rad_ns * 1e9 * HBAR_J_S
    delta, t_g = gate_schedule(g_J, g2_over_g1 * g_J, n)
    return DerivedGateParams(
        kappa=kappa_per_ns * 1e9,
        g1=g_J,
        g2=g2_over_g1 * g_J,
        chi=0.0,
        Delta=delta_sign * delta,
        t_g=t_g,
    )


def entanglement_fidelity_product_basis(channel, target=None, *, validate=True) -> float:
    """F_e from the 16 product states, orthonormalized via their Gram matrix.

    With inputs rho_i spanning operator space, any orthonormalization
    B_mu = sum_i rho_i W_i_mu with W W^dag = G^-1 (G the Gram matrix) gives
    sum_mu Tr[B_mu^dag N'(B_mu)] = Tr[G^-1 M], M_ij = Tr[rho_i^dag N'(rho_j)].
    An independent route to resgate's F_e: it scores the channel on physical
    input states through ``apply`` and takes the whole 4x4 target matrix, not
    only its diagonal (default: the phase pi/4 gate).
    """
    if target is None:
        target = np.diag(ideal_gate_unitary(math.pi / 4.0))
    tmat = np.asarray(target, dtype=complex)
    if validate:
        channel.validate()
    tinv = tmat.conj().T
    outs = [tinv @ channel.apply(rho) @ tmat for rho in PRODUCT_STATES]
    m = np.array(
        [[np.trace(ri.conj().T @ oj) for oj in outs] for ri in PRODUCT_STATES]
    )
    gram = np.array(
        [[np.trace(ri.conj().T @ rj) for rj in PRODUCT_STATES] for ri in PRODUCT_STATES]
    )
    f_e = np.trace(np.linalg.solve(gram, m)) / 16.0
    assert abs(f_e.imag) < 1e-10, f"entanglement fidelity has imaginary part {f_e.imag:+.3e}"
    return float(f_e.real)


@pytest.fixture
def res() -> ResonatorSpec:
    """Default resonator point: 6.5 GHz, 5 kOhm, Q = 20000."""
    return ResonatorSpec(omega_r=TWO_PI * 6.5e9, Z_r=5000.0, Q=20000.0)


@pytest.fixture
def noise() -> NoiseSpec:
    """Default charge-noise model (S_eps = 1.4e-16 eV^2, beta = 0.67, Hahn eta)."""
    return NoiseSpec()


@pytest.fixture
def eps_a() -> float:
    """Default exchange exponential scale, 5 ueV in joules."""
    return uev_to_J(5.0)
