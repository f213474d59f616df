"""Entanglement and average gate fidelity of two-qubit channels.

F_e(N, U) = Tr[S_U^dag S_N] / 16, with S the 16x16 superoperators of the
channel N and the target unitary U; the average gate fidelity follows from
F_avg = (4 F_e + 1)/5. That trace is the one scoring kernel: both
entanglement_fidelity and average_gate_fidelity (and so fit_local_z's
report) compute it. entanglement_fidelity_product_basis is an independent
route kept for cross-checks: it scores the channel on the 16 tensor
products of {|0>, |1>, |+>, |+i>} density matrices, orthonormalized
through their Gram matrix.

The default target is the symmetric geometric-phase unitary exp(i pi/4 Z1Z2).
To score against the textbook diag(1,1,1,-1), append the local dressing of
channel.textbook_cphase_decomposition to the channel and pass its CZ.

A compensation fit is included for channels that carry deterministic
single-qubit Z phases (e.g. from a displaced initial cavity state):
``fit_local_z`` maximizes F_avg over two trailing Z angles by a coarse scan
followed by exact coordinate ascent. The correction is diagonal, so the
compensated superoperator is the channel's with its rows rescaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import TwoQubitChannel, ideal_gate_unitary
from .errors import DomainError

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


@dataclass(frozen=True)
class FidelityReport:
    """Entanglement fidelity and the average gate fidelity it implies."""

    f_e: float

    @property
    def f_avg(self) -> float:
        return (4.0 * self.f_e + 1.0) / 5.0


def _target_matrix(target) -> np.ndarray:
    """The 4x4 target unitary; None means the phase pi/4 gate."""
    if target is None:
        return ideal_gate_unitary(math.pi / 4.0)
    target = np.asarray(target, dtype=complex)
    if target.shape != (4, 4):
        raise DomainError(f"target must be a 4x4 unitary, got shape {target.shape}")
    return target


def _unitary_superop(u: np.ndarray) -> np.ndarray:
    return np.kron(u, u.conj())


def entanglement_fidelity(
    channel: TwoQubitChannel, target=None, *, validate: bool = True,
) -> float:
    """F_e of the channel against the target unitary (default: phase pi/4 gate).

    Computed as Tr[S_U^dag S_N] / 16, the normalized trace of the noise
    superoperator U^-1 . N; raises NonPhysicalChannelError (with the Choi
    spectrum) when the channel fails the CPTP check and ``validate`` is on.
    """
    tmat = _target_matrix(target)
    if validate:
        channel.validate()
    f_e = np.vdot(_unitary_superop(tmat), channel.superop) / 16.0
    assert abs(f_e.imag) < 1e-10, f"entanglement fidelity has imaginary part {f_e.imag:+.3e}"
    return float(f_e.real)


def entanglement_fidelity_product_basis(
    channel: TwoQubitChannel, target=None, *, validate: bool = True,
) -> float:
    """F_e from the 16 product states, orthonormalized via their Gram matrix.

    With inputs rho_i spanning operator space, any orthonormalization
    B_mu = sum_i rho_i W_i_mu with W W^dag = G^-1 (G the Gram matrix) gives
    sum_mu Tr[B_mu^dag N'(B_mu)] = Tr[G^-1 M], M_ij = Tr[rho_i^dag N'(rho_j)].
    Agrees with entanglement_fidelity to rounding; kept as an independent
    route that scores a channel on physical input states.
    """
    tmat = _target_matrix(target)
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


def average_gate_fidelity(
    channel: TwoQubitChannel, target=None, *, validate: bool = True,
) -> FidelityReport:
    """FidelityReport against the target unitary (default: phase pi/4 gate)."""
    return FidelityReport(f_e=entanglement_fidelity(channel, target, validate=validate))


_COARSE_GRID = 25  # seed grid points per angle for fit_local_z
_MAX_ROUNDS = 40  # cap on its coordinate-ascent rounds
_PROBE_ANGLES = np.array([0.0, math.pi, 0.5 * math.pi, -0.5 * math.pi])


@dataclass(frozen=True)
class LocalZFit:
    """Result of the trailing local-Z compensation fit."""

    report: FidelityReport
    theta_1: float
    theta_2: float
    channel: TwoQubitChannel  # the compensated channel


def _local_z_superop(theta_1, theta_2) -> np.ndarray:
    """Diagonal of the superoperator kron(u, conj(u)) of u = Rz(theta_1) (x)
    Rz(theta_2), along a trailing axis of length 16.

    Angles may be arrays; they broadcast against each other.
    """
    a = np.exp(-0.5j * theta_1)
    b = np.exp(-0.5j * theta_2)
    u = np.stack([a * b, a * b.conjugate(), a.conjugate() * b,
                  a.conjugate() * b.conjugate()], axis=-1)
    return (u[..., :, None] * u[..., None, :].conj()).reshape(u.shape[:-1] + (16,))


def fit_local_z(
    channel: TwoQubitChannel, target=None, *, validate: bool = True,
) -> LocalZFit:
    """Maximize F_avg over trailing single-qubit Z rotations Rz(t1) (x) Rz(t2).

    The compensated channel is N' = (Rz (x) Rz) . N. The correction
    superoperator is diagonal, so N' is N's superoperator with its rows
    scaled by that diagonal, and at a fixed other angle F_avg is
    c + a cos(t) + b sin(t) in each angle, for any channel, and its
    maximizer is t = atan2(F(pi/2) - F(-pi/2), F(0) - F(pi)). A coarse grid
    over [-pi, pi)^2 seeds coordinate ascent with these exact steps, which
    runs until a round gains less than 1e-14.
    """
    tmat = _target_matrix(target)
    if validate:
        channel.validate()
    s_n = channel.superop
    # F_e(theta) = Re sum_i s_i(theta) w_i / 16 where s is the diagonal
    # superoperator of the correction and w folds channel and target.
    w = (np.conj(_unitary_superop(tmat)) * s_n).sum(axis=1)

    def f_of(t1, t2):
        f_e = (_local_z_superop(t1, t2) * w).sum(axis=-1).real / 16.0
        return (4.0 * f_e + 1.0) / 5.0

    def best_angle(f_0, f_pi, f_up, f_down) -> float:
        return math.atan2(f_up - f_down, f_0 - f_pi)

    grid = np.linspace(-math.pi, math.pi, _COARSE_GRID, endpoint=False)
    vals = f_of(grid[:, None], grid[None, :])
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    t1, t2 = float(grid[i]), float(grid[j])

    prev = float(vals[i, j])
    for _ in range(_MAX_ROUNDS):
        t1 = best_angle(*f_of(_PROBE_ANGLES, t2))
        t2 = best_angle(*f_of(t1, _PROBE_ANGLES))
        cur = float(f_of(t1, t2))
        if cur - prev < 1e-14:
            break
        prev = cur

    corrected = TwoQubitChannel(superop=_local_z_superop(t1, t2)[:, None] * s_n)
    report = average_gate_fidelity(corrected, tmat, validate=False)
    return LocalZFit(report=report, theta_1=t1, theta_2=t2, channel=corrected)
