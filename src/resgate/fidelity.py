"""Entanglement and average gate fidelity of two-qubit channels.

A channel here is rho -> C o rho with a 4x4 coherence matrix C, so its
superoperator is diag(vec C) and F_e(N, U) = Tr[S_U^dag S_N] / 16 keeps
only the diagonal u of the target U:

    F_e = Re sum_ij C_ij conj(u_i) u_j / 16,    F_avg = (4 F_e + 1)/5.

That sum is the one scoring kernel: entanglement_fidelity and
average_gate_fidelity (and so fit_local_z's report) compute it.

The default target is the symmetric geometric-phase unitary exp(i pi/4 Z1Z2).
To score against the textbook diag(1,1,1,-1), append the local dressing of
channel.textbook_cphase_decomposition to the channel and pass its CZ.

A compensation fit is included for channels that carry deterministic
single-qubit Z phases (e.g. from a displaced initial cavity state):
``fit_local_z`` maximizes F_avg over two trailing Z angles by a coarse scan
followed by exact coordinate ascent. The correction Rz (x) Rz is diagonal
with phase vector v, so the compensated channel is (v v^dag) o C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import TwoQubitChannel, ideal_gate_unitary
from .errors import DomainError


@dataclass(frozen=True)
class FidelityReport:
    """Entanglement fidelity and the average gate fidelity it implies."""

    f_e: float

    @property
    def f_avg(self) -> float:
        return (4.0 * self.f_e + 1.0) / 5.0


def _outer(v: np.ndarray) -> np.ndarray:
    """v_i conj(v_j) along the trailing axis: the coherence matrix of diag(v)."""
    return v[..., :, None] * v[..., None, :].conj()


def _target_weights(target) -> np.ndarray:
    """conj(u_i conj(u_j)) for the diagonal u of the 4x4 target unitary
    (None means the phase pi/4 gate): F_e = Re sum(weights * C) / 16."""
    if target is None:
        target = ideal_gate_unitary(math.pi / 4.0)
    target = np.asarray(target, dtype=complex)
    if target.shape != (4, 4):
        raise DomainError(f"target must be a 4x4 unitary, got shape {target.shape}")
    return np.conj(_outer(np.diag(target)))


def entanglement_fidelity(
    channel: TwoQubitChannel, target=None, *, validate: bool = True,
) -> float:
    """F_e of the channel against the target unitary (default: phase pi/4 gate).

    Computed as Re sum_ij C_ij conj(u_i) u_j / 16 over the coherence matrix
    C and the target's diagonal u, which equals Tr[S_U^dag S_N] / 16; raises
    NonPhysicalChannelError (with the eigenvalues of C) when the channel
    fails the CPTP check and ``validate`` is on.
    """
    weights = _target_weights(target)
    if validate:
        channel.validate()
    f_e = (weights * channel.coherence).sum() / 16.0
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


def _local_z_phases(theta_1, theta_2) -> np.ndarray:
    """Diagonal v of Rz(theta_1) (x) Rz(theta_2), along a trailing axis of length 4.

    Angles may be arrays; they broadcast against each other.
    """
    a = np.exp(-0.5j * theta_1)
    b = np.exp(-0.5j * theta_2)
    return np.stack([a * b, a * b.conjugate(), a.conjugate() * b,
                     a.conjugate() * b.conjugate()], axis=-1)


def fit_local_z(
    channel: TwoQubitChannel, target=None, *, validate: bool = True,
) -> LocalZFit:
    """Maximize F_avg over trailing single-qubit Z rotations Rz(t1) (x) Rz(t2).

    The compensated channel is N' = (Rz (x) Rz) . N. The correction is
    diagonal with phase vector v, so N' has coherence matrix (v v^dag) o C,
    and at a fixed other angle F_avg is c + a cos(t) + b sin(t) in each
    angle, for any channel, and its maximizer is
    t = atan2(F(pi/2) - F(-pi/2), F(0) - F(pi)). A coarse grid over
    [-pi, pi)^2 seeds coordinate ascent with these exact steps, which runs
    until a round gains less than 1e-14.
    """
    weights = _target_weights(target)
    if validate:
        channel.validate()
    c = channel.coherence
    # F_e(theta) = Re sum_ij v_i conj(v_j) w_ij / 16, w folding C and target.
    w = weights * c

    def f_of(t1, t2):
        f_e = (_outer(_local_z_phases(t1, t2)) * w).sum(axis=(-2, -1)).real / 16.0
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

    corrected = TwoQubitChannel(_outer(_local_z_phases(t1, t2)) * c)
    report = average_gate_fidelity(corrected, target, validate=False)
    return LocalZFit(report=report, theta_1=t1, theta_2=t2, channel=corrected)
