"""Entanglement and average gate fidelity of two-qubit channels.

A channel here is rho -> C o rho with a 4x4 coherence matrix C, and every
target is Z-diagonal and passed as its diagonal u of shape (4,). The
superoperator is diag(vec C), so F_e(N, U) = Tr[S_U^dag S_N] / 16 is

    F_e = Re sum_ij C_ij conj(u_i) u_j / 16,    F_avg = (4 F_e + 1)/5.

That sum is the one scoring kernel: entanglement_fidelity returns F_e and
average_gate_fidelity F_avg, each as a float.

The default target is the symmetric geometric-phase unitary exp(i pi/4 Z1Z2).
To score against the textbook diag(1,1,1,-1), append the local dressing of
channel.textbook_cphase_decomposition to the channel and pass its CZ. A run
from a coherent cavity start realizes that gate followed by a known local Z
rotation; channel.gate_target(params, alpha) gives it in closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import TwoQubitChannel, ideal_gate_unitary
from .errors import DomainError


def _target_weights(target) -> np.ndarray:
    """conj(u_i conj(u_j)) for the target's diagonal u (None means the phase
    pi/4 gate): F_e = Re sum(weights * C) / 16."""
    u = np.asarray(ideal_gate_unitary(math.pi / 4.0) if target is None else target,
                   dtype=complex)
    if u.shape != (4,):
        raise DomainError(f"target must be given as its Z diagonal, shape (4,), "
                          f"got shape {u.shape}")
    return np.conj(np.outer(u, u.conj()))


def entanglement_fidelity(
    channel: TwoQubitChannel, target=None, *, validate: bool = True,
) -> float:
    """F_e of the channel against the target diagonal u (default: phase pi/4 gate).

    Computed as Re sum_ij C_ij conj(u_i) u_j / 16 over the coherence matrix
    C, which equals Tr[S_U^dag S_N] / 16 for U = diag(u); raises
    NonPhysicalChannelError (with the eigenvalues of C) when the channel
    fails the CPTP check and ``validate`` is on, and DomainError when the
    sum is not real (a non-Hermitian C that was not validated).
    """
    weights = _target_weights(target)
    if validate:
        channel.validate()
    f_e = (weights * channel.coherence).sum() / 16.0
    if not abs(f_e.imag) < 1e-10:
        raise DomainError(f"entanglement fidelity has imaginary part {f_e.imag:+.3e}; "
                          f"is the channel's coherence matrix Hermitian?")
    return float(f_e.real)


def average_gate_fidelity(
    channel: TwoQubitChannel, target=None, *, validate: bool = True,
) -> float:
    """F_avg = (4 F_e + 1)/5 against the target diagonal u (default: phase pi/4 gate)."""
    return (4.0 * entanglement_fidelity(channel, target, validate=validate) + 1.0) / 5.0
