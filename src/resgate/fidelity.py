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
``fit_local_z`` maximizes F_avg over two trailing Z angles. The correction
Rz (x) Rz is diagonal with phase vector v, so the compensated channel is
(v v^dag) o C, and F_e(t1, t2) is a trigonometric polynomial of degree 1 in
each angle whose nine coefficients are sums of entries of the folded matrix.
The fit sums them once, seeds from a coarse grid in one angle with the
other at its exact optimum, climbs by exact coordinate steps and finishes
with Newton steps, in scalar arithmetic.
"""

from __future__ import annotations

import cmath
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


_MAX_ROUNDS = 40  # cap on its coordinate-ascent rounds


def _coefficient_bins() -> tuple[np.ndarray, np.ndarray]:
    """Bin (d1 + 1) * 3 + (d2 + 1) of each entry (i, j) of C, row-major, and
    the (2, 9) table of (d1, d2) per bin, with d = (s_i - s_j) / 2 per qubit
    and s the Z eigenvalues of |00>, |01>, |10>, |11>. The correction
    Rz(t1) (x) Rz(t2) multiplies entry (i, j) by exp(-i (d1 t1 + d2 t2))."""
    s = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    d = (s[:, None, :] - s[None, :, :]) // 2 + 1
    return (3 * d[..., 0] + d[..., 1]).ravel(), np.array(np.divmod(np.arange(9), 3)) - 1.0


_BINS, _BIN_D = _coefficient_bins()
_GRID = np.linspace(-math.pi, math.pi, 25, endpoint=False)  # fit_local_z's seeds of t2


@dataclass(frozen=True)
class LocalZFit:
    """Result of the trailing local-Z compensation fit.

    theta_1 and theta_2 are radians in (-pi, pi], at the optimum to
    rounding where it is curved (see fit_local_z).
    """

    report: FidelityReport
    theta_1: float
    theta_2: float
    channel: TwoQubitChannel  # the compensated channel


def _ascend(re: list, im: list, f_start: float, t1: float, t2: float) -> tuple[float, float]:
    """Exact coordinate ascent on F_avg from (t1, t2), then Newton steps, in
    scalar arithmetic.

    re and im are the real and imaginary parts of one Hermitian coefficient
    table of fit_local_z over its nine bins, so with e = exp(-i t) and
    A1m = A[+1, -1],

        16 F_e = A00 + 2 Re(A10 e1 + A01 e2 + A11 e1 e2 + A1m e1 conj(e2)).

    At a fixed t2 that is c + 2 Re(B exp(-i t1)) with
    B = sum_d2 A[+1, d2] exp(-i d2 t2), largest at t1 = arg B, and likewise
    in t2. Rounds run until one gains less than 1e-14 in F_avg, or
    _MAX_ROUNDS of them have run. Along a flat, slanted ridge the rounds
    crawl and stop short of the optimum, so up to three Newton steps on the
    same polynomial follow, while its Hessian is negative definite.
    """
    a00 = re[4]
    a1m, a10, a11 = (complex(x, y) for x, y in zip(re[6:], im[6:]))
    a01 = complex(re[5], im[5])
    prev = f_start
    for _ in range(_MAX_ROUNDS):
        e2 = cmath.exp(-1j * t2)
        t1 = cmath.phase(a10 + a11 * e2 + a1m * e2.conjugate())
        e1 = cmath.exp(-1j * t1)
        t2 = cmath.phase(a01 + a11 * e1 + (a1m * e1).conjugate())
        e2 = cmath.exp(-1j * t2)
        f16 = a00 + 2.0 * (a10 * e1 + a01 * e2 + a11 * e1 * e2
                           + a1m * e1 * e2.conjugate()).real
        cur = (f16 / 4.0 + 1.0) / 5.0
        if cur - prev < 1e-14:
            break
        prev = cur
    for _ in range(3):
        # term A e^{-i d.t} adds d Im(term) to grad / 2, -d d^T Re(term) to Hess / 2
        e1, e2 = cmath.exp(-1j * t1), cmath.exp(-1j * t2)
        u10, u01, u11, u1m = a10 * e1, a01 * e2, a11 * e1 * e2, a1m * e1 * e2.conjugate()
        g1, g2 = u10.imag + u11.imag + u1m.imag, u01.imag + u11.imag - u1m.imag
        h11 = -(u10.real + u11.real + u1m.real)
        h22 = -(u01.real + u11.real + u1m.real)
        h12 = u1m.real - u11.real
        det = h11 * h22 - h12 * h12
        if not (h11 < 0.0 and det > 0.0):
            break
        t1, t2 = t1 - (h22 * g1 - h12 * g2) / det, t2 - (h11 * g2 - h12 * g1) / det
    return math.remainder(t1, 2.0 * math.pi), math.remainder(t2, 2.0 * math.pi)


def fit_local_z(
    channel: TwoQubitChannel, target=None, *, validate: bool = True,
) -> LocalZFit:
    """Maximize F_avg over trailing single-qubit Z rotations Rz(t1) (x) Rz(t2).

    The compensated channel is N' = (Rz (x) Rz) . N. The correction is
    diagonal with phase vector v, and v_i conj(v_j) = exp(-i (d1 t1 + d2 t2))
    with d = (s_i - s_j) / 2 per qubit, so F_e(t1, t2) is a trigonometric
    polynomial of degree 1 in each angle whose nine coefficients A[d1, d2]
    (_coefficient_bins) are summed once and taken Hermitian (only C's
    Hermitian part enters F_e). At a fixed t2, 16 F_e = A00 + 2 Re(A01 e2)
    + 2 Re(B e1) with B = A10 + A11 e2 + A1m conj(e2) and e = exp(-i t) is
    largest at t1 = arg B, so the best of 25 values of t2 over [-pi, pi),
    each at that t1, seeds exact coordinate ascent, and Newton steps finish
    it (_ascend): on 1 of 400 random rank-4 CPTP channels the ascent alone
    stopped 4.9e-8 short in F_avg, 4e-3 off in angle, on a flat, slanted
    ridge.
    """
    weights = _target_weights(target)
    if validate:
        channel.validate()
    coh = channel.coherence
    w = (weights * coh).ravel()
    re, im = np.bincount(_BINS, w.real, 9), np.bincount(_BINS, w.imag, 9)
    re, im = 0.5 * (re + re[::-1]), 0.5 * (im - im[::-1])
    a = re + 1j * im  # A[d1, d2] at bin (d1 + 1) * 3 + (d2 + 1)
    e2 = np.exp(-1j * _GRID)
    b = a[7] + a[8] * e2 + a[6] * e2.conj()  # A10 + A11 e2 + A1m conj(e2)
    f16 = a[4].real + 2.0 * ((a[5] * e2).real + np.abs(b))  # at t1 = arg b
    best = int(f16.argmax())
    t1, t2 = _ascend(re.tolist(), im.tolist(), (float(f16[best]) / 4.0 + 1.0) / 5.0,
                     float(np.angle(b[best])), float(_GRID[best]))
    fixed = np.exp(-1j * (t1 * _BIN_D[0] + t2 * _BIN_D[1]))[_BINS].reshape(4, 4) * coh
    f_e = float((weights * fixed).sum().real) / 16.0
    return LocalZFit(report=FidelityReport(f_e=f_e), theta_1=t1, theta_2=t2,
                     channel=TwoQubitChannel(fixed))
