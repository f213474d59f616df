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
The fit sums them once, seeds from a coarse grid read off them, and climbs
by exact coordinate steps in scalar arithmetic; a stack of channels is
fitted in one call (_fit_stack, which thermal averaging uses).
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


_COARSE_GRID = 25  # seed grid points per angle for fit_local_z
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
_GRID = np.linspace(-math.pi, math.pi, _COARSE_GRID, endpoint=False)


def _grid_basis() -> np.ndarray:
    """cos(d.t) / 16 over the bins, then sin(d.t) / 16, as (18, 625) rows over
    the seed grid t = (t1, t2), row-major: F_e = sum_d Re A_d cos(d.t) / 16
    + Im A_d sin(d.t) / 16 for the coefficients A_d of _fit_stack."""
    args = (_BIN_D[0][:, None, None] * _GRID[:, None]
            + _BIN_D[1][:, None, None] * _GRID).reshape(9, -1)
    return np.concatenate([np.cos(args), np.sin(args)]) / 16.0


_GRID_BASIS = _grid_basis()


@dataclass(frozen=True)
class LocalZFit:
    """Result of the trailing local-Z compensation fit."""

    report: FidelityReport
    theta_1: float
    theta_2: float
    channel: TwoQubitChannel  # the compensated channel


def _ascend(re: list, im: list, f_start: float, t1: float, t2: float) -> tuple[float, float]:
    """Exact coordinate ascent on F_avg from (t1, t2), in scalar arithmetic.

    re and im are the real and imaginary parts of one Hermitian coefficient
    table of _fit_stack over its nine bins, so with e = exp(-i t) and
    A1m = A[+1, -1],

        16 F_e = A00 + 2 Re(A10 e1 + A01 e2 + A11 e1 e2 + A1m e1 conj(e2)).

    At a fixed t2 that is c + 2 Re(B exp(-i t1)) with
    B = sum_d2 A[+1, d2] exp(-i d2 t2), largest at t1 = arg B, and likewise
    in t2. Rounds run until one gains less than 1e-14 in F_avg, or
    _MAX_ROUNDS of them have run.
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
    return t1, t2


def _fit_stack(cohs: np.ndarray, weights: np.ndarray):
    """fit_local_z for each coherence matrix of an (S, 4, 4) stack, against
    the target weights of _target_weights.

    Returns the (S, 2) angles, the (S, 4, 4) compensated matrices and their
    (S,) F_e. Each F_e is a degree-1 trigonometric polynomial in each angle
    with nine coefficients A[d1, d2] (see _coefficient_bins), summed once by
    bincount. Only the Hermitian part of the folded matrix enters F_e, so A
    is taken Hermitian, A[-d] = conj(A[d]) (unchanged for a Hermitian C).
    The 25 x 25 seed grid is read off A, and _ascend climbs from its best
    point, one matrix at a time.
    """
    count = len(cohs)
    w = (weights * cohs).reshape(count, 16)
    at = (9 * np.arange(count)[:, None] + _BINS).ravel()
    re = np.bincount(at, w.real.ravel(), 9 * count).reshape(count, 9)
    im = np.bincount(at, w.imag.ravel(), 9 * count).reshape(count, 9)
    re, im = 0.5 * (re + re[:, ::-1]), 0.5 * (im - im[:, ::-1])
    grid = (4.0 * np.einsum("sk,kg->sg", np.concatenate([re, im], axis=1), _GRID_BASIS)
            + 1.0) / 5.0
    best = grid.argmax(axis=1)
    angles = np.array([
        _ascend(r, i, f, _GRID[k // _COARSE_GRID], _GRID[k % _COARSE_GRID])
        for r, i, f, k in zip(re.tolist(), im.tolist(),
                              grid[np.arange(count), best].tolist(), best.tolist())
    ]).reshape(count, 2)
    phases = np.exp(-1j * (angles[:, :1] * _BIN_D[0] + angles[:, 1:] * _BIN_D[1]))
    fixed = phases[:, _BINS].reshape(count, 4, 4) * cohs
    return angles, fixed, (weights * fixed).sum(axis=(-2, -1)).real / 16.0


def fit_local_z(
    channel: TwoQubitChannel, target=None, *, validate: bool = True,
) -> LocalZFit:
    """Maximize F_avg over trailing single-qubit Z rotations Rz(t1) (x) Rz(t2).

    The compensated channel is N' = (Rz (x) Rz) . N. The correction is
    diagonal with phase vector v, and v_i conj(v_j) = exp(-i (d1 t1 + d2 t2))
    with d = (s_i - s_j) / 2 per qubit, so F_e(t1, t2) is a trigonometric
    polynomial of degree 1 in each angle with nine coefficients, for any
    channel. A 25 x 25 grid over [-pi, pi)^2 read off them seeds exact
    coordinate ascent, t1 = arg sum_d2 A[+1, d2] exp(-i d2 t2) and likewise
    for t2, which runs until a round gains less than 1e-14 (_fit_stack).
    """
    weights = _target_weights(target)
    if validate:
        channel.validate()
    (angles,), (fixed,), (f_e,) = _fit_stack(channel.coherence[None], weights)
    return LocalZFit(report=FidelityReport(f_e=float(f_e)), theta_1=float(angles[0]),
                     theta_2=float(angles[1]), channel=TwoQubitChannel(fixed))
