"""Analytic error channel of the resonator-mediated CPHASE gate.

The gate works by driving the resonator conditionally on the joint qubit
state: each sigma_z1 + sigma_z2 eigenvalue s in {+2, 0, -2} pushes the
cavity around a circle in phase space with amplitude s*alpha(t). When the
loop closes (Delta*t_g = 2*pi*n) the qubits pick up a geometric two-qubit
phase; photon loss along the loop and leftover displacement at closing time
leak which-path information, which dephases the qubits in the Z*Z basis.
All of that is exactly expressible: the channel factorizes into

    rho -> U_g . E_b . E_q (rho)         (the three factors commute)

with U_g = exp(+i * phi * Z1*Z2), E_b the correlated (which-path)
dephasing with a single parameter b in (0, 1], and E_q the ordinary
independent dephasing of the two qubits. Everything in this module is in
angular units: couplings are energy/hbar in rad/ns, rates in 1/ns, times in
ns (any consistent set works).

Basis order is |00>, |01>, |10>, |11>. Every map here commutes with Z1 and
Z2, so it is a Schur multiplier rho -> C o rho (elementwise product) with
one 4x4 coherence matrix C, and a TwoQubitChannel stores only C. Each
factor is built as its table: E_b = b**W, E_q = exp(-R t) with R the rate
table the numeric oracle shares (_dephasing_rates), U_g = u u^dag. Every
gate, target and Kraus operator here is Z-diagonal too, so each one is
passed as its length-4 diagonal u (the operator is diag(u)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonPhysicalChannelError

# Diagonals of Z1 and Z2 in the basis order above.
_Z1 = np.array([1.0, 1.0, -1.0, -1.0])
_Z2 = np.array([1.0, -1.0, 1.0, -1.0])
# W_ij = ((s_i - s_j)/2)^2, s = z1 + z2: E_b's exponent of b, with entries 0, 1 and 4
_W = (0.5 * np.subtract.outer(_Z1 + _Z2, _Z1 + _Z2)) ** 2
_TP_TOL = 1e-10  # TwoQubitChannel.validate: bound on max|C_ii - 1| and max|C - C^dag|
_CHOI_TOL = 1e-8  # and on minus the smallest eigenvalue of C


def _branch_couplings(params) -> np.ndarray:
    """lam = g1 s1 + g2 s2 (rad/ns) of each basis state, branch (s1, s2)."""
    return params.g1_rad_ns * _Z1 + params.g2_rad_ns * _Z2


def _dephasing_rates(gamma_1: float, gamma_2: float) -> np.ndarray:
    """R_ij: gamma_k (finite and >= 0, else DomainError) summed over the
    qubits k whose Z eigenvalues differ between i and j, in the rates' units."""
    if not all(math.isfinite(g) and g >= 0 for g in (gamma_1, gamma_2)):
        raise DomainError(f"dephasing rates must be finite and non-negative, got "
                          f"{gamma_1}, {gamma_2}")
    return (_Z1[:, None] != _Z1) * gamma_1 + (_Z2[:, None] != _Z2) * gamma_2


@dataclass(frozen=True)
class TwoQubitChannel:
    """A Z-diagonal two-qubit map rho -> C o rho, stored as its 4x4
    coherence matrix C (``coherence``).

    It is trace preserving iff C_ii = 1 and completely positive iff C is
    positive semidefinite: its Choi matrix is C placed on the |ii> span,
    so the Choi spectrum is eig(C) plus 12 zeros.
    """

    coherence: np.ndarray

    def __post_init__(self):
        coherence = np.asarray(self.coherence, dtype=complex)
        if coherence.shape != (4, 4):
            raise DomainError("coherence matrix must be 4x4")
        object.__setattr__(self, "coherence", coherence)

    @classmethod
    def from_kraus(cls, ops) -> "TwoQubitChannel":
        """The map rho -> sum_k K_k rho K_k^dag of Kraus operators K_k = diag(k),
        each given as its diagonal k of shape (4,): C = sum_k k k^dag."""
        c = np.zeros((4, 4), dtype=complex)
        for k in ops:
            k = np.asarray(k, dtype=complex)
            if k.shape != (4,):
                raise DomainError(f"a Kraus operator must be given as its Z diagonal, "
                                  f"shape (4,), got shape {k.shape}")
            c += np.multiply.outer(k, k.conj())
        return cls(c)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return self.coherence * np.asarray(rho, dtype=complex).reshape(4, 4)

    def then(self, later: "TwoQubitChannel") -> "TwoQubitChannel":
        """Composition: apply self first, then ``later``."""
        return TwoQubitChannel(later.coherence * self.coherence)

    def completeness_defect(self) -> float:
        """Trace-preservation defect max|C_ii - 1|, equal to
        max|sum_k K^dag K - I| for any Kraus form of the map."""
        return float(np.max(np.abs(np.diagonal(self.coherence) - 1.0)))

    def _coherence_eigenvalues(self) -> np.ndarray:
        c = self.coherence
        return np.linalg.eigvalsh(0.5 * (c + c.conj().T))

    def choi_min_eigenvalue(self) -> float:
        """Smallest eigenvalue of C (the Choi matrix adds only zeros)."""
        return float(self._coherence_eigenvalues()[0])

    def validate(self) -> None:
        """Raise NonPhysicalChannelError unless the map is CPTP: max|C_ii - 1|
        and max|C - C^dag| within _TP_TOL, no eigenvalue of C below -_CHOI_TOL.

        A CP map has a Hermitian C (it maps Hermitian states to Hermitian
        ones), hence the second test; the eigenvalue test reads only C's
        Hermitian part.
        """
        defect = self.completeness_defect()
        c = self.coherence
        skew = float(np.max(np.abs(c - c.conj().T)))
        eigs = self._coherence_eigenvalues()
        if defect > _TP_TOL or skew > _TP_TOL or eigs[0] < -_CHOI_TOL:
            raise NonPhysicalChannelError(
                f"map is not CPTP: trace-preservation defect {defect:.3e} "
                f"(tol {_TP_TOL:.0e}), non-Hermitian part max|C - C^dag| {skew:.3e} "
                f"(tol {_TP_TOL:.0e}), coherence eigenvalues "
                f"{np.array2string(eigs, precision=3)} (min tol -{_CHOI_TOL:.0e})",
                choi_eigenvalues=eigs,
                tp_defect=defect,
            )


def ideal_gate_unitary(phi_12: float) -> np.ndarray:
    """Diagonal (e^{i phi}, e^{-i phi}, e^{-i phi}, e^{i phi}) of exp(+i * phi_12 * Z1 Z2).

    phi_12 = pi/4 is the CPHASE point: equal to diag(1,1,1,-1) up to
    single-qubit Z rotations and a global phase.
    """
    p = np.exp(1j * phi_12)
    return np.array([p, p.conjugate(), p.conjugate(), p])


def gate_target(params, alpha: complex = 0j) -> np.ndarray:
    """Diagonal of the gate that one run on params realizes from the coherent
    cavity start alpha (0: the vacuum, and a thermal start, whose mean
    amplitude is 0).

    The ZZ phase pi/4 takes the sign of Delta, as the loops run the other way
    round when Delta < 0. A start alpha then adds the phase
    v_k = exp(2i Im(alpha lam_k A)) on branch k, with lam_k A =
    beta_k (1 - e^{-z t_g}) the loop's leftover amplitude at the end of the
    gate (_loops): the alpha terms of log C_ij sum to
    2i Im(alpha (beta_i - beta_j)(1 - e^{-z t_g})). That is linear in
    (s1, s2), a local Z rotation, and v = 1 where a lossless loop closes.
    """
    u = ideal_gate_unitary(math.copysign(math.pi / 4, params.delta_rad_ns))
    z, beta = _loops(params)
    return u * np.exp(2j * (alpha * beta * (1.0 - cmath.exp(-z * params.t_g_ns))).imag)


def textbook_cphase_decomposition() -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of (CZ, local correction L) with CZ = e^{i pi/4} * ideal_gate_unitary(pi/4) L.

    L = Rz(pi/2) (x) Rz(pi/2) is the single-qubit-Z dressing that turns the
    symmetric geometric-phase gate into the textbook diag(1, 1, 1, -1).
    """
    rz = np.exp(np.array([-1j, 1j]) * np.pi / 4)
    local = np.multiply.outer(rz, rz).reshape(4)
    return np.exp(1j * np.pi / 4) * ideal_gate_unitary(np.pi / 4) * local, local


def _loops(params) -> tuple[complex, np.ndarray]:
    """z = kappa + i Delta and the steady state beta_k = -i lam_k / 2z of each
    branch's loop, lam_k = g1 s1 + g2 s2 (rad/ns, 1/ns).

    Branch k, started from the vacuum, holds beta_k (1 - e^{-z t}) in the
    frame of the drive (the coherent-branch picture of Gambetta et al.,
    PRA 74, 042318 (2006)): a circle about beta_k that shrinks as e^{-kappa t}.
    """
    z = complex(params.kappa_per_ns, params.delta_rad_ns)
    return z, (-0.5j / z) * _branch_couplings(params)


def b_factor(g: float, delta: float, kappa: float, t_g: float) -> tuple[float, float, float]:
    """Correlated-dephasing factor b(t_g) and its loss/entanglement split.

        b = exp(-4 kappa \\int_0^{t_g} |alpha|^2 dt - 2 |alpha(t_g)|^2) = b_l * b_e,
        alpha(t) = -(g/2) (e^{-kappa t} - e^{i delta t}) / (i delta + kappa),

    the displacement per unit sigma_z eigenvalue in the lab frame (the
    paper's form; the drive-frame loop -i (g/2z)(1 - e^{-z t}) of _loops has
    the same modulus), computed from the closed-form antiderivative (no
    quadrature). b_l
    collects the photon-loss (which-path emission) term, b_e the residual
    entanglement with the unclosed loop; at a lossless schedule point both
    are 1. In the small-kappa/delta limit b ~ exp(-pi*kappa/(2 g sqrt(n))).
    """
    # one finiteness test for all four, as this runs at every refinement
    # step: the sum is nan or inf whenever a term is
    if not (kappa >= 0.0 and t_g >= 0.0 and math.isfinite(g + delta + kappa + t_g)):
        raise DomainError(f"need finite g, delta and finite non-negative kappa, t_g; got "
                          f"g = {g}, delta = {delta}, kappa = {kappa}, t_g = {t_g}")
    if delta == 0.0 and kappa == 0.0:
        raise DomainError("b is undefined at delta = kappa = 0")
    gsq = g * g
    d2 = delta * delta + kappa * kappa
    if kappa > 0.0:
        i_exp = (1.0 - math.exp(-2.0 * kappa * t_g)) / (2.0 * kappa)
        i_cos = (
            math.exp(-kappa * t_g)
            * (-kappa * math.cos(delta * t_g) + delta * math.sin(delta * t_g))
            + kappa
        ) / d2
        int_term = 4.0 * kappa * (gsq / (4.0 * d2)) * (i_exp - 2.0 * i_cos + t_g)
    else:
        int_term = 0.0
    alpha = (-(g / 2.0) * (cmath.exp(-kappa * t_g) - cmath.exp(1j * delta * t_g))
             / (1j * delta + kappa))
    ent_term = 2.0 * abs(alpha) ** 2
    b_l = math.exp(-int_term)
    b_e = math.exp(-ent_term)
    return b_l * b_e, b_l, b_e


def correlated_dephasing_channel(b: float) -> TwoQubitChannel:
    """Which-path dephasing with parameter b in [0, 1]: the table C = b**W,
    W_ij = ((s_i - s_j)/2)^2, s = z1 + z2, so a coherence between branches
    whose s differ by 2 keeps b and one between |00> and |11> keeps b^4.

    It equals the paper's three-Kraus form
    K0 = [(1+b) I - (1-b) Z1 Z2]/2,
    K1 = sqrt((1-b^4)/2) (Z1 + Z2)/2,
    K2 = ((1-b^2)/sqrt(2)) (I + Z1 Z2)/2,
    and the family is a semigroup under composition: E_{b1} . E_{b2} = E_{b1 b2}.
    """
    if not (0.0 <= b <= 1.0):
        raise DomainError(f"b must lie in [0, 1], got {b}")
    return TwoQubitChannel(b**_W)


def intrinsic_dephasing_channel(gamma_1: float, gamma_2: float, t: float) -> TwoQubitChannel:
    """Independent dephasing of the two qubits over time t: the table
    C = exp(-R t), R = _dephasing_rates(gamma_1, gamma_2).

    It equals the four-Kraus form sqrt(w) * {I, Z1, Z2, Z1 Z2} with
    p_j = (1 - e^{-gamma_j t})/2 and weights (1-p1)(1-p2), p1(1-p2),
    p2(1-p1), p1 p2. Markovian: E(t1) . E(t2) = E(t1 + t2). Rates and
    time in any consistent units, finite and non-negative (else DomainError).
    """
    if not (math.isfinite(t) and t >= 0):
        raise DomainError(f"time must be finite and non-negative, got {t}")
    return TwoQubitChannel(np.exp(-_dephasing_rates(gamma_1, gamma_2) * t))


def analytic_gate_channel(
    params, gamma_1: float, gamma_2: float
) -> TwoQubitChannel:
    """Full analytic channel of one gate: the table
    exp(-R t_g) * b**W * u u^dag, that is E_q at t_g, E_b with b(t_g) and
    U_g with diagonal u = gate_target(params).

    ``params`` is a DerivedGateParams (SI); gamma_1, gamma_2 are the intrinsic
    dephasing rates in 1/s. The three factors commute, so the composition
    order is a convention, not physics.

    The b-factor is that of one coupling g = g1 = g2, so unequal couplings
    raise DomainError: folding them into sqrt(g1 g2) understates the error
    (1 - F_e = 4.15e-2 against the exact 6.76e-2 at g1 = 0.7 rad/ns,
    g2/g1 = 3, kappa = 5e-2/ns, two loops). extract_channel models unequal
    couplings.
    """
    if params.g1_rad_ns != params.g2_rad_ns:
        raise DomainError(
            f"analytic_gate_channel needs equal couplings, got g1 = "
            f"{params.g1_rad_ns:.6g} and g2 = {params.g2_rad_ns:.6g} rad/ns; "
            f"extract_channel models unequal couplings"
        )
    t_ns = params.t_g_ns
    b, _, _ = b_factor(params.g_geom_rad_ns, params.delta_rad_ns, params.kappa_per_ns, t_ns)
    u = gate_target(params)
    return TwoQubitChannel(np.exp(-1e-9 * _dephasing_rates(gamma_1, gamma_2) * t_ns)
                           * b**_W * np.outer(u, u.conj()))


def analytic_avg_fidelity(b: float, gamma_phi: float, t_g: float) -> float:
    """Closed-form average gate fidelity of the analytic channel.

        F = (1/10) (4 + 4 b e^{-gamma_phi t_g} + (b^4 + 1) e^{-2 gamma_phi t_g})

    gamma_phi is the geometric-mean intrinsic dephasing rate; consistent
    units with t_g. Decays from 1 (b = 1, no dephasing) to the fully
    dephased floor 0.4.
    """
    if not (0.0 <= b <= 1.0):
        raise DomainError(f"b must lie in [0, 1], got {b}")
    if not (gamma_phi >= 0 and t_g >= 0):
        raise DomainError(f"gamma_phi and t_g must be non-negative, got {gamma_phi}, {t_g}")
    decay = math.exp(-gamma_phi * t_g)
    return (4.0 + 4.0 * b * decay + (b**4 + 1.0) * decay**2) / 10.0
