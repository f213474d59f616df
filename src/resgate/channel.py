"""Analytic error channel of the resonator-mediated CPHASE gate.

The gate works by driving the resonator conditionally on the joint qubit
state: each sigma_z1 + sigma_z2 eigenvalue s in {+2, 0, -2} pushes the
cavity around a circle in phase space with amplitude s*alpha(t). When the
loop closes (Delta*t_g = 2*pi*n) the qubits pick up a geometric two-qubit
phase; photon loss along the loop and leftover displacement at closing time
leak which-path information, which dephases the qubits in the Z*Z basis.
All of that is exactly expressible: the channel factorizes into

    rho -> U_g . E_b . E_q (rho)         (the three factors commute)

with U_g = exp(+i * phi * Z1*Z2), E_b a three-Kraus correlated-dephasing
channel parameterized by a single number b in (0, 1], and E_q the ordinary
independent dephasing of the two qubits. Everything in this module is in
angular units: couplings are energy/hbar in rad/ns, rates in 1/ns, times in
ns (any consistent set works).

Basis order is |00>, |01>, |10>, |11>. Every map here commutes with Z1 and
Z2, so it is a Schur multiplier rho -> C o rho (elementwise product) with
one 4x4 coherence matrix C, and a TwoQubitChannel stores only C. The Kraus
families are constructors that build C = sum_k k k^dag from the diagonals
k of diagonal Kraus operators; a Kraus operator or unitary that is not
diagonal is rejected.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonPhysicalChannelError

# Diagonals of I, Z1, Z2 and Z1 Z2 in the basis order above.
_I = np.ones(4)
_Z1 = np.array([1.0, 1.0, -1.0, -1.0])
_Z2 = np.array([1.0, -1.0, 1.0, -1.0])
_ZZ = _Z1 * _Z2


def _branch_couplings(params) -> np.ndarray:
    """lam = g1 s1 + g2 s2 (rad/ns) of each basis state, branch (s1, s2)."""
    return params.g1_rad_ns * _Z1 + params.g2_rad_ns * _Z2


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
        """The map rho -> sum_k K_k rho K_k^dag of diagonal 4x4 Kraus operators K_k."""
        c = np.zeros((4, 4), dtype=complex)
        for k in ops:
            k = np.asarray(k, dtype=complex)
            if k.shape != (4, 4):
                raise DomainError("Kraus operators must be 4x4")
            d = np.diag(k)
            if np.any(k - np.diag(d)):
                raise DomainError("Kraus operators must be diagonal in the Z basis")
            c += np.multiply.outer(d, d.conj())
        return cls(c)

    @classmethod
    def from_unitary(cls, u: np.ndarray) -> "TwoQubitChannel":
        return cls.from_kraus((u,))

    @property
    def superop(self) -> np.ndarray:
        """16x16 superoperator on row-major vectorized matrices: diag(vec C)."""
        return np.diag(self.coherence.reshape(16))

    def choi_matrix(self) -> np.ndarray:
        """Unnormalized Choi matrix (trace 4 for a TP map), row-major pairing."""
        return self.superop.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)

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

    def validate(self, tp_tol: float = 1e-10, choi_tol: float = 1e-8) -> None:
        """Raise NonPhysicalChannelError if the map is not CPTP within tolerance.

        A CP map has a Hermitian C (it maps Hermitian states to Hermitian
        ones), so max|C - C^dag| must stay within tp_tol as well; the
        eigenvalue test reads only C's Hermitian part.
        """
        defect = self.completeness_defect()
        c = self.coherence
        skew = float(np.max(np.abs(c - c.conj().T)))
        eigs = self._coherence_eigenvalues()
        if defect > tp_tol or skew > tp_tol or eigs[0] < -choi_tol:
            raise NonPhysicalChannelError(
                f"map is not CPTP: trace-preservation defect {defect:.3e} "
                f"(tol {tp_tol:.0e}), non-Hermitian part max|C - C^dag| {skew:.3e} "
                f"(tol {tp_tol:.0e}), coherence eigenvalues "
                f"{np.array2string(eigs, precision=3)} (min tol -{choi_tol:.0e})",
                choi_eigenvalues=eigs,
                tp_defect=defect,
            )


def ideal_gate_unitary(phi_12: float) -> np.ndarray:
    """exp(+i * phi_12 * Z1 Z2) = diag(e^{i phi}, e^{-i phi}, e^{-i phi}, e^{i phi}).

    phi_12 = pi/4 is the CPHASE point: equal to diag(1,1,1,-1) up to
    single-qubit Z rotations and a global phase.
    """
    p = np.exp(1j * phi_12)
    return np.diag([p, p.conjugate(), p.conjugate(), p]).astype(complex)


def gate_target(params, alpha: complex = 0j) -> np.ndarray:
    """The gate that one run on params realizes from the coherent cavity start
    alpha (0: the vacuum, and a thermal start, whose mean amplitude is 0).

    The ZZ phase pi/4 takes the sign of Delta, as the loops run the other way
    round when Delta < 0. A start alpha then adds the phase
    v_k = exp(2i Im(alpha lam_k A)) on branch k, lam_k = g1 s1 + g2 s2, with
    A = drive_frame_displacement(1, Delta, kappa, t_g) the loop's leftover
    amplitude per unit lam at the end of the gate: the alpha terms of log C_ij
    sum to 2i Im(alpha (beta_i - beta_j)(1 - e^{-z t_g})), beta_k = -i lam_k / 2z,
    z = kappa + i Delta (Gambetta et al., PRA 74, 042318 (2006)). That is
    linear in (s1, s2), a local Z rotation, and v = 1 where a lossless loop
    closes.
    """
    u = np.diag(ideal_gate_unitary(math.copysign(math.pi / 4, params.delta_rad_ns)))
    a = drive_frame_displacement(1.0, params.delta_rad_ns, params.kappa_per_ns, params.t_g_ns)
    return np.diag(u * np.exp(2j * (alpha * a * _branch_couplings(params)).imag))


def textbook_cphase_decomposition() -> tuple[np.ndarray, np.ndarray]:
    """(CZ, local correction L) with CZ = e^{i pi/4} * ideal_gate_unitary(pi/4) L.

    L = Rz(pi/2) (x) Rz(pi/2) is the single-qubit-Z dressing that turns the
    symmetric geometric-phase gate into the textbook diag(1, 1, 1, -1). All
    three are diagonal, so the product is taken on their diagonals.
    """
    rz = np.exp(np.array([-1j, 1j]) * np.pi / 4)
    local = np.multiply.outer(rz, rz).reshape(4)
    cz = np.exp(1j * np.pi / 4) * np.diag(ideal_gate_unitary(np.pi / 4)) * local
    return np.diag(cz), np.diag(local)


def alpha_closed_form(g: float, delta: float, kappa: float, t):
    """Cavity displacement per unit sigma_z eigenvalue at time t.

        alpha(t) = -(g/2) * (e^{-kappa t} - e^{i delta t}) / (i delta + kappa)

    (hbar = 1; g in rad/ns, delta in rad/ns, kappa in 1/ns, t in ns, scalar
    or array). Solves d(alpha)/dt = -kappa*alpha + (g/2) e^{i delta t} with
    alpha(0) = 0. At kappa = 0 this is i(g/2 delta)(1 - e^{i delta t}), which
    vanishes whenever delta*t is a multiple of 2*pi — the loop-closing
    (disentangling) points.
    """
    if delta == 0.0 and kappa == 0.0:
        raise DomainError("alpha is unbounded at delta = kappa = 0 (resonant lossless drive)")
    val = _alpha(g, delta, kappa, np.asarray(t, dtype=float), np)
    return val if val.ndim else complex(val)


def _alpha(g: float, delta: float, kappa: float, t, xp):
    """The alpha_closed_form expression with exp taken from ``xp``: numpy for
    arrays, cmath for one float (as b_factor needs, without 0-d arrays)."""
    return -(g / 2.0) * (xp.exp(-kappa * t) - xp.exp(1j * delta * t)) / (1j * delta + kappa)


def drive_frame_displacement(g: float, delta: float, kappa: float, t):
    """alpha in the frame of the time-independent gate Hamiltonian.

    The simulation Hamiltonian is written in the frame rotating at the drive
    frequency, where the coherent-state amplitude is

        alpha_d(t) = -i e^{-i delta t} alpha(t)
                   = -i (g/2) (1 - e^{-(i delta + kappa) t}) / (i delta + kappa).

    This is the amplitude the cavity actually holds in the simulation frame
    (per unit sigma_z eigenvalue); use it for polaron-frame checks.
    """
    t = np.asarray(t, dtype=float)
    val = -1j * np.exp(-1j * delta * t) * alpha_closed_form(g, delta, kappa, t)
    return val if val.ndim else complex(val)


def accumulated_entangling_phase(g: float, delta: float, kappa: float, t: float) -> float:
    """Two-qubit geometric phase accumulated by time t (closed form).

    d(phi)/dt = -g * Re[alpha_d(t)] integrates to

        phi(t) = -(g^2/2) * Im[ ((e^{p t} - 1)/p - t) / (kappa - i delta) ],
        p = i delta - kappa.

    At kappa = 0 this reduces to (g^2 / 2 delta^2)(delta t - sin delta t),
    which reaches pi/4 at the schedule point delta*t = 2*pi*n with
    delta = 2 g sqrt(n). With loss the phase at the schedule point drops by
    a relative 3 kappa^2/delta^2 + O(kappa^3).
    """
    if delta == 0.0 and kappa == 0.0:
        raise DomainError("phase is undefined at delta = kappa = 0")
    p = 1j * delta - kappa
    core = ((np.exp(p * t) - 1.0) / p - t) / (kappa - 1j * delta)
    return float(-(g**2 / 2.0) * core.imag)


def b_factor(g: float, delta: float, kappa: float, t_g: float) -> tuple[float, float, float]:
    """Correlated-dephasing factor b(t_g) and its loss/entanglement split.

        b = exp(-4 kappa \\int_0^{t_g} |alpha|^2 dt - 2 |alpha(t_g)|^2) = b_l * b_e

    computed from the closed-form antiderivative (no quadrature). b_l
    collects the photon-loss (which-path emission) term, b_e the residual
    entanglement with the unclosed loop; at a lossless schedule point both
    are 1. In the small-kappa/delta limit b ~ exp(-pi*kappa/(2 g sqrt(n))).
    """
    if delta == 0.0 and kappa == 0.0:
        raise DomainError("b is undefined at delta = kappa = 0")
    if t_g < 0:
        raise DomainError(f"t_g must be non-negative, got {t_g}")
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
    ent_term = 2.0 * abs(_alpha(g, delta, kappa, t_g, cmath)) ** 2
    b_l = math.exp(-int_term)
    b_e = math.exp(-ent_term)
    return b_l * b_e, b_l, b_e


def b_factor_simplified(g: float, kappa: float, n: int) -> float:
    """Leading-order b at the schedule point: exp(-pi*kappa/(2 g sqrt(n)))."""
    if not (g > 0 and n >= 1):
        raise DomainError("g must be positive and n >= 1")
    return math.exp(-math.pi * kappa / (2.0 * g * math.sqrt(n)))


def correlated_dephasing_channel(b: float) -> TwoQubitChannel:
    """Three-Kraus channel of the which-path dephasing, parameter b in [0, 1].

    K0 = [(1+b) I - (1-b) Z1 Z2]/2,
    K1 = sqrt((1-b^4)/2) (Z1 + Z2)/2,
    K2 = ((1-b^2)/sqrt(2)) (I + Z1 Z2)/2.

    Completeness is an exact algebraic identity, and the family is a
    semigroup under composition: E_{b1} . E_{b2} = E_{b1 b2}.
    """
    if not (0.0 <= b <= 1.0):
        raise DomainError(f"b must lie in [0, 1], got {b}")
    k0 = 0.5 * ((1.0 + b) * _I - (1.0 - b) * _ZZ)
    k1 = math.sqrt((1.0 - b**4) / 2.0) * 0.5 * (_Z1 + _Z2)
    k2 = ((1.0 - b**2) / math.sqrt(2.0)) * 0.5 * (_I + _ZZ)
    return TwoQubitChannel.from_kraus(np.diag(k) for k in (k0, k1, k2))


def intrinsic_dephasing_channel(gamma_1: float, gamma_2: float, t: float) -> TwoQubitChannel:
    """Independent dephasing of the two qubits over time t.

    p_j = (1 - e^{-gamma_j t})/2; Kraus set sqrt(w) * {I, Z1, Z2, Z1 Z2} with
    weights (1-p1)(1-p2), p1(1-p2), p2(1-p1), p1 p2. Markovian:
    E(t1) . E(t2) = E(t1 + t2). Rates and time in any consistent units.
    """
    if gamma_1 < 0 or gamma_2 < 0 or t < 0:
        raise DomainError("rates and time must be non-negative")
    p1 = 0.5 * (1.0 - math.exp(-gamma_1 * t))
    p2 = 0.5 * (1.0 - math.exp(-gamma_2 * t))
    weights_ops = (
        ((1.0 - p1) * (1.0 - p2), _I),
        (p1 * (1.0 - p2), _Z1),
        (p2 * (1.0 - p1), _Z2),
        (p1 * p2, _ZZ),
    )
    return TwoQubitChannel.from_kraus(np.diag(math.sqrt(w) * op) for w, op in weights_ops)


def analytic_gate_channel(
    params, gamma_1: float, gamma_2: float
) -> TwoQubitChannel:
    """Full analytic channel of one gate: E_q at t_g, E_b with b(t_g), then U_g.

    ``params`` is a DerivedGateParams (SI); gamma_1, gamma_2 are the intrinsic
    dephasing rates in 1/s. The three factors commute, so the composition
    order is a convention, not physics. The unitary is gate_target(params).

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
    g = params.g_geom_rad_ns
    delta = params.delta_rad_ns
    kappa = params.kappa_per_ns
    t_ns = params.t_g_ns
    b, _, _ = b_factor(g, delta, kappa, t_ns)
    e_q = intrinsic_dephasing_channel(gamma_1 * 1e-9, gamma_2 * 1e-9, t_ns)
    e_b = correlated_dephasing_channel(b)
    return e_q.then(e_b).then(TwoQubitChannel.from_unitary(gate_target(params)))


def analytic_avg_fidelity(b: float, gamma_phi: float, t_g: float) -> float:
    """Closed-form average gate fidelity of the analytic channel.

        F = (1/10) (4 + 4 b e^{-gamma_phi t_g} + (b^4 + 1) e^{-2 gamma_phi t_g})

    gamma_phi is the geometric-mean intrinsic dephasing rate; consistent
    units with t_g. Decays from 1 (b = 1, no dephasing) to the fully
    dephased floor 0.4.
    """
    if not (0.0 <= b <= 1.0):
        raise DomainError(f"b must lie in [0, 1], got {b}")
    if gamma_phi < 0 or t_g < 0:
        raise DomainError("gamma_phi and t_g must be non-negative")
    decay = math.exp(-gamma_phi * t_g)
    return (4.0 + 4.0 * b * decay + (b**4 + 1.0) * decay**2) / 10.0
