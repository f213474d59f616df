"""Device model: resonator + exchange-coupled singlet-triplet qubit tuning.

Maps physical device parameters (resonator frequency/impedance/quality
factor, exchange curve, resonator lever arm, drive amplitude) to the
effective gate parameters: cavity decay rate kappa, longitudinal coupling g,
dispersive-like correction chi, drive detuning Delta and gate time t_g.

Units at this layer are SI throughout: energies in joules, angular
frequencies in rad/s, times in seconds, voltages in volts. The exchange
splitting follows the empirical exponential model J(eps) = J0 * exp(eps/eps_a)
about the operating point eps = 0, so J0 is the exchange there and its
curvature is J'' = J0/eps_a^2, which is what makes the second-order
(longitudinal) coupling dominate when the qubit is parked at a symmetric
point and driven along eps.

The initial cavity state CavityPrep lives here too, so that config and the
CLI can build it without numpy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .constants import E_CHARGE_C, HBAR_J_S, TWO_PI, h_ghz_to_energy_J
from .errors import DomainError

# Soft validity band for the exchange energy itself, in GHz (J/h) and in J.
# Values outside trigger a warning (the exponential fit is only trusted
# between ~50 MHz and a few tens of GHz); the optimizer uses the same band as
# its hard clamp window, and RunConfig's j_min_ghz/j_max_ghz default to it.
EXCHANGE_SOFT_MIN_GHZ = 0.050
EXCHANGE_SOFT_MAX_GHZ = 30.0
EXCHANGE_SOFT_MIN_J = h_ghz_to_energy_J(EXCHANGE_SOFT_MIN_GHZ)
EXCHANGE_SOFT_MAX_J = h_ghz_to_energy_J(EXCHANGE_SOFT_MAX_GHZ)


def exchange_in_band(J: float) -> bool:
    """Whether the exchange J (joules) lies in the soft band, ends included."""
    return EXCHANGE_SOFT_MIN_J <= J <= EXCHANGE_SOFT_MAX_J


@dataclass(frozen=True)
class ResonatorSpec:
    """Half-wave resonator: angular frequency (rad/s), impedance (ohm), Q."""

    omega_r: float
    Z_r: float
    Q: float

    def __post_init__(self):
        if not (0.0 < self.omega_r < math.inf):
            raise DomainError(f"omega_r must be finite and positive, got {self.omega_r}")
        if not (0.0 < self.Z_r < math.inf):
            raise DomainError(f"Z_r must be finite and positive, got {self.Z_r}")
        if not (0.0 < self.Q < math.inf):
            raise DomainError(f"Q must be finite and positive, got {self.Q}")


@dataclass(frozen=True)
class QubitTuning:
    """Exchange curve and drive for one singlet-triplet qubit.

    J0: exchange at the operating point (J). eps_a: exponential scale (J).
    c_r: resonator lever arm (dimensionless, in (0, 1]). eps_d: drive
    amplitude (J), i.e. the chemical-potential swing of the RF tone.
    """

    J0: float
    eps_a: float
    c_r: float = 0.18
    eps_d: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.J0 < math.inf):
            raise DomainError(f"J0 must be finite and positive, got {self.J0}")
        if not (0.0 < self.eps_a < math.inf):
            raise DomainError(f"eps_a must be finite and positive, got {self.eps_a}")
        if not (0.0 < self.c_r <= 1.0):
            raise DomainError(f"c_r must be in (0, 1], got {self.c_r}")
        if not (0.0 <= self.eps_d < math.inf):
            raise DomainError(f"eps_d must be finite and non-negative, got {self.eps_d}")


@dataclass(frozen=True)
class DerivedGateParams:
    """Effective gate parameters, all SI.

    kappa (rad/s), g1/g2/chi (J), Delta (rad/s), t_g (s); chi is qubit 1's.
    For a schedule of n closed phase-space loops, Delta*t_g = 2*pi*n by
    construction and hbar*|Delta| = 2*sqrt(n*g1*g2).
    """

    kappa: float
    g1: float
    g2: float
    chi: float
    Delta: float
    t_g: float

    # -- conversions to the internal (hbar = 1, rad/ns, ns) frame ----------
    @property
    def g1_rad_ns(self) -> float:
        return self.g1 / HBAR_J_S * 1e-9

    @property
    def g2_rad_ns(self) -> float:
        return self.g2 / HBAR_J_S * 1e-9

    @property
    def g_geom_rad_ns(self) -> float:
        """Geometric-mean coupling in rad/ns (what the schedule is built on)."""
        return math.sqrt(self.g1_rad_ns * self.g2_rad_ns)

    @property
    def delta_rad_ns(self) -> float:
        return self.Delta * 1e-9

    @property
    def kappa_per_ns(self) -> float:
        return self.kappa * 1e-9

    @property
    def t_g_ns(self) -> float:
        return self.t_g * 1e9


def photon_voltage(res: ResonatorSpec) -> float:
    """Voltage at the resonator antinode due to a single photon.

    Uses sqrt(hbar * Z_r) * omega_r. Note this is a factor sqrt(2) above the
    usual zero-point RMS convention sqrt(hbar * omega^2 * Z / 2); we keep the
    amplitude convention and it cancels against the matching convention in
    the coupling definitions.
    """
    return math.sqrt(HBAR_J_S * res.Z_r) * res.omega_r


def cavity_decay(res: ResonatorSpec) -> float:
    """Cavity amplitude decay rate kappa = omega_r / (2 Q) in rad/s."""
    return res.omega_r / (2.0 * res.Q)


@dataclass(frozen=True)
class CouplingStrengths:
    """Longitudinal coupling g, curvature term chi (both J), and chi/g."""

    g: float
    chi: float
    chi_over_g: float | None  # None when eps_d = 0 (ratio undefined)


def coupling_strengths(tuning: QubitTuning, res: ResonatorSpec) -> CouplingStrengths:
    """Effective qubit-resonator couplings at the operating point.

    The resonator voltage shifts the dot chemical potentials by
    e * c_r * V0 * (a + a^dag); expanding J(eps) to second order around
    the operating point, where J = J0 and J'' = J0/eps_a^2, with the drive
    tone eps_d on top gives

        g   = (1/2) J'' * (e c_r V0) * eps_d     (sigma_z (a+a^dag))
        chi =       J'' * (e c_r V0)^2           (sigma_z (a+a^dag)^2)

    chi/g = 2 e c_r V0 / eps_d is returned as a diagnostic: the curvature
    term is weaker than the drive-activated coupling by that ratio and is
    dropped by the gate model downstream. Warns when J0 lands outside the
    soft 50 MHz .. 30 GHz band, where the exponential fit is not trusted.
    """
    J = tuning.J0
    if not exchange_in_band(J):
        warnings.warn(f"exchange J = {J:.4g} J is outside the trusted band "
                      f"[{EXCHANGE_SOFT_MIN_J:.4g}, {EXCHANGE_SOFT_MAX_J:.4g}] J "
                      "(h*50 MHz .. h*30 GHz)", stacklevel=2)
    d2J = J * (1.0 / tuning.eps_a) ** 2
    e_cr_v0 = E_CHARGE_C * tuning.c_r * photon_voltage(res)  # energy, J
    chi = d2J * e_cr_v0**2
    if tuning.eps_d == 0.0:
        return CouplingStrengths(g=0.0, chi=chi, chi_over_g=None)
    g = 0.5 * d2J * e_cr_v0 * tuning.eps_d
    return CouplingStrengths(g=g, chi=chi, chi_over_g=2.0 * e_cr_v0 / tuning.eps_d)


def gate_schedule(g1: float, g2: float, n: int) -> tuple[float, float]:
    """Detuning and gate time that close n phase-space loops with phase pi/4.

    hbar*Delta = 2 sqrt(n g1 g2) and t_g = 2 pi n / Delta, so Delta*t_g =
    2 pi n exactly and the accumulated two-qubit phase g1 g2 t_g/(2 hbar^2
    Delta) equals pi/4. Inputs in joules, outputs (rad/s, s).
    """
    if not (g1 > 0 and g2 > 0):
        raise DomainError(f"couplings must be positive, got g1={g1}, g2={g2}")
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"loop count n must be a positive integer, got {n!r}")
    delta = 2.0 * math.sqrt(n * g1 * g2) / HBAR_J_S
    if not delta > 0.0:  # n g1 g2 underflowed to 0
        raise DomainError(f"couplings g1={g1}, g2={g2} J with n={n} give no detuning: "
                          f"the product n g1 g2 underflows to 0")
    t_g = TWO_PI * n / delta
    return delta, t_g


def derive_gate_params(
    res: ResonatorSpec,
    tuning: QubitTuning,
    n: int,
    tuning2: QubitTuning | None = None,
    delta_sign: int = +1,
) -> DerivedGateParams:
    """Bundle the full derived parameter set for one operating point.

    With two distinct tunings the schedule is built on the geometric mean
    sqrt(g1 g2). delta_sign = -1 selects the drive-above-resonance branch
    (Delta < 0); the loop still closes, with the opposite phase-space
    orientation.
    """
    if delta_sign not in (+1, -1):
        raise DomainError(f"delta_sign must be +1 or -1, got {delta_sign}")
    c1 = coupling_strengths(tuning, res)
    c2 = coupling_strengths(tuning2, res) if tuning2 is not None else c1
    if c1.g == 0.0 or c2.g == 0.0:
        raise DomainError("eps_d = 0 gives no longitudinal coupling; cannot schedule a gate")
    delta, t_g = gate_schedule(c1.g, c2.g, n)
    return DerivedGateParams(
        kappa=cavity_decay(res),
        g1=c1.g,
        g2=c2.g,
        chi=c1.chi,
        Delta=delta_sign * delta,
        t_g=t_g,
    )


@dataclass(frozen=True)
class CavityPrep:
    """Initial cavity state: vacuum, coherent(alpha), or thermal(n_bar).

    lindblad.extract_channel takes every kind, a thermal one in closed form.
    alpha and n_bar must be finite, and each is 0 unless the kind is coherent
    or thermal, respectively."""

    kind: str = "vacuum"
    alpha: complex = 0j
    n_bar: float = 0.0

    def __post_init__(self):
        if self.kind not in ("vacuum", "coherent", "thermal"):
            raise DomainError(f"unknown cavity preparation {self.kind!r}")
        if not (math.isfinite(self.n_bar) and self.n_bar >= 0):
            raise DomainError(f"n_bar must be finite and non-negative, got {self.n_bar}")
        if not (math.isfinite(self.alpha.real) and math.isfinite(self.alpha.imag)):
            raise DomainError(f"alpha must be finite, got {self.alpha}")
        if self.alpha and self.kind != "coherent":
            raise DomainError(f"a {self.kind} cavity needs alpha = 0, got {self.alpha}")
        if self.n_bar and self.kind != "thermal":
            raise DomainError(f"a {self.kind} cavity needs n_bar = 0, got {self.n_bar}")

    @classmethod
    def vacuum(cls) -> "CavityPrep":
        return cls()

    @classmethod
    def coherent(cls, alpha: complex) -> "CavityPrep":
        return cls(kind="coherent", alpha=complex(alpha))

    @classmethod
    def thermal(cls, n_bar: float) -> "CavityPrep":
        return cls(kind="thermal", n_bar=n_bar)
