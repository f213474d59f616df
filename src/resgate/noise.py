"""1/f charge-noise dephasing model, optimal drive, and infidelity estimates.

The charge bath has spectral density S(f) = S_eps / f^beta with S_eps in
eV^2/Hz^(1-beta). Echo filtering enters through the constant eta(beta) and
the pulse count m. The dephasing rate of an exchange-coupled qubit at
operating exchange J (with drive amplitude eps_d on top) is

    gamma_phi_0 = (eta * S_eps * (J/eps_a)^2 / h^2)^(1/(1+beta)) / m^beta
    gamma_phi   = gamma_phi_0 * (1 + eps_d^2/(4 eps_a^2))^(2/(1+beta))

Unit convention (the single calibrated choice in this package): the noise
amplitude is read as an ordinary-frequency fluctuation of the splitting,
delta-f = delta-E / h, so energies pair with S_eps through h^2 (h in eV*s).
All rates returned here are 1/s. A round-trip test pins the convention; the
end-to-end check is the optimizer reproducing gate times near 10 ns and
fidelities in the expected 0.87-0.998 window over the design grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .constants import EV_TO_J, H_EV_S, HBAR_J_S, h_ghz_to_energy_J
from .device import EXCHANGE_SOFT_MAX_J, EXCHANGE_SOFT_MIN_J, ResonatorSpec
from .errors import DomainError


@dataclass(frozen=True)
class NoiseSpec:
    """Charge-noise bath and echo constants.

    S_eps: power prefactor (eV^2/Hz^(1-beta)); beta: spectral exponent;
    eta: pulse-sequence filter constant (None -> Hahn-echo value for beta);
    m: number of decoupling pulses (>= 1, 1 = Hahn echo).
    """

    S_eps: float = 1.4e-16
    beta: float = 0.67
    eta: float | None = None
    m: int = 1

    def __post_init__(self):
        if not (self.S_eps > 0):
            raise DomainError(f"S_eps must be positive, got {self.S_eps}")
        if not (self.beta > 0):
            raise DomainError(f"beta must be positive, got {self.beta}")
        if self.eta is not None and not (self.eta > 0):
            raise DomainError(f"eta must be positive, got {self.eta}")
        if not (isinstance(self.m, int) and self.m >= 1):
            raise DomainError(f"m must be an integer >= 1, got {self.m!r}")

    @cached_property
    def eta_value(self) -> float:
        """The filter constant actually in effect (Hahn default), computed once."""
        return hahn_eta(self.beta) if self.eta is None else self.eta


@dataclass(frozen=True)
class DephasingModel:
    """Dephasing rates (1/s) without and with the drive broadening."""

    gamma_phi_0: float
    gamma_phi: float

    def __post_init__(self):
        if not (self.gamma_phi >= self.gamma_phi_0 > 0):
            raise DomainError(
                "rates must satisfy gamma_phi >= gamma_phi_0 > 0, got "
                f"{self.gamma_phi} / {self.gamma_phi_0}"
            )


@dataclass(frozen=True)
class OptimalDrive:
    """Closed-form optimum: drive amplitude and exchange (both J, SI)."""

    eps_d_opt: float
    J_opt: float
    clamped: bool
    J_opt_unclamped: float


def hahn_eta(beta: float) -> float:
    """Echo filter constant eta = (1/2pi)(2^(1-beta)-1) Gamma(-1-beta) sin(pi beta/2).

    Valid for 0 < beta < 1 (the Gamma pole at -1 and -2 excludes the
    endpoints). Positive throughout that range.
    """
    if not (0.0 < beta < 1.0):
        raise DomainError(
            f"beta must lie strictly in (0, 1) for the echo constant, got {beta}"
        )
    return (
        (2.0 ** (1.0 - beta) - 1.0)
        * math.gamma(-1.0 - beta)
        * math.sin(math.pi * beta / 2.0)
        / (2.0 * math.pi)
    )


def dephasing_rate(
    J: float, eps_d: float, noise: NoiseSpec, eps_a: float
) -> DephasingModel:
    """Dephasing rates (1/s) at exchange J with drive amplitude eps_d.

    J, eps_d, eps_a in joules (only the dimensionless ratios enter, plus the
    h^2 calibration described in the module docstring). The drive-broadening
    factor (1 + eps_d^2/4eps_a^2)^(2/(1+beta)) comes from the noise being
    sampled quadratically along the drive swing.
    """
    if not (J > 0):
        raise DomainError(f"J must be positive, got {J}")
    if eps_d < 0:
        raise DomainError(f"eps_d must be non-negative, got {eps_d}")
    base = noise.eta_value * noise.S_eps * (J / eps_a) ** 2 / H_EV_S**2
    gamma0 = base ** (1.0 / (1.0 + noise.beta)) / noise.m**noise.beta
    drive_factor = (1.0 + (eps_d / (2.0 * eps_a)) ** 2) ** (2.0 / (1.0 + noise.beta))
    return DephasingModel(gamma_phi_0=gamma0, gamma_phi=gamma0 * drive_factor)


def optimal_drive(
    noise: NoiseSpec,
    kappa: float,
    n: int,
    eps_a: float,
    gamma_phi_0_at_J: float,
    j_min: float = EXCHANGE_SOFT_MIN_J,
    j_max: float = EXCHANGE_SOFT_MAX_J,
) -> OptimalDrive:
    """Closed-form optimal drive amplitude and operating exchange.

    eps_d_opt = 2 eps_a sqrt(1 + kappa/(2 n gamma_phi_0_at_J)) balances drive
    speed-up against drive-induced broadening; J_opt balances dephasing
    (which grows with J) against photon loss (which shrinks with it):

        J_opt = h * (beta*kappa / (2n(1-beta)))^((1+beta)/2) * eps_a / sqrt(S_eps*eta)

    (energies in eV inside the formula, returned in joules). J_opt diverges
    as beta -> 1 and vanishes as beta -> 0, hence the strict (0, 1) domain,
    and the result is clamped to [j_min, j_max] with a flag. The caller
    should evaluate gamma_phi_0 at the *clamped* J before using eps_d_opt;
    both optima are stationary only for the linearized (small drive
    exponent) objective, which is also what the power-law estimate assumes.
    """
    if not (0.0 < noise.beta < 1.0):
        raise DomainError(
            f"the optimal exchange is undefined for beta = {noise.beta}: it "
            "diverges for beta >= 1 (true 1/f) and vanishes for beta <= 0 (white)"
        )
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"loop count n must be a positive integer, got {n!r}")
    if kappa < 0:
        raise DomainError(f"kappa must be non-negative, got {kappa}")
    if not (gamma_phi_0_at_J > 0):
        raise DomainError(f"gamma_phi_0_at_J must be positive, got {gamma_phi_0_at_J}")
    beta = noise.beta
    eps_d_opt = 2.0 * eps_a * math.sqrt(1.0 + kappa / (2.0 * n * gamma_phi_0_at_J))
    rate_opt = beta * kappa / (2.0 * n * (1.0 - beta))  # optimal gamma_phi_0, 1/s
    eps_a_ev = eps_a / EV_TO_J
    j_opt_hz = rate_opt ** ((1.0 + beta) / 2.0) * eps_a_ev / math.sqrt(
        noise.S_eps * noise.eta_value
    )
    j_opt = h_ghz_to_energy_J(j_opt_hz * 1e-9)
    clamped = not (j_min <= j_opt <= j_max)
    j_clamped = min(max(j_opt, j_min), j_max)
    return OptimalDrive(
        eps_d_opt=eps_d_opt,
        J_opt=j_clamped,
        clamped=clamped,
        J_opt_unclamped=j_opt,
    )


def infidelity_first_order(gamma_phi: float, kappa: float, t_g: float, n: int) -> float:
    """First-order infidelity (4/5)(gamma_phi*t_g + kappa*t_g/(2n)).

    Valid when both exponents are small (not enforced); rates in 1/s and
    t_g in seconds, or any consistent pairing.
    """
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"loop count n must be a positive integer, got {n!r}")
    return 0.8 * (gamma_phi * t_g + kappa * t_g / (2.0 * n))


def infidelity_power_law(
    noise: NoiseSpec,
    res: ResonatorSpec,
    c_r: float,
    n: int,
    printed_constant: bool = False,
) -> float:
    """Closed-form infidelity at the (unclamped) optimal operating point.

        1 - F ~ (2^(1+beta)/5) (n/beta)^(beta/2) (1-beta)^((beta-1)/2)
                * sqrt(S_eps*eta) / (c_r sqrt(hbar Z_r) Q^((1-beta)/2) omega_r^((1+beta)/2))

    This is the first-order infidelity evaluated exactly at the closed-form
    optimum (same unit calibration as dephasing_rate), so it matches
    infidelity_first_order there to rounding. ``printed_constant=True``
    multiplies by 2^(beta/2) (1-beta)^(1-beta) (~0.875 at beta=0.67), an
    alternative prefactor found in circulation for the same scaling law;
    the default is the self-consistent one. Rejects n = 1: with a single
    phase-space loop the optimal drive regime collides with the validity
    limits of the expansion, so the scaling form does not apply.
    """
    if not (isinstance(n, int) and n >= 2):
        raise DomainError(
            f"the power-law estimate requires n >= 2 (got n = {n!r}); it does "
            "not apply to single-loop gates"
        )
    beta = noise.beta
    if not (0.0 < beta < 1.0):
        raise DomainError(f"beta must lie strictly in (0, 1), got {beta}")
    val = (
        (2.0 ** (1.0 + beta) / 5.0)
        * (n / beta) ** (beta / 2.0)
        * (1.0 - beta) ** ((beta - 1.0) / 2.0)
        * math.sqrt(noise.S_eps * noise.eta_value)
        / (
            c_r
            * math.sqrt(HBAR_J_S * res.Z_r)
            * res.Q ** ((1.0 - beta) / 2.0)
            * res.omega_r ** ((1.0 + beta) / 2.0)
        )
    )
    if printed_constant:
        val *= 2.0 ** (beta / 2.0) * (1.0 - beta) ** (1.0 - beta)
    return val
