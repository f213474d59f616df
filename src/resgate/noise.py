"""1/f charge-noise dephasing model, optimal drive, and infidelity estimates.

The charge bath has spectral density S(f) = S_eps / f^beta with S_eps in
eV^2/Hz^(1-beta). Hahn-echo filtering enters through the constant
eta(beta). The dephasing rate of an exchange-coupled qubit at operating
exchange J (with drive amplitude eps_d on top) is

    gamma_phi_0 = (eta * S_eps * (J/eps_a)^2 / h^2)^(1/(1+beta))
    gamma_phi   = gamma_phi_0 * (1 + eps_d^2/(4 eps_a^2))^(2/(1+beta))

dephasing_rate returns gamma_phi; gamma_phi_0 is its value at eps_d = 0.

Unit convention (the single calibrated choice in this package): the noise
amplitude is read as an ordinary-frequency fluctuation of the splitting,
delta-f = delta-E / h, so energies pair with S_eps through h^2 (h in eV*s).
All rates returned here are 1/s. A round-trip test pins the convention; the
end-to-end check is the optimizer reproducing gate times near 10 ns and
fidelities in the expected 0.87-0.998 window over the design grid.

optimal_drive resolves the closed-form operating point in one call: the
clamped optimal exchange and the drive amplitude at it (or at a pinned J).
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
    """Charge-noise bath and echo constant.

    S_eps: power prefactor (eV^2/Hz^(1-beta)); beta: spectral exponent;
    eta: echo filter constant (None -> Hahn-echo value for beta).
    """

    S_eps: float = 1.4e-16
    beta: float = 0.67
    eta: float | None = None

    def __post_init__(self):
        if not (0.0 < self.S_eps < math.inf):
            raise DomainError(f"S_eps must be finite and positive, got {self.S_eps}")
        if not (0.0 < self.beta < math.inf):
            raise DomainError(f"beta must be finite and positive, got {self.beta}")
        if self.eta is not None and not (0.0 < self.eta < math.inf):
            raise DomainError(f"eta must be finite and positive, got {self.eta}")

    @cached_property
    def eta_value(self) -> float:
        """The filter constant actually in effect (Hahn default), computed once."""
        return hahn_eta(self.beta) if self.eta is None else self.eta


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


def dephasing_rate(J: float, eps_d: float, noise: NoiseSpec, eps_a: float) -> float:
    """Dephasing rate gamma_phi (1/s) at exchange J with drive amplitude eps_d.

    J, eps_d, eps_a in joules (only the dimensionless ratios enter, plus the
    h^2 calibration described in the module docstring). The drive-broadening
    factor (1 + eps_d^2/4eps_a^2)^(2/(1+beta)) comes from the noise being
    sampled quadratically along the drive swing; it is exactly 1.0 at
    eps_d = 0, so dephasing_rate(J, 0.0, ...) is gamma_phi_0 itself. A rate
    that is not > 0 raises DomainError naming J: it underflows to 0 once
    J/eps_a falls below ~1e-154.
    """
    if not (0.0 < J < math.inf):
        raise DomainError(f"J must be finite and positive, got {J}")
    if not (0.0 <= eps_d < math.inf):
        raise DomainError(f"eps_d must be finite and non-negative, got {eps_d}")
    if not (0.0 < eps_a < math.inf):
        raise DomainError(f"eps_a must be finite and positive, got {eps_a}")
    base = noise.eta_value * noise.S_eps * (J / eps_a) ** 2 / H_EV_S**2
    drive_factor = (1.0 + (eps_d / (2.0 * eps_a)) ** 2) ** (2.0 / (1.0 + noise.beta))
    rate = base ** (1.0 / (1.0 + noise.beta)) * drive_factor
    if not rate > 0.0:
        raise DomainError(f"the dephasing rate underflows to {rate} at J = {J} "
                          f"(J/eps_a = {J / eps_a})")
    return rate


def optimal_drive(
    noise: NoiseSpec,
    kappa: float,
    n: int,
    eps_a: float,
    *,
    j_min: float = EXCHANGE_SOFT_MIN_J,
    j_max: float = EXCHANGE_SOFT_MAX_J,
    J: float | None = None,
) -> OptimalDrive:
    """Closed-form optimal operating exchange and drive amplitude.

    J_opt balances dephasing (which grows with J) against photon loss
    (which shrinks with it):

        J_opt = h * (beta*kappa / (2n(1-beta)))^((1+beta)/2) * eps_a / sqrt(S_eps*eta)

    (energies in eV inside the formula, returned in joules). J_opt diverges
    as beta -> 1 and vanishes as beta -> 0, hence the strict (0, 1) domain,
    and the result is clamped to [j_min, j_max] with a flag.
    eps_d_opt = 2 eps_a sqrt(1 + kappa/(2 n gamma_phi_0)) balances drive
    speed-up against drive-induced broadening, with gamma_phi_0 =
    dephasing_rate(J, 0.0, noise, eps_a) at the clamped J_opt, or at J when
    it is pinned. Both optima are stationary only for the linearized (small
    drive exponent) objective, which is also what the power-law estimate
    assumes.
    """
    if not (0.0 < noise.beta < 1.0):
        raise DomainError(
            f"the optimal exchange is undefined for beta = {noise.beta}: it "
            "diverges for beta >= 1 (true 1/f) and vanishes for beta <= 0 (white)"
        )
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"loop count n must be a positive integer, got {n!r}")
    if not (0.0 <= kappa < math.inf):
        raise DomainError(f"kappa must be finite and non-negative, got {kappa}")
    beta = noise.beta
    rate_opt = beta * kappa / (2.0 * n * (1.0 - beta))  # optimal gamma_phi_0, 1/s
    eps_a_ev = eps_a / EV_TO_J
    j_opt_hz = rate_opt ** ((1.0 + beta) / 2.0) * eps_a_ev / math.sqrt(
        noise.S_eps * noise.eta_value
    )
    j_opt = h_ghz_to_energy_J(j_opt_hz * 1e-9)
    clamped = not (j_min <= j_opt <= j_max)
    j_clamped = min(max(j_opt, j_min), j_max)
    gamma0 = dephasing_rate(j_clamped if J is None else J, 0.0, noise, eps_a)
    return OptimalDrive(
        eps_d_opt=2.0 * eps_a * math.sqrt(1.0 + kappa / (2.0 * n * gamma0)),
        J_opt=j_clamped,
        clamped=clamped,
        J_opt_unclamped=j_opt,
    )


def infidelity_power_law(
    noise: NoiseSpec,
    res: ResonatorSpec,
    c_r: float,
    n: int,
) -> float:
    """Closed-form infidelity at the (unclamped) optimal operating point.

        1 - F ~ (2^(1+beta)/5) (n/beta)^(beta/2) (1-beta)^((beta-1)/2)
                * sqrt(S_eps*eta) / (c_r sqrt(hbar Z_r) Q^((1-beta)/2) omega_r^((1+beta)/2))

    This is the first-order infidelity (4/5)(gamma t_g + kappa t_g/2n) at the
    unclamped closed-form optimum of optimal_drive (same unit calibration as
    dephasing_rate), with gamma the linearized rate gamma_phi_0 (1 + y^2/4),
    y = eps_d/eps_a, that optimal_drive's optima are stationary for; it
    matches that to rounding. Rejects n = 1: with a single
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
    if not (0.0 < c_r <= 1.0):
        raise DomainError(f"c_r must be in (0, 1], got {c_r}")
    return (
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
