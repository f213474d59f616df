"""Physical constants (CODATA 2018 exact values) and unit conversions.

Everything device-facing works in SI (joules, rad/s, volts, seconds);
the simulation and channel layers work in angular units (rad/ns, 1/ns, ns)
with the reduced Planck constant set to one, and DerivedGateParams converts
between the two. The converters here translate the configuration's units
(GHz of J/h, ueV) to and from joules.
"""

from __future__ import annotations

# CODATA 2018 (exact by definition since the 2019 SI redefinition)
HBAR_J_S = 1.054571817e-34  # J*s (derived, quoted to given precision)
H_J_S = 6.62607015e-34  # J*s
E_CHARGE_C = 1.602176634e-19  # C
H_EV_S = 4.135667696e-15  # eV*s

EV_TO_J = E_CHARGE_C

TWO_PI = 6.283185307179586


def energy_J_to_h_ghz(e_joule: float) -> float:
    """Energy in joules -> ordinary frequency in GHz (E / h)."""
    return e_joule / H_J_S * 1e-9


def h_ghz_to_energy_J(f_ghz: float) -> float:
    """Ordinary frequency in GHz -> energy in joules (h * f)."""
    return f_ghz * 1e9 * H_J_S


def uev_to_J(e_uev: float) -> float:
    return e_uev * 1e-6 * EV_TO_J
