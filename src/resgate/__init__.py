"""Resonator-mediated geometric-phase two-qubit gate toolkit.

Layers, roughly bottom-up:

- constants / errors: physical constants, unit conversions (J <-> GHz,
  ueV -> J) and the shared exception types.
- device: resonator and qubit tunings (J0 is the exchange at the operating
  point); couplings, decay rate, and the gate schedule.
- noise: 1/f^beta charge-noise dephasing, the echo filter constant, the
  closed-form optimal operating point, and infidelity estimates.
- channel: TwoQubitChannel, a Z-diagonal map stored as its 4x4 coherence
  matrix C (rho -> C o rho), and the exact analytic error channel of the
  gate (displacement trajectory, b-factor, and the
  dephasing and gate factors as coherence tables).
- fidelity: entanglement / average gate fidelity, as floats, read off C
  and the target's diagonal (gates and Kraus operators are passed as their
  length-4 Z diagonals throughout).
- lindblad: the numeric master-equation oracle on qubits x Fock space.
- config / sweep / cli: run configuration, device-grid sweeps, and the
  `resgate` command-line tool.

Importing the package loads only the numpy-free layers (constants, errors,
device, noise, config). The names of channel, fidelity, lindblad and sweep
resolve on first use through a PEP 562 module __getattr__, which reads the
defining module's attribute on every lookup (nothing is cached here, so a
patched module attribute is what resgate.<name> returns). A process that
computes a channel or a sweep still loads numpy, at that first call; one
that stops short of them never does: the CLI's --help, usage and config
errors, and scripts that use only the device and noise layers.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .config import RunConfig, config_from_dict, load_config
from .constants import (
    E_CHARGE_C,
    H_EV_S,
    H_J_S,
    HBAR_J_S,
)
from .device import (
    CavityPrep,
    CouplingStrengths,
    DerivedGateParams,
    QubitTuning,
    ResonatorSpec,
    cavity_decay,
    coupling_strengths,
    derive_gate_params,
    gate_schedule,
    photon_voltage,
)
from .errors import ConfigError, DomainError, NonPhysicalChannelError
from .noise import (
    NoiseSpec,
    OptimalDrive,
    dephasing_rate,
    hahn_eta,
    infidelity_power_law,
    optimal_drive,
)

# Names of the numpy-backed layers, by the submodule that defines them.
_LAZY = {
    "channel": (
        "TwoQubitChannel",
        "analytic_avg_fidelity",
        "analytic_gate_channel",
        "b_factor",
        "correlated_dephasing_channel",
        "gate_target",
        "ideal_gate_unitary",
        "intrinsic_dephasing_channel",
        "textbook_cphase_decomposition",
    ),
    "fidelity": (
        "average_gate_fidelity",
        "entanglement_fidelity",
    ),
    "lindblad": (
        "SimDiagnostics",
        "choose_n_ph",
        "extract_channel",
        "polaron_residual",
        "trajectory_rows",
    ),
    "sweep": (
        "CSV_COLUMNS",
        "OperatingPoint",
        "SweepResult",
        "SweepRow",
        "emit_results",
        "evaluate_point",
        "load_results",
        "resolve_operating_point",
        "run_sweep",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

# Every public name: the eagerly imported ones (submodules aside) and the table's.
__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, _ModuleType)]
    + list(_MODULE_OF)
)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(_import_module(f".{module}", __name__), name)
    if name in _LAZY:  # the submodule itself, e.g. resgate.sweep
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_LAZY))
