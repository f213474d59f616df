"""Resonator-mediated geometric-phase two-qubit gate toolkit.

Layers, roughly bottom-up:

- constants / errors: physical constants, unit conversions (J <-> GHz,
  ueV -> J) and the shared exception types.
- device: resonator + double-dot electrostatics; exchange model and its
  derivatives; couplings, decay rate, and the gate schedule.
- noise: 1/f^beta charge-noise dephasing, the echo filter constant, the
  closed-form optimal operating point, and infidelity estimates.
- channel: the superoperator-only TwoQubitChannel and the exact analytic
  error channel of the gate (displacement trajectory, entangling phase,
  b-factor, dephasing channels built from Kraus sets).
- fidelity: entanglement / average gate fidelity and local-Z compensation.
- lindblad: the numeric master-equation oracle on qubits x Fock space.
- config / sweep / cli: run configuration, device-grid sweeps, and the
  `resgate` command-line tool.
"""

from .channel import (
    TwoQubitChannel,
    accumulated_entangling_phase,
    alpha_closed_form,
    analytic_avg_fidelity,
    analytic_gate_channel,
    b_factor,
    b_factor_simplified,
    correlated_dephasing_channel,
    drive_frame_displacement,
    ideal_gate_unitary,
    intrinsic_dephasing_channel,
    textbook_cphase_decomposition,
)
from .config import RunConfig, config_from_dict, load_config
from .constants import (
    E_CHARGE_C,
    H_EV_S,
    H_J_S,
    HBAR_J_S,
)
from .device import (
    CapacitanceMatrix,
    CouplingStrengths,
    DerivedGateParams,
    QubitTuning,
    ResonatorSpec,
    cavity_decay,
    coupling_strengths,
    derive_gate_params,
    exchange_and_derivatives,
    gate_schedule,
    lever_arm_from_capacitances,
    photon_voltage,
)
from .errors import ConfigError, DomainError, NonPhysicalChannelError
from .fidelity import (
    PRODUCT_STATES,
    FidelityReport,
    LocalZFit,
    average_gate_fidelity,
    entanglement_fidelity,
    entanglement_fidelity_product_basis,
    fit_local_z,
)
from .lindblad import (
    CavityPrep,
    choose_n_ph,
    CompositeState,
    FockSpace,
    SimDiagnostics,
    StepPolicy,
    build_hamiltonian,
    evolve_rk4,
    extract_channel,
    lindblad_rhs,
    polaron_residual,
    thermal_average_channel,
    trajectory_rows,
)
from .noise import (
    DephasingModel,
    NoiseSpec,
    OptimalDrive,
    dephasing_rate,
    hahn_eta,
    infidelity_first_order,
    infidelity_power_law,
    optimal_drive,
)
from .sweep import (
    CSV_COLUMNS,
    OperatingPoint,
    SweepResult,
    SweepRow,
    emit_results,
    evaluate_point,
    load_results,
    resolve_operating_point,
    run_sweep,
)

__version__ = "0.1.0"
