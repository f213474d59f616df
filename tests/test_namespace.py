"""The package namespace: every public name resolves, lazily where it can."""

from __future__ import annotations

import importlib

import pytest

import resgate
from resgate import device, lindblad, sweep

# The public names of the package.
PUBLIC_NAMES = frozenset({
    "CSV_COLUMNS", "CavityPrep", "ConfigError", "CouplingStrengths", "DerivedGateParams",
    "DomainError", "E_CHARGE_C", "HBAR_J_S", "H_EV_S", "H_J_S",
    "NoiseSpec", "NonPhysicalChannelError",
    "OperatingPoint", "OptimalDrive", "QubitTuning", "ResonatorSpec", "RunConfig",
    "SimDiagnostics", "SweepResult", "SweepRow", "TwoQubitChannel",
    "analytic_avg_fidelity",
    "analytic_gate_channel", "average_gate_fidelity", "b_factor",
    "cavity_decay", "choose_n_ph", "config_from_dict", "correlated_dephasing_channel",
    "coupling_strengths", "dephasing_rate", "derive_gate_params",
    "emit_results", "entanglement_fidelity",
    "evaluate_point", "extract_channel",
    "gate_schedule", "gate_target", "hahn_eta", "ideal_gate_unitary",
    "infidelity_power_law", "intrinsic_dephasing_channel",
    "load_config", "load_results", "optimal_drive", "photon_voltage", "polaron_residual",
    "resolve_operating_point", "run_sweep", "textbook_cphase_decomposition",
    "trajectory_rows",
})
# Where the public values without a __module__ of their own are defined.
CONSTANT_MODULES = {"CSV_COLUMNS": "sweep", "E_CHARGE_C": "constants",
                    "HBAR_J_S": "constants", "H_EV_S": "constants", "H_J_S": "constants"}


def test_all_is_the_public_api():
    assert set(resgate.__all__) == PUBLIC_NAMES
    assert len(resgate.__all__) == len(PUBLIC_NAMES)


def test_each_name_is_its_defining_modules_object():
    for name in sorted(PUBLIC_NAMES):
        value = getattr(resgate, name)
        module = (f"resgate.{CONSTANT_MODULES[name]}" if name in CONSTANT_MODULES
                  else value.__module__)
        assert getattr(importlib.import_module(module), name) is value, name


def test_dir_and_star_import_cover_the_api():
    assert PUBLIC_NAMES <= set(dir(resgate))
    assert {"channel", "fidelity", "lindblad", "sweep"} <= set(dir(resgate))
    # nothing else public: no helper (an imported module, say) leaks into it
    assert {name for name in dir(resgate) if not name.startswith("_")} - PUBLIC_NAMES <= {
        "channel", "cli", "config", "constants", "device", "errors", "fidelity",
        "lindblad", "noise", "sweep"}
    namespace: dict = {}
    exec("from resgate import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        resgate.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from resgate import no_such_name", {})


def test_lookup_reads_the_module_attribute_every_time(monkeypatch):
    # a patched layer function (a tracer's wrapper, a test's stub) is what
    # the package returns, and the original comes back with it
    original = resgate.run_sweep

    def stub(cfg):
        return None

    monkeypatch.setattr(sweep, "run_sweep", stub)
    assert resgate.run_sweep is stub
    monkeypatch.undo()
    assert resgate.run_sweep is original is sweep.run_sweep


def test_numeric_run_settings_live_where_they_are_read():
    # CavityPrep is defined without the numeric layers (config builds it),
    # and lindblad re-exports it; the guard threshold is lindblad's own, as
    # only the numeric runs read it
    assert lindblad.CavityPrep is device.CavityPrep
    assert lindblad.DEFAULT_TOP_LEVEL_THRESHOLD == 1e-4
    assert not hasattr(device, "DEFAULT_TOP_LEVEL_THRESHOLD")
    assert resgate.lindblad is lindblad
