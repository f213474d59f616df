"""Self-tests of the benchmark harness on tiny inputs.

    python3 -m pytest -q perfbench/test_harness.py

Run from the repository root (about a minute: the numeric cases integrate
real, if short, gates).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from calibration import KERNELS, HostSpeed  # noqa: E402
from workloads import WORKLOADS, Workload, row_problems  # noqa: E402

import resgate  # noqa: E402
from resgate import sweep as rsweep  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_ANALYTIC = Workload(
    "tiny_analytic",
    lambda rng: [{"mode": "sweep",
                  "axes": {"z_r_ohm": [500.0, 5000.0], "q_factor": [1e4], "n": [1, 2]}}],
    numeric=False, sweep=True, kernel="scalar", emit=True)
TINY_NUMERIC = Workload(
    "tiny_numeric",
    lambda rng: [{"mode": "sweep", "numeric": True, "n": 2, "n_ph": 7,
                  "axes": {"z_r_ohm": [2e4], "q_factor": [1.5e3]}}],
    numeric=True, sweep=True, kernel="matrix28")
TINY_THERMAL = Workload(
    "tiny_thermal",
    lambda rng: [
        {"mode": "simulate", "numeric": True, "z_r_ohm": 2e4, "q_factor": 2e3, "seed": 7,
         "initial_cavity": {"kind": "thermal", "n_bar": 0.3, "samples": 1}},
        {"mode": "simulate", "numeric": True, "z_r_ohm": 2e4, "q_factor": 2e3,
         "initial_cavity": {"kind": "coherent", "alpha": [0.1, 0.1]}},
    ],
    numeric=True, sweep=False, kernel="matrix56")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced measurement per tiny workload."""
    out = tmp_path_factory.mktemp("out")
    return {wl.name: run.measure(wl, seed=1, seconds=0.01, trace=True, out_dir=out)
            for wl in (TINY_ANALYTIC, TINY_NUMERIC, TINY_THERMAL)}


def _frac(m, *layers):
    t = m["tracer"]
    return sum(t.layer_self_s(layer) for layer in layers) / (
        t.total_s["bench.cycle"] - m["sampling_s"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_seed(name):
    draw = WORKLOADS[name].draw
    first = draw(np.random.default_rng([5, 0]))
    assert first == draw(np.random.default_rng([5, 0]))
    other = draw(np.random.default_rng([6, 0]))
    assert other != first
    # same configs from the same seed; same cost-setting keys for another
    build = [resgate.config_from_dict(raw) for raw in first]
    assert build == [resgate.config_from_dict(raw) for raw in first]
    for a, b in zip(build, (resgate.config_from_dict(raw) for raw in other)):
        assert (a.n, a.n_ph, a.numeric, a.initial_cavity.kind) == \
            (b.n, b.n_ph, b.numeric, b.initial_cavity.kind)
        assert len(a.axes) == len(b.axes)


def test_numeric_verify_keeps_the_loop_radius():
    for seed in range(4):
        (raw,) = WORKLOADS["numeric_verify"].draw(np.random.default_rng([seed, 0]))
        assert raw["n"] == 2 and raw["n_ph"] == 7 and raw["initial_cavity"] == "vacuum"


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_reported_with_its_unit(trace, kind):
    result, info = run.run(TINY_ANALYTIC, seed=1, seconds=0.01, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # two passes over the one tiny cycle
    assert result["correct"] and result["attempted"] == 8 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCH[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in want)
    assert info["seed"] == 1 and info["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("name", ["tiny_analytic", "tiny_numeric", "tiny_thermal"])
def test_self_times_sum_to_no_more_than_the_root(traced, name):
    t = traced[name]["tracer"]
    spans_self = sum(v for k, v in t.self_s.items() if k != "bench.cycle")
    assert min(t.self_s.values()) >= 0.0
    assert spans_self <= t.total_s["bench.cycle"]
    assert spans_self > 0.0


def test_traced_split_analytic(traced):
    m = traced["tiny_analytic"]
    t = m["tracer"]
    assert t.calls["lindblad.extract_channel"] == 0
    assert _frac(m, "lindblad") == 0.0
    assert _frac(m, "sweep", "channel", "device", "noise") > 0.5
    # the objective runs inside the refinement loop, hundreds of times a point
    assert t.calls["channel.analytic_avg_fidelity"] / len(m["rows"]) > 50
    assert t.calls["sweep.emit_results"] == 2 * run.PASSES


def test_traced_split_numeric(traced):
    m = traced["tiny_numeric"]
    c = m["tracer"].counters
    assert _frac(m, "lindblad") >= 0.9
    assert c["extractions"] == run.PASSES and c["n_ph_sum"] == 7 * run.PASSES
    assert c["rk4_steps"] >= 200 * run.PASSES
    assert c["guard_flags"] == 0


def test_traced_split_thermal(traced):
    m = traced["tiny_thermal"]
    t = m["tracer"]
    assert _frac(m, "lindblad") >= 0.9
    assert t.calls["lindblad.thermal_average_channel"] == run.PASSES
    # one thermal sample and one coherent start per pass, each Z-compensated
    assert t.counters["extractions"] == 2 * run.PASSES
    assert t.calls["fidelity.fit_local_z"] == 2 * run.PASSES
    assert t.counters["n_ph_sum"] / t.counters["extractions"] > 7


def test_row_checks_fire():
    (row,) = rsweep.run_sweep(resgate.config_from_dict(
        {"mode": "sweep", "numeric": True, "n_ph": 7,
         "axes": {"z_r_ohm": [2e4], "q_factor": [1.5e3]}})).rows
    assert row_problems(row, numeric=True) == []
    diag = dict(row.diagnostics)
    bad = {
        "dF": replace(row, f_numeric=row.f_analytic - 2e-3),
        "flag": replace(row, diagnostics=dict(diag, failed=True,
                                              failure_reasons=["guard level"])),
        "nan": replace(row, g_mhz=float("nan")),
        "refined": replace(row, diagnostics=dict(
            diag, infidelity_refined=diag["infidelity_closed_form"] * 1.01)),
        "missing": replace(row, f_numeric=None),
    }
    for key, broken in bad.items():
        assert row_problems(broken, numeric=True), key


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "analytic_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_speed_rescales_to_the_reference():
    speed = HostSpeed("scalar")
    ref = speed.reference_s
    speed.samples = [(10.0, 2 * ref), (11.0, 2 * ref), (30.0, ref)]
    assert speed.factor(10.2, 10.8) == pytest.approx(0.5)
    assert speed.factor(29.5, 30.5) == pytest.approx(1.0)
    assert speed.factor(20.0, 20.1) == pytest.approx(0.5)  # nearest sample
    for name in KERNELS:
        HostSpeed(name).sample(force=True)
