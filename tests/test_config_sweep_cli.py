"""Run configuration, sweep driver, serialization, and the CLI front end."""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from resgate import (
    CavityPrep,
    NoiseSpec,
    QubitTuning,
    ResonatorSpec,
    analytic_avg_fidelity,
    average_gate_fidelity,
    b_factor,
    choose_n_ph,
    dephasing_rate,
    derive_gate_params,
    extract_channel,
    ideal_gate_unitary,
    sweep,
)
from resgate import lindblad
from resgate.cli import TRAJECTORY_COLUMNS, main
from resgate.config import RunConfig, config_from_dict, load_config
from resgate.constants import TWO_PI, h_ghz_to_energy_J, uev_to_J
from resgate.errors import ConfigError, DomainError
from resgate.sweep import (
    CSV_COLUMNS,
    _objective,
    evaluate_point,
    load_results,
    render_csv,
    render_json,
    resolve_operating_point,
    run_sweep,
)


# ---------------------------------------------------------------- config --


def test_defaults_round_trip():
    cfg = config_from_dict({}, source="test")
    assert cfg.mode == "analytic"
    assert cfg.z_r_ohm == 5000.0
    assert cfg.q_factor == 20000.0
    assert cfg.j_ghz is None and cfg.eps_d_over_eps_a is None
    again = config_from_dict(cfg.to_json_dict(), source="round-trip")
    assert again.to_json_dict() == cfg.to_json_dict()


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="qbits"):
        config_from_dict({"qbits": 3}, source="test")


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ({"q_factor": -1.0}, "q_factor"),
        ({"n": 2.5}, "n"),
        ({"n": True}, "n"),
        ({"mode": "explore"}, "mode"),
        # the output format is a CLI flag, not a key: even "csv" is an
        # unknown key, refused by name ("unknown config keys: format")
        ({"format": "csv"}, "format"),
        ({"axes": {"bogus_key": [1, 2]}}, "bogus_key"),
        ({"axes": {"q_factor": {"start": 1, "stop": 2}}}, "axes.q_factor"),
        ({"axes": {"q_factor": {"start": -1, "stop": 2, "num": 3, "spacing": "log"}}},
         "axes.q_factor"),
        ({"initial_cavity": {"kind": "squeezed"}}, "initial_cavity"),
        ({"initial_cavity": {"kind": "thermal", "n_bar": -0.5}}, "n_bar"),
        # an axis value passes the rule of its scalar key
        ({"axes": {"q_factor": [1e4, -1.0]}}, "axes.q_factor"),
        ({"axes": {"n": [2.5]}}, "axes.n"),
        # a thermal samples is checked, then dropped
        ({"initial_cavity": {"kind": "thermal", "n_bar": 0.1, "samples": 0}},
         "initial_cavity.samples"),
        # a simulate mode that ran no master equation would report no f_numeric
        ({"mode": "simulate"}, 'mode: "simulate" needs "numeric": true'),
    ],
)
def test_rejections_carry_the_offending_path(payload, fragment):
    with pytest.raises(ConfigError, match=fragment):
        config_from_dict(payload, source="test")


def test_axis_forms():
    cfg = config_from_dict(
        {
            "axes": {
                "z_r_ohm": [50.0, 500.0],
                "q_factor": {"start": 1e3, "stop": 1e5, "num": 3, "spacing": "log"},
            }
        },
        source="test",
    )
    axes = dict(cfg.axes)
    assert axes["z_r_ohm"] == (50.0, 500.0)
    assert axes["q_factor"] == pytest.approx((1e3, 1e4, 1e5), rel=1e-12)
    [(name, values)] = config_from_dict({"axes": {"n": [1, 3.0]}}, source="test").axes
    assert (name, values) == ("n", (1, 3))
    assert all(type(v) is int for v in values)


@pytest.mark.parametrize("spacing, expected", [
    ("linear", np.linspace(2e3, 7.5e4, 7)),
    ("log", np.logspace(math.log10(2e3), math.log10(7.5e4), 7)),
])
def test_range_axis_lays_out_numpys_points_exactly(spacing, expected):
    # the range object is the one config path that imports numpy: its points
    # are numpy's own, bit for bit, not a reimplementation
    [(_, values)] = config_from_dict(
        {"axes": {"z_r_ohm": {"start": 2e3, "stop": 7.5e4, "num": 7, "spacing": spacing}}},
        source="test").axes
    assert values == tuple(expected.tolist())
    assert all(type(v) is float for v in values)


# Configs of the benchmark's three workloads (list axes, a numeric vacuum
# start at n_ph 7, a thermal and a coherent start): building each one must
# leave numpy unloaded.
_NUMPY_FREE_SETUP = """
import json, sys
import resgate, resgate.cli
for raw in json.loads(sys.argv[1]):
    resgate.config_from_dict(raw, source="probe")
print(json.dumps(sorted(m for m in ("numpy", "scipy") if m in sys.modules)))
"""
_NUMPY_FREE_CONFIGS = [
    {"mode": "sweep", "axes": {"z_r_ohm": [50.0, 700.0, 5e4], "q_factor": [1e3, 2e5],
                               "n": [1, 2, 3]}},
    {"mode": "sweep", "numeric": True, "n": 2, "n_ph": 7, "initial_cavity": "vacuum",
     "axes": {"z_r_ohm": [1.7e3, 1.7e4], "q_factor": [1.8e3, 1.15e4]}},
    {"mode": "simulate", "numeric": True, "z_r_ohm": 8e3, "q_factor": 3e3, "seed": 7,
     "initial_cavity": {"kind": "thermal", "n_bar": 0.3, "samples": 2}},
    {"mode": "simulate", "numeric": True, "z_r_ohm": 8e3, "q_factor": 3e3,
     "initial_cavity": {"kind": "coherent", "alpha": [0.6, -0.7]}},
]
# python -m resgate with the given arguments, then the numeric modules loaded
_NUMPY_FREE_CLI = """
import json, runpy, sys
sys.argv = ["resgate", *json.loads(sys.argv[1])]
try:
    runpy.run_module("resgate", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in ("numpy", "scipy") if m in sys.modules)]))
"""

# the closed-form operating point at the default device, from the device and
# noise layers alone: its gate time, then the numeric modules loaded
_NUMPY_FREE_CLOSED_FORM = """
import json, math, sys
import resgate as r
res = r.ResonatorSpec(omega_r=2 * math.pi * 6.5e9, Z_r=5000.0, Q=20000.0)
noise = r.NoiseSpec(S_eps=1.4e-16, beta=0.67)
eps_a = 5e-6 * 1.602176634e-19
kappa = r.cavity_decay(res)
opt = r.optimal_drive(noise, kappa, 2, eps_a)
tuning = r.QubitTuning(J0=opt.J_opt, eps_a=eps_a, c_r=0.18, eps_d=opt.eps_d_opt)
params = r.derive_gate_params(res, tuning, n=2)
print(json.dumps([params.t_g, sorted(m for m in ("numpy", "scipy") if m in sys.modules)]))
"""


def _python(script: str, *args: str, cwd=None, **env) -> str:
    """Run script in a fresh interpreter with this resgate on its path; its stdout."""
    src = str(Path(sweep.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_and_config_load_no_numpy(tmp_path):
    # in a fresh interpreter: the package, the CLI module and a validated
    # config of every kind the benchmark builds load neither numpy nor scipy
    def loaded(script, arg):
        return json.loads(_python(script, json.dumps(arg), cwd=tmp_path).splitlines()[-1])

    assert loaded(_NUMPY_FREE_SETUP, _NUMPY_FREE_CONFIGS) == []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"qbits": 2}))
    # --help, a config error (exit 2) and the first real run, which does load numpy
    assert loaded(_NUMPY_FREE_CLI, ["--help"]) == [0, []]
    assert loaded(_NUMPY_FREE_CLI, ["analytic", "--config", str(bad)]) == [2, []]
    assert loaded(_NUMPY_FREE_CLI, ["analytic"]) == [0, ["numpy"]]
    # a script that computes only closed forms never loads numpy
    t_g, modules = json.loads(_python(_NUMPY_FREE_CLOSED_FORM, cwd=tmp_path).splitlines()[-1])
    assert modules == []
    closed_form = resolve_operating_point(config_from_dict({"refine": False}, source="t"))
    assert t_g == pytest.approx(closed_form.params.t_g, rel=1e-12)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_table_lists_every_key_with_its_default():
    # the README table is the one hand-written copy of the schema: a renamed
    # key or a changed default must show up here
    readme = README.read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", section, flags=re.MULTILINE)
    assert [key for key, _ in rows] == [f.name for f in fields(RunConfig)]
    defaults = RunConfig().to_json_dict()
    for key, cell in rows:
        assert json.loads(cell) == defaults[key], key


def test_readme_quick_start_runs(capsys):
    # the README's own example runs against the current API: t_g, the
    # analytic fidelity, then the Lindblad fidelity and the solver's flag
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md (Quick start)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[2].endswith(" False")


def test_coherent_cavity_forms():
    cfg = config_from_dict(
        {"initial_cavity": {"kind": "coherent", "alpha": [0.3, -0.4]}}, source="t"
    )
    assert cfg.initial_cavity.kind == "coherent"
    assert cfg.initial_cavity.alpha == pytest.approx(0.3 - 0.4j)
    cfg2 = config_from_dict(
        {"initial_cavity": {"kind": "coherent", "alpha": 0.5}}, source="t"
    )
    assert cfg2.initial_cavity.alpha == pytest.approx(0.5 + 0j)


def test_load_config_file(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"q_factor": 1234.0}))
    cfg = load_config(p)
    assert cfg.q_factor == 1234.0
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    # a directory and a file that is not UTF-8 text are refused by path
    latin = tmp_path / "latin1.json"
    latin.write_bytes(b'{"mode": "caf\xe9"}')  # latin-1
    for path, reason in ((tmp_path, "cannot be read"), (latin, "not UTF-8")):
        with pytest.raises(ConfigError, match=reason) as err:
            load_config(path)
        assert str(path) in str(err.value)


# ----------------------------------------------------------------- sweep --


def test_operating_point_refinement_improves():
    cfg = config_from_dict({}, source="t")  # refine on by default
    pt = resolve_operating_point(cfg)
    assert pt.diagnostics["refine_rounds"] >= 1
    closed = pt.diagnostics["infidelity_closed_form"]
    refined = pt.diagnostics["infidelity_refined"]
    assert refined < closed
    improvement = (closed - refined) / closed
    assert 0.003 < improvement < 0.03
    assert pt.params.t_g * 1e9 == pytest.approx(7.29373812458119, rel=1e-9)


def test_refinement_objective_is_the_public_kernels():
    # the per-point objective hoists constants out of derive_gate_params; it
    # must still give exactly the number the public kernels give
    rng = np.random.default_rng(19)
    for raw in ({"delta_sign": -1}, {"n": 1, "c_r": 0.31},
                {"n": 2, "z_r_ohm": 300.0, "q_factor": 2e3},
                {"n": 3, "delta_sign": -1, "c_r": 0.07, "beta": 0.5},
                {"n": 4, "z_r_ohm": 4e4, "q_factor": 1.5e5, "eps_a_uev": 3.0}):
        cfg = config_from_dict(raw, source="t")
        res = ResonatorSpec(omega_r=TWO_PI * cfg.omega_r_ghz * 1e9,
                            Z_r=cfg.z_r_ohm, Q=cfg.q_factor)
        noise = NoiseSpec(S_eps=cfg.s_eps_ev2, beta=cfg.beta, eta=cfg.eta)
        eps_a = uev_to_J(cfg.eps_a_uev)
        objective = _objective(cfg, res, noise, eps_a)
        for _ in range(60):
            J = h_ghz_to_energy_J(math.exp(rng.uniform(math.log(0.06), math.log(25.0))))
            y = rng.uniform(0.3, 30.0)
            tuning = QubitTuning(J0=J, eps_a=eps_a, c_r=cfg.c_r, eps_d=y * eps_a)
            p = derive_gate_params(res, tuning, cfg.n, delta_sign=cfg.delta_sign)
            b, _, _ = b_factor(p.g_geom_rad_ns, p.delta_rad_ns, p.kappa_per_ns, p.t_g_ns)
            gphi = dephasing_rate(J, y * eps_a, noise, eps_a)
            want = 1.0 - analytic_avg_fidelity(b, gphi * 1e-9, p.t_g_ns)
            assert objective(J, y) == want, (raw, J, y)


def test_refinement_detail_in_json_diagnostics(monkeypatch):
    calls = []
    monkeypatch.setattr(sweep, "analytic_avg_fidelity",
                        lambda *a: calls.append(a) or analytic_avg_fidelity(*a))
    cfg = config_from_dict({"axes": {"n": [1, 3]}}, source="t")
    result = run_sweep(cfg)
    assert sum(row.diagnostics["refine_evals"] + 1 for row in result.rows) == len(calls)
    for row in result.rows:
        rounds, evals = row.diagnostics["refine_rounds"], row.diagnostics["refine_evals"]
        # each round is two golden-section searches and one scoring
        assert isinstance(rounds, int) and 1 <= rounds <= 60
        assert isinstance(evals, int) and evals > 2 * rounds
    monkeypatch.undo()
    text = render_json(result)
    assert '"refine_rounds"' in text and '"refine_evals"' in text
    assert "refine_rounds" not in render_csv(result)
    assert render_json(run_sweep(cfg)) == text
    # pinned or disabled refinement reports no refinement detail
    for raw in ({"refine": False}, {"j_ghz": 0.0852, "eps_d_over_eps_a": 2.4}):
        (row,) = run_sweep(config_from_dict(raw, source="t")).rows
        assert "refine_rounds" not in row.diagnostics
        assert "refine_evals" not in row.diagnostics


def test_operating_point_pinned_skips_refinement():
    cfg = config_from_dict(
        {"j_ghz": 0.0852, "eps_d_over_eps_a": 2.4, "refine": True}, source="t"
    )
    pt = resolve_operating_point(cfg)
    assert "refine_rounds" not in pt.diagnostics
    assert pt.J == pytest.approx(0.0852 * 6.62607015e-34 * 1e9, rel=1e-12)
    assert pt.y == pytest.approx(2.4)


@pytest.mark.parametrize("beta", [0.67, 0.8])
@pytest.mark.parametrize("z_r_ohm, q_factor", [(5e3, 2e4), (5e4, 1e4), (500.0, 5e3)])
def test_error_budget_holds_the_optimum_ratio(z_r_ohm, q_factor, beta):
    # dephasing alone, 1 - F(b = 1, gamma_phi, t_g), over photon loss alone,
    # 1 - F(b_l, 0, t_g). To first order on y = 2 the infidelity is
    # a J^((1-beta)/(1+beta)) + c/J, whose minimum in J puts the ratio at
    # (1+beta)/(1-beta); the closed-form point (gamma_phi_0 = beta kappa /
    # (2n(1-beta)), drive broadening on top) puts it at
    # beta/(1-beta) (1 + y^2/4)^(2/(1+beta)). Both points are unclamped here.
    def budget(refine):
        op = resolve_operating_point(config_from_dict(
            {"z_r_ohm": z_r_ohm, "q_factor": q_factor, "beta": beta, "refine": refine},
            source="t"))
        p = op.params
        _, b_l, _ = b_factor(p.g_geom_rad_ns, p.delta_rad_ns, p.kappa_per_ns, p.t_g_ns)
        dephasing = 1.0 - analytic_avg_fidelity(1.0, op.gamma_phi * 1e-9, p.t_g_ns)
        loss = 1.0 - analytic_avg_fidelity(b_l, 0.0, p.t_g_ns)
        return dephasing / loss, op.y, op.clamped

    refined, _, clamped_refined = budget(True)
    assert refined == pytest.approx((1.0 + beta) / (1.0 - beta), rel=0.03)
    closed, y, clamped = budget(False)
    assert closed == pytest.approx(
        beta / (1.0 - beta) * (1.0 + y * y / 4.0) ** (2.0 / (1.0 + beta)), rel=0.01)
    assert not (clamped or clamped_refined)


def test_out_of_band_exchange_is_recorded_in_the_row():
    # the device layer's band predicate drives both the warning and the entry
    with pytest.warns(UserWarning, match="outside the trusted band"):
        row = evaluate_point(config_from_dict(
            {"j_ghz": 0.01, "eps_d_over_eps_a": 2.0}, source="t"))
    assert not row.failed
    assert row.diagnostics["j_outside_band_ghz"] == [0.05, 30.0]
    assert '"j_outside_band_ghz"' in render_json(sweep.SweepResult((row,), RunConfig()))
    # a point inside the band, pinned at its lower end or refined, records nothing
    for raw in ({"j_ghz": 0.05, "eps_d_over_eps_a": 2.0}, {}):
        assert "j_outside_band_ghz" not in evaluate_point(
            config_from_dict(raw, source="t")).diagnostics


def test_operating_point_carries_its_specs():
    cfg = config_from_dict({"z_r_ohm": 700.0, "beta": 0.5, "eta": 0.07}, source="t")
    pt = resolve_operating_point(cfg)
    assert pt.res == ResonatorSpec(omega_r=TWO_PI * cfg.omega_r_ghz * 1e9,
                                   Z_r=700.0, Q=cfg.q_factor)
    assert pt.noise == NoiseSpec(S_eps=cfg.s_eps_ev2, beta=0.5, eta=0.07)
    assert not hasattr(pt, "refined")


def test_sweep_rows_are_slotted():
    # a caller holds every row of a sweep: a row carries no per-instance dict
    row = evaluate_point(config_from_dict({"refine": False}, source="t"))
    assert not hasattr(row, "__dict__")


def test_operating_point_clamp_is_reported():
    cfg = config_from_dict({"j_max_ghz": 0.06, "refine": False}, source="t")
    pt = resolve_operating_point(cfg)
    assert pt.clamped
    assert "j_opt_unclamped_ghz" in pt.diagnostics


def test_evaluate_point_analytic_row():
    cfg = config_from_dict({"refine": False}, source="t")
    row = evaluate_point(cfg)
    assert row.f_analytic == pytest.approx(0.9909047093653808, rel=1e-10)
    assert row.t_g_ns == pytest.approx(6.364032401360536, rel=1e-10)
    assert row.f_numeric is None or math.isnan(row.f_numeric)
    assert not row.failed


def test_evaluate_point_captures_domain_errors():
    # config_from_dict rejects c_r > 1; a RunConfig that skips its rules
    # reaches QubitTuning, which raises inside the row
    base = config_from_dict({}, source="t")
    row = evaluate_point(replace(base, c_r=1.5))
    assert row.failed
    assert "error" in row.diagnostics
    assert "DomainError" in row.diagnostics["error"]
    assert math.isnan(row.f_analytic)
    # the same value on a sweep axis fails the same way
    (swept,) = run_sweep(replace(base, axes=(("c_r", (1.5,)),))).rows
    assert swept.diagnostics == row.diagnostics


@pytest.mark.parametrize("raw", [{"j_ghz": 1e-170, "eps_d_over_eps_a": 2.0},
                                 {"eps_d_over_eps_a": 1e-200}])
def test_underflowing_coupling_product_is_a_named_domain_error(raw):
    # g1 g2 underflows to 0 in gate_schedule, so Delta = 0 and t_g = 2 pi n /
    # Delta would divide by zero: the row says which couplings did it
    row = evaluate_point(config_from_dict(raw, source="t"))
    assert row.failed
    error = row.diagnostics["error"]
    assert error.startswith("DomainError: ")
    assert "g1=" in error and "g2=" in error and "n=2" in error


def test_single_loop_drops_power_law_only():
    row = evaluate_point(config_from_dict({"n": 1}, source="t"))
    assert not row.failed
    assert row.f_analytic > 0.9
    assert row.infidelity_powerlaw is None


def test_run_sweep_ordering_and_parallel_equivalence():
    payload = {
        "axes": {
            "z_r_ohm": [500.0, 5000.0],
            "q_factor": [5000.0, 20000.0],
        },
        "refine": False,
    }
    serial = run_sweep(config_from_dict(payload, source="t"))
    assert [(r.z_ohm, r.q) for r in serial.rows] == [
        (500.0, 5000.0), (500.0, 20000.0), (5000.0, 5000.0), (5000.0, 20000.0)
    ]
    parallel = run_sweep(config_from_dict({**payload, "jobs": 2}, source="t"))
    assert render_csv(serial) == render_csv(parallel)
    assert not serial.any_failed


@pytest.mark.parametrize("jobs, cpus, points, workers", [
    (100000, 8, 2, 2),  # no more workers than points
    (100000, 64, 3, 3),
    (5, 2, 4, 2),       # nor than CPUs
    (3, None, 4, None),  # an unknown CPU count counts as one: serial
    (8, 8, 1, None),    # one point runs in this process
    (1, 8, 4, None),
])
def test_run_sweep_bounds_its_pool(monkeypatch, jobs, cpus, points, workers):
    # a recorder stands in for the pool (it maps serially), so no worker
    # process starts whatever jobs asks for
    pools = []

    class Recorder:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cfg = config_from_dict({"axes": {"q_factor": [1e4 + k for k in range(points)]},
                            "refine": False, "jobs": jobs}, source="t")
    result = run_sweep(cfg)
    assert pools == ([] if workers is None else [workers])
    assert [r.q for r in result.rows] == [1e4 + k for k in range(points)]


def test_sweep_import_loads_no_process_pool():
    # run_sweep imports the pool only when it starts one
    script = "import sys, resgate.sweep; print('concurrent.futures' in sys.modules)"
    assert _python(script).split() == ["False"]


def test_blas_cap_sets_one_thread():
    # main sets OPENBLAS_NUM_THREADS=1 before numpy loads, over the 2 this
    # process starts with; where numpy bundles no OpenBLAS there is nothing to read
    libs = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"))
    if not libs:
        pytest.skip("numpy bundles no OpenBLAS here")
    script = (
        "import contextlib, ctypes, io, sys\n"
        "from resgate.cli import main\n"
        "assert 'numpy' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['analytic'])\n"
        f"lib = ctypes.CDLL({str(libs[0])!r})\n"
        "get = next(getattr(lib, n) for n in (\n"
        "    'scipy_openblas_get_num_threads64_', 'scipy_openblas_get_num_threads',\n"
        "    'openblas_get_num_threads64_', 'openblas_get_num_threads') if hasattr(lib, n))\n"
        "print(code, get())\n"
    )
    assert _python(script, OPENBLAS_NUM_THREADS="2").split() == ["0", "1"]


def test_sweep_single_point_equals_optimize():
    cfg = config_from_dict({"refine": False}, source="t")
    row_a = run_sweep(cfg).rows[0]
    row_b = evaluate_point(replace(cfg, z_r_ohm=5000.0, q_factor=20000.0))
    assert row_a.as_record() == row_b.as_record()


def test_csv_and_json_rendering(tmp_path):
    cfg = config_from_dict({"axes": {"q_factor": [1e4, 2e4]}, "refine": False}, source="t")
    result = run_sweep(cfg)
    csv_text = render_csv(result)
    lines = csv_text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    # unavailable numeric column renders as an empty cell
    assert lines[1].split(",")[CSV_COLUMNS.index("f_numeric")] == ""
    assert lines[1].split(",")[CSV_COLUMNS.index("clamped")] in ("true", "false")
    # byte-identical determinism
    assert render_csv(run_sweep(cfg)) == csv_text

    json_text = render_json(result)
    path = tmp_path / "rows.json"
    path.write_text(json_text)
    back = load_results(path)
    assert back["schema_version"] == 1
    assert len(back["rows"]) == 2
    assert back["rows"][0]["q"] == 1e4
    assert back["config"]["q_factor"] == 20000.0


@pytest.mark.parametrize("content, fragment", [
    (b"[]", "top level must be a JSON object"),
    (b"{bad", "invalid JSON"),
    (b'{"schema_version": "caf\xe9"}', "not UTF-8 text"),  # latin-1
    (b'{"schema_version": 2}', "unsupported results schema"),
])
def test_load_results_names_a_malformed_file(tmp_path, content, fragment):
    path = tmp_path / "rows.json"
    path.write_bytes(content)
    with pytest.raises(DomainError, match=fragment) as info:
        load_results(path)
    assert str(path) in str(info.value)


def test_numeric_json_row_reports_its_fock_size(tmp_path):
    # with n_ph null a coherent start sizes its Fock space from what the
    # branches' displaced frames hold, max_i |alpha - beta_i|; the JSON row
    # says which size ran, and reruns stay identical
    alpha = 0.6 - 0.3j
    cfg = config_from_dict({
        "numeric": True, "refine": False,
        "initial_cavity": {"kind": "coherent", "alpha": [alpha.real, alpha.imag]},
    }, source="t")
    p = resolve_operating_point(cfg).params
    lam = np.array([p.g1_rad_ns * s1 + p.g2_rad_ns * s2
                    for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1))])
    beta = -1j * lam / (2.0 * complex(p.kappa_per_ns, p.delta_rad_ns))  # steady states
    reach = float(np.abs(alpha - beta).max())
    result = run_sweep(cfg)
    json_text = render_json(result)
    assert render_json(run_sweep(cfg)) == json_text
    path = tmp_path / "rows.json"
    path.write_text(json_text)
    (row,) = load_results(path)["rows"]
    assert row["diagnostics"]["n_ph"] == choose_n_ph(reach) > 6
    # the CSV columns stay as they were
    assert render_csv(result).split("\n")[0] == ",".join(CSV_COLUMNS)
    assert "n_ph" not in CSV_COLUMNS


_THERMAL = {"kind": "thermal", "n_bar": 0.2, "samples": 2}


def test_thermal_row_is_the_seeded_thermal_average():
    # a thermal row scores extract_channel(params, gamma, gamma,
    # CavityPrep.thermal(n_bar)), with the config's solver settings, against
    # the sign-matched target; the config's seed and samples have no effect
    # on it
    cfg = config_from_dict({"numeric": True, "refine": False, "seed": 4,
                            "initial_cavity": _THERMAL}, source="t")
    row = evaluate_point(cfg)
    assert not row.failed
    op = resolve_operating_point(cfg)
    chan, diag = extract_channel(
        op.params, op.gamma_phi, op.gamma_phi, CavityPrep.thermal(0.2),
        n_ph=cfg.n_ph,
    )
    target = ideal_gate_unitary(math.copysign(math.pi / 4.0, op.params.delta_rad_ns))
    assert row.f_numeric == average_gate_fidelity(chan, target, validate=False)
    assert row.diagnostics["n_ph"] == diag.n_ph
    other = config_from_dict({"numeric": True, "refine": False, "seed": 9,
                              "initial_cavity": {**_THERMAL, "samples": 50}}, source="t")
    assert other.initial_cavity == CavityPrep.thermal(0.2)
    assert evaluate_point(other) == row
    # samples is checked, then dropped: the config echo does not carry it
    assert other.to_json_dict()["initial_cavity"] == {"kind": "thermal", "n_bar": 0.2}


@pytest.mark.parametrize(
    "start",
    [{"n_ph": 7}, {"initial_cavity": {"kind": "coherent", "alpha": [0.6, -0.3]}},
     {"initial_cavity": _THERMAL}],
    ids=["vacuum", "coherent", "thermal"],
)
def test_drive_above_resonator_rows_score_the_mirrored_phase(start, monkeypatch):
    # with delta_sign -1 the ZZ phase is -pi/4. Every row, a coherent one
    # too, is scored against the fixed gate its start realizes (gate_target:
    # a coherent start adds only a known local Z rotation), so it agrees with
    # the analytic row, and the same row scored against the mirrored gate
    # (the target times exp(i pi/2 Z1 Z2), which flips the ZZ sign) reads ~0.2
    cfg = config_from_dict({"numeric": True, "refine": False, "delta_sign": -1, **start},
                           source="t")
    row = evaluate_point(cfg)
    assert not row.failed
    assert row.delta_mhz < 0
    assert abs(row.f_numeric - row.f_analytic) < 1e-3
    orig = sweep.gate_target
    monkeypatch.setattr(sweep, "gate_target",
                        lambda p, alpha=0j: orig(p, alpha) * ideal_gate_unitary(math.pi / 2))
    assert evaluate_point(cfg).f_numeric < 0.5


# ------------------------------------------------------------------- cli --


def test_cli_analytic_stdout(capsys):
    assert main(["analytic"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    # rerun is byte-identical
    main(["analytic"])
    assert capsys.readouterr().out == out


def test_cli_sets_one_blas_thread_over_any_set_value(monkeypatch, capsys):
    # main overrides a thread count the caller's environment already holds
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    assert main(["analytic"]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    # refine_tol included: the refinement's stop tolerance is fixed, not a
    # key; so are the trajectory's step grid (20 ps steps) and the guard
    # threshold, whose four keys are refused by name too
    for key in ("qbits", "refine_tol", "dt_ps", "min_steps", "max_steps",
                "top_level_threshold"):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({key: 2}))
        assert main(["analytic", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert f"unknown config keys: {key} (allowed: " in err, err


@pytest.mark.parametrize("command", ["analytic", "optimize", "simulate"])
def test_cli_single_point_commands_reject_axes(tmp_path, capsys, command):
    # these evaluate the base point only, so a config with axes (a grid the
    # user meant to run) is refused with exit 2, naming axes and sweep,
    # before any work; sweep runs the same config
    cfg = tmp_path / "map.json"
    cfg.write_text(json.dumps({"axes": {"q_factor": [1e4, 2e4]}, "refine": False}))
    out = tmp_path / "o.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: axes: ") and "sweep" in err, err
    assert not out.exists()
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 3


@pytest.mark.parametrize("command", ["analytic", "optimize", "sweep"])
def test_cli_only_simulate_takes_a_trajectory_out(tmp_path, capsys, command):
    # only simulate has --trajectory, and no config names a trajectory: the
    # flag is a usage error under another subcommand, and a config's
    # trajectory_out is an unknown key, each exit 2 before any work
    traj = tmp_path / "traj.csv"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"trajectory_out": str(traj), "refine": False}))
    out = tmp_path / "o.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: unknown config keys: trajectory_out (allowed: "), err
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(out), "--trajectory", str(traj)])
    assert exc.value.code == 2
    assert "--trajectory" in capsys.readouterr().err
    assert not out.exists() and not traj.exists()


@pytest.mark.parametrize("key", ["out", "format", "trajectory_out"])
def test_cli_rejects_an_output_key_in_the_config(tmp_path, capsys, monkeypatch, key):
    # where the output goes and in what form are flags only: a config that
    # still sets one of the keys is refused by name, exit 2, before any work
    def solver(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(sweep, "extract_channel", solver)
    monkeypatch.setattr(lindblad, "trajectory_rows", solver)
    value = "json" if key == "format" else str(tmp_path / f"{key}.csv")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["simulate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {cfg}: unknown config keys: {key} (allowed: ")
    assert list(tmp_path.iterdir()) == [cfg]


def test_cli_rejects_a_lever_arm_above_one(tmp_path, capsys):
    # c_r is the share of the resonator voltage a dot feels: above 1 is a
    # config error that names its path (exit 2), not a failed row (exit 3)
    cfg = tmp_path / "c.json"
    for command, payload, path in (
        ("analytic", {"c_r": 1.5}, "c_r: "),
        ("sweep", {"axes": {"c_r": [0.5, 1.5]}}, "axes.c_r[1]: "),
    ):
        cfg.write_text(json.dumps(payload))
        assert main([command, "--config", str(cfg)]) == 2
        assert f"error: {path}" in capsys.readouterr().err
    assert config_from_dict({"c_r": 1.0}, source="t").c_r == 1.0


def test_cli_optimize_json(capsys):
    assert main(["optimize", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    row = payload["rows"][0]
    assert row["f_analytic"] == pytest.approx(0.9911025881268543, rel=1e-9)
    assert payload["config"]["mode"] == "optimize"


def test_cli_simulate_with_trajectory(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"j_ghz": 0.3, "eps_d_over_eps_a": 2.0, "n_ph": 7}))
    out_csv = tmp_path / "sim.csv"
    traj_csv = tmp_path / "traj.csv"
    code = main([
        "simulate", "--config", str(cfg),
        "--out", str(out_csv), "--trajectory", str(traj_csv),
    ])
    assert code == 0
    rows = out_csv.read_text().strip().split("\n")
    rec = dict(zip(rows[0].split(","), rows[1].split(",")))
    assert float(rec["f_numeric"]) == pytest.approx(float(rec["f_analytic"]), abs=2e-3)
    assert float(rec["max_fock_pop"]) < 1e-4
    traj_lines = traj_csv.read_text().strip().split("\n")
    assert traj_lines[0] == ",".join(TRAJECTORY_COLUMNS)
    assert len(traj_lines) > 100
    last = dict(zip(TRAJECTORY_COLUMNS, traj_lines[-1].split(",")))
    assert float(last["mean_photon"]) < 1e-2
    assert float(last["polaron_residual"]) < 1e-4


def test_cli_simulate_resolves_the_operating_point_once(tmp_path, capsys, monkeypatch):
    # the row and the trajectory share one resolution: one refinement, and an
    # exchange outside the soft band warns once
    calls = []
    resolve = sweep.resolve_operating_point

    def counted(cfg):
        calls.append(cfg)
        return resolve(cfg)

    monkeypatch.setattr(sweep, "resolve_operating_point", counted)
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"j_ghz": 0.01, "eps_d_over_eps_a": 2.0}))
    with pytest.warns(UserWarning, match="outside the trusted band") as record:
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv"),
                     "--trajectory", str(tmp_path / "traj.csv")])
    assert code == 0
    assert len(calls) == 1
    assert len(record) == 1


def test_cli_default_trajectory_is_that_of_the_resolved_point(tmp_path, capsys):
    # the trajectory CSV holds trajectory_rows at resolve_operating_point's
    # point, written as the repr of each float
    traj = tmp_path / "traj.csv"
    assert main(["simulate", "--out", str(tmp_path / "o.csv"), "--trajectory", str(traj)]) == 0
    cfg = config_from_dict({"mode": "simulate", "numeric": True}, source="t")
    op = resolve_operating_point(cfg)
    rows = lindblad.trajectory_rows(op.params, op.gamma_phi, op.gamma_phi,
                                    cfg.initial_cavity, n_ph=cfg.n_ph)
    lines = [",".join(TRAJECTORY_COLUMNS)]
    lines += [",".join(repr(row[c]) for c in TRAJECTORY_COLUMNS) for row in rows]
    assert traj.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


@pytest.mark.parametrize("raw", [{"q_factor": 1e-300},
                                 {"j_ghz": 1e-170, "eps_d_over_eps_a": 2.0}])
def test_cli_simulate_trajectory_of_a_failing_point(tmp_path, capsys, raw):
    # a point that raises emits its row and exits 3 with or without
    # --trajectory, and writes no trajectory
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(raw))
    out, traj = tmp_path / "o.csv", tmp_path / "traj.csv"
    for extra in ([], ["--trajectory", str(traj)]):
        assert main(["simulate", "--config", str(cfg), "--out", str(out), *extra]) == 3
        assert "row 0: DomainError" in capsys.readouterr().err
        header, row = out.read_text().strip().split("\n")
        assert header == ",".join(CSV_COLUMNS)
        assert not traj.exists()


@pytest.mark.parametrize("case", ["out", "trajectory", "config_dir", "config_latin1"])
def test_cli_file_errors_exit_2(tmp_path, capsys, case):
    # an output in a missing directory and a config that is a directory or
    # not UTF-8 are reported as one line on stderr, not a traceback
    latin = tmp_path / "latin1.json"
    latin.write_bytes(b'{"mode": "caf\xe9"}')  # latin-1
    missing = tmp_path / "no_such_dir" / "x.csv"
    argv, named = {
        "out": (["analytic", "--out", str(missing)], missing),
        "trajectory": (["simulate", "--out", str(tmp_path / "o.csv"),
                        "--trajectory", str(missing)], missing),
        "config_dir": (["analytic", "--config", str(tmp_path)], tmp_path),
        "config_latin1": (["analytic", "--config", str(latin)], latin),
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(named) in err, err
    assert len(err.strip().split("\n")) == 1
    if case == "trajectory":
        # the rows are emitted before the trajectory, so they survive its error
        plain = tmp_path / "plain.csv"
        assert main(["simulate", "--out", str(plain)]) == 0
        header, _ = (tmp_path / "o.csv").read_text().strip().split("\n")
        assert header == ",".join(CSV_COLUMNS)
        assert (tmp_path / "o.csv").read_bytes() == plain.read_bytes()


def test_cli_rejects_a_thermal_trajectory_before_any_work(tmp_path, capsys, monkeypatch):
    # a trajectory follows one cavity state and a thermal start is a
    # mixture of states: the config is refused before the row's extraction
    def solver(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(sweep, "extract_channel", solver)
    monkeypatch.setattr(lindblad, "trajectory_rows", solver)
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"initial_cavity": _THERMAL}))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv"),
                 "--trajectory", str(tmp_path / "traj.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --trajectory: ") and "initial_cavity" in err, err
    assert list(tmp_path.iterdir()) == [cfg]


def test_cli_simulate_flags_small_fock_space(tmp_path, capsys):
    # 4 levels leave ~2.9e-4 in the guard level of the displaced frame
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"j_ghz": 0.3, "eps_d_over_eps_a": 2.0, "n_ph": 4}))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "failed" in err
    assert "row 0: top Fock level population" in err


def test_cli_sweep_to_file(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"axes": {"q_factor": [1e4, 2e4, 4e4]}, "refine": False}))
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert "wrote 3 row(s)" in capsys.readouterr().out
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4
    qs = [float(line.split(",")[1]) for line in lines[1:]]
    assert qs == [1e4, 2e4, 4e4]


# ------------------------------------------------------- example configs --

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _example_rows(tmp_path, name) -> list[dict]:
    """Run examples/<name>.json through `resgate sweep`; its CSV rows as dicts."""
    out = tmp_path / f"{name}.csv"
    assert main(["sweep", "--config", str(EXAMPLES / f"{name}.json"), "--out", str(out)]) == 0
    header, *lines = out.read_text().strip().split("\n")
    assert header == ",".join(CSV_COLUMNS)
    return [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines]


@pytest.mark.parametrize("name, count", [("fidelity_map", 32), ("drive_tradeoff", 15)])
def test_example_config_writes_its_grid(tmp_path, name, count):
    assert len(_example_rows(tmp_path, name)) == count


def test_fidelity_map_example_passes_the_numeric_check(tmp_path, capsys):
    # the shipped map re-checked by the solver at the default Fock size
    # (n_ph null): every row passes its guard, so the run exits 0
    out = tmp_path / "map.csv"
    code = main(["sweep", "--config", str(EXAMPLES / "fidelity_map.json"), "--numeric",
                 "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    header, *lines = out.read_text().strip().split("\n")
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert len(rows) == 32
    assert all(float(row["max_fock_pop"]) < 1e-4 for row in rows)


def test_drive_tradeoff_example_keeps_t_g_times_drive_fixed(tmp_path):
    # g grows linearly with eps_d, so t_g * (eps_d/eps_a) is one number
    rows = _example_rows(tmp_path, "drive_tradeoff")
    tw = [float(r["t_g_ns"]) * float(r["eps_d_over_eps_a"]) for r in rows]
    assert max(tw) - min(tw) <= 1e-12 * min(tw)
