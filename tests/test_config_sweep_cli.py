"""Run configuration, sweep driver, serialization, and the CLI front end."""

from __future__ import annotations

import importlib.util
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
    NoiseSpec,
    QubitTuning,
    ResonatorSpec,
    analytic_avg_fidelity,
    b_factor,
    choose_n_ph,
    dephasing_rate,
    derive_gate_params,
    sweep,
)
from resgate import lindblad
from resgate.cli import TRAJECTORY_COLUMNS, main
from resgate.config import RunConfig, config_from_dict, load_config
from resgate.constants import TWO_PI, h_ghz_to_energy_J, uev_to_J
from resgate.errors import ConfigError
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
        ({"format": "yaml"}, "format"),
        ({"axes": {"bogus_key": [1, 2]}}, "bogus_key"),
        ({"axes": {"q_factor": {"start": 1, "stop": 2}}}, "axes.q_factor"),
        ({"axes": {"q_factor": {"start": -1, "stop": 2, "num": 3, "spacing": "log"}}},
         "axes.q_factor"),
        ({"initial_cavity": {"kind": "squeezed"}}, "initial_cavity"),
        ({"initial_cavity": {"kind": "thermal", "n_bar": -0.5}}, "n_bar"),
        # an axis value passes the rule of its scalar key
        ({"axes": {"q_factor": [1e4, -1.0]}}, "axes.q_factor"),
        ({"axes": {"n": [2.5]}}, "axes.n"),
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


def test_readme_config_table_lists_every_key_with_its_default():
    # the README table is the one hand-written copy of the schema: a renamed
    # key or a changed default must show up here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", section, flags=re.MULTILINE)
    assert [key for key, _ in rows] == [f.name for f in fields(RunConfig)]
    defaults = RunConfig().to_json_dict()
    for key, cell in rows:
        assert json.loads(cell) == defaults[key], key


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


# ----------------------------------------------------------------- sweep --


def test_operating_point_refinement_improves():
    cfg = config_from_dict({}, source="t")  # refine on by default
    pt = resolve_operating_point(cfg)
    assert pt.refined
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
            gphi = dephasing_rate(J, y * eps_a, noise, eps_a).gamma_phi
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
    assert not pt.refined
    assert pt.J == pytest.approx(0.0852 * 6.62607015e-34 * 1e9, rel=1e-12)
    assert pt.y == pytest.approx(2.4)


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
    cfg = config_from_dict({"c_r": 1.5}, source="t")  # passes config, fails physics
    row = evaluate_point(cfg)
    assert row.failed
    assert "error" in row.diagnostics
    assert "DomainError" in row.diagnostics["error"]
    assert math.isnan(row.f_analytic)
    # the same value on a sweep axis passes config too, and fails the same way
    (swept,) = run_sweep(config_from_dict({"axes": {"c_r": [1.5]}}, source="t")).rows
    assert swept.diagnostics == row.diagnostics


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


def test_sweep_workers_cap_blas_at_one_thread():
    # the --jobs worker initializer, in a process that starts with 2 threads;
    # where numpy bundles no OpenBLAS it does nothing, and there is nothing to read
    libs = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"))
    if not libs:
        pytest.skip("numpy bundles no OpenBLAS here")
    script = (
        "import ctypes, sys\n"
        "from resgate import sweep\n"
        f"lib = ctypes.CDLL({str(libs[0])!r})\n"
        "get = next(getattr(lib, n.replace('set', 'get')) for n in sweep._BLAS_THREAD_SETTERS\n"
        "           if hasattr(lib, n.replace('set', 'get')))\n"
        "before = get()\n"
        "sweep._one_blas_thread()\n"
        "print(before, get())\n"
    )
    src = str(Path(sweep.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "1"]


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


def test_numeric_json_row_reports_its_fock_size(tmp_path):
    # with n_ph null a coherent start sizes its Fock space from the reachable
    # amplitude; the JSON row says which size ran, and reruns stay identical
    alpha = 0.6 - 0.3j
    cfg = config_from_dict({
        "numeric": True, "refine": False,
        "initial_cavity": {"kind": "coherent", "alpha": [alpha.real, alpha.imag]},
    }, source="t")
    p = resolve_operating_point(cfg).params
    radius = lindblad._loop_radius(p)
    result = run_sweep(cfg)
    json_text = render_json(result)
    assert render_json(run_sweep(cfg)) == json_text
    path = tmp_path / "rows.json"
    path.write_text(json_text)
    (row,) = load_results(path)["rows"]
    assert row["diagnostics"]["n_ph"] == choose_n_ph(abs(alpha) + radius) > 6
    # the CSV columns stay as they were
    assert render_csv(result).split("\n")[0] == ",".join(CSV_COLUMNS)
    assert "n_ph" not in CSV_COLUMNS


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


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"qbits": 2}))
    assert main(["analytic", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "qbits" in err


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


def test_cli_simulate_flags_small_fock_space(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"j_ghz": 0.3, "eps_d_over_eps_a": 2.0, "n_ph": 6}))
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


def test_cli_seed_override(tmp_path):
    # the seed only matters for thermal sampling; check it is plumbed through
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 5}))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["analytic", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["analytic", "--config", str(cfg), "--seed", "9", "--out", str(out2)]) == 0
    # analytic output is seed-independent
    assert out1.read_text() == out2.read_text()


# --------------------------------------------------------------- scripts --


@pytest.mark.parametrize(
    "script, argv",
    [
        ("fidelity_map", ["--z", "5000", "--q-points", "2"]),
        ("drive_tradeoff", ["--num", "2"]),
    ],
)
def test_script_writes_its_grid(tmp_path, script, argv):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{script}.py"
    spec = importlib.util.spec_from_file_location(script, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "rows.csv"
    assert module.main(argv + ["--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 2
