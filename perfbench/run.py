"""resgate benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload analytic_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. The
run first times set-up (a fresh interpreter importing resgate and building
the workload's config) five times. Then it runs cycles of the workload
(``workloads.py``) for about ``--seconds``, in PASSES passes over the same
inputs (see ``measure``); cycle c draws its inputs from the generator seeded
with (seed, c). Every row is checked (``workloads.row_problems``), and sweep
output files are read back.

The last stdout line is one JSON object: correct, attempted (points),
failed (points failing a check) and metrics. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps every public layer function
(``tracer.py``) and reports per-layer metrics instead, per evaluated point.
The line before it carries the run's provenance (thread pinning, machine,
library versions, commit, seed) and the figures that are not metrics.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy loads: on two cores, default OpenBLAS
# threading has made one small expm 7 ms to 1.3 s.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from calibration import HostSpeed  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
PASSES = 2
WORKLOAD_NAMES = ("analytic_sweep", "numeric_verify", "thermal_start")


def setup_times(config: dict) -> list[dict]:
    """Time SETUP_REPEATS fresh interpreters that import resgate and build config.

    Each probe times its own import and config build and converts them to
    the reference host speed with kernel samples taken in the same process
    (``setup_probe.py``); wall_s is the whole probe, interpreter start and
    exit included.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    runs = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), json.dumps(config)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True)
        wall = time.perf_counter() - start
        probe = json.loads(proc.stdout.splitlines()[-1])
        runs.append(dict(wall_s=wall,
                         setup_s=(probe["import_s"] + probe["config_s"]) * probe["factor"],
                         import_s=probe["import_s"] * probe["factor"],
                         config_s=probe["config_s"] * probe["factor"]))
    return runs


@contextmanager
def point_timer(points: list, speed: HostSpeed, sample_extractions: bool):
    """Record (start, end, sampling inside) of every evaluate_point call.

    Calls go through resgate.sweep. A calibration sample is due at most
    every ``speed.every_s`` seconds: before each point and, with
    ``sample_extractions``, before each channel extraction, since one point
    can take several seconds.
    """
    from resgate import lindblad
    from resgate import sweep as rsweep

    patched = [(rsweep, "evaluate_point")]
    if sample_extractions:
        patched += [(rsweep, "extract_channel"), (lindblad, "extract_channel")]
    originals = [getattr(module, name) for module, name in patched]

    def timed(*args, **kwargs):
        speed.sample()
        start, spent = time.perf_counter(), speed.spent_s
        try:
            return originals[0](*args, **kwargs)
        finally:
            points.append((start, time.perf_counter(), speed.spent_s - spent))

    def sampled(fn):
        def call(*args, **kwargs):
            speed.sample()
            return fn(*args, **kwargs)
        return call

    rsweep.evaluate_point = timed
    for (module, name), fn in zip(patched[1:], originals[1:]):
        setattr(module, name, sampled(fn))
    try:
        yield
    finally:
        for (module, name), fn in zip(patched, originals):
            setattr(module, name, fn)


class LindbladCounters:
    """Counts taken at the extract_channel boundary of a traced run.

    A thermal preparation delegates to thermal_average_channel, which calls
    extract_channel once per sample; only those leaf calls count here.
    """

    def __init__(self, tracer, lindblad):
        self.t = tracer
        self.default_n_ph = lindblad.DEFAULT_N_PH
        self.chosen: dict[int, int] = {}
        self.sig = inspect.signature(lindblad.extract_channel)
        tracer.on("lindblad.choose_n_ph", self._on_choose)
        tracer.on("lindblad.extract_channel", self._on_extract)

    def _on_choose(self, sid, parent, dur, args, kwargs, result):
        self.chosen[parent] = result

    def _on_extract(self, sid, parent, dur, args, kwargs, result):
        bound = self.sig.bind(*args, **kwargs)
        prep = bound.arguments.get("initial_cavity")
        chosen = self.chosen.pop(sid, None)
        if prep is not None and prep.kind == "thermal":
            return
        _, diag = result
        n_ph = bound.arguments.get("n_ph") or chosen or self.default_n_ph
        c = self.t.counters
        c["extractions"] += 1
        c["extract_s"] += dur
        c["rk4_steps"] += diag.steps
        c["n_ph_sum"] += n_ph
        c["guard_flags"] += diag.max_top_level_pop > diag.top_level_threshold


def measure(wl, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run cycles of wl for about ``seconds``; return the raw measurements.

    The first pass draws fresh cycles while another fits in 1/PASSES of the
    time; each further pass runs the same inputs again, and its rows must
    equal the first pass. Every cycle and point is timed at the reference
    host speed (``calibration.py``).
    """
    from workloads import output_problems, row_key, row_problems, run_cycle

    import resgate  # noqa: F401  (all layers imported before tracing)
    from resgate import lindblad

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install("resgate")
        LindbladCounters(tracer, lindblad)
    out_dir.mkdir(parents=True, exist_ok=True)
    speed = HostSpeed(wl.kernel)
    cycles: list[dict] = []  # configs plus (raw s, reference s, point s) per pass
    rows, points, problems = [], [], []
    sampling_in_cycles = 0.0

    def run_one(cyc):
        nonlocal sampling_in_cycles
        first, spent = len(points), speed.spent_s
        start = time.perf_counter()
        if tracer:
            with tracer.span("bench.cycle"):
                res = run_cycle(wl, cyc["configs"], out_dir)
        else:
            res = run_cycle(wl, cyc["configs"], out_dir)
        end = time.perf_counter()
        inside = speed.spent_s - spent
        sampling_in_cycles += inside
        raw = end - start - inside
        if tracer:
            tracer.fold()
        point_s = [(t1 - t0 - inside) * speed.factor(t0, t1)
                   for t0, t1, inside in points[first:]]
        cyc["runs"].append((raw, raw * speed.factor(start, end), point_s))
        speed.sample(force=True)
        keys = [row_key(r) for r in res.rows]
        if cyc.setdefault("keys", keys) != keys:
            problems.append(f"cycle {cycles.index(cyc)}: rows differ between passes")
        rows.extend(res.rows)
        for result, csv_path, json_path in res.outputs:
            problems.extend(output_problems(result, csv_path, json_path))
        if tracer:
            tracer.spans.clear()  # the checks' own calls are not the workload's

    started = time.perf_counter()
    speed.sample(force=True)
    try:
        # mid-point samples would land in the traced spans' self time
        with point_timer(points, speed, sample_extractions=not tracer):
            while True:
                cycles.append({"configs": wl.draw(np.random.default_rng([seed, len(cycles)])),
                               "runs": []})
                run_one(cycles[-1])
                elapsed = time.perf_counter() - started
                typical = statistics.median(c["runs"][0][0] for c in cycles)
                if elapsed + typical > seconds / PASSES:
                    break
            for _ in range(PASSES - 1):
                for cyc in cycles:
                    run_one(cyc)
    finally:
        if tracer:
            tracer.uninstall()
    row_fail = [(row, row_problems(row, wl.numeric)) for row in rows]
    factors = [speed.reference_s / k for _, k in speed.samples]
    runs = [run for c in cycles for run in c["runs"]]
    return {
        "cycle_raw_s": [run[0] for run in runs],
        "cycle_s": [run[1] for run in runs],
        "point_s": [t for run in runs for t in run[2]],
        "speed": {"kernel": wl.kernel, "samples": len(factors),
                  "factor_median": statistics.median(factors),
                  "factor_min": min(factors), "factor_max": max(factors)},
        "sampling_s": sampling_in_cycles,
        "rows": rows, "row_fail": [(r, p) for r, p in row_fail if p],
        "problems": problems, "tracer": tracer,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def end_to_end(m: dict, setup: list[dict]) -> dict:
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
        "run_s": (statistics.median(m["cycle_s"]), "s"),
        "points_per_s": (len(m["point_s"]) / sum(m["point_s"]), "1/s"),
        "point_s_p50": (statistics.median(m["point_s"]), "s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }


# Per-layer span names reported as "<name>.calls" and "<name>.self_s".
CALL_SPANS = ("channel.b_factor", "device.derive_gate_params",
              "lindblad.extract_channel", "fidelity.fit_local_z")
SELF_SPANS = CALL_SPANS + (
    "noise.dephasing_rate", "noise.optimal_drive", "channel.analytic_avg_fidelity",
    "sweep.resolve_operating_point", "sweep.emit_results",
    "lindblad.thermal_average_channel", "fidelity.average_gate_fidelity")


def per_layer(m: dict, setup: list[dict]) -> dict:
    """Per-layer metrics of a traced run, per evaluated point.

    Times are scaled to the reference host speed by the run's median
    calibration factor; shares are of the traced cycle time.
    """
    t = m["tracer"]
    c = t.counters
    points = len(m["rows"])
    root_s = t.total_s["bench.cycle"] - m["sampling_s"]
    ref = m["speed"]["factor_median"]
    out = {
        "sweep.objective_evals_per_point":
            (t.calls["channel.analytic_avg_fidelity"] / points, "calls/point"),
        "lindblad.rk4_steps": (c["rk4_steps"] / points, "steps/point"),
        "lindblad.s_per_step": (ref * c["extract_s"] / c["rk4_steps"] if c["rk4_steps"]
                                else 0.0, "s/step"),
        "lindblad.n_ph_mean": (c["n_ph_sum"] / c["extractions"] if c["extractions"] else 0.0,
                               "levels"),
        "lindblad.guard_flags": (c["guard_flags"], "count"),
    }
    for name in CALL_SPANS:
        out[f"{name}.calls"] = (t.calls[name] / points, "calls/point")
    for name in SELF_SPANS:
        out[f"{name}.self_s"] = (ref * t.self_s[name] / points, "s/point")
    out["sweep.emit_results.total_s"] = (
        ref * t.total_s["sweep.emit_results"] / points, "s/point")
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = (t.layer_self_s(layer) / root_s, "fraction")
    out["setup.import_resgate_s"] = (statistics.median(s["import_s"] for s in setup), "s")
    out["config.config_from_dict.self_s"] = (
        statistics.median(s["config_s"] for s in setup), "s")
    out["trace.run_s"] = (statistics.median(m["cycle_s"]), "s")
    return out


def provenance(seed: int, wl_name: str) -> dict:
    import scipy

    def blas(lib):
        try:
            return lib.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (AttributeError, KeyError, TypeError):
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": wl_name, "seed": seed, "thread_env": THREAD_ENV,
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "numpy_blas": blas(np), "scipy_blas": blas(scipy), "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(wl, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; return (result line, provenance line)."""
    out_dir = ROOT / ".perfbench_out" / str(os.getpid())
    try:
        setup = setup_times(wl.draw(np.random.default_rng([seed, 0]))[0])
        m = measure(wl, seed, seconds, trace, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass  # another run's output is still there
    metrics = per_layer(m, setup) if trace else end_to_end(m, setup)
    for row, why in m["row_fail"][:10]:
        print(f"failed row z={row.z_ohm:g} q={row.q:g} n={row.n}: {'; '.join(why)}",
              file=sys.stderr)
    for why in m["problems"]:
        print(f"output check: {why}", file=sys.stderr)
    rows, point_s = m["rows"], sorted(m["point_s"])
    dfs = [abs(r.f_numeric - r.f_analytic) for r in rows if r.f_numeric is not None]
    info = dict(provenance(seed, wl.name), seconds=seconds, trace=trace,
                cycle_runs=len(m["cycle_s"]), passes=PASSES, points=len(rows),
                host_speed=m["speed"],
                raw_setup_s=statistics.median(s["wall_s"] for s in setup),
                raw_run_s=statistics.median(m["cycle_raw_s"]),
                failed_frac=len(m["row_fail"]) / len(rows),
                max_abs_dF=max(dfs) if dfs else None)
    # A percentile is reported only with at least ten samples beyond it.
    if len(point_s) >= 100:
        info["point_s_p90"] = statistics.quantiles(point_s, n=10)[-1]
    if trace:
        t = m["tracer"]
        info["trace_root_s"] = t.total_s["bench.cycle"]
        info["trace_spans_self_s"] = sum(v for k, v in t.self_s.items() if k != "bench.cycle")
    result = {
        "correct": not m["row_fail"] and not m["problems"],
        "attempted": len(rows),
        "failed": len(m["row_fail"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "resgate" / "__init__.py").is_file():
        print(f"error: no resgate package under {SRC}; run from a resgate checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    result, info = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
