"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1 2 3 4 5 [--workloads NAME ...]
                                 [--trace-seed 1] [--out perfbench/baseline.json]

Each run is a fresh ``run.py`` process, one after another, from the
repository root. For every end-to-end metric the summary gives the median,
the quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, next to the metric's bound in BENCHMARK.json. With
``--trace-seed`` each workload also gets one traced run on that seed, and the
summary reports its per-layer metrics and the tracing overhead: traced
``run_s`` over the untraced ``run_s`` of the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2])["info"], "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / med}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(dict(run_once(wl, seed, args.seconds, False), seed=seed))
            res = runs[-1]["result"]
            print(wl, seed, res["correct"], res["attempted"], res["failed"],
                  {k: round(v["value"], 6) for k, v in res["metrics"].items()},
                  file=sys.stderr)
        entry = {"runs": runs, "metrics": {}}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            entry["metrics"][name] = dict(spread(values), bound=bound) if len(values) > 1 \
                else {"median": values[0], "bound": bound}
            stat = entry["metrics"][name]
            print(f"{wl:15s} {name:13s} median {stat['median']:.6g}  "
                  f"iqr/median {stat.get('iqr_frac', float('nan')):.4f}  bound {bound}")
        if args.trace_seed is not None:
            traced = run_once(wl, args.trace_seed, args.seconds, True)
            untraced = next((r for r in runs if r["seed"] == args.trace_seed), None) \
                or run_once(wl, args.trace_seed, args.seconds, False)
            traced_s = traced["result"]["metrics"]["trace.run_s"]["value"]
            run_s = untraced["result"]["metrics"]["run_s"]["value"]
            entry["traced"] = dict(traced, seed=args.trace_seed)
            entry["trace_overhead"] = {"traced_run_s": traced_s, "untraced_run_s": run_s,
                                       "ratio": traced_s / run_s}
            print(f"{wl:15s} tracing overhead: run_s {run_s:.4g} s untraced, "
                  f"{traced_s:.4g} s traced ({traced_s / run_s:.3f}x)")
        summary[wl] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
