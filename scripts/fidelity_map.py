#!/usr/bin/env python3
"""Map optimized gate fidelity over resonator impedance and quality factor.

Runs the optimizer at every (Z_r, Q) grid point and writes one CSV row per
point. With --numeric each point is re-checked against the master-equation
solver (tens of milliseconds per point at the default Fock size).

Example:
    python3 scripts/fidelity_map.py --out map.csv
    python3 scripts/fidelity_map.py --z 50 500 5000 50000 --q-points 8 --numeric
"""

from __future__ import annotations

import argparse
import sys

from resgate.config import config_from_dict
from resgate.sweep import emit_results, run_sweep


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--z", type=float, nargs="+", default=[50.0, 500.0, 5000.0, 50000.0],
                    help="resonator impedances in ohm (default: 50 500 5000 50000)")
    ap.add_argument("--q-min", type=float, default=1e3)
    ap.add_argument("--q-max", type=float, default=2e5)
    ap.add_argument("--q-points", type=int, default=8,
                    help="log-spaced quality-factor points (default 8)")
    ap.add_argument("--n", type=int, default=2, help="phase-space loop count")
    ap.add_argument("--numeric", action="store_true",
                    help="also run the master-equation solver at each point")
    ap.add_argument("--n-ph", type=int, default=None,
                    help="Fock levels for --numeric (default: solver policy)")
    ap.add_argument("--no-refine", action="store_true",
                    help="keep the closed-form operating point (skip refinement)")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out", default=None, help="CSV path (default: stdout)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    payload = {
        "n": args.n,
        "numeric": args.numeric,
        "refine": not args.no_refine,
        "jobs": args.jobs,
        "axes": {
            "z_r_ohm": list(args.z),
            "q_factor": {
                "start": args.q_min, "stop": args.q_max,
                "num": args.q_points, "spacing": "log",
            },
        },
    }
    if args.n_ph is not None:
        payload["n_ph"] = args.n_ph
    result = run_sweep(config_from_dict(payload, source="fidelity_map"))

    text = emit_results(result, path=args.out, fmt="csv")
    if args.out is None:
        sys.stdout.write(text)

    scored = [r for r in result.rows if not r.failed]
    if scored:
        fid = [r.f_numeric if r.f_numeric is not None else r.f_analytic for r in scored]
        lo, hi = min(fid), max(fid)
        print(f"# {len(scored)} points, fidelity {lo:.6f} .. {hi:.6f}", file=sys.stderr)
    if result.any_failed:
        bad = [i for i, r in enumerate(result.rows) if r.failed]
        print(f"# WARNING: {len(bad)} point(s) flagged: rows {bad}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
