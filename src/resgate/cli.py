"""Command-line entry point.

Subcommands:
  analytic   evaluate the configured operating point with the closed-form
             channel only (no refinement, no integration)
  optimize   closed-form optimum + local refinement at the configured
             (Z_r, Q); add --numeric for master-equation verification
  simulate   one point with the master-equation oracle; optionally dump a
             state trajectory CSV via --trajectory
  sweep      Cartesian product of the config's axes (optionally --numeric)

All subcommands read the same JSON config (--config; defaults apply when
omitted) and emit the same row schema as CSV or JSON (--out/--format; stdout
when --out is missing). Exit codes: 0 success, 2 configuration error,
3 at least one row carries a failed numerical diagnostic (the failing
rows and their reasons go to stderr).
"""

from __future__ import annotations

import argparse
import sys

from .config import config_from_dict, read_config_file
from .errors import ConfigError, DomainError
from .lindblad import trajectory_rows
from .sweep import SweepResult, emit_results, evaluate_point, resolve_operating_point, run_sweep

TRAJECTORY_COLUMNS = (
    "t_ns", "trace", "purity", "mean_photon", "top_level_pop", "polaron_residual"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resgate",
        description="Resonator-mediated geometric-phase gate: analytics, "
                    "master-equation verification, and device sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "analytic": "closed-form channel fidelity at the configured point",
        "optimize": "refined optimal operating point at the configured (Z_r, Q)",
        "simulate": "master-equation run at the configured point",
        "sweep": "evaluate the Cartesian product of the configured axes",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH", help="JSON config file")
        sp.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), help="output format")
        sp.add_argument("--numeric", action="store_true",
                        help="verify each point against the master equation")
        sp.add_argument("--seed", type=int, metavar="N", help="base RNG seed")
        sp.add_argument("--jobs", type=int, metavar="N",
                        help="worker processes for sweeps")
        if name == "simulate":
            sp.add_argument("--trajectory", metavar="PATH",
                            help="also dump the state trajectory CSV here")
    return parser


def _write_trajectory(cfg, path: str) -> None:
    op = resolve_operating_point(cfg)
    rows = trajectory_rows(
        op.params, op.gamma_phi, op.gamma_phi, cfg.initial_cavity,
        n_ph=cfg.n_ph, policy=cfg.step_policy(),
    )
    lines = [",".join(TRAJECTORY_COLUMNS)]
    lines += [
        ",".join(repr(float(row[col])) for col in TRAJECTORY_COLUMNS)
        for row in rows
    ]
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"writing trajectory to {path}: {exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = read_config_file(args.config) if args.config else {}
        raw["mode"] = args.command
        if args.out is not None:
            raw["out"] = args.out
        if args.format is not None:
            raw["format"] = args.format
        if args.numeric:
            raw["numeric"] = True
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.jobs is not None:
            raw["jobs"] = args.jobs
        if getattr(args, "trajectory", None):
            raw["trajectory_out"] = args.trajectory
        if args.command == "simulate":
            raw["numeric"] = True
        if args.command == "analytic":
            # pure closed-form evaluation: the configured point as-is
            raw.setdefault("refine", False)
        cfg = config_from_dict(raw, source=args.config or "<cli>")

        if cfg.mode == "sweep":
            result = run_sweep(cfg)
        else:
            result = SweepResult(rows=(evaluate_point(cfg),), config=cfg)
        if cfg.mode == "simulate" and cfg.trajectory_out:
            _write_trajectory(cfg, cfg.trajectory_out)

        text = emit_results(result, cfg.out, cfg.format)
        if cfg.out is None:
            sys.stdout.write(text)
        else:
            print(f"wrote {len(result.rows)} row(s) to {cfg.out} ({cfg.format})")
        if cfg.mode == "simulate" and cfg.trajectory_out:
            print(f"wrote trajectory to {cfg.trajectory_out}")

        if result.any_failed:
            bad = [i for i, r in enumerate(result.rows) if r.failed]
            print(f"numerical diagnostics failed for row(s) {bad}", file=sys.stderr)
            for i in bad:
                diag = result.rows[i].diagnostics
                reasons = diag.get("failure_reasons") or [diag.get("error", "")]
                print(f"row {i}: {'; '.join(reasons)}", file=sys.stderr)
            return 3
        return 0
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
