"""Command-line entry point.

Subcommands:
  analytic   evaluate the configured operating point with the closed-form
             channel; refinement is off unless the config sets
             "refine": true, and the master-equation check is off unless
             --numeric (or "numeric": true) is given
  optimize   closed-form optimum + local refinement at the configured
             (Z_r, Q); add --numeric for master-equation verification
  simulate   one point with the master-equation oracle; optionally dump a
             state trajectory CSV via --trajectory, a flag of simulate only
  sweep      Cartesian product of the config's axes (optionally --numeric);
             the other three evaluate one point and reject a config with
             axes (exit 2)

All subcommands read the same JSON config (--config; defaults apply when
omitted) and emit the same row schema as CSV or JSON (--out/--format; stdout
when --out is missing, CSV when --format is). The output path, format and
trajectory are flags only: a config that sets "out", "format" or
"trajectory_out" is refused by name. Exit codes: 0 success, 2 configuration
or file error (an invalid or unreadable config, an output that cannot be
written), 3 at least one row carries a failed numerical diagnostic (the
failing rows and their reasons go to stderr). simulate --trajectory resolves the
operating point once, for the row and the trajectory, and writes the
trajectory after the row, so a trajectory path that cannot be written
still leaves the row; a point whose evaluation raised writes no trajectory.

The numeric layers (sweep, lindblad and numpy under them) load only once the
config is valid, so --help, usage errors and config errors start fast. main
sets OPENBLAS_NUM_THREADS=1 before numpy loads (small matrices, one thread).
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import config_from_dict, read_config_file
from .errors import ConfigError, DomainError

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
        sp.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
        sp.add_argument("--numeric", action="store_true",
                        help="verify each point against the master equation")
        sp.add_argument("--jobs", type=int, metavar="N",
                        help="worker processes for sweeps")
        if name == "simulate":
            sp.add_argument("--trajectory", metavar="PATH",
                            help="also dump the state trajectory CSV here")
    return parser


def _write_trajectory(cfg, op, path: str) -> None:
    from .lindblad import trajectory_rows

    rows = trajectory_rows(op.params, op.gamma_phi, op.gamma_phi, cfg.initial_cavity,
                           n_ph=cfg.n_ph)
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
    # at most a few hundred rows: extra BLAS threads cost more than they save
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    args = build_parser().parse_args(argv)
    try:
        raw = read_config_file(args.config) if args.config else {}
        raw["mode"] = args.command
        if args.numeric:
            raw["numeric"] = True
        if args.jobs is not None:
            raw["jobs"] = args.jobs
        if args.command == "simulate":
            raw["numeric"] = True
        if args.command == "analytic":
            # pure closed-form evaluation: the configured point as-is
            raw.setdefault("refine", False)
        cfg = config_from_dict(raw, source=args.config or "<cli>")
        if cfg.axes and cfg.mode != "sweep":
            raise ConfigError(f"axes: {cfg.mode} evaluates one point; run the axes "
                              f"with sweep, or drop them")
        trajectory = getattr(args, "trajectory", None)
        if trajectory and cfg.initial_cavity.kind == "thermal":
            raise ConfigError(
                "--trajectory: a trajectory follows one cavity state, but initial_cavity "
                "is thermal (a mixture of states); use a vacuum or coherent initial_cavity"
            )

        from . import sweep

        op = None  # the operating point of a single-point run that did not raise
        if cfg.mode == "sweep":
            result = sweep.run_sweep(cfg)
        else:
            row, op = sweep._evaluate(cfg)
            result = sweep.SweepResult(rows=(row,), config=cfg)
        text = sweep.emit_results(result, args.out, args.format)
        if args.out is None:
            sys.stdout.write(text)
        else:
            print(f"wrote {len(result.rows)} row(s) to {args.out} ({args.format})")
        if trajectory and op is not None:
            _write_trajectory(cfg, op, trajectory)
            print(f"wrote trajectory to {trajectory}")

        if result.any_failed:
            bad = [i for i, r in enumerate(result.rows) if r.failed]
            print(f"numerical diagnostics failed for row(s) {bad}", file=sys.stderr)
            for i in bad:
                diag = result.rows[i].diagnostics
                reasons = diag.get("failure_reasons") or [diag.get("error", "")]
                print(f"row {i}: {'; '.join(reasons)}", file=sys.stderr)
            return 3
        return 0
    except (ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
