"""Device-grid sweeps: closed-form optimum, local refinement, result emission.

Each grid point is evaluated independently: pick the operating exchange and
drive amplitude (closed-form optimum unless the config fixes them), derive
the gate schedule, score the analytic channel, optionally refine (J, eps_d)
by golden-section coordinate descent on the exact analytic infidelity, and
optionally verify with the master-equation oracle, scored against the gate
that the cavity start realizes (channel.gate_target: a coherent start adds
a known local Z rotation). Rows carry every derived quantity plus
free-form diagnostics; failures mark the row and the sweep keeps going.

Output contract: CSV with the fixed column order in CSV_COLUMNS (stable
plotting interface), or schema-versioned JSON that also carries the
resolved config and per-row diagnostics. Identical configs produce
byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import analytic_avg_fidelity, b_factor, gate_target
from .config import RunConfig
from .constants import (
    E_CHARGE_C,
    HBAR_J_S,
    TWO_PI,
    energy_J_to_h_ghz,
    h_ghz_to_energy_J,
    uev_to_J,
)
from .device import (
    EXCHANGE_SOFT_MAX_GHZ,
    EXCHANGE_SOFT_MIN_GHZ,
    DerivedGateParams,
    QubitTuning,
    ResonatorSpec,
    cavity_decay,
    derive_gate_params,
    exchange_in_band,
    gate_schedule,
    photon_voltage,
)
from .errors import DomainError
from .fidelity import average_gate_fidelity
from .lindblad import extract_channel
from .noise import NoiseSpec, dephasing_rate, infidelity_power_law, optimal_drive

CSV_COLUMNS = (
    "z_ohm", "q", "n", "j_ghz", "eps_d_over_eps_a", "g_mhz", "delta_mhz",
    "t_g_ns", "f_analytic", "f_numeric", "infidelity_powerlaw", "clamped",
    "max_fock_pop",
)


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One evaluated grid point (column order defined by CSV_COLUMNS).

    Slotted: a sweep's caller holds every row, so each row carries no
    per-instance __dict__.
    """

    z_ohm: float
    q: float
    n: int
    j_ghz: float
    eps_d_over_eps_a: float
    g_mhz: float
    delta_mhz: float
    t_g_ns: float
    f_analytic: float
    f_numeric: float | None
    infidelity_powerlaw: float | None
    clamped: bool
    max_fock_pop: float | None
    diagnostics: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.diagnostics.get("failed")) or "error" in self.diagnostics

    def as_record(self) -> dict:
        """JSON-safe dict: the CSV columns plus diagnostics (NaN -> null)."""
        def clean(v):
            if isinstance(v, float) and not math.isfinite(v):
                return None
            return v
        rec = {c: clean(getattr(self, c)) for c in CSV_COLUMNS}
        rec["diagnostics"] = self.diagnostics
        return rec


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    config: RunConfig

    @property
    def any_failed(self) -> bool:
        return any(r.failed for r in self.rows)


_REFINE_TOL = 1e-4  # refinement stops when a round gains less than this share of 1 - F


def _golden_min(f, a: float, b: float, tol: float = 1e-12) -> tuple[float, int]:
    """Golden-section minimum of f on [a, b] and the number of f evaluations."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    while abs(b - a) > tol * (abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
        evals += 1
    return 0.5 * (a + b), evals


def _objective(cfg: RunConfig, res: ResonatorSpec, noise: NoiseSpec, eps_a: float):
    """Refinement objective (J, y) -> 1 - F_avg of the analytic channel.

    Built once per point. What does not depend on (J, y) is hoisted (e c_r V0,
    1/eps_a, kappa), and g is formed with the float operations of
    coupling_strengths and derive_gate_params, so every value is exactly the
    number obtained by scoring derive_gate_params(...) with b_factor,
    dephasing_rate and analytic_avg_fidelity. Those kernels are called
    through this module's globals, once per evaluation.
    """
    e_cr_v0 = E_CHARGE_C * cfg.c_r * photon_voltage(res)
    inv_sq = (1.0 / eps_a) ** 2
    kappa_ns = cavity_decay(res) * 1e-9
    n, sign = cfg.n, cfg.delta_sign

    def infidelity(J: float, y: float) -> float:
        eps_d = y * eps_a
        g = 0.5 * (J * inv_sq) * e_cr_v0 * eps_d
        delta, t_g = gate_schedule(g, g, n)
        g_ns = g / HBAR_J_S * 1e-9
        t_ns = t_g * 1e9
        b, _, _ = b_factor(math.sqrt(g_ns * g_ns), sign * delta * 1e-9, kappa_ns, t_ns)
        gphi = dephasing_rate(J, eps_d, noise, eps_a)  # 1/s
        return 1.0 - analytic_avg_fidelity(b, gphi * 1e-9, t_ns)

    return infidelity


@dataclass(frozen=True)
class OperatingPoint:
    """Resolved (J, eps_d) choice with its derived schedule and rates, and
    the resonator and noise specs it was resolved with."""

    params: DerivedGateParams
    gamma_phi: float  # 1/s, at the operating (J, eps_d)
    J: float          # J, joules
    y: float          # eps_d / eps_a
    clamped: bool
    infidelity_refined: float
    res: ResonatorSpec
    noise: NoiseSpec
    diagnostics: dict


def resolve_operating_point(cfg: RunConfig) -> OperatingPoint:
    """Pick (J, eps_d) for cfg: config-fixed values or the refined optimum.

    One optimal_drive call gives what the config leaves unset. Refinement
    (golden-section coordinate descent on the exact analytic infidelity,
    stopping when a round improves it by less than _REFINE_TOL of itself)
    only runs when both J and eps_d came from the optimizer; a config-pinned
    value is taken at face value. A refined point reports both
    infidelities, its rounds and its objective evaluations (refine_rounds,
    refine_evals) in the diagnostics. An exchange outside the device layer's
    soft band warns (from derive_gate_params) and adds j_outside_band_ghz,
    the band in GHz, to the diagnostics.
    """
    res = ResonatorSpec(omega_r=TWO_PI * cfg.omega_r_ghz * 1e9,
                        Z_r=cfg.z_r_ohm, Q=cfg.q_factor)
    kappa = cavity_decay(res)
    noise = NoiseSpec(S_eps=cfg.s_eps_ev2, beta=cfg.beta, eta=cfg.eta)
    eps_a = uev_to_J(cfg.eps_a_uev)
    j_min = h_ghz_to_energy_J(cfg.j_min_ghz)
    j_max = h_ghz_to_energy_J(cfg.j_max_ghz)
    diagnostics: dict = {}

    # -- operating point: fixed by config, else the closed-form optimum ----
    clamped = False
    J = None if cfg.j_ghz is None else h_ghz_to_energy_J(cfg.j_ghz)
    y = cfg.eps_d_over_eps_a
    if J is None or y is None:
        opt = optimal_drive(noise, kappa, cfg.n, eps_a, j_min=j_min, j_max=j_max, J=J)
        if J is None:
            J, clamped = opt.J_opt, opt.clamped
            if clamped:
                diagnostics["j_opt_unclamped_ghz"] = energy_J_to_h_ghz(opt.J_opt_unclamped)
        if y is None:
            y = opt.eps_d_opt / eps_a

    # -- local refinement around the closed-form optimum -------------------
    # the objective trusts its inputs, so QubitTuning checks them first
    tuning = QubitTuning(J0=J, eps_a=eps_a, c_r=cfg.c_r, eps_d=y * eps_a)
    infidelity = _objective(cfg, res, noise, eps_a)
    inf_closed = infidelity(J, y)
    inf_final = inf_closed
    refine = cfg.refine and cfg.j_ghz is None and cfg.eps_d_over_eps_a is None
    if refine:
        prev, evals = inf_closed, 0
        for rounds in range(1, 61):
            lo = max(math.log(J) - 0.7, math.log(j_min))
            hi = min(math.log(J) + 0.7, math.log(j_max))
            log_j, evals_j = _golden_min(lambda lj: infidelity(math.exp(lj), y), lo, hi)
            J = math.exp(log_j)
            y, evals_y = _golden_min(lambda yy: infidelity(J, yy), 0.3 * y, 3.0 * y)
            inf_final = infidelity(J, y)
            evals += evals_j + evals_y + 1
            if prev - inf_final < _REFINE_TOL * max(inf_final, 1e-300):
                break
            prev = inf_final
        diagnostics["infidelity_closed_form"] = inf_closed
        diagnostics["infidelity_refined"] = inf_final
        diagnostics["refine_rounds"] = rounds
        diagnostics["refine_evals"] = evals
        tuning = replace(tuning, J0=J, eps_d=y * eps_a)
    if not exchange_in_band(J):
        diagnostics["j_outside_band_ghz"] = [EXCHANGE_SOFT_MIN_GHZ, EXCHANGE_SOFT_MAX_GHZ]

    return OperatingPoint(
        params=derive_gate_params(res, tuning, cfg.n, delta_sign=cfg.delta_sign),
        gamma_phi=dephasing_rate(J, y * eps_a, noise, eps_a),
        J=J, y=y, clamped=clamped,
        infidelity_refined=inf_final,
        res=res, noise=noise,
        diagnostics=diagnostics,
    )


def evaluate_point(cfg: RunConfig) -> SweepRow:
    """Evaluate cfg's operating point into a single SweepRow.

    Any exception is captured into the row's diagnostics ("error") with NaN
    fidelities, so callers (sweeps in particular) can keep going.
    """
    return _evaluate(cfg)[0]


def _evaluate(cfg: RunConfig) -> tuple[SweepRow, OperatingPoint | None]:
    """evaluate_point's row and the operating point it was scored at (None
    when the evaluation raised), so a caller can reuse the point."""
    try:
        op = resolve_operating_point(cfg)
        return _evaluate_point(cfg, op), op
    except Exception as exc:  # noqa: BLE001 - per-point isolation is the contract
        return SweepRow(
            z_ohm=cfg.z_r_ohm, q=cfg.q_factor, n=cfg.n,
            j_ghz=float("nan"), eps_d_over_eps_a=float("nan"),
            g_mhz=float("nan"), delta_mhz=float("nan"), t_g_ns=float("nan"),
            f_analytic=float("nan"), f_numeric=None,
            infidelity_powerlaw=None, clamped=False, max_fock_pop=None,
            diagnostics={"error": f"{type(exc).__name__}: {exc}"},
        ), None


def _evaluate_point(cfg: RunConfig, op: OperatingPoint) -> SweepRow:
    params, gphi = op.params, op.gamma_phi
    diagnostics = dict(op.diagnostics)
    inf_final = op.infidelity_refined

    try:
        powerlaw = infidelity_power_law(op.noise, op.res, cfg.c_r, cfg.n)
    except DomainError:
        powerlaw = None  # n = 1 or beta outside (0, 1): estimate undefined

    # -- optional master-equation verification -----------------------------
    f_numeric = None
    max_fock = None
    if cfg.numeric:
        prep = cfg.initial_cavity
        chan, diag = extract_channel(params, gphi, gphi, prep, n_ph=cfg.n_ph)
        f_numeric = average_gate_fidelity(chan, gate_target(params, prep.alpha),
                                          validate=False)
        max_fock = diag.max_top_level_pop
        diagnostics.update(diag.to_json_dict())

    return SweepRow(
        z_ohm=cfg.z_r_ohm,
        q=cfg.q_factor,
        n=cfg.n,
        j_ghz=energy_J_to_h_ghz(op.J),
        eps_d_over_eps_a=op.y,
        g_mhz=energy_J_to_h_ghz(params.g1) * 1e3,
        delta_mhz=params.Delta / TWO_PI * 1e-6,
        t_g_ns=params.t_g_ns,
        f_analytic=1.0 - inf_final,
        f_numeric=f_numeric,
        infidelity_powerlaw=powerlaw,
        clamped=op.clamped,
        max_fock_pop=max_fock,
        diagnostics=diagnostics,
    )


def run_sweep(cfg: RunConfig) -> SweepResult:
    """Evaluate the Cartesian product of cfg.axes in deterministic order.

    Axes combine row-major in config order (last axis fastest); with no
    axes this degenerates to the single configured point. Points are
    independent; they go to a process pool of min(jobs, points, CPUs)
    workers, whose map returns them in that order, or run in this process
    when that is 1 (a pool starts all its workers at once).
    """
    names = [name for name, _ in cfg.axes]
    points = [replace(cfg, **dict(zip(names, combo)))
              for combo in itertools.product(*(values for _, values in cfg.axes))]
    workers = min(cfg.jobs, len(points), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~2 MB: load it only here

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = tuple(pool.map(evaluate_point, points))
    else:
        rows = tuple(map(evaluate_point, points))
    return SweepResult(rows=rows, config=cfg)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def render_csv(result: SweepResult) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in result.rows:
        lines.append(",".join(_csv_cell(getattr(row, c)) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def render_json(result: SweepResult) -> str:
    payload = {
        "schema_version": 1,
        "config": result.config.to_json_dict(),
        "rows": [row.as_record() for row in result.rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def emit_results(result: SweepResult, path: str | None = None, fmt: str = "csv") -> str:
    """Serialize result as fmt ("csv" or "json"), write it to path unless
    that is None, and return the text."""
    if fmt == "csv":
        text = render_csv(result)
    elif fmt == "json":
        text = render_json(result)
    else:
        raise DomainError(f"unknown output format {fmt!r}")
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"writing results to {path}: {exc}") from exc
    return text


def load_results(path: str) -> dict:
    """Read back a JSON result file (schema_version 1).

    A file that cannot be opened raises OSError; one that is not UTF-8, not
    JSON, not a JSON object or of another schema raises DomainError, each
    naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise OSError(f"reading results from {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"results file {path}: not UTF-8 text ({exc.reason} "
                          f"at byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"results file {path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise DomainError(f"results file {path}: top level must be a JSON object")
    if payload.get("schema_version") != 1:
        raise DomainError(
            f"unsupported results schema {payload.get('schema_version')!r} in {path}"
        )
    return payload
