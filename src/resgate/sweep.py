"""Device-grid sweeps: closed-form optimum, local refinement, result emission.

Each grid point is evaluated independently: pick the operating exchange and
drive amplitude (closed-form optimum unless the config fixes them), derive
the gate schedule, score the analytic channel, optionally refine (J, eps_d)
by golden-section coordinate descent on the exact analytic infidelity, and
optionally verify with the master-equation oracle. Rows carry every derived
quantity plus free-form diagnostics; failures mark the row and the sweep
keeps going.

Output contract: CSV with the fixed column order in CSV_COLUMNS (stable
plotting interface), or schema-versioned JSON that also carries the
resolved config and per-row diagnostics. Identical (config, seed) pairs
produce byte-identical files.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .channel import analytic_avg_fidelity, b_factor, ideal_gate_unitary
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
    DerivedGateParams,
    QubitTuning,
    ResonatorSpec,
    cavity_decay,
    derive_gate_params,
    gate_schedule,
    photon_voltage,
)
from .errors import DomainError
from .fidelity import average_gate_fidelity, fit_local_z
from .lindblad import extract_channel
from .noise import NoiseSpec, dephasing_rate, infidelity_power_law, optimal_drive

CSV_COLUMNS = (
    "z_ohm", "q", "n", "j_ghz", "eps_d_over_eps_a", "g_mhz", "delta_mhz",
    "t_g_ns", "f_analytic", "f_numeric", "infidelity_powerlaw", "clamped",
    "max_fock_pop",
)


@dataclass(frozen=True)
class SweepRow:
    """One evaluated grid point (column order defined by CSV_COLUMNS)."""

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
        gphi = dephasing_rate(J, eps_d, noise, eps_a).gamma_phi  # 1/s
        return 1.0 - analytic_avg_fidelity(b, gphi * 1e-9, t_ns)

    return infidelity


@dataclass(frozen=True)
class OperatingPoint:
    """Resolved (J, eps_d) choice with its derived schedule and rates."""

    params: DerivedGateParams
    gamma_phi: float  # 1/s, at the operating (J, eps_d)
    J: float          # J, joules
    y: float          # eps_d / eps_a
    clamped: bool
    infidelity_refined: float
    refined: bool
    diagnostics: dict


def resolve_operating_point(cfg: RunConfig) -> OperatingPoint:
    """Pick (J, eps_d) for cfg: config-fixed values or the refined optimum.

    Refinement (golden-section coordinate descent on the exact analytic
    infidelity, stopping when the relative improvement per round drops
    below cfg.refine_tol) only runs when both J and eps_d came from the
    optimizer; a config-pinned value is taken at face value. A refined
    point reports both infidelities, its rounds and its objective
    evaluations (refine_rounds, refine_evals) in the diagnostics.
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
    if cfg.j_ghz is not None:
        J = h_ghz_to_energy_J(cfg.j_ghz)
    else:
        # J_opt does not depend on gamma_phi_0; pass a placeholder rate,
        # then re-evaluate the rate at the (possibly clamped) optimum.
        probe = optimal_drive(noise, kappa, cfg.n, eps_a, 1.0, j_min=j_min, j_max=j_max)
        J, clamped = probe.J_opt, probe.clamped
        if clamped:
            diagnostics["j_opt_unclamped_ghz"] = energy_J_to_h_ghz(probe.J_opt_unclamped)

    if cfg.eps_d_over_eps_a is not None:
        y = cfg.eps_d_over_eps_a
    else:
        gamma0 = dephasing_rate(J, 0.0, noise, eps_a).gamma_phi_0
        y = optimal_drive(noise, kappa, cfg.n, eps_a, gamma0,
                          j_min=j_min, j_max=j_max).eps_d_opt / eps_a

    # -- local refinement around the closed-form optimum -------------------
    # the objective trusts its inputs, so QubitTuning checks them first
    tuning = QubitTuning(J0=J, eps_a=eps_a, eps_0=0.0, c_r=cfg.c_r, eps_d=y * eps_a)
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
            if prev - inf_final < cfg.refine_tol * max(inf_final, 1e-300):
                break
            prev = inf_final
        diagnostics["infidelity_closed_form"] = inf_closed
        diagnostics["infidelity_refined"] = inf_final
        diagnostics["refine_rounds"] = rounds
        diagnostics["refine_evals"] = evals
        tuning = replace(tuning, J0=J, eps_d=y * eps_a)

    return OperatingPoint(
        params=derive_gate_params(res, tuning, cfg.n, delta_sign=cfg.delta_sign),
        gamma_phi=dephasing_rate(J, y * eps_a, noise, eps_a).gamma_phi,
        J=J, y=y, clamped=clamped,
        infidelity_refined=inf_final,
        refined=refine,
        diagnostics=diagnostics,
    )


def evaluate_point(cfg: RunConfig, *, seed: int | None = None) -> SweepRow:
    """Evaluate cfg's operating point into a single SweepRow.

    Any exception is captured into the row's diagnostics ("error") with NaN
    fidelities, so callers (sweeps in particular) can keep going.
    """
    try:
        return _evaluate_point(cfg, cfg.seed if seed is None else seed)
    except Exception as exc:  # noqa: BLE001 - per-point isolation is the contract
        return SweepRow(
            z_ohm=cfg.z_r_ohm, q=cfg.q_factor, n=cfg.n,
            j_ghz=float("nan"), eps_d_over_eps_a=float("nan"),
            g_mhz=float("nan"), delta_mhz=float("nan"), t_g_ns=float("nan"),
            f_analytic=float("nan"), f_numeric=None,
            infidelity_powerlaw=None, clamped=False, max_fock_pop=None,
            diagnostics={"error": f"{type(exc).__name__}: {exc}"},
        )


def _evaluate_point(cfg: RunConfig, seed: int) -> SweepRow:
    op = resolve_operating_point(cfg)
    params, gphi = op.params, op.gamma_phi
    diagnostics = dict(op.diagnostics)
    inf_final = op.infidelity_refined

    noise = NoiseSpec(S_eps=cfg.s_eps_ev2, beta=cfg.beta, eta=cfg.eta)
    res = ResonatorSpec(omega_r=TWO_PI * cfg.omega_r_ghz * 1e9,
                        Z_r=cfg.z_r_ohm, Q=cfg.q_factor)
    try:
        powerlaw = infidelity_power_law(noise, res, cfg.c_r, cfg.n)
    except DomainError:
        powerlaw = None  # n = 1 or beta outside (0, 1): estimate undefined

    # -- optional master-equation verification -----------------------------
    f_numeric = None
    max_fock = None
    if cfg.numeric:
        chan, diag = extract_channel(
            params, gphi, gphi, cfg.initial_cavity, n_ph=cfg.n_ph,
            policy=cfg.step_policy(), top_level_threshold=cfg.top_level_threshold,
            seed=seed,
        )
        target = ideal_gate_unitary(math.copysign(math.pi / 4.0, params.delta_rad_ns))
        if cfg.initial_cavity.kind == "coherent":
            # a displaced cavity adds deterministic single-qubit Z phases;
            # score the entangling content after stripping them
            f_numeric = fit_local_z(chan, target, validate=False).report.f_avg
        else:
            f_numeric = average_gate_fidelity(chan, target, validate=False).f_avg
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


# thread-count setters of the OpenBLAS builds numpy wheels bundle
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_", "openblas_set_num_threads",
)


def _one_blas_thread() -> None:
    """Worker initializer: cap the OpenBLAS that numpy loaded at one thread.

    A point's matrices are at most a few hundred rows, where BLAS threads
    cost more than they save, and each of the N worker processes would
    start its own. The library sits in the numpy.libs folder of a numpy
    wheel; opening it again returns the copy numpy loaded. A no-op where
    there is no such library or setter.
    """
    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


def _point_worker(args) -> tuple[int, SweepRow]:
    cfg, index, overrides = args
    return index, evaluate_point(replace(cfg, **overrides), seed=cfg.seed + index)


def run_sweep(cfg: RunConfig) -> SweepResult:
    """Evaluate the Cartesian product of cfg.axes in deterministic order.

    Axes combine row-major in config order (last axis fastest); with no
    axes this degenerates to the single configured point. Points are
    independent; jobs > 1 dispatches them over a process pool, whose
    workers run with one BLAS thread each, and reorders results back to the
    deterministic sequence. Per-point seeds are seed + index.
    """
    names = [name for name, _ in cfg.axes]
    grids = [values for _, values in cfg.axes]
    combos = list(itertools.product(*grids)) if grids else [()]
    tasks = [
        (cfg, index, dict(zip(names, combo)))
        for index, combo in enumerate(combos)
    ]
    if cfg.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs, initializer=_one_blas_thread) as pool:
            indexed = list(pool.map(_point_worker, tasks))
    else:
        indexed = [_point_worker(t) for t in tasks]
    indexed.sort(key=lambda pair: pair[0])
    return SweepResult(rows=tuple(row for _, row in indexed), config=cfg)


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


def emit_results(result: SweepResult, path: str | None = None,
                 fmt: str | None = None) -> str:
    """Serialize (and optionally write) the sweep result; returns the text."""
    fmt = fmt or result.config.format
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
    """Read back a JSON result file (schema_version 1)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise OSError(f"reading results from {path}: {exc}") from exc
    if payload.get("schema_version") != 1:
        raise DomainError(
            f"unsupported results schema {payload.get('schema_version')!r} in {path}"
        )
    return payload
