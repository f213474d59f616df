"""Run configuration: JSON ingestion, validation, and defaults.

The config is a single flat JSON object; every key is optional and the
empty object gives RunConfig's defaults, the reference operating point.
Keys carry their units in the name (omega_r_ghz, eps_a_uev, s_eps_ev2,
dt_ps, ...). Each key's default and the rule its value must pass live
together on its RunConfig field, and every value of a sweep axis passes the
rule of the scalar key. Unknown keys are rejected by name; bad values are
rejected with the config path spelled out (e.g. "axes.q_factor[1]").

Two keys take structured values:

* initial_cavity: "vacuum" (default), {"kind": "coherent", "alpha":
  [re, im]} (or a bare number), or {"kind": "thermal", "n_bar": x,
  "samples": k}.
* axes: {parameter: [v1, v2, ...]} or {parameter: {"start": a, "stop": b,
  "num": k, "spacing": "linear"|"log"}}; parameters must be sweepable
  scalars (see SWEEPABLE_KEYS).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any

import numpy as np

from .device import EXCHANGE_SOFT_MAX_GHZ, EXCHANGE_SOFT_MIN_GHZ, QubitTuning
from .errors import ConfigError
from .lindblad import DEFAULT_TOP_LEVEL_THRESHOLD, CavityPrep, StepPolicy
from .noise import NoiseSpec

MODES = ("analytic", "simulate", "sweep", "optimize")
FORMATS = ("csv", "json")

SWEEPABLE_KEYS = (
    "z_r_ohm", "q_factor", "omega_r_ghz", "eps_a_uev", "c_r",
    "j_ghz", "eps_d_over_eps_a", "s_eps_ev2", "beta", "n",
)


def _require_number(value, path, *, integer=False, positive=False,
                    nonnegative=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    if integer and int(value) != value:
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if positive and not (value > 0):
        raise ConfigError(f"{path}: must be positive, got {value!r}")
    if nonnegative and value < 0:
        raise ConfigError(f"{path}: must be non-negative, got {value!r}")
    return int(value) if integer else float(value)


def _require_choice(value, path, *, allowed) -> str:
    if value not in allowed:
        raise ConfigError(f"{path}: expected one of {list(allowed)}, got {value!r}")
    return value


def _require_bool(value, path) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


def _require_path(value, path) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string path, got {value!r}")
    return value


def _parse_cavity(value, path) -> CavityPrep:
    if value == "vacuum" or value is None:
        return CavityPrep.vacuum()
    if not isinstance(value, dict):
        raise ConfigError(
            f'{path}: expected "vacuum" or an object with a "kind" field, got {value!r}'
        )
    kind = value.get("kind")
    if kind == "coherent":
        allowed = {"kind", "alpha"}
        extra = sorted(set(value) - allowed)
        if extra:
            raise ConfigError(f"{path}: unknown keys {extra} for coherent preparation")
        alpha = value.get("alpha", 0.0)
        if isinstance(alpha, (list, tuple)) and len(alpha) == 2:
            re_a = _require_number(alpha[0], f"{path}.alpha[0]")
            im_a = _require_number(alpha[1], f"{path}.alpha[1]")
            return CavityPrep.coherent(complex(re_a, im_a))
        return CavityPrep.coherent(complex(_require_number(alpha, f"{path}.alpha"), 0.0))
    if kind == "thermal":
        allowed = {"kind", "n_bar", "samples"}
        extra = sorted(set(value) - allowed)
        if extra:
            raise ConfigError(f"{path}: unknown keys {extra} for thermal preparation")
        n_bar = _require_number(value.get("n_bar", CavityPrep.n_bar), f"{path}.n_bar",
                                nonnegative=True)
        samples = _require_number(value.get("samples", CavityPrep.samples),
                                  f"{path}.samples", integer=True, positive=True)
        return CavityPrep.thermal(n_bar, samples)
    raise ConfigError(
        f'{path}.kind: expected "coherent" or "thermal", got {kind!r}'
    )


def _parse_axis(name, value) -> tuple:
    """One axis's values, each checked by the rule of the scalar key ``name``."""
    path = f"axes.{name}"
    if isinstance(value, dict):
        allowed = {"start", "stop", "num", "spacing"}
        extra = sorted(set(value) - allowed)
        if extra:
            raise ConfigError(f"{path}: unknown range keys {extra} (allowed {sorted(allowed)})")
        for req in ("start", "stop", "num"):
            if req not in value:
                raise ConfigError(f"{path}: range object needs '{req}'")
        start = _require_number(value["start"], f"{path}.start")
        stop = _require_number(value["stop"], f"{path}.stop")
        num = _require_number(value["num"], f"{path}.num", integer=True, positive=True)
        spacing = value.get("spacing", "linear")
        if spacing == "linear":
            pts = np.linspace(start, stop, num)
        elif spacing == "log":
            if start <= 0 or stop <= 0:
                raise ConfigError(f"{path}: log spacing needs positive start/stop")
            pts = np.logspace(math.log10(start), math.log10(stop), num)
        else:
            raise ConfigError(f'{path}.spacing: expected "linear" or "log", got {spacing!r}')
        value = [float(p) for p in pts]
    elif not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of numbers or a range object, got {value!r}")
    elif not value:
        raise ConfigError(f"{path}: range is empty")
    rule = _FIELDS[name].metadata["parse"]
    return tuple(rule(v, f"{path}[{i}]") for i, v in enumerate(value))


def _parse_axes(value, path) -> tuple[tuple[str, tuple], ...]:
    if value is None:
        return ()
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {value!r}")
    bad = sorted(set(value) - set(SWEEPABLE_KEYS))
    if bad:
        raise ConfigError(
            f"{path}: {', '.join(bad)} not sweepable "
            f"(sweepable: {', '.join(SWEEPABLE_KEYS)})"
        )
    return tuple((name, _parse_axis(name, values)) for name, values in value.items())


def _key(default, parse, **rule):
    """A config key: its default and its rule, parse(value, path, **rule).

    The rule returns the value to store or raises a ConfigError naming the
    path. A key whose default is None also takes null, as "not set".
    """
    return field(default=default, metadata={"parse": partial(parse, **rule)})


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration (flat mirror of the JSON schema).

    The fields are the schema: each one's default is the key's default and
    its metadata holds the rule config_from_dict checks the key's value by.
    """

    mode: str = _key("analytic", _require_choice, allowed=MODES)
    # device / qubit; j_ghz, eps_d_over_eps_a None -> optimized
    omega_r_ghz: float = _key(6.5, _require_number, positive=True)
    z_r_ohm: float = _key(5000.0, _require_number, positive=True)
    q_factor: float = _key(20000.0, _require_number, positive=True)
    eps_a_uev: float = _key(5.0, _require_number, positive=True)
    c_r: float = _key(QubitTuning.c_r, _require_number, positive=True)
    j_ghz: float | None = _key(None, _require_number, positive=True)
    eps_d_over_eps_a: float | None = _key(None, _require_number, positive=True)
    # noise; eta None -> Hahn-echo value for beta
    s_eps_ev2: float = _key(NoiseSpec.S_eps, _require_number, positive=True)
    beta: float = _key(NoiseSpec.beta, _require_number, positive=True)
    eta: float | None = _key(None, _require_number, positive=True)
    # gate
    n: int = _key(2, _require_number, integer=True, positive=True)
    delta_sign: int = _key(1, _require_number, integer=True)
    # simulation; n_ph None -> default / amplitude-adaptive
    n_ph: int | None = _key(None, _require_number, integer=True)
    dt_ps: float = _key(StepPolicy.dt_ns * 1e3, _require_number, positive=True)
    min_steps: int = _key(StepPolicy.min_steps, _require_number, integer=True, positive=True)
    max_steps: int = _key(StepPolicy.max_steps, _require_number, integer=True, positive=True)
    top_level_threshold: float = _key(DEFAULT_TOP_LEVEL_THRESHOLD, _require_number,
                                      positive=True)
    initial_cavity: CavityPrep = _key(CavityPrep.vacuum(), _parse_cavity)
    # optimizer
    j_min_ghz: float = _key(EXCHANGE_SOFT_MIN_GHZ, _require_number, positive=True)
    j_max_ghz: float = _key(EXCHANGE_SOFT_MAX_GHZ, _require_number, positive=True)
    refine: bool = _key(True, _require_bool)
    refine_tol: float = _key(1e-4, _require_number, positive=True)
    # sweep / output
    axes: tuple[tuple[str, tuple[float | int, ...]], ...] = _key((), _parse_axes)
    numeric: bool = _key(False, _require_bool)
    trajectory_out: str | None = _key(None, _require_path)
    out: str | None = _key(None, _require_path)
    format: str = _key("csv", _require_choice, allowed=FORMATS)
    seed: int = _key(0, _require_number, integer=True, nonnegative=True)
    jobs: int = _key(1, _require_number, integer=True, positive=True)

    def step_policy(self) -> StepPolicy:
        """The solver's time grid: dt_ps, clamped to [min_steps, max_steps]."""
        return StepPolicy(dt_ns=self.dt_ps * 1e-3, min_steps=self.min_steps,
                          max_steps=self.max_steps)

    def to_json_dict(self) -> dict:
        """Flat JSON-serializable echo of the resolved configuration."""
        cav = self.initial_cavity
        if cav.kind == "vacuum":
            cav_repr: Any = "vacuum"
        elif cav.kind == "coherent":
            cav_repr = {"kind": "coherent", "alpha": [cav.alpha.real, cav.alpha.imag]}
        else:
            cav_repr = {"kind": "thermal", "n_bar": cav.n_bar, "samples": cav.samples}
        out = {k: getattr(self, k) for k in _FIELDS if k not in ("initial_cavity", "axes")}
        out["initial_cavity"] = cav_repr
        out["axes"] = {name: list(values) for name, values in self.axes} or None
        return out


_FIELDS = {f.name: f for f in fields(RunConfig)}


def config_from_dict(data: dict, *, source: str = "<config>") -> RunConfig:
    """Validate a raw mapping and return a RunConfig with defaults applied.

    Each given value passes the rule of its RunConfig field, and every value
    of a sweep axis passes the rule of the scalar key. The checks that
    involve two keys, or narrow one key's rule, then run on the result.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")
    unknown = sorted(set(data) - set(_FIELDS))
    if unknown:
        raise ConfigError(
            f"{source}: unknown config keys: {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(_FIELDS))})"
        )
    parsed = {
        key: None if value is None and _FIELDS[key].default is None
        else _FIELDS[key].metadata["parse"](value, key)
        for key, value in data.items()
    }
    cfg = RunConfig(**parsed)

    if cfg.delta_sign not in (1, -1):
        raise ConfigError(f"delta_sign: expected +1 or -1, got {cfg.delta_sign}")
    if cfg.max_steps < cfg.min_steps:
        raise ConfigError(
            f"max_steps: must be >= min_steps ({cfg.min_steps}), got {cfg.max_steps}"
        )
    if cfg.j_max_ghz <= cfg.j_min_ghz:
        raise ConfigError(
            f"j_max_ghz: must exceed j_min_ghz ({cfg.j_min_ghz}), got {cfg.j_max_ghz}"
        )
    if cfg.n_ph is not None and cfg.n_ph < 2:
        raise ConfigError(f"n_ph: need at least 2 Fock levels, got {cfg.n_ph}")
    return cfg


def read_config_file(path: str) -> dict:
    """Read a config file into a raw dict (so callers can overlay overrides)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file {path}: not found") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path}: top level must be a JSON object")
    return data


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON config file; empty object = full defaults."""
    return config_from_dict(read_config_file(path), source=path)
