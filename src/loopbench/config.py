"""Experiment config: JSON schema, strict validation, default resolution,
and builders turning config sections into live objects.

Validation rejects unknown keys and reports the offending key path; every
command echoes the fully-resolved config (defaults filled) next to its
outputs, and that echo reproduces the run when fed back in.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

import numpy as np

from .dataio import ExcitationSpec, read_text, read_timeseries
from .errors import ConfigError
from .nnet import TrainConfig, load_model
from .pid import CascadeSpec, PidGains
from .simcore import (
    DisturbanceSpec, Fopdt, LinearStateSpace, PlantModel, SecondOrder, SensorSpec,
    SimConfig, TankNonlinear, step_reference,
)

# u_min/u_max of None mean "inherit the plant's actuator limits"
_GAIN_DEFAULTS = {
    "kp": 1.0, "ki": 0.0, "kd": 0.0, "structure": "pid",
    "u_min": None, "u_max": None, "filter_n": 10.0,
}

DEFAULTS = {
    "sim": {"dt": 0.01, "horizon": 10.0, "seed": 0},
    "plant": {
        "variant": "fopdt", "gain": 1.0, "tau": 1.0, "dead_time": 0.0,
        "omega_n": 1.0, "zeta": 1.0, "area": 1.0, "outflow_coeff": 1.0,
        "a": [[0.0]], "b": [1.0], "c": [[1.0]], "x0": None,
        "limits": [-1e9, 1e9],
    },
    "sensor": {"noise_std": 0.0, "sample_period": None, "quantization": 0.0},
    "disturbance": {
        "variant": "none", "injection": "input", "time": 0.0, "magnitude": 0.0,
        "std": 0.0, "amplitude": 0.0, "period": 1.0,
    },
    "excitation": {
        "variant": "prbs", "order": 7, "amplitude": 1.0, "bit_period": 1.0, "seed": 1,
        "levels": [0.0, 1.0], "dwell": 1.0, "f0": 0.1, "f1": 1.0, "duration": None,
    },
    "reference": {"variant": "step", "level": 1.0, "time": 0.0, "baseline": 0.0, "path": None},
    "controller": {
        "kind": "pid", "gains": dict(_GAIN_DEFAULTS), "gains_path": None,
        "outer": dict(_GAIN_DEFAULTS), "inner": dict(_GAIN_DEFAULTS),
        "outer_channel": 0, "inner_channel": 1,
        "model_path": None, "value": 0.0,
    },
    "safety": {
        "kind": "none", "theta_hi": 0.1, "theta_lo": 0.05, "dwell": 5, "agree_tol": None,
        "fallback": {"gains": dict(_GAIN_DEFAULTS), "gains_path": None},
        "delta": 0.1,
        "correction": {"kind": "constant", "value": 0.0, "model_path": None},
    },
    "tuning": {
        "mode": "rule", "rule": "ziegler-nichols", "kind": "pid", "fopdt": None,
        "relay_amplitude": 1.0, "step_level": 1.0,
        "bounds": {"kp": [0.01, 10.0], "ki": [0.0, 10.0], "kd": [0.0, 2.0]},
        "budget": 500, "rho": 0.01, "restarts": 2, "x0": None,
        "episodes": {"count": 1, "level": 1.0},
    },
    "surrogate": {
        "p": 2, "q": 2, "hidden": [32], "val_fraction": 0.25,
        "learning_rate": 0.01, "batch_size": 64, "epochs": 500, "patience": 100, "seed": 0,
    },
    "training": {
        "mode": "imitation", "target": "controller",
        "teacher": {"gains": dict(_GAIN_DEFAULTS), "gains_path": None},
        "memory": 4, "hidden": [16], "lambda": 0.5, "beta": 0.0,
        "horizon": 100, "rho": 0.01,
        "bounds": {"kp": [0.1, 5.0], "ki": [0.01, 5.0], "kd": [0.0, 0.0]},
        "learning_rate": 0.005, "batch_size": 64, "epochs": 400, "patience": 200, "seed": 7,
        "episodes": {"count": 2, "level": 1.0},
    },
}

_PLANT_VARIANTS = ("fopdt", "second_order", "tank", "linear")
_CONTROLLER_KINDS = ("pid", "cascade", "neural", "pid+scheduler", "constant")
_SAFETY_KINDS = ("none", "switch", "blend")


def _merge(defaults, given, path):
    """Fill defaults recursively; unknown keys are a validation error."""
    if not isinstance(given, dict):
        raise ConfigError("expected an object", path)
    out = {}
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown key {key!r}", f"{path}.{key}" if path else key)
    for key, default in defaults.items():
        child_path = f"{path}.{key}" if path else key
        if key in given:
            if isinstance(default, dict) and default:
                out[key] = _merge(default, given[key], child_path)
            else:
                _require(not _has_bool(given[key]), "no setting takes a boolean", child_path)
                out[key] = given[key]
        else:
            out[key] = json.loads(json.dumps(default))  # deep copy of the default
    return out


def _has_bool(value) -> bool:
    """Whether a JSON value is or holds a boolean: no leaf of `DEFAULTS` is one."""
    items = value.values() if isinstance(value, dict) else value if isinstance(value, list) else None
    return isinstance(value, bool) if items is None else any(map(_has_bool, items))


def resolve_config(raw: dict) -> dict:
    """Validate a raw config dict and fill every default."""
    cfg = _merge(DEFAULTS, raw, "")
    _check(cfg)
    return cfg


def load_raw_config(path) -> dict:
    try:
        text = read_text(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", str(path)) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object", str(path))
    return raw


def require_sections(raw: dict, names) -> None:
    """Commands demand their inputs be spelled out, not defaulted into existence."""
    for name in names:
        if name not in raw:
            raise ConfigError("required section is missing", name)


def load_config(path, required=()) -> dict:
    raw = load_raw_config(path)
    require_sections(raw, required)
    return resolve_config(raw)


def _require(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise ConfigError(message, path)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check(cfg: dict) -> None:
    sim = cfg["sim"]
    _require(isinstance(sim["seed"], int) and sim["seed"] >= 0, "seed must be a non-negative integer", "sim.seed")
    _require(_is_number(sim["dt"]) and sim["dt"] > 0, "dt must be a number > 0", "sim.dt")
    _require(_is_number(sim["horizon"]) and sim["horizon"] > 0, "horizon must be a number > 0", "sim.horizon")
    _require(cfg["plant"]["variant"] in _PLANT_VARIANTS,
             f"variant must be one of {_PLANT_VARIANTS}", "plant.variant")
    lim = cfg["plant"]["limits"]
    _require(isinstance(lim, list) and len(lim) == 2 and all(map(_is_number, lim)) and lim[0] < lim[1],
             "limits must be [lo, hi] with lo < hi", "plant.limits")
    _require(cfg["controller"]["kind"] in _CONTROLLER_KINDS,
             f"kind must be one of {_CONTROLLER_KINDS}", "controller.kind")
    _require(cfg["safety"]["kind"] in _SAFETY_KINDS,
             f"kind must be one of {_SAFETY_KINDS}", "safety.kind")
    _require(cfg["tuning"]["mode"] in ("rule", "ai"), "mode must be rule or ai", "tuning.mode")
    _require(cfg["tuning"]["rule"] in ("ziegler-nichols", "cohen-coon", "kappa-tau"),
             "unknown tuning rule", "tuning.rule")
    _require(cfg["training"]["mode"] in ("imitation", "bptt"),
             "mode must be imitation or bptt", "training.mode")
    _require(cfg["training"]["target"] in ("controller", "scheduler"),
             "target must be controller or scheduler", "training.target")
    lam = cfg["training"]["lambda"]
    _require(_is_number(lam) and 0.0 <= lam <= 1.0, "lambda must be a number in [0, 1]", "training.lambda")
    for name in ("tuning", "training"):
        level = cfg[name]["episodes"]["level"]
        _require(_is_number(level) and math.isfinite(level), "level must be a finite number",
                 f"{name}.episodes.level")
    _require(cfg["reference"]["variant"] in ("step", "profile"),
             "variant must be step or profile", "reference.variant")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

@contextmanager
def section(path: str):
    """Build the objects of config section `path`: a value they reject
    (AttributeError, LookupError, TypeError, ValueError, ArithmeticError)
    becomes a ConfigError naming the section."""
    try:
        yield
    except (AttributeError, LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(str(exc), path) from exc


def sim_from(cfg: dict, seed_override: int | None = None) -> SimConfig:
    sim = cfg["sim"]
    seed = seed_override if seed_override is not None else sim["seed"]
    with section("sim"):
        return SimConfig(dt=float(sim["dt"]), horizon=float(sim["horizon"]), seed=int(seed))


def plant_from(cfg: dict) -> PlantModel:
    p = cfg["plant"]
    with section("plant"):
        if p["variant"] == "fopdt":
            variant = Fopdt(gain=float(p["gain"]), tau=float(p["tau"]),
                            dead_time=float(p["dead_time"]))
        elif p["variant"] == "second_order":
            variant = SecondOrder(gain=float(p["gain"]), omega_n=float(p["omega_n"]),
                                  zeta=float(p["zeta"]))
        elif p["variant"] == "tank":
            variant = TankNonlinear(area=float(p["area"]), outflow_coeff=float(p["outflow_coeff"]))
        else:
            variant = LinearStateSpace(a=np.array(p["a"], dtype=float),
                                       b=np.array(p["b"], dtype=float),
                                       c=np.array(p["c"], dtype=float))
        x0 = None if p["x0"] is None else np.array(p["x0"], dtype=float)
        return PlantModel(variant, u_min=float(p["limits"][0]), u_max=float(p["limits"][1]), x0=x0)


def sensor_from(cfg: dict) -> SensorSpec:
    """The sensor, checked against the grid of `cfg`'s sim section."""
    s = cfg["sensor"]
    grid = sim_from(cfg)
    with section("sensor"):
        period = None if s["sample_period"] is None else float(s["sample_period"])
        spec = SensorSpec(noise_std=float(s["noise_std"]), sample_period=period,
                          quantization=float(s["quantization"]))
        spec.steps_per_sample(grid.dt)
    return spec


def disturbance_from(cfg: dict) -> DisturbanceSpec:
    """The disturbance, checked against the grid of `cfg`'s sim section."""
    d = cfg["disturbance"]
    grid = sim_from(cfg)
    with section("disturbance"):
        spec = DisturbanceSpec(variant=d["variant"], injection=d["injection"],
                               time=float(d["time"]), magnitude=float(d["magnitude"]),
                               std=float(d["std"]), amplitude=float(d["amplitude"]),
                               period=float(d["period"]))
        spec.check_grid(grid)
    return spec


def excitation_from(cfg: dict) -> ExcitationSpec:
    e = cfg["excitation"]
    with section("excitation"):
        return ExcitationSpec(
            variant=e["variant"], levels=tuple(e["levels"]), dwell=float(e["dwell"]),
            order=int(e["order"]), amplitude=float(e["amplitude"]),
            bit_period=float(e["bit_period"]), seed=int(e["seed"]),
            f0=float(e["f0"]), f1=float(e["f1"]),
            duration=None if e["duration"] is None else float(e["duration"]),
        )


def reference_from(cfg: dict):
    r = cfg["reference"]
    with section("reference"):
        if r["variant"] == "step":
            return step_reference(float(r["level"]), float(r["time"]), float(r["baseline"]))
        if not r["path"]:
            raise ConfigError("profile reference needs a path", "reference.path")
        profile = read_timeseries(r["path"])
    t_ref, w_ref = profile.t, profile.w
    return lambda t: float(np.interp(t, t_ref, w_ref))


def gains_from_dict(block: dict, path: str = "gains",
                    limits: tuple[float, float] | None = None) -> PidGains:
    """Gains from a JSON block; null output limits inherit `limits` (or none)."""
    fallback = limits if limits is not None else (-math.inf, math.inf)
    with section(path):
        u_min = fallback[0] if block.get("u_min") is None else float(block["u_min"])
        u_max = fallback[1] if block.get("u_max") is None else float(block["u_max"])
        return PidGains(
            kp=float(block["kp"]), ki=float(block["ki"]), kd=float(block["kd"]),
            structure=block["structure"], u_min=u_min, u_max=u_max,
            deriv_filter_n=float(block["filter_n"]),
        )


def gains_to_dict(gains: PidGains) -> dict:
    return {
        "kp": gains.kp, "ki": gains.ki, "kd": gains.kd, "structure": gains.structure,
        "u_min": gains.u_min if math.isfinite(gains.u_min) else None,
        "u_max": gains.u_max if math.isfinite(gains.u_max) else None,
        "filter_n": gains.deriv_filter_n,
    }


def load_gains_file(path, limits: tuple[float, float] | None = None) -> PidGains:
    try:
        block = json.loads(read_text(path))
    except (OSError, TypeError) as exc:
        raise ConfigError(f"cannot read gains file: {exc}", str(path)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid gains JSON: {exc}", str(path)) from exc
    return gains_from_dict(block, path=str(path), limits=limits)


def resolve_gains(block: dict, limits: tuple[float, float], path: str) -> PidGains:
    """Gains from an inline block or a gains_path file; null limits inherit the plant's."""
    if block.get("gains_path"):
        return load_gains_file(block["gains_path"], limits=limits)
    return gains_from_dict(block["gains"], path=f"{path}.gains", limits=limits)


def train_config_from(block: dict) -> TrainConfig:
    return TrainConfig(
        learning_rate=float(block["learning_rate"]), batch_size=int(block["batch_size"]),
        max_epochs=int(block["epochs"]), patience=int(block["patience"]),
        seed=int(block["seed"]),
    )


def bounds_from(block: dict, path: str) -> np.ndarray:
    with section(path):
        return np.array([block["kp"], block["ki"], block["kd"]], dtype=float)


def controller_from(cfg: dict, plant: PlantModel):
    """Instantiate the configured primary controller for `plant` (no safety
    wrapper)."""
    from .neuro import GainScheduler, NeuralControlLoop, NeuralController, ScheduledPidController
    from .pid import CascadeController, PidController
    from .simcore import ConstantController

    c = cfg["controller"]
    kind = c["kind"]
    limits = (plant.u_min, plant.u_max)
    with section("controller"):
        if kind == "pid":
            return PidController(resolve_gains(c, limits, "controller"))
        if kind == "cascade":
            outer = gains_from_dict(c["outer"], "controller.outer", limits=limits)
            inner = gains_from_dict(c["inner"], "controller.inner", limits=limits)
            channels = int(c["outer_channel"]), int(c["inner_channel"])
            if not all(0 <= ch < plant.n_outputs for ch in channels):
                raise ValueError(f"cascade channels must index the plant's {plant.n_outputs} "
                                 f"outputs, got {channels}")
            return CascadeController(CascadeSpec(outer, inner, *channels))
        if kind == "constant":
            return ConstantController(float(c["value"]))
        if not c["model_path"]:
            raise ConfigError(f"{kind} controller needs model_path", "controller.model_path")
        if kind == "neural":
            return NeuralControlLoop(load_model(c["model_path"], NeuralController))
        gs = load_model(c["model_path"], GainScheduler)
        template = PidGains(kp=1.0, u_min=limits[0], u_max=limits[1])
        return ScheduledPidController(gs, template)
