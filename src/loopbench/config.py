"""Experiment config: JSON schema, strict validation, default resolution,
and builders turning config sections into live objects.

Validation rejects unknown keys and values of the wrong kind (each leaf's
kind comes from its default) and reports the offending key path; every
command echoes the fully-resolved config (defaults filled) next to its
outputs, and that echo reproduces the run when fed back in.
"""

from __future__ import annotations

import copy
import functools
import math
from contextlib import contextmanager

import numpy as np

from .dataio import ExcitationSpec, parse_json, read_text, read_timeseries
from .errors import ConfigError, ParseError
from .neuro import MAX_HORIZON
from .nnet import TrainConfig, load_model
from .pid import CascadeSpec, PidGains
from .simcore import (
    DisturbanceSpec, Fopdt, LinearStateSpace, PlantModel, SecondOrder, SensorSpec,
    SimConfig, TankNonlinear,
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

# the allowed values of the string leaves that no dataclass checks
_ENUMS = {
    "plant.variant": ("fopdt", "second_order", "tank", "linear"),
    "controller.kind": ("pid", "cascade", "neural", "pid+scheduler", "constant"),
    "safety.kind": ("none", "switch", "blend"),
    "safety.correction.kind": ("constant", "neural"),
    "tuning.mode": ("rule", "ai"),
    "tuning.rule": ("ziegler-nichols", "cohen-coon", "kappa-tau"),
    "training.mode": ("imitation", "bptt"),
    "training.target": ("controller", "scheduler"),
    "reference.variant": ("step", "profile"),
}

# the kind of each leaf whose default is null, by the leaf's own name; a
# block's values are no defaults, so a supplied block gives every key
_NULLABLE = {
    "u_min": 0.0, "u_max": 0.0, "sample_period": 0.0, "duration": 0.0, "agree_tol": 0.0,
    "x0": [0.0], "path": "", "gains_path": "", "model_path": "",
    "fopdt": {"gain": 0.0, "tau": 0.0, "dead_time": 0.0},
}


def _merge(defaults, given, path, required=False):
    """Fill defaults recursively, checking each given value against the kind of
    its default; unknown keys, and with `required` missing ones, are errors."""
    _require(isinstance(given, dict), "expected an object", path)
    for key in given:
        _require(key in defaults, f"unknown key {key!r}", f"{path}.{key}" if path else key)
    out = {}
    for key, default in defaults.items():
        child_path = f"{path}.{key}" if path else key
        if key not in given:
            _require(not required, "missing key", child_path)
            out[key] = copy.deepcopy(default)
        elif default is None and given[key] is None:
            out[key] = None
        else:
            kind = _NULLABLE[key] if default is None else default
            out[key] = _leaf(kind, given[key], child_path, required=default is None)
    return out


def _leaf(kind, value, path, required=False):
    """`value` checked against `kind`, a default or a `_NULLABLE` prototype: a
    float takes any number (stored as a float), an int an integer, a str a
    string (one of `_ENUMS` where listed), a list a list of items of its first
    item's kind and a dict a merged block."""
    _require(not isinstance(value, bool), "no setting takes a boolean", path)
    if path in _ENUMS:
        _require(value in _ENUMS[path], f"must be one of {_ENUMS[path]}", path)
        return value
    if isinstance(kind, dict):
        return _merge(kind, value, path, required)
    if isinstance(kind, list):
        _require(isinstance(value, list), "expected a list", path)
        return [_leaf(kind[0], item, path) for item in value]
    if isinstance(kind, str):
        _require(isinstance(value, str), "expected a string", path)
        return value
    if isinstance(kind, int):
        _require(isinstance(value, int), "expected an integer", path)
        return value
    _require(isinstance(value, (int, float)), "expected a number", path)
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError("number out of range", path) from exc


def resolve_config(raw: dict) -> dict:
    """Validate a raw config dict and fill every default."""
    cfg = _merge(DEFAULTS, raw, "")
    _check(cfg)
    return cfg


def _read_json(path, what: str):
    """The JSON value of file `path`; a file that cannot be read or parsed is a
    ConfigError (a byte that is not UTF-8 stays `read_text`'s ParseError)."""
    try:
        text = read_text(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}", str(path)) from exc
    try:
        return parse_json(text, path)
    except ParseError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path, required) -> dict:
    """Read, parse and resolve a config file. Commands demand their `required`
    sections be spelled out, not defaulted into existence."""
    raw = _read_json(path, "config")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object", str(path))
    for name in required:
        if name not in raw:
            raise ConfigError("required section is missing", name)
    return resolve_config(raw)


def _require(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise ConfigError(message, path)


def _check_seed(seed: int) -> None:
    _require(seed >= 0, "seed must be a non-negative integer", "sim.seed")


def check_within_horizon(cfg: dict, section: str, key: str) -> None:
    """A period or duration longer than the run is refused, naming its key."""
    value, horizon = cfg[section][key], cfg["sim"]["horizon"]
    _require(value is None or value <= horizon,
             f"{key} must not exceed sim.horizon = {horizon!r}", f"{section}.{key}")


def _check(cfg: dict) -> None:
    """The range checks that name a key; `_merge` has checked every kind.
    They cover every section, whichever command reads it, so that a refused
    value stops a run before it writes anything."""
    sim = cfg["sim"]
    _check_seed(sim["seed"])
    _require(sim["dt"] > 0, "dt must be a number > 0", "sim.dt")
    _require(sim["horizon"] > 0, "horizon must be a number > 0", "sim.horizon")
    lim = cfg["plant"]["limits"]
    _require(len(lim) == 2 and lim[0] < lim[1], "limits must be [lo, hi] with lo < hi",
             "plant.limits")
    lam = cfg["training"]["lambda"]
    _require(0.0 <= lam <= 1.0, "lambda must be a number in [0, 1]", "training.lambda")
    for key in ("training.episodes.count", "tuning.episodes.count", "surrogate.epochs",
                "training.epochs", "tuning.restarts", "tuning.budget", "training.batch_size",
                "surrogate.batch_size", "training.memory"):
        value = functools.reduce(dict.__getitem__, key.split("."), cfg)
        _require(value >= 1, f"{key.rsplit('.', 1)[1]} must be an integer >= 1", key)
    _require(0 <= cfg["training"]["horizon"] <= MAX_HORIZON,
             f"horizon must be an integer in [0, {MAX_HORIZON}]", "training.horizon")
    x0 = cfg["tuning"]["x0"]
    _require(x0 is None or len(x0) == 3, "x0 must be null or three numbers [kp, ki, kd]",
             "tuning.x0")


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
    """The grid of `cfg`'s sim section; `seed_override` (a `--seed`), when
    given, is range-checked and replaces `sim.seed` in `cfg` itself, so that
    the config echo reruns the run."""
    sim = cfg["sim"]
    if seed_override is not None:
        _check_seed(seed_override)
        sim["seed"] = seed_override
    with section("sim"):
        return SimConfig(dt=sim["dt"], horizon=sim["horizon"], seed=sim["seed"])


def plant_from(cfg: dict) -> PlantModel:
    p = cfg["plant"]
    with section("plant"):
        if p["variant"] == "fopdt":
            variant = Fopdt(gain=p["gain"], tau=p["tau"], dead_time=p["dead_time"])
        elif p["variant"] == "second_order":
            variant = SecondOrder(gain=p["gain"], omega_n=p["omega_n"], zeta=p["zeta"])
        elif p["variant"] == "tank":
            variant = TankNonlinear(area=p["area"], outflow_coeff=p["outflow_coeff"])
        else:
            variant = LinearStateSpace(a=np.array(p["a"], dtype=float),
                                       b=np.array(p["b"], dtype=float),
                                       c=np.array(p["c"], dtype=float))
        x0 = None if p["x0"] is None else np.array(p["x0"], dtype=float)
        return PlantModel(variant, u_min=p["limits"][0], u_max=p["limits"][1], x0=x0)


def sensor_from(cfg: dict) -> SensorSpec:
    """The sensor, checked against the grid of `cfg`'s sim section."""
    s = cfg["sensor"]
    grid = sim_from(cfg)
    check_within_horizon(cfg, "sensor", "sample_period")
    with section("sensor"):
        spec = SensorSpec(noise_std=s["noise_std"], sample_period=s["sample_period"],
                          quantization=s["quantization"])
        spec.steps_per_sample(grid.dt)
    return spec


def disturbance_from(cfg: dict) -> DisturbanceSpec:
    """The disturbance, checked against the grid of `cfg`'s sim section."""
    d = cfg["disturbance"]
    grid = sim_from(cfg)
    with section("disturbance"):
        spec = DisturbanceSpec(variant=d["variant"], injection=d["injection"], time=d["time"],
                               magnitude=d["magnitude"], std=d["std"],
                               amplitude=d["amplitude"], period=d["period"])
        spec.check_grid(grid)
    return spec


# the excitation key each variant reads that must fit in `sim.horizon`
_WITHIN_HORIZON = {"prbs": "bit_period", "chirp": "duration", "step_train": "dwell"}


def excitation_from(cfg: dict) -> ExcitationSpec:
    """The excitation; its variant's bit period, chirp duration or step
    train dwell is checked against `sim.horizon`."""
    e = cfg["excitation"]
    if e["variant"] in _WITHIN_HORIZON:
        check_within_horizon(cfg, "excitation", _WITHIN_HORIZON[e["variant"]])
    with section("excitation"):
        return ExcitationSpec(
            variant=e["variant"], levels=tuple(e["levels"]), dwell=e["dwell"],
            order=e["order"], amplitude=e["amplitude"], bit_period=e["bit_period"],
            seed=e["seed"], f0=e["f0"], f1=e["f1"], duration=e["duration"],
        )


def reference_from(cfg: dict, sim: SimConfig) -> np.ndarray:
    """The reference on the grid of `sim`: a step from `baseline` to `level`
    at `time`, or a recorded profile interpolated linearly and held beyond
    its ends."""
    r = cfg["reference"]
    t = sim.time_grid()
    if r["variant"] == "step":
        return np.where(t >= r["time"], r["level"], r["baseline"])
    if not r["path"]:
        raise ConfigError("profile reference needs a path", "reference.path")
    with section("reference"):
        profile = read_timeseries(r["path"])
    return np.interp(t, profile.t, profile.w)


def gains_from_dict(block: dict, path: str, limits: tuple[float, float]) -> PidGains:
    """Gains from a JSON block; null output limits inherit `limits`."""
    with section(path):
        return PidGains(
            kp=block["kp"], ki=block["ki"], kd=block["kd"], structure=block["structure"],
            u_min=limits[0] if block["u_min"] is None else block["u_min"],
            u_max=limits[1] if block["u_max"] is None else block["u_max"],
            deriv_filter_n=block["filter_n"],
        )


def gains_to_dict(gains: PidGains) -> dict:
    return {
        "kp": gains.kp, "ki": gains.ki, "kd": gains.kd, "structure": gains.structure,
        "u_min": gains.u_min if math.isfinite(gains.u_min) else None,
        "u_max": gains.u_max if math.isfinite(gains.u_max) else None,
        "filter_n": gains.deriv_filter_n,
    }


def load_gains_file(path, limits: tuple[float, float]) -> PidGains:
    return gains_from_dict(_merge(_GAIN_DEFAULTS, _read_json(path, "gains file"), str(path)),
                           path=str(path), limits=limits)


def resolve_gains(block: dict, limits: tuple[float, float], path: str) -> PidGains:
    """Gains from an inline block or a gains_path file; null limits inherit the plant's."""
    if block["gains_path"]:
        return load_gains_file(block["gains_path"], limits=limits)
    return gains_from_dict(block["gains"], path=f"{path}.gains", limits=limits)


def train_config_from(block: dict) -> TrainConfig:
    return TrainConfig(
        learning_rate=block["learning_rate"], batch_size=block["batch_size"],
        max_epochs=block["epochs"], patience=block["patience"], seed=block["seed"],
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
            channels = c["outer_channel"], c["inner_channel"]
            if not all(0 <= ch < plant.n_outputs for ch in channels):
                raise ValueError(f"cascade channels must index the plant's {plant.n_outputs} "
                                 f"outputs, got {channels}")
            return CascadeController(CascadeSpec(outer, inner, *channels))
        if kind == "constant":
            return ConstantController(c["value"])
        if not c["model_path"]:
            raise ConfigError(f"{kind} controller needs model_path", "controller.model_path")
        if kind == "neural":
            return NeuralControlLoop(load_model(c["model_path"], NeuralController))
        gs = load_model(c["model_path"], GainScheduler)
        template = PidGains(kp=1.0, u_min=limits[0], u_max=limits[1])
        return ScheduledPidController(gs, template)
