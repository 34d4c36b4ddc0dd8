"""Command-line pipeline: record -> fit-surrogate -> tune -> train-controller
-> simulate -> compare.

Every command reads one JSON experiment config, writes its outputs plus a
fully-resolved config echo into --out, and is deterministic given the config
bytes and seed. Exit codes: 0 success, 2 config/validation error,
3 numerical failure, 4 I/O or data-file error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .dataio import format_column, from_trajectory, generate_excitation, prbs_bits, \
    read_timeseries, resample_uniform, write_columns, write_csv, write_json, write_timeseries
from .errors import ConfigError, DataError, NumericalFailure
from .metrics import ComparisonTable, compare, compute_step_metrics
from .neuro import (
    GainScheduler, NeuralControlLoop, NeuralController,
    imitation_data_from_run, train_bptt, train_imitation, tune_static_ai,
)
from .nnet import Mlp, load_model, save_model
from .pid import PidController
from .safety import BlendedController, BoundedBlender, SupervisedController, SwitchSupervisor, \
    write_transition_log
from .simcore import ConstantController, SignalController, simulate
from .surrogate import NarxModel, fit_surrogate
from .tuning import (
    FopdtModel, identify_fopdt_step, relay_experiment, run_step_test, tune_cohen_coon,
    tune_kappa_tau, tune_ziegler_nichols, ultimate_from_fopdt,
)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo(cfg: dict, out: Path, command: str) -> None:
    write_json(out / f"{command}_config.json", cfg)


# ---------------------------------------------------------------------------
# record
# ---------------------------------------------------------------------------

def cmd_record(args) -> int:
    cfg = cfgmod.load_config(args.config, required=("sim", "plant", "excitation"))
    sim = cfgmod.sim_from(cfg, args.seed)
    plant = cfgmod.plant_from(cfg)
    exc = cfgmod.excitation_from(cfg)
    with cfgmod.section("excitation"):
        u = generate_excitation(exc, sim, limits=(plant.u_min, plant.u_max))
    traj = simulate(plant, SignalController(u), 0.0,
                    disturbance=cfgmod.disturbance_from(cfg),
                    sensor=cfgmod.sensor_from(cfg), cfg=sim)
    out = _out_dir(args)
    write_timeseries(from_trajectory(traj), out / "record.csv")
    _echo(cfg, out, "record")
    print(f"recorded {len(traj)} samples -> {out / 'record.csv'}")
    return 0


# ---------------------------------------------------------------------------
# fit-surrogate
# ---------------------------------------------------------------------------

def cmd_fit_surrogate(args) -> int:
    cfg = cfgmod.load_config(args.config, required=("sim",))
    sur = cfg["surrogate"]
    series = read_timeseries(args.data)
    with cfgmod.section("surrogate"):
        resampled = False
        if not series.is_uniform():
            series = resample_uniform(series, cfg["sim"]["dt"])
            resampled = True
        model, report = fit_surrogate(
            series, sur["p"], sur["q"], cfgmod.train_config_from(sur),
            hidden=tuple(sur["hidden"]), val_fraction=sur["val_fraction"], resampled=resampled,
        )
    out = _out_dir(args)
    save_model(model, out / "surrogate.weights")
    write_csv(out / "surrogate_report.csv", ["key", "value"], sorted(report.as_dict().items()))
    _echo(cfg, out, "fit-surrogate")
    for key, value in sorted(report.as_dict().items()):
        print(f"{key}: {value}")
    return 0


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------

def cmd_tune(args) -> int:
    cfg = cfgmod.load_config(args.config, required=("tuning",))
    sim = cfgmod.sim_from(cfg, args.seed)
    t = cfg["tuning"]
    limits = tuple(cfg["plant"]["limits"])

    with cfgmod.section("tuning"):
        if t["mode"] == "rule":
            model = None if t["fopdt"] is None else FopdtModel(**t["fopdt"])
            if t["rule"] == "ziegler-nichols":
                if model is not None:
                    up = ultimate_from_fopdt(model)
                else:
                    up = relay_experiment(cfgmod.plant_from(cfg), t["relay_amplitude"], sim)
                gains = tune_ziegler_nichols(up, t["kind"], limits)
            else:
                if model is None:
                    traj = run_step_test(cfgmod.plant_from(cfg), sim, u1=t["step_level"])
                    model = identify_fopdt_step(traj)
                rule = tune_cohen_coon if t["rule"] == "cohen-coon" else tune_kappa_tau
                gains = rule(model, limits)
            trace = []
        else:
            if not args.surrogate:
                raise ConfigError("AI tuning needs --surrogate <model>", "tuning.mode")
            narx = load_model(args.surrogate, NarxModel)
            count = t["episodes"]["count"]
            level = t["episodes"]["level"]
            n_steps = max(int(round(sim.horizon / narx.dt)), 2)
            episodes = [np.concatenate([np.zeros(2), np.full(n_steps, level * (i + 1) / count)])
                        for i in range(count)]
            result = tune_static_ai(
                narx, episodes,
                cfgmod.bounds_from(t["bounds"], "tuning.bounds"),
                budget=t["budget"], rho=t["rho"], seed=sim.seed, restarts=t["restarts"],
                x0=None if t["x0"] is None else np.array(t["x0"], dtype=float), limits=limits,
            )
            gains = result.gains
            trace = result.trace

    out = _out_dir(args)
    write_json(out / "gains.json", cfgmod.gains_to_dict(gains))
    if trace:
        write_csv(out / "tune_trace.csv", ["eval", "cost"], trace)
    _echo(cfg, out, "tune")
    print(f"kp={gains.kp!r} ki={gains.ki!r} kd={gains.kd!r} -> {out / 'gains.json'}")
    return 0


# ---------------------------------------------------------------------------
# train-controller
# ---------------------------------------------------------------------------

def _coverage_reference(sim, level: float, seed: int) -> np.ndarray:
    """Dataset-A style reference: piecewise-constant pseudo-random levels."""
    bits = prbs_bits(6, seed=seed)
    hold = max(int(round(sim.n_steps / len(bits))), 8)
    idx = (np.arange(sim.n_steps) // hold) % len(bits)
    return np.where(bits[idx] == 1, level, -level).astype(float)


def _teacher_runs(cfg, sim, limits):
    plant = cfgmod.plant_from(cfg)
    teacher_gains = cfgmod.resolve_gains(cfg["training"]["teacher"], limits, "training.teacher")
    dist = cfgmod.disturbance_from(cfg)
    sensor = cfgmod.sensor_from(cfg)
    count = cfg["training"]["episodes"]["count"]
    level = cfg["training"]["episodes"]["level"]
    runs_a, runs_b = [], []
    for i in range(count):
        cfg_i = type(sim)(dt=sim.dt, horizon=sim.horizon, seed=sim.seed + i)
        ref_a = _coverage_reference(cfg_i, level, seed=sim.seed + i + 1)
        runs_a.append(simulate(plant, PidController(teacher_gains), ref_a, cfg_i, dist, sensor))
        ref_b = level * (i + 1) / count
        runs_b.append(simulate(plant, PidController(teacher_gains), ref_b, cfg_i, dist, sensor))
    return runs_a, runs_b


def cmd_train_controller(args) -> int:
    cfg = cfgmod.load_config(args.config, required=("sim", "training"))
    sim = cfgmod.sim_from(cfg, args.seed)
    tr = cfg["training"]
    limits = tuple(cfg["plant"]["limits"])
    with cfgmod.section("training"):
        memory = tr["memory"]
        hidden = tr["hidden"]
        tc = cfgmod.train_config_from(tr)

        if tr["mode"] == "imitation":
            runs_a, runs_b = _teacher_runs(cfg, sim, limits)
            beta = tr["beta"]
            with_d = beta > 0.0
            aux = Mlp([hidden[-1], 1], seed=tc.seed + 1000) if with_d else None
            nc = NeuralController(Mlp([1 + 2 * memory, *hidden, 1], seed=tc.seed),
                                  u_min=limits[0], u_max=limits[1], memory=memory, aux=aux)
            result = train_imitation(nc, imitation_data_from_run(runs_a, memory, with_d),
                                     imitation_data_from_run(runs_b, memory, with_d),
                                     tr["lambda"], tc, aux_weight=beta)
            model, name = result.controller, "controller.weights"
            extras = {"mode": "imitation", "lambda": tr["lambda"], "beta": beta}
            curve = (["epoch", "train_loss", "val_rmse_a", "val_rmse_b"],
                     [(i, *row) for i, row in enumerate(result.history)])
            summary = f"val rmse A={result.val_rmse_a!r} B={result.val_rmse_b!r}"
        else:
            if not args.surrogate:
                raise ConfigError("bptt training needs --surrogate <model>", "training.mode")
            narx = load_model(args.surrogate, NarxModel)
            horizon = tr["horizon"]
            count = tr["episodes"]["count"]
            level = tr["episodes"]["level"]
            refs = [np.full(horizon + 1, level * (i + 1) / count) for i in range(count)]
            if tr["target"] == "controller":
                target = NeuralController(Mlp([1 + 2 * memory, *hidden, 1], seed=tc.seed),
                                          u_min=limits[0], u_max=limits[1], memory=memory)
            else:
                bounds = cfgmod.bounds_from(tr["bounds"], "training.bounds")
                target = GainScheduler(Mlp([2 * memory, *hidden, 3], seed=tc.seed),
                                       bounds=bounds, memory=memory)
            result = train_bptt(target, narx, refs, horizon, tc, rho=tr["rho"], limits=limits)
            model = result.trained
            name = "controller.weights" if tr["target"] == "controller" else "scheduler.weights"
            extras = {"mode": "bptt", "horizon": horizon, "rho": tr["rho"]}
            curve = (["epoch", "loss", "skipped"],
                     zip(range(len(result.history)), result.history, result.skipped))
            summary = f"final rollout loss {result.history[-1]!r}"
    out = _out_dir(args)
    save_model(model, out / name, extras=extras)
    write_csv(out / "training_curve.csv", *curve)
    print(f"{summary} -> {out / name}")
    _echo(cfg, out, "train-controller")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _correction_source(block: dict):
    if block["kind"] == "constant":
        return ConstantController(block["value"])
    if not block["model_path"]:
        raise ConfigError("neural correction needs model_path", "safety.correction.model_path")
    return NeuralControlLoop(load_model(block["model_path"], NeuralController))


def cmd_simulate(args) -> int:
    cfg = cfgmod.load_config(args.config, required=("sim", "plant", "controller"))
    if args.model:
        cfg["controller"]["model_path"] = args.model
    sim = cfgmod.sim_from(cfg, args.seed)
    plant = cfgmod.plant_from(cfg)
    limits = (plant.u_min, plant.u_max)
    controller = cfgmod.controller_from(cfg, plant)

    safety = cfg["safety"]
    supervisor = None
    blender = None
    with cfgmod.section("safety"):
        if safety["kind"] == "switch":
            fallback = PidController(cfgmod.resolve_gains(safety["fallback"], limits,
                                                          "safety.fallback"))
            supervisor = SwitchSupervisor(theta_hi=safety["theta_hi"], theta_lo=safety["theta_lo"],
                                          dwell=safety["dwell"], agree_tol=safety["agree_tol"])
            controller = SupervisedController(controller, fallback, supervisor, limits)
        elif safety["kind"] == "blend":
            blender = BoundedBlender(delta=safety["delta"])
            controller = BlendedController(controller, _correction_source(safety["correction"]),
                                           blender, limits)

    if cfg["reference"]["variant"] == "step":
        cfgmod.check_within_horizon(cfg, "reference", "time")
    traj = simulate(plant, controller, cfgmod.reference_from(cfg, sim),
                    disturbance=cfgmod.disturbance_from(cfg),
                    sensor=cfgmod.sensor_from(cfg), cfg=sim)

    out = _out_dir(args)
    cols = write_timeseries(from_trajectory(traj), out / "trajectory.csv")
    write_columns(out / "plot.csv", {"t": cols["t"], "w": cols["w"],
                                     "y": format_column(traj.y.tolist()), "u": cols["u"]})

    metrics = compute_step_metrics(traj, band=0.02)
    ComparisonTable([(cfg["controller"]["kind"], metrics)]).to_csv(out / "metrics.csv")

    if supervisor is not None:
        write_transition_log(supervisor.log, out / "transitions.csv")
    if blender is not None:
        steps = list(range(len(controller.u_trace)))
        write_columns(out / "blend.csv", {
            "step": format_column(steps), "time": format_column([k * sim.dt for k in steps]),
            "u_conv": format_column(controller.u_conv_trace), "u": format_column(controller.u_trace)})

    _echo(cfg, out, "simulate")
    settle = repr(metrics.settling_time_s) if metrics.settled else "not-settled"
    print(f"IAE={metrics.iae!r} overshoot%={metrics.overshoot_pct!r} settling={settle}")
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(args) -> int:
    paths = [Path(p) for p in args.trajectories]
    labels = [p.stem for p in paths]
    if len(set(labels)) != len(labels):
        labels = [str(p) for p in paths]
    table = compare(zip(labels, (read_timeseries(p) for p in paths)), band=args.band)

    out = _out_dir(args)
    table.to_csv(out / "comparison.csv")
    print(table.format_text())
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def finite_positive(text: str) -> float:
    """A finite number > 0 (argparse names this type when `float` fails)."""
    if not 0.0 < float(text) < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return float(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first `main` call; holds no command function, `main` looks those up."""
    parser = argparse.ArgumentParser(
        prog="loopbench",
        description="Closed-loop control workbench: record, model, tune, train, simulate, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", required=True, help="output directory")

    def seeded(p):
        """`common` plus `--seed`, for the commands that draw from `sim.seed`."""
        common(p)
        p.add_argument("--seed", type=int, default=None, help="override sim.seed")

    p = sub.add_parser("record", help="open-loop excitation run, recorded to CSV")
    seeded(p)

    p = sub.add_parser("fit-surrogate", help="train an empirical plant model from a recording")
    common(p)
    p.add_argument("--data", required=True, help="time-series CSV to fit")

    p = sub.add_parser("tune", help="classical rules or AI gain search")
    seeded(p)
    p.add_argument("--surrogate", default=None, help="surrogate model (ai mode)")

    p = sub.add_parser("train-controller", help="imitation or closed-loop (bptt) training")
    seeded(p)
    p.add_argument("--surrogate", default=None, help="surrogate model (bptt mode)")

    p = sub.add_parser("simulate", help="closed-loop run with the configured safety wrapper")
    seeded(p)
    p.add_argument("--model", default=None, help="override controller.model_path")

    p = sub.add_parser("compare", help="metrics table over recorded trajectories")
    p.add_argument("trajectories", nargs="+", help="trajectory CSV files")
    p.add_argument("--band", type=finite_positive, default=0.02, help="settling band fraction")
    common(p, config=False)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"record": cmd_record, "fit-surrogate": cmd_fit_surrogate, "tune": cmd_tune,
               "train-controller": cmd_train_controller, "simulate": cmd_simulate,
               "compare": cmd_compare}[args.command]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
