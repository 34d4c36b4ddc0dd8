"""Golden digests of closed-loop, training and pipeline runs: the referee
for byte-identical refactors.

Each case runs `simulate` (or a command built on it) from fixed seeds and
reduces the result to a sha256 of its float64 bytes. The training cases
digest trained weights and the files the training commands write, and
`pipeline/ac12` the nine files of the AC-12 pipeline. The closed-loop digests
in `tests/golden/digests.json` were captured before the float-state fast
path landed, the training and pipeline digests before the networks moved
onto one parameter vector, `tune/ai-q1` before per-step surrogate
prediction moved onto Python-float lag windows, the `cli/*` cases before
every output file moved onto the `dataio` writers, `cli/linear2-cascade`
before linear plants moved onto float state and trajectory files were
formatted by column, `tune/ai-corner` before the AI search moved its
episodes onto one stacked surrogate pass per step, `cli/simulate-profile`
before a profile reference became one `np.interp` over the grid, and
`linear_dense/pid` before `simulate` bound the controller's `step` and the
delay line's `push_pop` once per run, and `tune/ai-one-episode` and
`train/bptt-one-episode` before a one-row pass and a stacked pass became
one binder. Declared
changes rewrote the imitation digests when an epoch's batch rows came to be
drawn at once, and `train/bptt-controller` and `train/bptt-scheduler` when
an epoch's BPTT gradients came to be taken at its start weights; a change
that moves any output bit fails here and must be declared as a behaviour
change. Regenerate with

    PYTHONPATH=src python tests/test_golden.py --write

only as part of such a declared change.
"""

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from loopbench.cli import main as cli_main
from loopbench.errors import ControllerFault, SimulationDiverged
from loopbench.neuro import GainScheduler, NeuralControlLoop, NeuralController, ScheduledPidController
from loopbench.nnet import Mlp
from loopbench.pid import CascadeController, CascadeSpec, PidController, PidGains
from loopbench.safety import BlendedController, BoundedBlender, SupervisedController, SwitchSupervisor
from loopbench.simcore import (
    ConstantController, DisturbanceSpec, Fopdt, LinearStateSpace, PlantModel, SecondOrder,
    SensorSpec, SimConfig, TankNonlinear, simulate,
)
from loopbench.tuning import identify_fopdt_step, relay_experiment, run_step_test
from test_acceptance import AC12_FILES, ac12_pipeline

GOLDEN = Path(__file__).parent / "golden" / "digests.json"

CFG = SimConfig(dt=0.01, horizon=4.0, seed=5)
REFERENCE = np.where(CFG.time_grid() >= 0.2, 1.0, 0.0)

# plant, sensor, disturbance and optional gain schedule per plant variant;
# between them they cover noise, quantization, sample-and-hold, every
# disturbance variant at both injection points, a non-zero x0 and a gain change
PLANTS = {
    "fopdt": (PlantModel(Fopdt(gain=1.5, tau=0.8, dead_time=0.15), u_min=-3.0, u_max=3.0, x0=None),
              SensorSpec(noise_std=0.02, quantization=0.005),
              DisturbanceSpec("step", "input", time=2.0, magnitude=0.3), None),
    "second_order": (PlantModel(SecondOrder(gain=1.0, omega_n=2.0, zeta=0.4), u_min=-4.0, u_max=4.0,
                                x0=None),
                     SensorSpec(noise_std=0.01, sample_period=0.02),
                     DisturbanceSpec("sinusoid", "input", amplitude=0.2, period=1.5), None),
    "tank": (PlantModel(TankNonlinear(area=1.2, outflow_coeff=0.8), u_min=0.0, u_max=3.0, x0=[0.3]),
             SensorSpec(quantization=0.01),
             DisturbanceSpec("gaussian", "output", std=0.01), None),
    "linear": (PlantModel(LinearStateSpace(a=[[0.0, 1.0], [-2.0, -0.7]], b=[0.0, 2.0], c=[[1.0, 0.0]]),
                          u_min=-5.0, u_max=5.0, x0=None),
               SensorSpec(noise_std=0.01),
               DisturbanceSpec("step", "output", time=2.0, magnitude=0.2),
               lambda t: 1.0 if t < 2.5 else 2.0),
    "linear2": (PlantModel(LinearStateSpace(a=[[-0.5, 0.5], [0.0, -3.0]], b=[0.0, 3.0],
                                            c=[[1.0, 0.0], [0.0, 1.0]]), u_min=-5.0, u_max=5.0,
                           x0=None),
                SensorSpec(noise_std=0.01, sample_period=0.03),
                DisturbanceSpec("step", "input", time=1.0, magnitude=-0.4), None),
}

# a linear plant with no zero in A or C: the matrices above give the same
# bits from every OpenBLAS core, this one's digest moves with the core
# (it differs under OPENBLAS_CORETYPE=Haswell and under Prescott)
LINEAR_DENSE = (PlantModel(LinearStateSpace(a=[[-0.37, 0.91], [-1.24, -0.83]], b=[0.45, 1.3],
                                            c=[[0.62, -0.29]]), u_min=-6.0, u_max=6.0,
                           x0=[0.17, -0.08]),
                SensorSpec(noise_std=0.01),
                DisturbanceSpec("step", "input", time=2.0, magnitude=0.25), None)


def _pid(limits):
    return PidController(PidGains(kp=1.2, ki=0.8, kd=0.05, u_min=limits[0], u_max=limits[1]))


def _cascade(limits):
    return CascadeController(CascadeSpec(
        outer=PidGains(kp=1.5, ki=0.5, u_min=limits[0], u_max=limits[1]),
        inner=PidGains(kp=2.0, ki=1.0, u_min=limits[0], u_max=limits[1])))


def _neural(limits):
    return NeuralControlLoop(NeuralController(Mlp([9, 12, 1], seed=3), limits[0], limits[1], memory=4))


def _scheduled(limits):
    gs = GainScheduler(Mlp([8, 8, 3], seed=5), bounds=[[0.2, 2.0], [0.1, 1.0], [0.0, 0.1]], memory=4)
    return ScheduledPidController(gs, PidGains(kp=1.0, u_min=limits[0], u_max=limits[1]))


def _switch(limits):
    sup = SwitchSupervisor(theta_hi=0.3, theta_lo=0.1, dwell=5, agree_tol=None)
    return SupervisedController(_neural(limits), _pid(limits), sup, limits)


def _blend(conventional):
    return lambda limits: BlendedController(conventional(limits), _neural(limits),
                                            BoundedBlender(delta=0.2), limits)


# controller kinds per plant: the single-output plants take a PID where the
# multi-output plant (cascade set-up) takes the cascade
KINDS = {"pid": _pid, "neural": _neural, "pid+scheduler": _scheduled, "switch": _switch,
         "blend": _blend(_pid)}
KINDS_MULTI = {"cascade": _cascade, "neural": _neural, "pid+scheduler": _scheduled,
               "switch": _switch, "blend": _blend(_cascade)}


def _digest(*parts) -> str:
    """sha256 over raw bytes, text, and numbers as little-endian float64."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        elif isinstance(part, str):
            h.update(part.encode())
        else:
            h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
    return h.hexdigest()


def _traj_digest(traj, *extra) -> str:
    return _digest(traj.t, traj.w, traj.y, traj.y_meas, traj.u, traj.d,
                   np.zeros(0) if traj.y_extra is None else traj.y_extra, *extra)


def _loop_case(spec, build):
    def run(tmp):
        plant, sensor, dist, schedule = spec
        ctl = build((plant.u_min, plant.u_max))
        traj = simulate(plant, ctl, REFERENCE, CFG, dist, sensor, gain_schedule=schedule)
        extra = []
        if isinstance(ctl, SupervisedController):
            extra = [",".join(ctl.modes),
                     ";".join(f"{e.step},{e.direction},{e.cause}" for e in ctl.supervisor.log),
                     [e.time for e in ctl.supervisor.log]]
        elif isinstance(ctl, BlendedController):
            extra = [ctl.u_conv_trace, ";".join(f"{e.step},{e.cause}" for e in ctl.blender.absorb_log)]
        elif isinstance(ctl, ScheduledPidController):
            extra = [ctl.gain_trace]
        return _traj_digest(traj, *extra)
    return run


def _failure_case(variant, controller):
    """The exception a run ends in, with its step: pins every loop check."""
    def run(tmp):
        plant = PlantModel(variant, u_min=-math.inf, u_max=math.inf, x0=None)
        try:
            simulate(plant, controller, 1.0, cfg=SimConfig(dt=0.01, horizon=1.0, seed=0))
        except (SimulationDiverged, ControllerFault) as exc:
            return f"{type(exc).__name__}: {exc} step={getattr(exc, 'step', None)}"
        return "completed"
    return run


def _record(tmp):
    cfg = {"sim": {"dt": 0.05, "horizon": 30.0, "seed": 9},
           "plant": {"variant": "tank", "area": 0.9, "outflow_coeff": 0.6, "limits": [-1.0, 2.0]},
           "sensor": {"noise_std": 0.005, "quantization": 0.001},
           "disturbance": {"variant": "gaussian", "injection": "input", "std": 0.02},
           "excitation": {"variant": "prbs", "order": 6, "amplitude": 0.8, "bit_period": 0.5,
                          "seed": 4}}
    path = Path(tmp) / "record.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli_main(["record", "--config", str(path), "--out", str(Path(tmp) / "rec")]) == 0
    return _digest((Path(tmp) / "rec" / "record.csv").read_bytes())


def _relay(tmp):
    plant = PlantModel(Fopdt(gain=1.0, tau=1.0, dead_time=0.3), u_min=-2.0, u_max=2.0, x0=None)
    up = relay_experiment(plant, 1.0, SimConfig(dt=0.01, horizon=30.0, seed=0))
    return _digest([up.ku, up.pu])


def _step_test(variant):
    def run(tmp):
        plant = PlantModel(variant, u_min=-math.inf, u_max=math.inf, x0=None)
        traj = run_step_test(plant, SimConfig(dt=0.01, horizon=20.0, seed=0), u1=0.8)
        model = identify_fopdt_step(traj)
        return _traj_digest(traj, [model.gain, model.tau, model.dead_time])
    return run


# --- training: small configs through the CLI, digests of the files written ---

TRAIN_PLANT = {"variant": "fopdt", "gain": 1.0, "tau": 1.0, "dead_time": 0.5, "limits": [-3.0, 3.0]}


def _cli(tmp, name, command, cfg, *extra):
    path = Path(tmp) / f"{name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = Path(tmp) / name
    assert cli_main([command, "--config", str(path), "--out", str(out), *extra]) == 0
    return out


def _files_digest(out, *names):
    return _digest(*[part for name in names for part in (name, (Path(out) / name).read_bytes())])


def _surrogate(tmp, q=2):
    """A small NARX surrogate fitted on a PRBS record; returns its output dir."""
    cfg = {"sim": {"dt": 0.5, "horizon": 100.0, "seed": 11}, "plant": TRAIN_PLANT,
           "excitation": {"variant": "prbs", "order": 6, "amplitude": 1.0, "bit_period": 1.0,
                          "seed": 2},
           "surrogate": {"p": 2, "q": q, "hidden": [8, 6], "epochs": 25, "patience": 25,
                         "batch_size": 16}}
    rec = _cli(tmp, "rec", "record", cfg)
    return _cli(tmp, "sur", "fit-surrogate", cfg, "--data", str(rec / "record.csv"))


def _fit_surrogate(tmp):
    return _files_digest(_surrogate(tmp), "surrogate.weights", "surrogate.weights.meta.json",
                         "surrogate_report.csv")


def _imitation(hidden, beta):
    def run(tmp):
        cfg = {"sim": {"dt": 0.05, "horizon": 8.0, "seed": 11}, "plant": TRAIN_PLANT,
               "disturbance": {"variant": "step", "injection": "input", "time": 4.0,
                               "magnitude": 0.3},
               "training": {"mode": "imitation", "teacher": {"gains": {"kp": 1.5, "ki": 1.0}},
                            "memory": 3, "hidden": hidden, "lambda": 0.5, "beta": beta,
                            "learning_rate": 0.01, "batch_size": 32, "epochs": 6,
                            "patience": 6, "seed": 7, "episodes": {"count": 2, "level": 1.0}}}
        out = _cli(tmp, "im", "train-controller", cfg)
        meta = json.loads((out / "controller.weights.meta.json").read_text(encoding="utf-8"))
        assert ("aux_w" in meta) == (beta > 0.0)
        return _files_digest(out, "controller.weights", "controller.weights.meta.json",
                             "training_curve.csv")
    return run


def _bptt(target, count):
    def run(tmp):
        sur = _surrogate(tmp)
        cfg = {"sim": {"dt": 0.5, "horizon": 10.0, "seed": 11}, "plant": TRAIN_PLANT,
               "training": {"mode": "bptt", "target": target, "memory": 3, "hidden": [6, 5],
                            "horizon": 15, "rho": 0.01, "learning_rate": 0.01, "epochs": 3,
                            "seed": 7, "episodes": {"count": count, "level": 1.0}}}
        out = _cli(tmp, "bptt", "train-controller", cfg,
                   "--surrogate", str(sur / "surrogate.weights"))
        name = "controller.weights" if target == "controller" else "scheduler.weights"
        return _files_digest(out, name, name + ".meta.json", "training_curve.csv")
    return run


def _bptt_one_episode(tmp):
    """Both BPTT targets trained on one reference, so every pass runs one row."""
    digests = []
    for target in ("controller", "scheduler"):
        (Path(tmp) / target).mkdir()
        digests.append(_bptt(target, 1)(Path(tmp) / target))
    return _digest(*digests)


def _tune_ai(q, count):
    """AI tuning over a p = 2 surrogate on `count` episodes; q = 1 leaves the
    older-input window empty."""
    def run(tmp):
        sur = _surrogate(tmp, q)
        cfg = {"sim": {"dt": 0.5, "horizon": 15.0, "seed": 11}, "plant": TRAIN_PLANT,
               "tuning": {"mode": "ai", "budget": 40, "restarts": 2,
                          "episodes": {"count": count, "level": 1.0}}}
        out = _cli(tmp, "tuned", "tune", cfg, "--surrogate", str(sur / "surrogate.weights"))
        return _files_digest(out, "gains.json", "tune_trace.csv")
    return run


def _tune_ai_corner(tmp):
    """AI tuning whose optimum is the corner (2, 2, 0) of the perfbench `tuning`
    workload's bounds: once the simplex steps outside the box, clipped points
    are evaluated again, so the trace repeats a cost value."""
    plant = {"variant": "fopdt", "gain": 1.0, "tau": 1.0, "dead_time": 0.25,
             "limits": [-3.0, 3.0]}
    cfg = {"sim": {"dt": 0.1, "horizon": 300.0, "seed": 11}, "plant": plant,
           "sensor": {"noise_std": 0.002},
           "excitation": {"variant": "prbs", "order": 8, "amplitude": 1.0, "bit_period": 1.0,
                          "seed": 1},
           "surrogate": {"p": 2, "q": 4, "hidden": [16], "epochs": 10, "patience": 10,
                         "batch_size": 64, "learning_rate": 0.01, "seed": 0}}
    rec = _cli(tmp, "rec", "record", cfg)
    sur = _cli(tmp, "sur", "fit-surrogate", cfg, "--data", str(rec / "record.csv"))
    cfg = {"sim": {"dt": 0.1, "horizon": 20.0, "seed": 11}, "plant": plant,
           "tuning": {"mode": "ai", "budget": 30, "restarts": 2, "rho": 0.01,
                      "bounds": {"kp": [0.1, 2.0], "ki": [0.05, 2.0], "kd": [0.0, 0.2]},
                      "episodes": {"count": 3, "level": 1.0}}}
    out = _cli(tmp, "tuned", "tune", cfg, "--surrogate", str(sur / "surrogate.weights"))
    gains = json.loads((out / "gains.json").read_text(encoding="utf-8"))
    assert (gains["kp"], gains["ki"], gains["kd"]) == (2.0, 2.0, 0.0)
    costs = [line.split(",")[1] for line in
             (out / "tune_trace.csv").read_text(encoding="utf-8").splitlines()[1:]]
    assert len(costs) == 30 and len(set(costs)) < len(costs)
    return _files_digest(out, "gains.json", "tune_trace.csv")


def _pipeline_ac12(tmp):
    return _files_digest(ac12_pipeline(Path(tmp), "ac12"), *AC12_FILES)


# --- CLI output files no case above digests: the safety-wrapper logs, the
# comparison table, a rule-mode gains file and every command's config echo ---

SIM_CFG = {"sim": {"dt": 0.02, "horizon": 6.0, "seed": 5},
           "plant": {"variant": "fopdt", "gain": 1.5, "tau": 0.8, "dead_time": 0.15,
                     "limits": [-3.0, 3.0]},
           "sensor": {"noise_std": 0.02, "quantization": 0.005},
           "disturbance": {"variant": "step", "injection": "input", "time": 3.0,
                           "magnitude": 0.3},
           "reference": {"variant": "step", "level": 1.0, "time": 0.2}}
SWITCH = {"controller": {"kind": "constant", "value": 0.4},
          "safety": {"kind": "switch", "theta_hi": 0.1, "theta_lo": 0.05, "dwell": 5,
                     "fallback": {"gains": {"kp": 1.2, "ki": 0.8, "kd": 0.05}}}}
BLEND = {"controller": {"kind": "pid", "gains": {"kp": 1.2, "ki": 0.8, "kd": 0.05}},
         "safety": {"kind": "blend", "delta": 0.1,
                    "correction": {"kind": "constant", "value": 0.3}}}


def _simulate_cli(tmp, name, wrapper):
    return _cli(tmp, name, "simulate", {**SIM_CFG, **wrapper})


def _switch_cli(tmp):
    out = _simulate_cli(tmp, "switch", SWITCH)
    assert len((out / "transitions.csv").read_text(encoding="utf-8").splitlines()) > 2
    return _files_digest(out, "trajectory.csv", "plot.csv", "metrics.csv", "transitions.csv",
                         "simulate_config.json")


def _blend_cli(tmp):
    return _files_digest(_simulate_cli(tmp, "blend", BLEND), "trajectory.csv", "blend.csv",
                         "simulate_config.json")


def _compare_cli(tmp):
    paths = []
    for name, wrapper in (("switch", SWITCH), ("blend", BLEND)):
        path = Path(tmp) / f"{name}.csv"
        path.write_bytes((_simulate_cli(tmp, name, wrapper) / "trajectory.csv").read_bytes())
        paths.append(str(path))
    out = Path(tmp) / "cmp"
    assert cli_main(["compare", *paths, "--out", str(out)]) == 0
    return _files_digest(out, "comparison.csv")


def _profile_cli(tmp):
    """`simulate` tracking two recorded profiles, one sparser and one denser
    than the grid: each is held before its first and after its last sample,
    and linear in between."""
    digests = []
    for name, t in (("sparse", [0.3, 0.8, 1.1, 2.5, 2.6, 4.0, 5.2]),
                    ("dense", np.linspace(0.05, 5.9, 700).tolist())):
        w = np.sin(1.7 * np.array(t)) + 0.5 * np.cos(5.3 * np.array(t))
        path = Path(tmp) / f"{name}.csv"
        path.write_text("t,w,y,u,d\n" + "".join(f"{tk!r},{wk!r},0.0,0.0,0.0\n"
                                                   for tk, wk in zip(t, w.tolist())),
                        encoding="utf-8")
        out = _simulate_cli(tmp, name, {"reference": {"variant": "profile", "path": str(path)},
                                         **BLEND})
        digests.append(_files_digest(out, "trajectory.csv", "plot.csv", "metrics.csv"))
    return _digest(*digests)


def _linear2_cascade_cli(tmp):
    cfg = {"sim": {"dt": 0.02, "horizon": 6.0, "seed": 5},
           "plant": {"variant": "linear", "a": [[-0.5, 0.5, 0.0], [0.0, -3.0, 1.0], [0.0, -1.0, -2.0]],
                     "b": [0.0, 1.0, 3.0], "c": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                     "x0": [0.1, 0.0, -0.2], "limits": [-5.0, 5.0]},
           "sensor": {"noise_std": 0.01},
           "disturbance": {"variant": "step", "injection": "output", "time": 3.0,
                           "magnitude": 0.2},
           "reference": {"variant": "step", "level": 1.0, "time": 0.2},
           "controller": {"kind": "cascade", "outer": {"kp": 1.5, "ki": 0.5},
                          "inner": {"kp": 2.0, "ki": 1.0}}}
    out = _cli(tmp, "cascade", "simulate", cfg)
    assert (out / "trajectory.csv").read_text(encoding="utf-8").startswith("t,w,y,u,d,y2\n")
    return _files_digest(out, "trajectory.csv", "plot.csv", "metrics.csv")


def _tune_rule_cli(tmp):
    cfg = {"sim": {"dt": 0.01, "horizon": 20.0, "seed": 3}, "plant": TRAIN_PLANT,
           "tuning": {"mode": "rule", "rule": "cohen-coon", "kind": "pi", "step_level": 0.8}}
    return _files_digest(_cli(tmp, "tuned", "tune", cfg), "gains.json", "tune_config.json")


def _echoes_cli(tmp):
    sur = _surrogate(tmp)
    cfg = {"sim": {"dt": 0.5, "horizon": 10.0, "seed": 11}, "plant": TRAIN_PLANT,
           "training": {"mode": "bptt", "memory": 2, "hidden": [4], "horizon": 6, "epochs": 1,
                        "episodes": {"count": 1, "level": 1.0}}}
    _cli(tmp, "bptt", "train-controller", cfg, "--surrogate", str(sur / "surrogate.weights"))
    return _files_digest(Path(tmp), "rec/record_config.json", "sur/fit-surrogate_config.json",
                         "bptt/train-controller_config.json")


CASES = {f"{p}/{k}": _loop_case(PLANTS[p], build)
         for p in PLANTS for k, build in (KINDS_MULTI if p == "linear2" else KINDS).items()}
CASES.update({
    "linear_dense/pid": _loop_case(LINEAR_DENSE, _pid),
    "record/tank": _record,
    "tune/relay-fopdt": _relay,
    "tune/step-fopdt": _step_test(Fopdt(gain=2.0, tau=1.5, dead_time=0.4)),
    "tune/step-second_order": _step_test(SecondOrder(gain=1.0, omega_n=1.5, zeta=1.2)),
    "tune/step-tank": _step_test(TankNonlinear(area=1.0, outflow_coeff=1.0)),
    "fail/fopdt-guard": _failure_case(Fopdt(gain=1.0, tau=1.0, dead_time=0.0),
                                      ConstantController(1e300)),
    "fail/fopdt-rk4": _failure_case(Fopdt(gain=1e10, tau=1.0, dead_time=0.0),
                                    ConstantController(1e300)),
    "fail/second_order-guard": _failure_case(SecondOrder(gain=1.0, omega_n=3.0, zeta=0.0),
                                             ConstantController(1e300)),
    "fail/tank-nan-command": _failure_case(TankNonlinear(area=1.0, outflow_coeff=1.0),
                                           ConstantController(math.nan)),
    "fail/linear-unstable": _failure_case(LinearStateSpace(a=[[40.0]], b=[1.0], c=[[1.0]]),
                                          ConstantController(1.0)),
    "train/fit-surrogate": _fit_surrogate,
    "train/imitation": _imitation([8], 0.0),
    "train/imitation-aux": _imitation([8, 6], 0.5),
    "train/bptt-controller": _bptt("controller", 3),
    "train/bptt-scheduler": _bptt("scheduler", 3),
    "train/bptt-one-episode": _bptt_one_episode,
    "tune/ai": _tune_ai(2, 2),
    "tune/ai-q1": _tune_ai(1, 2),
    "tune/ai-one-episode": _tune_ai(2, 1),
    "tune/ai-corner": _tune_ai_corner,
    "pipeline/ac12": _pipeline_ac12,
    "cli/switch": _switch_cli,
    "cli/blend": _blend_cli,
    "cli/compare": _compare_cli,
    "cli/linear2-cascade": _linear2_cascade_cli,
    "cli/simulate-profile": _profile_cli,
    "cli/tune-rule": _tune_rule_cli,
    "cli/echoes": _echoes_cli,
})


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path):
    assert CASES[name](tmp_path) == _golden()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    digests = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            digests[name] = CASES[name](tmp)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
