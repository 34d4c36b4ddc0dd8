"""Golden digests of closed-loop, training and pipeline runs: the referee
for byte-identical refactors.

Each case runs `simulate` (or a command built on it) from fixed seeds and
reduces the result to a sha256 of its float64 bytes. The training cases
digest trained weights and the files the training commands write, and
`pipeline/ac12` the nine files of the AC-12 pipeline. The closed-loop digests
in `tests/golden/digests.json` were captured before the float-state fast
path landed, the training and pipeline digests before the networks moved
onto one parameter vector, and `tune/ai-q1` before per-step surrogate
prediction moved onto Python-float lag windows; a change that moves any
output bit fails here and must be declared as a behaviour change. Regenerate with

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
from loopbench.nnet import Mlp, TrainConfig
from loopbench.pid import CascadeController, CascadeSpec, PidController, PidGains
from loopbench.safety import BlendedController, BoundedBlender, SupervisedController, SwitchSupervisor
from loopbench.simcore import (
    ConstantController, DisturbanceSpec, Fopdt, LinearStateSpace, PlantModel, SecondOrder,
    SensorSpec, SignalController, SimConfig, TankNonlinear, simulate, step_reference,
)
from loopbench.surrogate import fit_hybrid
from loopbench.tuning import identify_fopdt_step, relay_experiment, run_step_test
from test_acceptance import AC12_FILES, ac12_pipeline

GOLDEN = Path(__file__).parent / "golden" / "digests.json"

CFG = SimConfig(dt=0.01, horizon=4.0, seed=5)
REFERENCE = step_reference(1.0, time=0.2)

# plant, sensor, disturbance and optional gain schedule per plant variant;
# between them they cover noise, quantization, sample-and-hold, every
# disturbance variant at both injection points, a non-zero x0 and a gain change
PLANTS = {
    "fopdt": (PlantModel(Fopdt(gain=1.5, tau=0.8, dead_time=0.15), u_min=-3.0, u_max=3.0),
              SensorSpec(noise_std=0.02, quantization=0.005),
              DisturbanceSpec("step", "input", time=2.0, magnitude=0.3), None),
    "second_order": (PlantModel(SecondOrder(gain=1.0, omega_n=2.0, zeta=0.4), u_min=-4.0, u_max=4.0),
                     SensorSpec(noise_std=0.01, sample_period=0.02),
                     DisturbanceSpec("sinusoid", "input", amplitude=0.2, period=1.5), None),
    "tank": (PlantModel(TankNonlinear(area=1.2, outflow_coeff=0.8), u_min=0.0, u_max=3.0, x0=[0.3]),
             SensorSpec(quantization=0.01),
             DisturbanceSpec("gaussian", "output", std=0.01), None),
    "linear": (PlantModel(LinearStateSpace(a=[[0.0, 1.0], [-2.0, -0.7]], b=[0.0, 2.0], c=[[1.0, 0.0]]),
                          u_min=-5.0, u_max=5.0),
               SensorSpec(noise_std=0.01),
               DisturbanceSpec("step", "output", time=2.0, magnitude=0.2),
               lambda t: 1.0 if t < 2.5 else 2.0),
    "linear2": (PlantModel(LinearStateSpace(a=[[-0.5, 0.5], [0.0, -3.0]], b=[0.0, 3.0],
                                            c=[[1.0, 0.0], [0.0, 1.0]]), u_min=-5.0, u_max=5.0),
                SensorSpec(noise_std=0.01, sample_period=0.03),
                DisturbanceSpec("step", "input", time=1.0, magnitude=-0.4), None),
}


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
    sup = SwitchSupervisor(theta_hi=0.3, theta_lo=0.1, dwell=5)
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


def _loop_case(plant_name, build):
    def run(tmp):
        plant, sensor, dist, schedule = PLANTS[plant_name]
        ctl = build((plant.u_min, plant.u_max))
        traj = simulate(plant, ctl, REFERENCE, dist, sensor, CFG, gain_schedule=schedule)
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


def _failure_case(plant, controller):
    """The exception a run ends in, with its step: pins every loop check."""
    def run(tmp):
        try:
            simulate(plant, controller, 1.0, cfg=SimConfig(dt=0.01, horizon=1.0))
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
    plant = PlantModel(Fopdt(gain=1.0, tau=1.0, dead_time=0.3), u_min=-2.0, u_max=2.0)
    up = relay_experiment(plant, 1.0, SimConfig(dt=0.01, horizon=30.0))
    return _digest([up.ku, up.pu])


def _step_test(variant):
    def run(tmp):
        traj = run_step_test(PlantModel(variant), SimConfig(dt=0.01, horizon=20.0), u1=0.8)
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


def _hybrid(tmp):
    plant = PlantModel(Fopdt(gain=1.0, tau=1.0, dead_time=0.5), u_min=-3.0, u_max=3.0)
    cfg = SimConfig(dt=0.5, horizon=60.0, seed=3)
    u = np.sign(np.sin(0.37 * np.arange(cfg.n_steps) + 0.2))
    traj = simulate(plant, SignalController(u), 0.0, cfg=cfg)
    model = fit_hybrid(traj, lambda yw, uw: 0.6 * yw[-1] + 0.4 * uw[-1], 2, 2,
                       TrainConfig(learning_rate=0.01, batch_size=16, max_epochs=30, seed=4),
                       hidden=(6,))
    net = model.residual
    return _digest(*net.weights, *net.biases, model.x_mean, model.x_std)


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


def _bptt(target):
    def run(tmp):
        sur = _surrogate(tmp)
        cfg = {"sim": {"dt": 0.5, "horizon": 10.0, "seed": 11}, "plant": TRAIN_PLANT,
               "training": {"mode": "bptt", "target": target, "memory": 3, "hidden": [6, 5],
                            "horizon": 15, "rho": 0.01, "learning_rate": 0.01, "epochs": 3,
                            "seed": 7, "episodes": {"count": 3, "level": 1.0}}}
        out = _cli(tmp, "bptt", "train-controller", cfg,
                   "--surrogate", str(sur / "surrogate.weights"))
        name = "controller.weights" if target == "controller" else "scheduler.weights"
        return _files_digest(out, name, name + ".meta.json", "training_curve.csv")
    return run


def _tune_ai(q):
    """AI tuning over a p = 2 surrogate; q = 1 leaves the older-input window empty."""
    def run(tmp):
        sur = _surrogate(tmp, q)
        cfg = {"sim": {"dt": 0.5, "horizon": 15.0, "seed": 11}, "plant": TRAIN_PLANT,
               "tuning": {"mode": "ai", "budget": 40, "restarts": 2,
                          "episodes": {"count": 2, "level": 1.0}}}
        out = _cli(tmp, "tuned", "tune", cfg, "--surrogate", str(sur / "surrogate.weights"))
        return _files_digest(out, "gains.json", "tune_trace.csv")
    return run


def _pipeline_ac12(tmp):
    return _files_digest(ac12_pipeline(Path(tmp), "ac12"), *AC12_FILES)


CASES = {f"{p}/{k}": _loop_case(p, build)
         for p in PLANTS for k, build in (KINDS_MULTI if p == "linear2" else KINDS).items()}
CASES.update({
    "record/tank": _record,
    "tune/relay-fopdt": _relay,
    "tune/step-fopdt": _step_test(Fopdt(gain=2.0, tau=1.5, dead_time=0.4)),
    "tune/step-second_order": _step_test(SecondOrder(gain=1.0, omega_n=1.5, zeta=1.2)),
    "tune/step-tank": _step_test(TankNonlinear(area=1.0, outflow_coeff=1.0)),
    "fail/fopdt-guard": _failure_case(PlantModel(Fopdt(gain=1.0, tau=1.0)), ConstantController(1e300)),
    "fail/fopdt-rk4": _failure_case(PlantModel(Fopdt(gain=1e10, tau=1.0)), ConstantController(1e300)),
    "fail/second_order-guard": _failure_case(PlantModel(SecondOrder(gain=1.0, omega_n=3.0, zeta=0.0)),
                                             ConstantController(1e300)),
    "fail/tank-nan-command": _failure_case(PlantModel(TankNonlinear(area=1.0, outflow_coeff=1.0)),
                                           ConstantController(math.nan)),
    "fail/linear-unstable": _failure_case(PlantModel(LinearStateSpace(a=[[40.0]], b=[1.0], c=[[1.0]])),
                                          ConstantController(1.0)),
    "train/fit-surrogate": _fit_surrogate,
    "train/hybrid": _hybrid,
    "train/imitation": _imitation([8], 0.0),
    "train/imitation-aux": _imitation([8, 6], 0.5),
    "train/bptt-controller": _bptt("controller"),
    "train/bptt-scheduler": _bptt("scheduler"),
    "tune/ai": _tune_ai(2),
    "tune/ai-q1": _tune_ai(1),
    "pipeline/ac12": _pipeline_ac12,
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
