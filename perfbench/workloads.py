"""Workload definitions: the CLI calls each workload makes, built from a seed.

Every call goes through ``loopbench.cli.main`` one at a time (a closed loop
with one client). A workload is a ``Plan`` of three lists of calls:

* ``setup`` runs once, in set-up, after the configs are written. Only
  ``closed_loop`` has set-up calls: it briefly trains the neural controller
  and the gain scheduler that its closed-loop runs load.
* ``focus`` is the timed section, repeated for the run's seconds.
* ``side`` runs after each timed iteration, outside ``wall_s``. It holds one
  small call of every command the focus does not run, the closed-loop runs
  that exercise each controller kind and safety wrapper, and the models the
  quality metrics are read from where the focus has none that is steady in
  the seed, so that every end-to-end metric is measured, and every layer
  traced, on every workload.

The seed is every config's ``sim.seed``: it draws the sensor noise of every
recording, teacher run and closed-loop run. Excitation sequences, network
initializations, teacher gains, step counts, epoch counts and evaluation
budgets are fixed, and patience always equals the epoch budget, so the
amount of work does not depend on the seed and no training stops early.

All paths are relative to the run's working directory, so output bytes do
not depend on where the checkout lives.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("closed_loop", "training", "tuning")

FOPDT = {"variant": "fopdt", "gain": 1.0, "tau": 1.0, "dead_time": 0.25,
         "limits": [-3.0, 3.0]}
SENSOR = {"noise_std": 0.01}
# recordings and teacher runs that models are fitted to carry less noise, so
# that the fitted models' quality moves little from seed to seed
FIT_SENSOR = {"noise_std": 0.002}


def gains(kp, ki, kd=0.0):
    return {"kp": kp, "ki": ki, "kd": kd, "structure": "pid", "filter_n": 10.0}


TEACHER = gains(3.0, 4.0, 0.3)  # imitation teacher and switch fallback on FOPDT


@dataclass
class Op:
    """One CLI call and the independent facts needed to check it."""

    name: str  # unique within a workload; also its --out directory
    cmd: str  # CLI command
    argv: list  # full argv for cli.main
    out: str  # relative output directory
    sim_steps: int = 0  # closed-loop steps simulated, from the config
    adam: dict | None = None  # how to count Adam updates from the outputs
    episodes: int = 0  # AI tune: surrogate episodes per cost evaluation
    iae: bool = False  # counts toward the workload's iae metric
    quality: bool = False  # its model's quality is the workload's quality metric


@dataclass
class Plan:
    setup: list = field(default_factory=list)
    focus: list = field(default_factory=list)
    side: list = field(default_factory=list)


def n_steps(dt: float, horizon: float) -> int:
    """SimConfig.n_steps: horizon / dt rounded half away from zero."""
    return int(math.floor(horizon / dt + 0.5))


class _Builder:
    """Writes config files and builds the ops of one workload."""

    def __init__(self, seed: int):
        self.seed = seed
        Path("cfg").mkdir(exist_ok=True)

    def config(self, name: str, cfg: dict) -> str:
        p = f"cfg/{name}.json"
        Path(p).write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return p

    def op(self, name: str, cmd: str, cfg: dict | None, extra=(), **kw) -> Op:
        argv = [cmd]
        if cfg is not None:
            argv += ["--config", self.config(name, cfg)]
        argv += [*extra, "--out", name]
        return Op(name=name, cmd=cmd, argv=argv, out=name, **kw)

    # -- the six commands -----------------------------------------------------

    def record(self, name, horizon, order):
        cfg = {"sim": {"dt": 0.1, "horizon": horizon, "seed": self.seed}, "plant": FOPDT,
               "sensor": FIT_SENSOR,
               "excitation": {"variant": "prbs", "order": order, "amplitude": 1.0,
                              "bit_period": 1.0, "seed": 1}}
        return self.op(name, "record", cfg, sim_steps=n_steps(0.1, horizon))

    def fit(self, name, rec, hidden, epochs, quality=False):
        cfg = {"sim": {"dt": 0.1, "horizon": 1.0, "seed": self.seed},
               "surrogate": {"p": 2, "q": 4, "hidden": hidden, "epochs": epochs,
                             "patience": epochs, "batch_size": 64, "learning_rate": 0.01,
                             "seed": 0}}
        return self.op(name, "fit-surrogate", cfg, extra=["--data", f"{rec.out}/record.csv"],
                       adam={"kind": "fit", "epochs": epochs, "batch_size": 64},
                       quality=quality)

    def tune_rule(self, name, rule, dt, horizon):
        cfg = {"sim": {"dt": dt, "horizon": horizon, "seed": self.seed}, "plant": FOPDT,
               "tuning": {"mode": "rule", "rule": rule, "kind": "pid",
                          "relay_amplitude": 1.0, "step_level": 1.0}}
        return self.op(name, "tune", cfg, sim_steps=n_steps(dt, horizon))

    def tune_ai(self, name, sur, budget, episodes, horizon, restarts):
        cfg = {"sim": {"dt": 0.1, "horizon": horizon, "seed": self.seed}, "plant": FOPDT,
               "tuning": {"mode": "ai", "budget": budget, "restarts": restarts, "rho": 0.01,
                          "bounds": {"kp": [0.1, 2.0], "ki": [0.05, 2.0], "kd": [0.0, 0.2]},
                          "episodes": {"count": episodes, "level": 1.0}}}
        return self.op(name, "tune", cfg, extra=["--surrogate", f"{sur.out}/surrogate.weights"],
                       episodes=episodes)

    def imitation(self, name, hidden, epochs, horizon, beta=0.0, quality=False):
        # four teacher episodes: with two, validation RMSE moved 13-16 % with the seed
        dt, count = 0.05, 4
        cfg = {"sim": {"dt": dt, "horizon": horizon, "seed": self.seed}, "plant": FOPDT,
               "sensor": FIT_SENSOR,
               "disturbance": {"variant": "sinusoid", "injection": "input",
                               "amplitude": 0.2, "period": 7.0},
               "training": {"mode": "imitation", "teacher": {"gains": TEACHER},
                            "memory": 4, "hidden": hidden, "lambda": 0.5, "beta": beta,
                            "learning_rate": 0.005, "batch_size": 64, "epochs": epochs,
                            "patience": epochs, "seed": 7,
                            "episodes": {"count": count, "level": 1.0}}}
        steps = n_steps(dt, horizon)
        # each teacher run gives steps - 1 rows; both datasets split 3:1 in time
        n_train = 2 * math.floor(count * (steps - 1) * 0.75)
        return self.op(name, "train-controller", cfg, sim_steps=2 * count * steps,
                       adam={"kind": "imitation", "batches": max(n_train // 64, 1)},
                       quality=quality)

    def bptt(self, name, sur, target, hidden, epochs, horizon, count):
        cfg = {"sim": {"dt": 0.1, "horizon": 1.0, "seed": self.seed}, "plant": FOPDT,
               "training": {"mode": "bptt", "target": target, "memory": 4, "hidden": hidden,
                            "horizon": horizon, "rho": 0.01, "learning_rate": 0.01,
                            "epochs": epochs, "patience": epochs, "seed": 7,
                            "episodes": {"count": count, "level": 1.0}}}
        return self.op(name, "train-controller", cfg,
                       extra=["--surrogate", f"{sur.out}/surrogate.weights"],
                       adam={"kind": "bptt", "count": count})

    def simulate(self, name, plant, controller, horizon, safety=None, iae=False):
        cfg = {"sim": {"dt": 0.01, "horizon": horizon, "seed": self.seed}, "plant": plant,
               "sensor": SENSOR, "controller": controller,
               "disturbance": {"variant": "step", "injection": "input",
                               "time": horizon / 2.0, "magnitude": 0.3},
               "reference": {"variant": "step", "level": 1.0}}
        if safety is not None:
            cfg["safety"] = safety
        return self.op(name, "simulate", cfg, sim_steps=n_steps(0.01, horizon), iae=iae)

    def compare(self, name, sims):
        return self.op(name, "compare", None, extra=[f"{op.out}/trajectory.csv" for op in sims])

    # -- composites -----------------------------------------------------------

    def reference_surrogate(self, prefix):
        """A short recording and a small surrogate fitted to it. Its rollout
        RMSE varies little with the seed, so it is the workload's
        ``surrogate_rollout_rmse`` wherever the workload fits no such model."""
        rec = self.record(f"{prefix}_rec", horizon=120.0, order=7)
        return [rec, self.fit(f"{prefix}_sur", rec, hidden=[16], epochs=10, quality=True)]

    def small_models(self, prefix):
        """The brief training closed_loop's set-up does: the reference
        surrogate, an imitation controller and a BPTT gain scheduler."""
        rec, sur = self.reference_surrogate(prefix)
        nc = self.imitation(f"{prefix}_nc", hidden=[16], epochs=20, horizon=40.0, quality=True)
        gs = self.bptt(f"{prefix}_gs", sur, "scheduler", hidden=[8], epochs=10, horizon=40,
                       count=2)
        return [rec, sur, nc, gs]

    def tunes(self, prefix, sur):
        """Ziegler-Nichols through the relay experiment, Cohen-Coon through
        step-test identification, and a small AI search on ``sur``."""
        return [self.tune_rule(f"{prefix}_zn", "ziegler-nichols", dt=0.01, horizon=30.0),
                self.tune_rule(f"{prefix}_cc", "cohen-coon", dt=0.01, horizon=30.0),
                self.tune_ai(f"{prefix}_ai", sur, budget=20, episodes=2, horizon=10.0,
                             restarts=2)]

    def variants(self, prefix, horizon, nc, gs, iae) -> list:
        """simulate over every plant variant, controller kind and safety wrapper,
        then compare. All runs share the reference, disturbance and seed, so
        compare accepts them as one table. ``iae`` names the runs that count
        toward the iae metric: "all", "fixed" (those without a trained model)
        or "none"."""
        neural = {"kind": "neural", "model_path": f"{nc.out}/controller.weights"}
        sched = {"kind": "pid+scheduler", "model_path": f"{gs.out}/scheduler.weights"}
        switch = {"kind": "switch", "theta_hi": 0.3, "theta_lo": 0.1, "dwell": 10,
                  "fallback": {"gains": TEACHER}}
        blend = {"kind": "blend", "delta": 0.2, "correction": neural}
        second = {"variant": "second_order", "gain": 1.0, "omega_n": 2.0, "zeta": 0.5,
                  "limits": [-3.0, 3.0]}
        tank = {"variant": "tank", "area": 1.0, "outflow_coeff": 1.0, "limits": [0.0, 3.0]}
        linear = {"variant": "linear", "a": [[0.0, 1.0], [-2.0, -3.0]], "b": [0.0, 1.0],
                  "c": [[2.0, 0.0]], "limits": [-3.0, 3.0]}
        linear2 = {"variant": "linear", "a": [[-1.0, 1.0], [0.0, -5.0]], "b": [0.0, 5.0],
                   "c": [[1.0, 0.0], [0.0, 1.0]], "limits": [-3.0, 3.0]}

        def pid(g):
            return {"kind": "pid", "gains": g}

        cascade = {"kind": "cascade", "outer": gains(1.5, 1.0), "inner": gains(2.0, 1.0),
                   "outer_channel": 0, "inner_channel": 1}
        runs = [
            ("fopdt_pid", FOPDT, pid(TEACHER), None),
            ("second_pid", second, pid(gains(1.0, 1.0, 0.1)), None),
            ("tank_pid", tank, pid(gains(2.0, 1.0)), None),
            ("linear_pid", linear, pid(gains(2.0, 2.0)), None),
            ("linear2_cascade", linear2, cascade, None),
            ("fopdt_neural", FOPDT, neural, None),
            ("fopdt_sched", FOPDT, sched, None),
            ("fopdt_neural_switch", FOPDT, neural, switch),
            ("fopdt_sched_switch", FOPDT, sched, switch),
            ("fopdt_pid_blend", FOPDT, pid(TEACHER), blend),
        ]
        def counts(ctl, safety):
            trained = ctl in (neural, sched) or safety is blend
            return iae == "all" or (iae == "fixed" and not trained)

        sims = [self.simulate(f"{prefix}_{name}", plant, ctl, horizon, safety,
                              iae=counts(ctl, safety))
                for name, plant, ctl, safety in runs]
        return sims + [self.compare(f"{prefix}_cmp", sims)]


def plan(workload: str, seed: int) -> Plan:
    """Write the workload's configs into the working directory and return its calls."""
    b = _Builder(seed)
    if workload == "closed_loop":
        # per-step inner loop: rk4_step, pid_step, single-row Mlp.forward,
        # the supervisors, and trajectory CSV writes then reads; no Adam
        setup = b.small_models("setup")
        _, sur, nc, gs = setup
        side = b.small_models("side")
        return Plan(setup=setup, focus=b.variants("sim", 20.0, nc, gs, iae="all"),
                    side=side + b.tunes("side", sur))
    if workload == "training":
        # batched forward_cached/backward, Adam and dataset assembly. The
        # larger surrogate's rollout RMSE, and the IAE of the closed-loop runs
        # under this workload's trained models, move 10-25 % with the seed, so
        # the quality metrics come from the reference surrogate and the
        # closed-loop runs without a trained model
        rec = b.record("rec", horizon=300.0, order=9)
        sur = b.fit("sur", rec, hidden=[32], epochs=10)
        nc = b.imitation("train_im", hidden=[32, 32], epochs=15, horizon=30.0, quality=True)
        aux = b.imitation("train_aux", hidden=[32, 32], epochs=15, horizon=30.0, beta=0.5,
                          quality=True)
        bnc = b.bptt("bptt_nc", sur, "controller", hidden=[16], epochs=5, horizon=100, count=4)
        gs = b.bptt("bptt_gs", sur, "scheduler", hidden=[8], epochs=5, horizon=100, count=4)
        ref = b.reference_surrogate("side")
        return Plan(focus=[rec, sur, nc, aux, bnc, gs],
                    side=ref + b.tunes("side", ref[1])
                    + b.variants("side", 5.0, nc, gs, iae="fixed"))
    if workload == "tuning":
        # scalar NARX rollouts (predict_one + pid_step per step) in the AI
        # search, plus the relay and step-test simulations of the rule tunes
        rec = b.record("rec", horizon=300.0, order=8)
        sur = b.fit("sur", rec, hidden=[16], epochs=10, quality=True)
        zn = b.tune_rule("tune_zn", "ziegler-nichols", dt=0.01, horizon=40.0)
        cc = b.tune_rule("tune_cc", "cohen-coon", dt=0.01, horizon=40.0)
        ai = b.tune_ai("tune_ai", sur, budget=50, episodes=3, horizon=20.0, restarts=2)
        sim = b.simulate("sim_ai", FOPDT, {"kind": "pid", "gains_path": f"{ai.out}/gains.json"},
                         20.0, iae=True)
        nc = b.imitation("side_nc", hidden=[16], epochs=20, horizon=40.0, quality=True)
        gs = b.bptt("side_gs", sur, "scheduler", hidden=[8], epochs=10, horizon=40, count=2)
        return Plan(focus=[rec, sur, zn, cc, ai, sim],
                    side=[nc, gs] + b.variants("side", 5.0, nc, gs, iae="none"))
    raise ValueError(f"unknown workload {workload!r}")
