"""Acceptance gate: every criterion asserted at its stated tolerance.

Each test prints one `AC-n PASS ...` line (visible with `pytest -s`) and
enforces the criterion's runtime budget. All runs are seeded; there is no
tolerance left to later calibration.
"""

import json
import math
import time

import numpy as np
import pytest

from loopbench.cli import main as cli_main
from loopbench.dataio import ExcitationSpec, generate_excitation, prbs_bits, split_contiguous
from loopbench.metrics import compute_step_metrics
from loopbench.neuro import (
    GainScheduler, NeuralController, NeuralControlLoop,
    ScheduledPidController, bptt_loss_and_grad, imitation_data_from_run, train_bptt,
    train_imitation, tune_static_ai,
)
from loopbench.nnet import Mlp, TrainConfig, mse
from loopbench.pid import PidController, PidGains, PidState, pid_step, pid_sync
from loopbench.safety import MODE_FALLBACK, BlendedController, SupervisedController
from loopbench.simcore import (
    ConstantController, Fopdt, PlantModel, SignalController, SimConfig, rk4_step, simulate,
)
from loopbench.surrogate import NarxModel, fit_surrogate, narx_rollout
from loopbench.tuning import (
    FopdtModel, UltimateParams, identify_fopdt_step, relay_experiment, tune_cohen_coon,
    tune_kappa_tau, tune_ziegler_nichols,
)
from test_nnet import grad
from test_safety import mode_sequence
from test_tuning import step_test


class Budget:
    """Context manager asserting the criterion's stated runtime bound."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, \
                f"{self.name} exceeded its runtime budget: {self.elapsed:.1f}s >= {self.seconds}s"
        return False

    def report(self, detail):
        print(f"{self.name} PASS ({self.elapsed:.2f}s): {detail}")


def _max_rel(a, b, floor=1e-8):
    den = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / den))


FOPDT_115 = PlantModel(Fopdt(gain=1.0, tau=1.0, dead_time=0.5), u_min=-3.0, u_max=3.0, x0=None)


def _zn_gains(plant=FOPDT_115, limits=(-3.0, 3.0)):
    up = relay_experiment(plant, 1.0, SimConfig(dt=0.005, horizon=30.0, seed=0))
    return tune_ziegler_nichols(up, "pid", limits)


def _prbs_record(plant, dt, seed=1, horizon=400.0, order=9):
    cfg = SimConfig(dt=dt, horizon=horizon, seed=seed)
    exc = generate_excitation(
        ExcitationSpec(variant="prbs", order=order, amplitude=1.0, bit_period=1.0, seed=2,
                       levels=(), dwell=1.0, f0=0.1, f1=1.0, duration=None), cfg,
        limits=(-math.inf, math.inf))
    return simulate(plant, SignalController(exc), 0.0, cfg=cfg)


# ---------------------------------------------------------------------------

def test_ac1_tuning_rule_exactness():
    with Budget("AC-1", 1.0) as b:
        cc = tune_cohen_coon(FopdtModel(gain=1.0, tau=1.0, dead_time=0.5),
                             limits=(-math.inf, math.inf))
        assert cc.kp == pytest.approx(35.0 / 12.0, rel=1e-9)      # 2.916667
        assert cc.kp / cc.ki == pytest.approx(17.5 / 17.0, rel=1e-9)  # 1.029412
        assert cc.kd / cc.kp == pytest.approx(1.0 / 6.0, rel=1e-9)    # 0.166667
        kt = tune_kappa_tau(FopdtModel(gain=1.0, tau=1.0, dead_time=0.5),
                            limits=(-math.inf, math.inf))
        assert kt.kp == pytest.approx(1.1, rel=1e-9)
        assert kt.kp / kt.ki == pytest.approx(0.5 / 0.6, rel=1e-9)
        assert kt.kd / kt.kp == pytest.approx(0.25 / 1.15, rel=1e-9)
        zn = tune_ziegler_nichols(UltimateParams(ku=2.0, pu=1.0), "pid",
                                  limits=(-math.inf, math.inf))
        assert (zn.kp, zn.kp / zn.ki, zn.kd / zn.kp) == (pytest.approx(1.2, rel=1e-9),
                                                         pytest.approx(0.5, rel=1e-9),
                                                         pytest.approx(0.125, rel=1e-9))
        zn_pi = tune_ziegler_nichols(UltimateParams(ku=2.0, pu=1.0), "pi",
                                     limits=(-math.inf, math.inf))
        assert zn_pi.kp == pytest.approx(0.9, rel=1e-9)
        assert zn_pi.kp / zn_pi.ki == pytest.approx(1.0 / 1.2, rel=1e-9)
        assert tune_ziegler_nichols(UltimateParams(ku=1.0, pu=1.0), "p",
                                    limits=(-math.inf, math.inf)).kp == pytest.approx(0.5, rel=1e-9)
    b.report("ZN / Cohen-Coon / Kappa-Tau tables match the formulas to 1e-9 relative")


def test_ac2_identification_pipeline():
    with Budget("AC-2", 5.0) as b:
        plant = PlantModel(Fopdt(gain=1.0, tau=2.0, dead_time=1.0), u_min=-3.0, u_max=3.0, x0=None)
        traj = step_test(plant, SimConfig(dt=0.01, horizon=25.0, seed=0), step_time=1.0)
        m = identify_fopdt_step(traj)
        assert m.gain == pytest.approx(1.0, rel=0.05)
        assert m.tau == pytest.approx(2.0, rel=0.05)
        assert m.dead_time == pytest.approx(1.0, rel=0.05)

        up = relay_experiment(FOPDT_115, 1.0, SimConfig(dt=0.005, horizon=30.0, seed=0))
        assert up.ku == pytest.approx(3.81, rel=0.10)
        assert up.pu == pytest.approx(1.71, rel=0.10)
    b.report(f"identified ({m.gain:.3f}, {m.tau:.3f}, {m.dead_time:.3f}); "
             f"relay Ku={up.ku:.3f}, Pu={up.pu:.3f}")


def test_ac3_integrator_order():
    with Budget("AC-3", 1.0) as b:
        def max_err(dt):
            n = round(1.0 / dt)
            x = 1.0
            worst = 0.0
            for k in range(n):
                x = rk4_step(x, 0.0, dt, lambda s, u: -s)
                worst = max(worst, abs(x - math.exp(-(k + 1) * dt)))
            return worst

        ratio = max_err(0.1) / max_err(0.05)
        assert ratio >= 14.0
    b.report(f"halving dt shrinks the max error by {ratio:.1f}x (>= 14 required)")


def test_ac4_gradient_oracle():
    with Budget("AC-4", 30.0) as b:
        rng = np.random.default_rng(0)
        worst_nnet = 0.0
        for arch in ([2, 5, 1], [3, 8, 4, 2], [1, 6, 6, 1]):
            for seed in range(5):
                net = Mlp(arch, seed=seed)
                x = rng.normal(size=(6, arch[0]))
                y = rng.normal(size=(6, arch[-1]))
                flat, _ = grad(net, x, y)
                fd = np.zeros_like(flat)
                base = net.params.copy()
                for i in range(base.size):
                    net.params[i] = base[i] + 1e-5
                    hi = mse(net, x, y)
                    net.params[i] = base[i] - 1e-5
                    lo = mse(net, x, y)
                    net.params[i] = base[i]
                    fd[i] = (hi - lo) / 2e-5
                worst_nnet = max(worst_nnet, _max_rel(flat, fd))
        assert worst_nnet < 1e-4

        narx = NarxModel(Mlp([4, 5, 1], seed=3), 2, 2, 0.1,
                         x_mean=rng.normal(size=4) * 0.1, x_std=rng.uniform(0.5, 2.0, size=4),
                         y_mean=np.array([0.05]), y_std=np.array([1.3]))

        def fd_bptt(target, w_seq, limits):
            params = target.mlp.params
            base = params.copy()
            g = np.zeros_like(base)
            for i in range(base.size):
                params[i] = base[i] + 1e-5
                [(hi, _)] = bptt_loss_and_grad(target, narx, [w_seq], 3, 0.01, limits)
                params[i] = base[i] - 1e-5
                [(lo, _)] = bptt_loss_and_grad(target, narx, [w_seq], 3, 0.01, limits)
                params[i] = base[i]
                g[i] = (hi - lo) / 2e-5
            return g

        worst_bptt = 0.0
        for hidden in (4, 6, 8):
            for seed in range(5):
                nc = NeuralController(Mlp([7, hidden, 1], seed=seed), u_min=-2.0, u_max=2.0,
                                      memory=3)
                w_seq = rng.normal(size=5) * 0.5
                [(_, g)] = bptt_loss_and_grad(nc, narx, [w_seq], 3, 0.01,
                                              limits=(-math.inf, math.inf))
                worst_bptt = max(worst_bptt, _max_rel(g, fd_bptt(nc, w_seq, (-2.0, 2.0))))
        for seed in range(3):
            gs = GainScheduler(Mlp([6, 5, 3], seed=seed),
                               bounds=[[0.1, 3.0], [0.05, 2.0], [0.0, 0.5]], memory=3)
            w_seq = rng.normal(size=5) * 0.5
            [(_, g)] = bptt_loss_and_grad(gs, narx, [w_seq], 3, 0.01, (-50.0, 50.0))
            worst_bptt = max(worst_bptt, _max_rel(g, fd_bptt(gs, w_seq, (-50.0, 50.0))))
        assert worst_bptt < 1e-4
    b.report(f"max relative gradient error: nnet {worst_nnet:.2e}, bptt {worst_bptt:.2e}")


def test_ac5_surrogate_quality():
    with Budget("AC-5", 60.0) as b:
        rec = _prbs_record(FOPDT_115, dt=0.5)
        model, rep = fit_surrogate(
            rec, 2, 2,
            TrainConfig(learning_rate=0.01, batch_size=64, max_epochs=500, patience=100, seed=0),
            hidden=(32,), val_fraction=0.25, resampled=False)
        assert rep.one_step_rmse < 0.01 * rep.output_range
        # 50-step free runs across the held-out block
        n_train = split_contiguous(len(rec), 0.25)
        yv, uv = rec.y[n_train:], rec.u[n_train:]
        worst = 0.0
        for start in range(2, len(yv) - 51, 25):
            roll = narx_rollout(model, yv[start - 2:start], uv[start - 1:start + 49],
                                u_init=uv[start - 2:start - 1])
            worst = max(worst, float(np.sqrt(np.mean((roll - yv[start:start + 50]) ** 2))))
        assert worst < 0.05 * rep.output_range
    b.report(f"one-step RMSE {rep.one_step_rmse:.2e} (< {0.01 * rep.output_range:.2e}), "
             f"worst 50-step rollout RMSE {worst:.2e} (< {0.05 * rep.output_range:.2e})")


def test_ac6_static_ai_tuning_parity():
    with Budget("AC-6", 120.0) as b:
        zn = _zn_gains()
        dt = 0.25  # shared control rate: the regime the search optimizes is the one compared
        rec = _prbs_record(FOPDT_115, dt=dt)
        narx, _ = fit_surrogate(
            rec, 2, 3,
            TrainConfig(learning_rate=0.01, batch_size=64, max_epochs=500, patience=100, seed=0),
            hidden=(32,), val_fraction=0.25, resampled=False)
        episodes = [np.concatenate([np.zeros(2), np.full(int(30 / dt), lvl)])
                    for lvl in (0.8, 1.0, 1.2)]
        result = tune_static_ai(narx, episodes, [[0.05, 5.0], [0.0, 5.0], [0.0, 1.0]],
                                budget=500, rho=0.01, seed=0, restarts=2, x0=None,
                                limits=(-3.0, 3.0))
        assert len(result.trace) <= 500

        eval_cfg = SimConfig(dt=dt, horizon=30.0, seed=0)
        iae_zn = compute_step_metrics(
            simulate(FOPDT_115, PidController(zn), 1.0, cfg=eval_cfg), band=0.02).iae
        iae_ai = compute_step_metrics(
            simulate(FOPDT_115, PidController(result.gains), 1.0, cfg=eval_cfg), band=0.02).iae
        assert iae_ai <= 1.1 * iae_zn
    b.report(f"true-plant IAE: ai {iae_ai:.3f} vs zn {iae_zn:.3f} "
             f"(ratio {iae_ai / iae_zn:.3f} <= 1.1)")


def test_ac7_imitation_fidelity():
    with Budget("AC-7", 120.0) as b:
        lim = 5.0
        plant = PlantModel(Fopdt(gain=1.0, tau=1.0, dead_time=0.5), u_min=-lim, u_max=lim, x0=None)
        zn = _zn_gains(plant, limits=(-lim, lim))
        dt, m = 0.05, 4

        def coverage_ref(n, level, seed, hold=80):
            bits = prbs_bits(6, seed=seed)
            idx = (np.arange(n) // hold) % len(bits)
            return np.where(bits[idx] == 1, level, 0.0).astype(float)

        runs_b = []
        for i, lvl in enumerate([0.7, 0.85, 1.0, 1.15, 1.3, 1.0, 0.9, 1.1]):
            cfg = SimConfig(dt=dt, horizon=30.0, seed=20 + i)
            runs_b.append(simulate(plant, PidController(zn),
                                   np.where(cfg.time_grid() >= 1.0, lvl, 0.0), cfg=cfg))
        runs_a = []
        for i in range(2):
            cfg = SimConfig(dt=dt, horizon=60.0, seed=30 + i)
            runs_a.append(simulate(plant, PidController(zn),
                                   coverage_ref(cfg.n_steps, 1.0, seed=3 + i), cfg=cfg))

        mix = (imitation_data_from_run(runs_a, m, with_disturbance=False),
               imitation_data_from_run(runs_b, m, with_disturbance=False), 0.25)
        nc = NeuralController(Mlp([1 + 2 * m, 48, 1], seed=0), u_min=-lim, u_max=lim, memory=m)
        res = train_imitation(nc, *mix, TrainConfig(learning_rate=5e-3, batch_size=128,
                                                    max_epochs=2500, patience=2500, seed=0),
                              aux_weight=0.0)
        res = train_imitation(res.controller, *mix,
                              TrainConfig(learning_rate=1e-3, batch_size=128,
                                          max_epochs=2000, patience=2000, seed=1), aux_weight=0.0)

        eval_cfg = SimConfig(dt=dt, horizon=20.0, seed=0)
        step = np.where(eval_cfg.time_grid() >= 1.0, 1.0, 0.0)
        tr_pid = simulate(plant, PidController(zn), step, cfg=eval_cfg)
        tr_nn = simulate(plant, NeuralControlLoop(res.controller), step, cfg=eval_cfg)
        worst = float(np.max(np.abs(tr_nn.y - tr_pid.y)))
        assert worst < 0.02  # 2% of the unit step
    b.report(f"max |y_nn - y_pid| = {worst:.4f} over the horizon (< 0.02)")


def test_ac8_safety_switch_efficacy():
    with Budget("AC-8", 10.0) as b:
        plant = PlantModel(Fopdt(gain=1.0, tau=1.0, dead_time=0.5), u_min=0.0, u_max=3.0, x0=None)
        zn = tune_ziegler_nichols(
            relay_experiment(FOPDT_115, 1.0, SimConfig(dt=0.005, horizon=30.0, seed=0)),
            "pid", (0.0, 3.0))
        cfg = SimConfig(dt=0.01, horizon=30.0, seed=0)

        raw = simulate(plant, ConstantController(3.0), 1.0, cfg=cfg)
        assert not compute_step_metrics(raw, band=0.02).settled

        wrapped = SupervisedController(ConstantController(3.0), PidController(zn), (0.0, 3.0),
                                       theta_hi=0.2, theta_lo=0.1, dwell=5, agree_tol=None)
        traj = simulate(plant, wrapped, 1.0, cfg=cfg)
        assert compute_step_metrics(traj, band=0.02).settled
        assert any(ev.direction == "AI->FALLBACK" for ev in wrapped.log)

        # bumpless handover: with pid_sync applicable and e unchanged across the
        # step, the output discontinuity is <= 1e-6
        ctl = SupervisedController(ConstantController(1.5), PidController(zn), (0.0, 3.0),
                                   theta_hi=0.2, theta_lo=0.1, dwell=3, agree_tol=None)
        ctl.reset()
        outs = [ctl.step(1.0, 0.0, 0.05) for _ in range(8)]
        k = mode_sequence(ctl.log, len(outs)).index(MODE_FALLBACK)
        jump = abs(outs[k] - outs[k - 1])
        assert jump <= 1e-6
    b.report(f"supervised run settles, raw run does not; {len(wrapped.log)} transition(s); "
             f"handover jump {jump:.1e} <= 1e-6")


def test_ac9_bounded_influence():
    with Budget("AC-9", 5.0) as b:
        conventional, correction = ConstantController(0.0), ConstantController(0.0)
        blender = BlendedController(conventional, correction, (-3.0, 3.0), delta=0.2)
        rng = np.random.default_rng(7)
        violations = 0
        worst = 0.0
        for _ in range(100_000):
            u_conv = float(rng.uniform(-1.5, 1.5))
            roll = rng.random()
            if roll < 0.04:
                corr = math.nan
            elif roll < 0.08:
                corr = math.inf if rng.random() < 0.5 else -math.inf
            else:
                corr = float(rng.normal(0.0, 25.0))
            conventional.value, correction.value = u_conv, corr
            u = blender.step(0.0, 0.0, 0.01)
            d = abs(u - u_conv)
            worst = max(worst, d)
            if d > 0.2:
                violations += 1
        assert violations == 0
        assert worst <= 0.2
    b.report(f"100000 fuzzed steps (incl. non-finite): zero violations, max |u-u_conv| = {worst}")


def test_ac10_adaptive_scheduler_benefit():
    with Budget("AC-10", 180.0) as b:
        lim = 3.0
        plant = PlantModel(Fopdt(gain=1.0, tau=1.0, dead_time=0.25), u_min=-lim, u_max=lim,
                           x0=None)
        zn = tune_ziegler_nichols(
            relay_experiment(plant, 1.0, SimConfig(dt=0.005, horizon=30.0, seed=0)),
            "pid", (-lim, lim))

        dt = 0.25
        rec = simulate(plant, SignalController(
            generate_excitation(ExcitationSpec(variant="prbs", order=9, amplitude=1.0,
                                               bit_period=1.0, seed=2, levels=(), dwell=1.0,
                                               f0=0.1, f1=1.0, duration=None),
                                SimConfig(dt=dt, horizon=400.0, seed=1),
                                limits=(-math.inf, math.inf))),
            0.0, cfg=SimConfig(dt=dt, horizon=400.0, seed=1),
            gain_schedule=lambda t: 2.0 if t >= 200.0 else 1.0)
        narx, _ = fit_surrogate(rec, 2, 2,
                                TrainConfig(learning_rate=0.01, batch_size=64,
                                            max_epochs=400, patience=100, seed=0),
                                hidden=(24,), val_fraction=0.25, resampled=False)

        gs = GainScheduler(Mlp([8, 8, 3], seed=0),
                           bounds=[[0.2, 3.0], [0.05, 2.0], [0.0, 0.0]], memory=4)
        res = train_bptt(gs, narx, [np.full(121, 0.5), np.full(121, 1.0)], horizon=120,
                         cfg=TrainConfig(learning_rate=0.02, max_epochs=150, seed=0,
                                         batch_size=32, patience=10_000),
                         rho=0.01, limits=(-lim, lim))

        eval_cfg = SimConfig(dt=dt, horizon=40.0, seed=0)
        switch = lambda t: 2.0 if t >= 20.0 else 1.0
        iae_zn = compute_step_metrics(
            simulate(plant, PidController(zn), 1.0, cfg=eval_cfg,
                     gain_schedule=switch), band=0.02).iae
        ctl = ScheduledPidController(res.trained, PidGains(kp=1.0, u_min=-lim, u_max=lim))
        iae_gs = compute_step_metrics(
            simulate(plant, ctl, 1.0, cfg=eval_cfg,
                     gain_schedule=switch), band=0.02).iae
        assert iae_gs <= iae_zn
    b.report(f"gain-doubling episode IAE: scheduler {iae_gs:.3f} <= fixed ZN {iae_zn:.3f}")


def test_ac11_inference_latency():
    """The deployed step of a 9-32-32-1 neural controller (memory 4): row
    pass, tanh squash and window shift. One loop, from its reset, takes 100
    untimed steps and then 1,000 timed on the monotonic clock, each on a
    zero reference and measurement, as a closed-loop run makes them."""
    with Budget("AC-11", 10.0) as b:
        net = Mlp([9, 32, 32, 1], seed=0)
        assert net.n_params <= 5000
        step = NeuralControlLoop(NeuralController(net, -1.0, 1.0, 4)).step
        for _ in range(100):
            step(0.0, 0.0, 0.0)  # a neural step reads no dt
        times_ms = np.empty(1000)
        for i in range(len(times_ms)):
            start = time.perf_counter_ns()
            step(0.0, 0.0, 0.0)
            times_ms[i] = (time.perf_counter_ns() - start) / 1e6
        median_ms = float(np.median(times_ms))
        assert median_ms < 3.9
    b.report(f"{net.n_params}-parameter controller: median control step "
             f"{median_ms * 1000:.0f}us (< 3.9ms), p95 {np.percentile(times_ms, 95) * 1000:.0f}us")


AC12_CONFIG = {
    "sim": {"dt": 0.5, "horizon": 300.0, "seed": 11},
    "plant": {"variant": "fopdt", "gain": 1.0, "tau": 1.0, "dead_time": 0.5,
              "limits": [-4.0, 4.0]},
    "excitation": {"variant": "prbs", "order": 8, "amplitude": 1.0,
                   "bit_period": 1.0, "seed": 2},
    "surrogate": {"p": 2, "q": 2, "hidden": [16], "epochs": 120, "patience": 120},
    "reference": {"variant": "step", "level": 1.0},
}

# the pipeline's nine output files, relative to its output directory
AC12_FILES = ("rec/record.csv", "sur/surrogate.weights", "sur/surrogate_report.csv",
              "tuned/gains.json", "trained/controller.weights",
              "trained/training_curve.csv", "simout/trajectory.csv",
              "simout/metrics.csv", "simout/plot.csv")


def ac12_pipeline(tmp_path, out_root):
    """record -> fit-surrogate -> tune -> train-controller -> simulate under
    `tmp_path / out_root`; returns that output directory."""
    config = AC12_CONFIG
    tune_config = {
        "sim": {"dt": 0.005, "horizon": 30.0, "seed": 11},
        "plant": config["plant"],
        "tuning": {"mode": "rule", "rule": "ziegler-nichols", "kind": "pid"},
    }
    out = tmp_path / out_root
    cfg_path = tmp_path / f"{out_root}_cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    tune_path = tmp_path / f"{out_root}_tune.json"
    tune_path.write_text(json.dumps(tune_config), encoding="utf-8")

    assert cli_main(["record", "--config", str(cfg_path),
                     "--out", str(out / "rec")]) == 0
    assert cli_main(["fit-surrogate", "--config", str(cfg_path),
                     "--data", str(out / "rec" / "record.csv"),
                     "--out", str(out / "sur")]) == 0
    assert cli_main(["tune", "--config", str(tune_path),
                     "--out", str(out / "tuned")]) == 0

    train_config = {
        "sim": {"dt": 0.05, "horizon": 30.0, "seed": 11},
        "plant": config["plant"],
        "training": {
            "mode": "imitation",
            "teacher": {"gains_path": str(out / "tuned" / "gains.json")},
            "memory": 4, "hidden": [12], "lambda": 0.5,
            "learning_rate": 0.005, "batch_size": 64, "epochs": 80,
            "patience": 80, "seed": 7, "episodes": {"count": 2, "level": 1.0},
        },
    }
    tc_path = tmp_path / f"{out_root}_train.json"
    tc_path.write_text(json.dumps(train_config), encoding="utf-8")
    assert cli_main(["train-controller", "--config", str(tc_path),
                     "--out", str(out / "trained")]) == 0

    sim_config = {
        "sim": {"dt": 0.05, "horizon": 20.0, "seed": 11},
        "plant": config["plant"],
        "controller": {"kind": "neural",
                       "model_path": str(out / "trained" / "controller.weights")},
        "reference": {"variant": "step", "level": 1.0},
    }
    sc_path = tmp_path / f"{out_root}_sim.json"
    sc_path.write_text(json.dumps(sim_config), encoding="utf-8")
    assert cli_main(["simulate", "--config", str(sc_path),
                     "--out", str(out / "simout")]) == 0
    return out


def test_ac12_end_to_end_determinism(tmp_path):
    with Budget("AC-12", 300.0) as b:
        out_a = ac12_pipeline(tmp_path, "a")
        out_b = ac12_pipeline(tmp_path, "b")

        compared = 0
        for rel in AC12_FILES:
            ba = (out_a / rel).read_bytes()
            bb = (out_b / rel).read_bytes()
            assert ba == bb, f"{rel} differs between identical pipeline runs"
            compared += 1
    b.report(f"full pipeline run twice: {compared} output files byte-identical")


def test_bumpless_transfer_invariant_direct():
    # supporting check behind AC-8: pid_sync then pid_step reproduces the
    # target to 1e-9 relative whenever ki > 0
    rng = np.random.default_rng(0)
    for _ in range(200):
        gains = PidGains(kp=float(rng.uniform(0.1, 3.0)), ki=float(rng.uniform(0.1, 3.0)),
                         kd=float(rng.uniform(0.0, 0.5)), u_min=-5.0, u_max=5.0)
        w, y = float(rng.normal()), float(rng.normal())
        target = float(rng.uniform(-4.9, 4.9))
        state = pid_sync(PidState(), target, gains, w, y)
        out = pid_step(gains, state, w, y, dt=float(rng.uniform(0.001, 0.5)))
        assert out == pytest.approx(target, rel=1e-9, abs=1e-9)
