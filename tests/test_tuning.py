import numpy as np
import pytest

from loopbench.errors import NumericalFailure
from loopbench.metrics import compute_step_metrics
from loopbench.pid import PidController
from loopbench.simcore import Fopdt, PlantModel, SignalController, SimConfig, simulate
from loopbench.tuning import (
    FopdtModel, UltimateParams, identify_fopdt_step, relay_experiment, run_step_test,
    tune_cohen_coon, tune_kappa_tau, tune_ziegler_nichols, ultimate_from_fopdt,
)


# output limits that never bind
UNBOUNDED = (-np.inf, np.inf)


def _fopdt_plant(k, tau, dead, lim=10.0):
    return PlantModel(Fopdt(gain=k, tau=tau, dead_time=dead), u_min=-lim, u_max=lim, x0=None)


def step_test(plant, cfg, step_time, u0=0.0, u1=1.0):
    """An open-loop input step from `u0` to `u1` at `step_time`: the
    `run_step_test` record with the step placed by the test."""
    u = np.where(cfg.time_grid() >= step_time, u1, u0)
    return simulate(plant, SignalController(u), 0.0, cfg=cfg)


def _step_cfg(tau, dead):
    dt = min(tau / 100.0, dead / 10.0 if dead > 0 else tau / 100.0)
    horizon = 10.0 * tau + dead + 1.0
    return SimConfig(dt=dt, horizon=horizon, seed=0)


# ---------------------------------------------------------------------------
# rule tables: exact formula values
# ---------------------------------------------------------------------------

def test_ziegler_nichols_pid_table():
    g = tune_ziegler_nichols(UltimateParams(ku=2.0, pu=1.0), "pid", UNBOUNDED)
    assert g.kp == pytest.approx(1.2, rel=1e-9)
    assert g.kp / g.ki == pytest.approx(0.5, rel=1e-9)
    assert g.kd / g.kp == pytest.approx(0.125, rel=1e-9)


def test_ziegler_nichols_pi_table():
    g = tune_ziegler_nichols(UltimateParams(ku=2.0, pu=1.0), "pi", UNBOUNDED)
    assert g.kp == pytest.approx(0.9, rel=1e-9)
    assert g.kp / g.ki == pytest.approx(1.0 / 1.2, rel=1e-9)
    assert g.kd == 0.0


def test_ziegler_nichols_p_table():
    g = tune_ziegler_nichols(UltimateParams(ku=1.0, pu=1.0), "p", UNBOUNDED)
    assert g.kp == pytest.approx(0.5, rel=1e-9)
    assert g.ki == 0.0 and g.kd == 0.0


def test_cohen_coon_reference_point():
    g = tune_cohen_coon(FopdtModel(gain=1.0, tau=1.0, dead_time=0.5), UNBOUNDED)
    assert g.kp == pytest.approx(35.0 / 12.0, rel=1e-9)       # 2.916667
    assert g.kp / g.ki == pytest.approx(17.5 / 17.0, rel=1e-9)       # 1.029412
    assert g.kd / g.kp == pytest.approx(1.0 / 6.0, rel=1e-9)         # 0.166667


def test_cohen_coon_needs_dead_time():
    with pytest.raises(NumericalFailure, match="^Cohen-Coon needs dead time > 0$"):
        tune_cohen_coon(FopdtModel(gain=1.0, tau=1.0, dead_time=0.0), UNBOUNDED)


def test_cohen_coon_gain_only_scales_kp():
    g1 = tune_cohen_coon(FopdtModel(gain=1.0, tau=1.0, dead_time=0.5), UNBOUNDED)
    g2 = tune_cohen_coon(FopdtModel(gain=2.0, tau=1.0, dead_time=0.5), UNBOUNDED)
    assert g2.kp == pytest.approx(g1.kp / 2.0, rel=1e-12)
    assert g2.kp / g2.ki == pytest.approx(g1.kp / g1.ki, rel=1e-12)
    assert g2.kd / g2.kp == pytest.approx(g1.kd / g1.kp, rel=1e-12)


def test_kappa_tau_reference_point():
    g = tune_kappa_tau(FopdtModel(gain=1.0, tau=1.0, dead_time=0.5), UNBOUNDED)
    assert g.kp == pytest.approx(1.1, rel=1e-9)
    assert g.kp / g.ki == pytest.approx(0.5 / 0.6, rel=1e-9)         # 0.833333
    assert g.kd / g.kp == pytest.approx(0.25 / 1.15, rel=1e-9)       # 0.217391


def test_kappa_tau_long_dead_time_limit():
    g = tune_kappa_tau(FopdtModel(gain=2.0, tau=1.0, dead_time=1e6), UNBOUNDED)
    assert g.kp == pytest.approx(0.2 / 2.0, rel=1e-5)


def test_kappa_tau_needs_dead_time():
    with pytest.raises(NumericalFailure, match="^Kappa-Tau needs dead time > 0$"):
        tune_kappa_tau(FopdtModel(gain=1.0, tau=1.0, dead_time=0.0), UNBOUNDED)


def test_rules_positive_over_valid_fopdt_grid():
    for tau in (0.5, 1.0, 2.0):
        for ratio in (0.1, 0.25, 0.5):
            for k in (0.5, 1.0, 2.0):
                m = FopdtModel(gain=k, tau=tau, dead_time=ratio * tau)
                for g in (tune_cohen_coon(m, UNBOUNDED), tune_kappa_tau(m, UNBOUNDED),
                          tune_ziegler_nichols(ultimate_from_fopdt(m), "pid", UNBOUNDED)):
                    assert g.kp > 0.0 and g.ki > 0.0 and g.kd > 0.0


# ---------------------------------------------------------------------------
# identification
# ---------------------------------------------------------------------------

def test_identify_recovers_known_fopdt():
    plant = _fopdt_plant(1.0, 2.0, 1.0)
    traj = step_test(plant, SimConfig(dt=0.01, horizon=25.0, seed=0), step_time=1.0)
    m = identify_fopdt_step(traj)
    assert m.gain == pytest.approx(1.0, rel=0.05)
    assert m.tau == pytest.approx(2.0, rel=0.05)
    assert m.dead_time == pytest.approx(1.0, rel=0.05)


def test_identify_gain_is_ratio_of_changes():
    plant = _fopdt_plant(2.0, 1.0, 0.2)
    traj = step_test(plant, SimConfig(dt=0.005, horizon=12.0, seed=0), step_time=0.5, u1=0.5)
    m = identify_fopdt_step(traj)
    assert m.gain == pytest.approx(2.0, rel=0.05)


def test_identify_flat_response_fails():
    plant = _fopdt_plant(0.0, 1.0, 0.1)
    traj = run_step_test(plant, SimConfig(dt=0.01, horizon=10.0, seed=0), u1=1.0)
    with pytest.raises(NumericalFailure, match="^flat response: no identifiable gain$"):
        identify_fopdt_step(traj)


def test_identify_rejects_stepless_input():
    plant = _fopdt_plant(1.0, 1.0, 0.1)
    traj = step_test(plant, SimConfig(dt=0.01, horizon=5.0, seed=0), step_time=0.25, u0=1.0)
    with pytest.raises(NumericalFailure, match="^input contains no step$"):
        identify_fopdt_step(traj)


def test_identify_gain_scaling_property():
    # doubling plant gain halves the rule kp and leaves Ti, Td alone (within tolerance)
    cfg = SimConfig(dt=0.01, horizon=15.0, seed=0)
    m1 = identify_fopdt_step(step_test(_fopdt_plant(1.0, 1.0, 0.3), cfg, step_time=0.5))
    m2 = identify_fopdt_step(step_test(_fopdt_plant(2.0, 1.0, 0.3), cfg, step_time=0.5))
    g1, g2 = tune_cohen_coon(m1, UNBOUNDED), tune_cohen_coon(m2, UNBOUNDED)
    assert g2.kp == pytest.approx(g1.kp / 2.0, rel=0.02)
    assert g2.kp / g2.ki == pytest.approx(g1.kp / g1.ki, rel=0.02)
    assert g2.kd / g2.kp == pytest.approx(g1.kd / g1.kp, rel=0.02)


# ---------------------------------------------------------------------------
# relay experiment
# ---------------------------------------------------------------------------

def test_relay_matches_phase_crossover_oracle():
    # oracle: w L + atan(w tau) = pi gives w ~ 3.673, Ku ~ 3.81, Pu ~ 1.71
    plant = _fopdt_plant(1.0, 1.0, 0.5)
    up = relay_experiment(plant, 1.0, SimConfig(dt=0.005, horizon=30.0, seed=0))
    assert up.ku == pytest.approx(3.81, rel=0.10)
    assert up.pu == pytest.approx(1.71, rel=0.10)


def test_relay_amplitude_invariance():
    plant = _fopdt_plant(1.0, 1.0, 0.5)
    cfg = SimConfig(dt=0.005, horizon=30.0, seed=0)
    ku1 = relay_experiment(plant, 0.5, cfg).ku
    ku2 = relay_experiment(plant, 1.0, cfg).ku
    assert ku2 == pytest.approx(ku1, rel=0.05)


def test_relay_no_limit_cycle_without_dead_time():
    plant = _fopdt_plant(1.0, 1.0, 0.0)
    with pytest.raises(NumericalFailure, match="^oscillation at the sampling scale, not a process limit cycle$"):
        relay_experiment(plant, 1.0, SimConfig(dt=0.01, horizon=30.0, seed=0))


def test_ultimate_from_fopdt_reference():
    up = ultimate_from_fopdt(FopdtModel(gain=1.0, tau=1.0, dead_time=0.5))
    assert up.ku == pytest.approx(3.806, rel=1e-3)
    assert up.pu == pytest.approx(1.711, rel=1e-3)


# ---------------------------------------------------------------------------
# end-to-end pipeline property
# ---------------------------------------------------------------------------

def test_pipeline_settles_over_fopdt_grid():
    # step test -> identify -> each rule -> closed loop settles into the
    # +-5% band within 20 (tau + L) on the true plant
    for tau in (0.5, 1.0, 2.0):
        for ratio in (0.1, 0.25, 0.5):
            for k in (0.5, 1.0, 2.0):
                dead = ratio * tau
                plant = _fopdt_plant(k, tau, dead, lim=50.0)
                ident = identify_fopdt_step(
                    step_test(plant, _step_cfg(tau, dead), step_time=0.5))
                rules = [tune_cohen_coon(ident, UNBOUNDED), tune_kappa_tau(ident, UNBOUNDED),
                         tune_ziegler_nichols(ultimate_from_fopdt(ident), "pid", UNBOUNDED)]
                horizon = 20.0 * (tau + dead)
                cfg = SimConfig(dt=min(tau / 50.0, max(dead / 8.0, 1e-3)), horizon=horizon, seed=0)
                for gains in rules:
                    traj = simulate(plant, PidController(gains), 1.0, cfg=cfg)
                    metrics = compute_step_metrics(traj, band=0.05)
                    assert metrics.settled, (
                        f"tau={tau} L={dead} K={k} gains=({gains.kp:.3g},{gains.ki:.3g},{gains.kd:.3g})"
                    )
