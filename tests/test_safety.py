import math

import numpy as np
import pytest

from loopbench.errors import NumericalFailure
from loopbench.metrics import compute_step_metrics
from loopbench.pid import PidController, PidGains
from loopbench.safety import (
    MODE_AI, MODE_FALLBACK, BlendedController, BoundedBlender, SupervisedController,
    SwitchSupervisor, write_transition_log,
)
from loopbench.simcore import ConstantController, Fopdt, PlantModel, SimConfig, simulate
from loopbench.tuning import FopdtModel, tune_ziegler_nichols, ultimate_from_fopdt

LIMITS = (-3.0, 3.0)


class _Scripted:
    """Controller stub returning whatever `u` holds; it cannot be synced, so
    every handover is a plain one."""

    def __init__(self):
        self.u = 0.0

    def reset(self) -> None:
        pass

    def step(self, w, y, dt):
        return self.u

    def sync_to(self, u, w, y):
        raise ValueError("scripted stub")


def _supervised(sup):
    return SupervisedController(_Scripted(), _Scripted(), sup, limits=LIMITS)


def _select(ctl, u_ai, u_fb, e, dt=0.01):
    """One supervised step on scripted outputs with error e (w = e, y = 0);
    returns (selected command, mode after the step)."""
    ctl.ai.u, ctl.fallback.u = u_ai, u_fb
    return ctl.step(e, 0.0, dt), ctl.supervisor.mode


def test_nonfinite_ai_switches_immediately_with_cause():
    sup = SwitchSupervisor(theta_hi=0.2, theta_lo=0.1, dwell=5, agree_tol=None)
    u, mode = _select(_supervised(sup), math.nan, 0.4, e=0.0)
    assert mode == MODE_FALLBACK and u == 0.4
    assert len(sup.log) == 1
    assert sup.log[0].cause == "nonfinite"
    assert sup.log[0].direction == "AI->FALLBACK"


def test_out_of_range_ai_switches_immediately():
    sup = SwitchSupervisor(theta_hi=0.2, theta_lo=0.1, dwell=5, agree_tol=None)
    u, mode = _select(_supervised(sup), 99.0, 0.1, e=0.0)
    assert mode == MODE_FALLBACK
    assert sup.log[0].cause == "out-of-range"


def test_small_error_stays_in_ai_mode():
    sup = SwitchSupervisor(theta_hi=0.2, theta_lo=0.1, dwell=5, agree_tol=None)
    ctl = _supervised(sup)
    for _ in range(100):
        u, mode = _select(ctl, 0.5, -0.5, e=0.05)
        assert mode == MODE_AI and u == 0.5
    assert sup.log == []


def test_error_threshold_needs_dwell():
    sup = SwitchSupervisor(theta_hi=0.2, theta_lo=0.1, dwell=5, agree_tol=None)
    ctl = _supervised(sup)
    for k in range(4):
        _, mode = _select(ctl, 0.5, 0.0, e=0.3)
        assert mode == MODE_AI
    _, mode = _select(ctl, 0.5, 0.0, e=0.3)
    assert mode == MODE_FALLBACK
    assert sup.log[0].cause == "error-threshold"


def test_recovery_needs_dwell_and_valid_ai():
    sup = SwitchSupervisor(theta_hi=0.2, theta_lo=0.1, dwell=3, agree_tol=None)
    sup.mode = MODE_FALLBACK
    ctl = _supervised(sup)
    for _ in range(2):
        _, mode = _select(ctl, 0.5, 0.0, e=0.05)
        assert mode == MODE_FALLBACK
    _, mode = _select(ctl, 0.5, 0.0, e=0.05)
    assert mode == MODE_AI
    # an invalid AI output never re-enters, however small the error
    sup2 = SwitchSupervisor(theta_hi=0.2, theta_lo=0.1, dwell=1, agree_tol=None)
    sup2.mode = MODE_FALLBACK
    _, mode = _select(_supervised(sup2), math.inf, 0.0, e=0.0)
    assert mode == MODE_FALLBACK


def test_nonfinite_fallback_is_unrecoverable():
    # the fallback PID's output overflows, so pid_step faults; with nothing
    # left to switch to, the supervisor ends the run in either mode
    for mode in (MODE_AI, MODE_FALLBACK):
        sup = SwitchSupervisor(theta_hi=0.2, theta_lo=0.1, dwell=5, agree_tol=None)
        sup.mode = mode
        fallback = PidController(PidGains(kp=1e308, u_min=-math.inf, u_max=math.inf))
        ctl = SupervisedController(_Scripted(), fallback, sup, LIMITS)
        with pytest.raises(NumericalFailure,
                           match=r"^fallback failed: non-finite controller output \(step 0\)$"):
            ctl.step(10.0, 0.0, 0.01)


def test_hysteresis_transitions_spaced_by_dwell():
    # alternate loud/quiet error stretches; consecutive transitions must be
    # at least `dwell` steps apart for finite in-range AI commands
    sup = SwitchSupervisor(theta_hi=0.2, theta_lo=0.1, dwell=4, agree_tol=None)
    ctl = _supervised(sup)
    rng = np.random.default_rng(0)
    for _ in range(3000):
        e = float(rng.choice([0.05, 0.3]))
        _select(ctl, 0.5, 0.45, e=e)
    steps = [ev.step for ev in sup.log]
    assert len(steps) > 2
    assert min(np.diff(steps)) >= 4


def test_supervisor_output_always_finite_within_limits():
    sup = SwitchSupervisor(theta_hi=0.2, theta_lo=0.1, dwell=3, agree_tol=None)
    ctl = _supervised(sup)
    rng = np.random.default_rng(1)
    for _ in range(5000):
        u_ai = float(rng.choice([0.5, math.nan, math.inf, 50.0, -0.7]))
        u_fb = float(rng.uniform(*LIMITS))
        u, _ = _select(ctl, u_ai, u_fb, e=float(rng.normal()))
        assert math.isfinite(u) and LIMITS[0] <= u <= LIMITS[1]


def test_transition_log_csv(tmp_path):
    sup = SwitchSupervisor(theta_hi=0.2, theta_lo=0.1, dwell=1, agree_tol=None)
    _select(_supervised(sup), math.nan, 0.0, e=0.0, dt=0.25)
    path = tmp_path / "transitions.csv"
    write_transition_log(sup.log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,time,direction,cause"
    assert "AI->FALLBACK" in lines[1] and "nonfinite" in lines[1]


# ---------------------------------------------------------------------------
# bounded blender
# ---------------------------------------------------------------------------

def test_blend_clamps_upper():
    b = BoundedBlender(delta=0.2)
    assert b.blend_step(1.0, 0.5, (-math.inf, math.inf)) == pytest.approx(1.2)


def test_blend_passthrough_inside_bound():
    b = BoundedBlender(delta=0.2)
    assert b.blend_step(1.0, -0.05, (-math.inf, math.inf)) == pytest.approx(0.95)


def test_blend_absorbs_nonfinite_and_logs():
    b = BoundedBlender(delta=0.2)
    assert b.blend_step(1.0, math.nan, (-math.inf, math.inf)) == pytest.approx(1.0)
    assert len(b.absorb_log) == 1
    assert b.absorb_log[0].cause == "nonfinite-correction"


def test_bounded_influence_fuzz_with_nonfinite_values():
    b = BoundedBlender(delta=0.15)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100_000):
        u_conv = float(rng.uniform(-1.0, 1.0))
        roll = rng.random()
        if roll < 0.05:
            corr = math.nan
        elif roll < 0.1:
            corr = math.inf if rng.random() < 0.5 else -math.inf
        else:
            corr = float(rng.normal(0.0, 10.0))
        u = b.blend_step(u_conv, corr, limits=(-2.0, 2.0))
        worst = max(worst, abs(u - u_conv))
        assert abs(u - u_conv) <= 0.15
    assert worst == pytest.approx(0.15)


# ---------------------------------------------------------------------------
# loop adapters
# ---------------------------------------------------------------------------

def _zn_fallback(limits=(0.0, 3.0)):
    gains = tune_ziegler_nichols(ultimate_from_fopdt(FopdtModel(1.0, 1.0, 0.5)), "pid", limits)
    return PidController(gains)


def test_supervised_adversarial_ai_settles_where_raw_does_not():
    plant = PlantModel(Fopdt(gain=1.0, tau=1.0, dead_time=0.5), u_min=0.0, u_max=3.0, x0=None)
    cfg = SimConfig(dt=0.01, horizon=30.0, seed=0)
    adversarial = ConstantController(3.0)

    raw = simulate(plant, ConstantController(3.0), 1.0, cfg=cfg)
    assert not compute_step_metrics(raw, band=0.02).settled

    sup = SwitchSupervisor(theta_hi=0.2, theta_lo=0.1, dwell=5, agree_tol=None)
    wrapped = SupervisedController(adversarial, _zn_fallback(), sup, limits=(0.0, 3.0))
    traj = simulate(plant, wrapped, 1.0, cfg=cfg)
    assert compute_step_metrics(traj, band=0.02).settled
    assert any(ev.direction == "AI->FALLBACK" for ev in sup.log)


def test_supervised_handover_is_bumpless_when_error_unchanged():
    sup = SwitchSupervisor(theta_hi=0.2, theta_lo=0.1, dwell=3, agree_tol=None)
    ctl = SupervisedController(ConstantController(1.5), _zn_fallback((-3.0, 3.0)), sup,
                               limits=(-3.0, 3.0))
    ctl.reset()
    # constant (w, y): error fixed above theta_hi, AI output valid
    outs = [ctl.step(1.0, 0.0, 0.05) for _ in range(10)]
    switch_at = next(i for i, m in enumerate(ctl.modes) if m == MODE_FALLBACK)
    assert abs(outs[switch_at] - outs[switch_at - 1]) <= 1e-6


def test_blended_controller_records_conventional_trace():
    plant = PlantModel(Fopdt(gain=1.0, tau=1.0, dead_time=0.2), u_min=-3.0, u_max=3.0, x0=None)
    pidc = PidController(PidGains(kp=1.0, ki=0.5, u_min=-3.0, u_max=3.0))
    blend = BlendedController(pidc, ConstantController(9.0), BoundedBlender(delta=0.1),
                              limits=(-3.0, 3.0))
    traj = simulate(plant, blend, 1.0, cfg=SimConfig(dt=0.01, horizon=5.0, seed=0))
    diffs = np.abs(np.array(blend.u_trace) - np.array(blend.u_conv_trace))
    assert float(np.max(diffs)) == pytest.approx(0.1)
    assert np.all(traj.u <= 3.0)
