import math

import numpy as np
import pytest

from loopbench.errors import ControllerFault, NumericalFailure
from loopbench.metrics import compute_step_metrics
from loopbench.pid import PidController, PidGains
from loopbench.safety import (
    MODE_AI, MODE_FALLBACK, BlendedController, SupervisedController, write_transition_log,
)
from loopbench.simcore import ConstantController, Fopdt, PlantModel, SimConfig, simulate
from loopbench.tuning import FopdtModel, tune_ziegler_nichols, ultimate_from_fopdt

LIMITS = (-3.0, 3.0)


def mode_sequence(log, n: int) -> list[str]:
    """The switch's mode after each of `n` steps, rebuilt from its transition
    log: an event logged on step k sets the mode from step k on."""
    modes, mode = [], MODE_AI
    for ev in log:
        modes += [mode] * (ev.step - len(modes))
        mode = ev.direction.split("->")[1]
    return modes + [mode] * (n - len(modes))


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


def _supervised(dwell, mode=MODE_AI):
    """A switch between two scripted controllers, starting in `mode`."""
    ctl = SupervisedController(_Scripted(), _Scripted(), LIMITS, theta_hi=0.2, theta_lo=0.1,
                               dwell=dwell, agree_tol=None)
    ctl.mode = mode
    return ctl


def _select(ctl, u_ai, u_fb, e, dt=0.01):
    """One supervised step on scripted outputs with error e (w = e, y = 0);
    returns (selected command, mode after the step)."""
    ctl.ai.u, ctl.fallback.u = u_ai, u_fb
    return ctl.step(e, 0.0, dt), ctl.mode


def test_nonfinite_ai_switches_immediately_with_cause():
    ctl = _supervised(dwell=5)
    u, mode = _select(ctl, math.nan, 0.4, e=0.0)
    assert mode == MODE_FALLBACK and u == 0.4
    assert len(ctl.log) == 1
    assert ctl.log[0].cause == "nonfinite"
    assert ctl.log[0].direction == "AI->FALLBACK"


def test_out_of_range_ai_switches_immediately():
    ctl = _supervised(dwell=5)
    u, mode = _select(ctl, 99.0, 0.1, e=0.0)
    assert mode == MODE_FALLBACK
    assert ctl.log[0].cause == "out-of-range"


def test_small_error_stays_in_ai_mode():
    ctl = _supervised(dwell=5)
    for _ in range(100):
        u, mode = _select(ctl, 0.5, -0.5, e=0.05)
        assert mode == MODE_AI and u == 0.5
    assert ctl.log == []


def test_error_threshold_needs_dwell():
    ctl = _supervised(dwell=5)
    for k in range(4):
        _, mode = _select(ctl, 0.5, 0.0, e=0.3)
        assert mode == MODE_AI
    _, mode = _select(ctl, 0.5, 0.0, e=0.3)
    assert mode == MODE_FALLBACK
    assert ctl.log[0].cause == "error-threshold"


def test_recovery_needs_dwell_and_valid_ai():
    ctl = _supervised(dwell=3, mode=MODE_FALLBACK)
    for _ in range(2):
        _, mode = _select(ctl, 0.5, 0.0, e=0.05)
        assert mode == MODE_FALLBACK
    _, mode = _select(ctl, 0.5, 0.0, e=0.05)
    assert mode == MODE_AI
    # an invalid AI output never re-enters, however small the error
    _, mode = _select(_supervised(dwell=1, mode=MODE_FALLBACK), math.inf, 0.0, e=0.0)
    assert mode == MODE_FALLBACK


def test_nonfinite_fallback_is_unrecoverable():
    # the fallback PID's output overflows, so pid_step faults; with nothing
    # left to switch to, the supervisor ends the run in either mode
    for mode in (MODE_AI, MODE_FALLBACK):
        fallback = PidController(PidGains(kp=1e308, u_min=-math.inf, u_max=math.inf))
        ctl = SupervisedController(_Scripted(), fallback, LIMITS, theta_hi=0.2, theta_lo=0.1,
                                   dwell=5, agree_tol=None)
        ctl.mode = mode
        with pytest.raises(NumericalFailure,
                           match=r"^fallback failed: non-finite controller output \(step 0\)$"):
            ctl.step(10.0, 0.0, 0.01)


def test_hysteresis_transitions_spaced_by_dwell():
    # alternate loud/quiet error stretches; consecutive transitions must be
    # at least `dwell` steps apart for finite in-range AI commands
    ctl = _supervised(dwell=4)
    rng = np.random.default_rng(0)
    for _ in range(3000):
        e = float(rng.choice([0.05, 0.3]))
        _select(ctl, 0.5, 0.45, e=e)
    steps = [ev.step for ev in ctl.log]
    assert len(steps) > 2
    assert min(np.diff(steps)) >= 4


def test_supervisor_output_always_finite_within_limits():
    ctl = _supervised(dwell=3)
    rng = np.random.default_rng(1)
    for _ in range(5000):
        u_ai = float(rng.choice([0.5, math.nan, math.inf, 50.0, -0.7]))
        u_fb = float(rng.uniform(*LIMITS))
        u, _ = _select(ctl, u_ai, u_fb, e=float(rng.normal()))
        assert math.isfinite(u) and LIMITS[0] <= u <= LIMITS[1]


def test_transition_log_csv(tmp_path):
    ctl = _supervised(dwell=1)
    _select(ctl, math.nan, 0.0, e=0.0, dt=0.25)
    path = tmp_path / "transitions.csv"
    write_transition_log(ctl.log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,time,direction,cause"
    assert "AI->FALLBACK" in lines[1] and "nonfinite" in lines[1]


@pytest.mark.parametrize("settings", [
    {"theta_hi": 0.1, "theta_lo": 0.1}, {"theta_hi": 0.2, "theta_lo": -0.1},
    {"dwell": 0}, {"agree_tol": -0.5}, {"agree_tol": math.nan},
])
def test_switch_refuses_settings_out_of_range(settings):
    """A library caller gets the checks that `config` makes for a config file."""
    with pytest.raises(ValueError):
        SupervisedController(_Scripted(), _Scripted(), LIMITS, **{
            "theta_hi": 0.2, "theta_lo": 0.1, "dwell": 3, "agree_tol": None, **settings})


# ---------------------------------------------------------------------------
# bounded blender
# ---------------------------------------------------------------------------

UNLIMITED = (-math.inf, math.inf)


def _blended(delta, limits=UNLIMITED):
    return BlendedController(_Scripted(), _Scripted(), limits, delta=delta)


def _blend(ctl, u_conv, corr):
    """One blended step on a scripted conventional command and correction."""
    ctl.conventional.u, ctl.correction_source.u = u_conv, corr
    return ctl.step(0.0, 0.0, 0.01)


def test_blend_clamps_upper():
    assert _blend(_blended(0.2), 1.0, 0.5) == pytest.approx(1.2)


def test_blend_passthrough_inside_bound():
    assert _blend(_blended(0.2), 1.0, -0.05) == pytest.approx(0.95)


def test_blend_absorbs_nonfinite_and_logs():
    b = _blended(0.2)
    assert _blend(b, 1.0, math.nan) == pytest.approx(1.0)
    assert len(b.absorb_log) == 1
    assert b.absorb_log[0].cause == "nonfinite-correction"


def test_blend_refuses_negative_delta():
    with pytest.raises(ValueError, match="delta must be >= 0"):
        _blended(-0.1)


def test_bounded_influence_fuzz_with_nonfinite_values():
    b = _blended(0.15, limits=(-2.0, 2.0))
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
        u = _blend(b, u_conv, corr)
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

    wrapped = SupervisedController(adversarial, _zn_fallback(), (0.0, 3.0), theta_hi=0.2,
                                   theta_lo=0.1, dwell=5, agree_tol=None)
    traj = simulate(plant, wrapped, 1.0, cfg=cfg)
    assert compute_step_metrics(traj, band=0.02).settled
    assert any(ev.direction == "AI->FALLBACK" for ev in wrapped.log)


def test_supervised_handover_is_bumpless_when_error_unchanged():
    ctl = SupervisedController(ConstantController(1.5), _zn_fallback((-3.0, 3.0)), (-3.0, 3.0),
                               theta_hi=0.2, theta_lo=0.1, dwell=3, agree_tol=None)
    ctl.reset()
    # constant (w, y): error fixed above theta_hi, AI output valid
    outs = [ctl.step(1.0, 0.0, 0.05) for _ in range(10)]
    switch_at = mode_sequence(ctl.log, len(outs)).index(MODE_FALLBACK)
    assert abs(outs[switch_at] - outs[switch_at - 1]) <= 1e-6


def test_blended_controller_records_conventional_trace():
    plant = PlantModel(Fopdt(gain=1.0, tau=1.0, dead_time=0.2), u_min=-3.0, u_max=3.0, x0=None)
    pidc = PidController(PidGains(kp=1.0, ki=0.5, u_min=-3.0, u_max=3.0))
    blend = BlendedController(pidc, ConstantController(9.0), (-3.0, 3.0), delta=0.1)
    traj = simulate(plant, blend, 1.0, cfg=SimConfig(dt=0.01, horizon=5.0, seed=0))
    diffs = np.abs(traj.u - np.array(blend.u_conv_trace))
    assert float(np.max(diffs)) == pytest.approx(0.1)
    assert np.all(traj.u <= 3.0)


# ---------------------------------------------------------------------------
# events in a closed loop: the causes no golden run reaches
# ---------------------------------------------------------------------------

class _Script:
    """Controller stub playing one entry per step: a number, or an exception
    to raise on that step."""

    def __init__(self, script):
        self.script = script
        self._k = 0

    def reset(self) -> None:
        self._k = 0

    def step(self, w, y, dt):
        entry = self.script[self._k]
        self._k += 1
        if isinstance(entry, Exception):
            raise entry
        return entry


def _quiet_fopdt():
    return PlantModel(Fopdt(gain=1.0, tau=1.0, dead_time=0.0), u_min=-3.0, u_max=3.0, x0=None)


def test_switch_loop_logs_nonfinite_recovery_and_out_of_range_events():
    """Reference and output stay at 0, so only the AI's own commands move the
    switch: an inf falls back at once; a raised fault resets the re-entry
    count; three valid, agreeing steps re-admit the AI; a command outside
    the limits falls back again; and a valid command that disagrees with the
    fallback by more than 10 % of the span is never re-admitted."""
    fault = ControllerFault("scripted")
    ai = _Script([0.0, 0.0, math.inf, 0.0, 0.0, fault, 0.0, 0.0, 0.0, 0.0, 99.0] + [2.0] * 9)
    fallback = PidController(PidGains(kp=1.0, ki=1.0, u_min=-3.0, u_max=3.0))
    ctl = SupervisedController(ai, fallback, LIMITS, theta_hi=0.2, theta_lo=0.1, dwell=3,
                               agree_tol=None)
    traj = simulate(_quiet_fopdt(), ctl, 0.0, cfg=SimConfig(dt=0.25, horizon=5.0, seed=0))
    assert [(ev.step, ev.time, ev.direction, ev.cause) for ev in ctl.log] == [
        (2, 0.5, "AI->FALLBACK", "nonfinite"),
        (8, 2.0, "FALLBACK->AI", "recovered"),
        (10, 2.5, "AI->FALLBACK", "out-of-range"),
    ]
    assert mode_sequence(ctl.log, len(traj)) == [MODE_AI] * 2 + [MODE_FALLBACK] * 6 + [MODE_AI] * 2 + [MODE_FALLBACK] * 10
    assert traj.u.tolist() == [0.0] * 20


def test_blend_loop_absorbs_nonfinite_and_raised_corrections():
    """A NaN correction and a raised `ControllerFault` are both absorbed: the
    step's command is the conventional one, and the log names the step."""
    fault = ControllerFault("scripted")
    corr = _Script([0.05, 0.05, math.nan, 0.05, math.nan, 0.05, fault] + [0.05] * 3)
    ctl = BlendedController(ConstantController(0.5), corr, LIMITS, delta=0.1)
    traj = simulate(_quiet_fopdt(), ctl, 1.0, cfg=SimConfig(dt=0.25, horizon=2.5, seed=0))
    assert [(ev.step, ev.cause) for ev in ctl.absorb_log] == [
        (2, "nonfinite-correction"), (4, "nonfinite-correction"), (6, "nonfinite-correction")]
    absorbed = {2, 4, 6}
    assert traj.u.tolist() == [0.5 if k in absorbed else 0.5 + 0.05 for k in range(10)]
    assert ctl.u_conv_trace == [0.5] * 10
