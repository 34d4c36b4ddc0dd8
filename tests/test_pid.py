import itertools
import math

import numpy as np
import pytest

from loopbench.errors import ControllerFault
from loopbench.pid import (
    STRUCTURES, CascadeController, CascadeSpec, CascadeState, PidGains, PidState,
    cascade_step, pid_step, pid_sync,
)
from loopbench.simcore import LinearStateSpace, PlantModel, SimConfig, simulate


def test_pure_proportional():
    gains = PidGains(kp=2.0, u_min=-math.inf, u_max=math.inf)
    u = pid_step(gains, PidState(), w=1.0, y=0.75, dt=0.1)
    assert u == pytest.approx(0.5)


def test_integral_accumulation_constant_error():
    gains = PidGains(kp=0.0, ki=1.0, u_min=-math.inf, u_max=math.inf)
    state = PidState()
    u = 0.0
    for _ in range(3):
        u = pid_step(gains, state, w=1.0, y=0.0, dt=0.1)
    assert u == pytest.approx(0.3, abs=1e-12)


def test_clamp_and_frozen_integrator():
    gains = PidGains(kp=1.0, ki=1.0, u_min=-1.0, u_max=1.0)
    state = PidState()
    u = pid_step(gains, state, w=1.5, y=0.0, dt=0.1)  # unsaturated would be 1.65
    assert u == 1.0
    assert state.integrator == 0.0  # increment frozen while saturated high


def test_antiwindup_integrator_nonincreasing_while_saturated():
    gains = PidGains(kp=2.0, ki=1.5, u_min=-1.0, u_max=1.0)
    state = PidState()
    prev = 0.0
    for _ in range(50):
        u = pid_step(gains, state, w=5.0, y=0.0, dt=0.05)
        assert u == 1.0
        assert state.integrator <= prev + 1e-15
        prev = state.integrator


def test_nonfinite_input_raises():
    with pytest.raises(ControllerFault):
        pid_step(PidGains(kp=1.0, u_min=-math.inf, u_max=math.inf), PidState(), w=math.nan,
                 y=0.0, dt=0.1)


def test_derivative_on_measurement_no_setpoint_kick():
    gains = PidGains(kp=1.0, kd=0.5, u_min=-math.inf, u_max=math.inf)
    state = PidState()
    pid_step(gains, state, w=0.0, y=0.0, dt=0.1)
    # reference jumps, measurement does not: derivative term must stay zero
    u = pid_step(gains, state, w=1.0, y=0.0, dt=0.1)
    assert u == pytest.approx(1.0)
    # measurement jump does produce derivative action (negative)
    u = pid_step(gains, state, w=1.0, y=0.5, dt=0.1)
    assert u < 0.5


def test_sync_reaches_target_exactly():
    gains = PidGains(kp=1.0, ki=1.0, u_min=-math.inf, u_max=math.inf)
    state = pid_sync(PidState(), 0.7, gains, w=1.0, y=1.0)  # e = 0
    u = pid_step(gains, state, w=1.0, y=1.0, dt=0.1)
    assert u == pytest.approx(0.7, abs=1e-9)


def test_sync_exact_for_nonzero_error_too():
    gains = PidGains(kp=2.0, ki=0.5, u_min=-math.inf, u_max=math.inf)
    state = pid_sync(PidState(), 0.4, gains, w=1.0, y=0.25)
    u = pid_step(gains, state, w=1.0, y=0.25, dt=0.07)
    assert u == pytest.approx(0.4, abs=1e-9)


def test_sync_natural_output_is_fixed_point():
    gains = PidGains(kp=1.5, ki=0.8, u_min=-math.inf, u_max=math.inf)
    state = PidState(integrator=0.3, last_error=0.0, last_meas=2.0, primed=True)
    # at equilibrium (e = 0, settled measurement) the natural output is P + I
    natural = gains.kp * (1.0 * 2.0 - 2.0) + state.integrator
    synced = pid_sync(state, natural, gains, w=2.0, y=2.0)
    assert synced.integrator == pytest.approx(state.integrator)
    assert synced.last_error == 0.0
    assert synced.last_meas == 2.0


def test_sync_impossible_without_integral_action():
    gains = PidGains(kp=1.0, ki=0.0, u_min=-math.inf, u_max=math.inf)
    with pytest.raises(ValueError, match="^no integral action: cannot reach the requested output$"):
        pid_sync(PidState(), 0.9, gains, w=1.0, y=0.5)  # kp*e = 0.5 != 0.9


def test_sync_target_outside_limits_rejected():
    gains = PidGains(kp=1.0, ki=1.0, u_min=-1.0, u_max=1.0)
    with pytest.raises(ValueError):
        pid_sync(PidState(), 2.0, gains, w=0.0, y=0.0)


def test_cascade_composition_of_proportional():
    spec = CascadeSpec(outer=PidGains(kp=1.0, u_min=-math.inf, u_max=math.inf),
                       inner=PidGains(kp=1.0, u_min=-math.inf, u_max=math.inf))
    u = cascade_step(spec, CascadeState(PidState(), PidState()),
                     w=1.0, y_outer=0.0, y_inner=0.0, dt=0.1)
    assert u == pytest.approx(1.0)


def test_cascade_outer_clamp_limits_inner_reference():
    spec = CascadeSpec(outer=PidGains(kp=1.0, u_min=-0.5, u_max=0.5),
                       inner=PidGains(kp=1.0, u_min=-math.inf, u_max=math.inf))
    u = cascade_step(spec, CascadeState(PidState(), PidState()),
                     w=1.0, y_outer=0.0, y_inner=0.0, dt=0.1)
    assert u == pytest.approx(0.5)


def test_cascade_zero_error_zero_output():
    spec = CascadeSpec(outer=PidGains(kp=2.0, u_min=-math.inf, u_max=math.inf),
                       inner=PidGains(kp=3.0, u_min=-math.inf, u_max=math.inf))
    u = cascade_step(spec, CascadeState(PidState(), PidState()),
                     w=1.0, y_outer=1.0, y_inner=0.0, dt=0.1)
    assert u == pytest.approx(0.0)


def test_structure_equivalence_pid_vs_pid_deriv_on_meas():
    # with kd = 0 the PID and PI-D wirings are the same law on any stream
    rng = np.random.default_rng(5)
    s1, s2 = PidState(), PidState()
    g1 = PidGains(kp=1.3, ki=0.7, kd=0.0, structure="pid", u_min=-math.inf, u_max=math.inf)
    g2 = PidGains(kp=1.3, ki=0.7, kd=0.0, structure="pi-d", u_min=-math.inf, u_max=math.inf)
    for _ in range(200):
        w, y = rng.normal(), rng.normal()
        assert pid_step(g1, s1, w, y, 0.05) == pid_step(g2, s2, w, y, 0.05)


def test_measurement_proportional_structures_ignore_setpoint_in_p():
    gains = PidGains(kp=2.0, structure="pi-pd", u_min=-math.inf, u_max=math.inf)
    u = pid_step(gains, PidState(), w=1.0, y=0.25, dt=0.1)
    assert u == pytest.approx(-0.5)  # P on -y only


def test_output_always_within_limits_fuzz():
    rng = np.random.default_rng(11)
    gains = PidGains(kp=3.0, ki=2.0, kd=0.4, u_min=-2.0, u_max=1.5)
    state = PidState()
    for _ in range(2000):
        u = pid_step(gains, state, float(rng.normal(0, 5)), float(rng.normal(0, 5)), 0.02)
        assert -2.0 <= u <= 1.5
        assert math.isfinite(state.integrator)


def test_cascade_controller_in_simulation():
    # position/velocity double integrator: outer loop position, inner velocity
    plant = PlantModel(
        LinearStateSpace(a=[[0.0, 1.0], [0.0, 0.0]], b=[0.0, 1.0],
                         c=[[1.0, 0.0], [0.0, 1.0]]),
        u_min=-5.0, u_max=5.0, x0=None,
    )
    spec = CascadeSpec(outer=PidGains(kp=2.0, u_min=-2.0, u_max=2.0),
                       inner=PidGains(kp=8.0, u_min=-5.0, u_max=5.0))
    traj = simulate(plant, CascadeController(spec), 1.0,
                    cfg=SimConfig(dt=0.005, horizon=8.0, seed=0))
    assert traj.y[-1] == pytest.approx(1.0, abs=0.05)
    assert traj.y_extra is not None and traj.y_extra.shape[1] == 1


# ---------------------------------------------------------------------------
# pid_step bit for bit against the form that reads its fields on every use
# ---------------------------------------------------------------------------

def _reference_pid_step(gains, state, w, y, dt):
    """`pid_step` with every gain and state field read from its object at
    each use: the reference for the bits of the output and of the state."""
    if not (math.isfinite(w) and math.isfinite(y)):
        raise ControllerFault("non-finite reference or measurement")
    e = w - y
    if not state.primed:
        state.last_error = e
        state.last_meas = y
        state.d_filt = 0.0
    p_term = gains.kp * (gains.setpoint_weight * w - y)
    d_term = 0.0
    if gains.kd > 0.0:
        tf = gains.kd / (gains.kp * gains.deriv_filter_n) if gains.kp > 0.0 else 0.0
        state.d_filt = (tf * state.d_filt + (y - state.last_meas)) / (tf + dt)
        d_term = -gains.kd * state.d_filt
    inc = gains.ki * dt * 0.5 * (e + state.last_error)
    u_unsat = p_term + state.integrator + inc + d_term
    if u_unsat > gains.u_max:
        u = gains.u_max
        inc = min(inc, 0.0)
    elif u_unsat < gains.u_min:
        u = gains.u_min
        inc = max(inc, 0.0)
    else:
        u = u_unsat
    state.integrator += inc
    state.last_error = e
    state.last_meas = y
    state.primed = True
    if not math.isfinite(u):
        raise ControllerFault("non-finite controller output")
    return u


def _step_both(gains, got, want, w, y, dt):
    """One call on each side: the same output bits or the same error, and
    then the same state bits (the repr tells -0.0 from 0.0)."""
    outcomes = []
    for step, state in ((pid_step, got), (_reference_pid_step, want)):
        try:
            outcomes.append(repr(step(gains, state, w, y, dt)))
        except ControllerFault as exc:
            outcomes.append(f"raises {exc}")
    assert outcomes[0] == outcomes[1]
    assert repr(got) == repr(want)
    return outcomes[0]


def _primed():
    return PidState(integrator=0.3, last_error=-0.2, last_meas=0.5, d_filt=0.1, primed=True)


@pytest.mark.parametrize("structure", STRUCTURES)
def test_pid_step_bit_equal_to_reference(structure):
    """Streams from an unprimed and a primed state, for each structure's
    setpoint weight, with and without integral and derivative action
    (derivative also with kp = 0), unbounded and saturating at both limits."""
    rng = np.random.default_rng(STRUCTURES.index(structure))
    hits = set()
    for kp, ki, kd, (lo, hi) in itertools.product((0.0, 0.8, 3.0), (0.0, 1.2), (0.0, 0.15),
                                                  ((-math.inf, math.inf), (-1.0, 1.5))):
        gains = PidGains(kp=kp, ki=ki, kd=kd, structure=structure, u_min=lo, u_max=hi)
        for got, want in ((PidState(), PidState()), (_primed(), _primed())):
            for _ in range(40):
                scale = rng.choice([1e-3, 1.0, 20.0])
                out = _step_both(gains, got, want, float(rng.normal() * scale),
                                 float(rng.normal() * scale), float(rng.uniform(0.005, 0.2)))
                hits.add(out)
    assert {"-1.0", "1.5"} <= hits


@pytest.mark.parametrize("limits", [(-2.0, -1.0), (1.0, 2.0)], ids=["high", "low"])
def test_pid_step_saturated_negative_zero_increment_bit_equal(limits):
    """w = -0.0 and y = 0.0 give an error and an increment of -0.0 that
    saturates at the upper (output 0.0 > -1.0) or the lower limit: the frozen
    increment stays -0.0, so an integrator of -0.0 stays -0.0."""
    gains = PidGains(kp=1.0, ki=1.0, u_min=limits[0], u_max=limits[1])
    for make in (PidState, lambda: PidState(integrator=-0.0, last_error=-0.0, primed=True)):
        got, want = make(), make()
        assert _step_both(gains, got, want, -0.0, 0.0, 0.1) == repr(limits[0] if limits[0] > 0
                                                                    else limits[1])
        assert repr(got.last_error) == "-0.0"
    assert repr(got.integrator) == "-0.0"


@pytest.mark.parametrize("w, y", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan)])
def test_pid_step_non_finite_input_leaves_the_state_untouched(w, y):
    gains = PidGains(kp=1.0, ki=0.5, kd=0.1, u_min=-1.0, u_max=1.0)
    for make in (PidState, _primed):
        got, want = make(), make()
        before = repr(got)
        assert _step_both(gains, got, want, w, y, 0.1) == \
            "raises non-finite reference or measurement"
        assert repr(got) == before


@pytest.mark.parametrize("kd", [0.0, 0.1])
def test_pid_step_non_finite_output_leaves_the_reference_state(kd):
    """kp * error overflows to inf past unbounded limits: the call raises
    after writing the state, which then equals the reference's."""
    gains = PidGains(kp=1e308, ki=0.5, kd=kd, u_min=-math.inf, u_max=math.inf)
    for make in (PidState, _primed):
        got, want = make(), make()
        assert _step_both(gains, got, want, 5.0, 0.0, 0.1) == \
            "raises non-finite controller output"
        assert got.primed and repr(got) != repr(make())
