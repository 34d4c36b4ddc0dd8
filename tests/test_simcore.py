import gc
import math
import tracemalloc

import numpy as np
import pytest

from loopbench import simcore
from loopbench.errors import ControllerFault, SimulationDiverged
from loopbench.simcore import (
    ConstantController, DelayLine, DisturbanceSpec, Fopdt, LinearStateSpace, PlantModel,
    MAX_STEPS, SecondOrder, SensorSpec, SignalController, SimConfig, TankNonlinear, _sensor_reader,
    rk4_step, simulate,
)
from loopbench.pid import CascadeController, CascadeSpec, PidController, PidGains
from test_golden import KINDS

INTEGRATOR = PlantModel(LinearStateSpace(a=[[0.0]], b=[1.0], c=[[1.0]]), u_min=-math.inf,
                        u_max=math.inf, x0=None)


def apply_sensor(y, sensor: SensorSpec, rng: np.random.Generator):
    """One fresh sensor reading on its own noise draw: additive noise, then
    optional quantization. The reference that `simulate`'s sensor reader, which
    draws a run's noise in chunks, is checked against bit for bit."""
    y = np.asarray(y, dtype=float)
    meas = y + rng.normal(0.0, sensor.noise_std, size=y.shape) if sensor.noise_std > 0.0 else y.copy()
    if sensor.quantization > 0.0:
        meas = np.rint(meas / sensor.quantization) * sensor.quantization
    return float(meas[0]) if meas.shape == (1,) else meas


def array_rk4_step(state, u, dt, dynamics):
    """RK4's four stages on a numpy vector state: the form the float state is
    checked against bit for bit, and the one the LTI plants' precomputed map
    is checked against to rounding."""
    x = np.asarray(state, dtype=float)
    k1 = np.asarray(dynamics(x, u), dtype=float)
    k2 = np.asarray(dynamics(x + 0.5 * dt * k1, u), dtype=float)
    k3 = np.asarray(dynamics(x + 0.5 * dt * k2, u), dtype=float)
    k4 = np.asarray(dynamics(x + dt * k3, u), dtype=float)
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise SimulationDiverged("non-finite state after RK4 stage", step=-1)
    return out


def _left_to_right(terms):
    acc = terms[0]
    for term in terms[1:]:
        acc = acc + term
    return acc


def lti_step_reference(a, b, dt):
    """An LTI plant's RK4 step x -> Phi x + Gamma u over `dt`, built in index
    loops in the order `simcore._rk4_map` documents: M = dt A; T = I, then
    T = I + (M T) / k for k = 4, 3, 2; Gamma = dt (T B); Phi = I + M T; every
    sum left to right, and Gamma_i u added after (Phi x)_i. The LTI plants'
    bit reference."""
    n = len(a)
    m = [[dt * a[i][j] for j in range(n)] for i in range(n)]

    def identity_plus(t, k):
        return [[_left_to_right([m[i][l] * t[l][j] for l in range(n)]) / k
                 + (1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]

    t = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for k in (4.0, 3.0, 2.0):
        t = identity_plus(t, k)
    gamma = [dt * _left_to_right([t[i][j] * b[j] for j in range(n)]) for i in range(n)]
    phi = identity_plus(t, 1.0)
    return lambda x, u: tuple(_left_to_right([phi[i][j] * x[j] for j in range(n)]) + gamma[i] * u
                              for i in range(n))


def lti_output_reference(c, x):
    """C x with each output summed left to right: a float for one output, a
    numpy vector for several."""
    y = [_left_to_right([ci[j] * x[j] for j in range(len(x))]) for ci in c]
    return y[0] if len(y) == 1 else np.array(y)


def test_rk4_exponential_decay():
    # closed form: e^(-0.1) = 0.90483742
    out = rk4_step(1.0, 0.0, 0.1, lambda x, u: -x)
    assert out == pytest.approx(0.9048375, abs=1e-6)
    assert out == pytest.approx(math.exp(-0.1), abs=1e-6)


def test_rk4_zero_derivative_exact():
    assert rk4_step(3.25, 0.0, 0.7, lambda x, u: 0.0) == 3.25


def test_rk4_constant_derivative_exact():
    assert rk4_step(0.0, 1.0, 0.5, lambda x, u: u) == 0.5


def test_rk4_order_error_ratio():
    # halving dt from 0.1 to 0.05 must shrink the max error on y' = -y by >= 14x
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


def test_rk4_nonfinite_derivative_raises():
    with pytest.raises(SimulationDiverged):
        rk4_step(1.0, 0.0, 0.1, lambda x, u: math.nan)


def test_delay_line_three_sample_shift():
    d = DelayLine(dead_time=0.3, dt=0.1)
    outs = [d.push_pop(x) for x in (1.0, 2.0, 3.0, 4.0)]
    assert outs == [0.0, 0.0, 0.0, 1.0]


def test_delay_line_zero_is_identity():
    d = DelayLine(dead_time=0.0, dt=0.1)
    assert [d.push_pop(x) for x in (5.0, -2.0)] == [5.0, -2.0]


def test_delay_line_half_away_from_zero_rounding():
    # L/dt = 2.5 rounds to 3 samples, not banker's 2
    d = DelayLine(dead_time=0.25, dt=0.1)
    assert d.n_samples == 3


def test_delay_line_two_sample_push_pop():
    d = DelayLine(dead_time=0.2, dt=0.1)
    assert [d.push_pop(x) for x in (1.0, 2.0, 3.0)] == [0.0, 0.0, 1.0]


@pytest.mark.parametrize("dt, horizon", [(1.0, MAX_STEPS + 1.0), (1e-300, 10.0), (5e-324, 1e300)])
def test_sim_config_rejects_grids_beyond_the_step_ceiling(dt, horizon):
    with pytest.raises(ValueError, match=f"ceiling of {MAX_STEPS} steps"):
        SimConfig(dt=dt, horizon=horizon, seed=0)


def test_sim_config_accepts_a_grid_at_the_step_ceiling():
    assert MAX_STEPS == 10_000_000
    assert SimConfig(dt=1.0, horizon=float(MAX_STEPS), seed=0).n_steps == MAX_STEPS


def _retained(kind: str, steps: int) -> tuple[int, int]:
    """Bytes still allocated after a FOPDT run of `steps` steps under the
    golden cases' controller `kind`, with its trajectory and controller
    alive, and the run's length."""
    plant = PlantModel(Fopdt(gain=1.0, tau=1.0, dead_time=0.2), u_min=-3.0, u_max=3.0, x0=None)
    cfg = SimConfig(dt=0.01, horizon=steps * 0.01, seed=0)
    gc.collect()
    tracemalloc.start()
    try:
        ctl = KINDS[kind]((plant.u_min, plant.u_max))
        traj = simulate(plant, ctl, 1.0, cfg=cfg)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return retained, len(traj)


@pytest.mark.parametrize("kind, bound", [("pid", 50), ("pid+scheduler", 50), ("switch", 50),
                                         ("blend", 90)])
def test_simulate_retains_no_per_step_record_beyond_the_trajectory(kind, bound):
    """A run keeps its six float64 trajectory arrays, 48 B a step, and a
    blend run also its conventional commands for `blend.csv`; no controller
    keeps a per-step list of its own. Measured with tracemalloc as the growth
    between a 2,000- and a 20,000-step run."""
    _retained(kind, 200)  # first-run allocations out of the difference
    short, n_short = _retained(kind, 2_000)
    long, n_long = _retained(kind, 20_000)
    assert (long - short) / (n_long - n_short) <= bound


def test_simulate_p_controller_on_integrator():
    # closed loop y' = 1 - y, so y(1) = 1 - e^(-1)
    cfg = SimConfig(dt=1e-3, horizon=1.0, seed=0)
    gains = PidGains(kp=1.0, u_min=-math.inf, u_max=math.inf)
    traj = simulate(INTEGRATOR, PidController(gains), 1.0, cfg=cfg)
    assert traj.y[-1] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-3)


def test_simulate_zero_controller_stays_at_zero():
    cfg = SimConfig(dt=0.01, horizon=2.0, seed=0)
    traj = simulate(INTEGRATOR, ConstantController(0.0), 0.0, cfg=cfg)
    assert np.all(traj.y == 0.0)
    assert np.all(traj.u == 0.0)


def test_simulate_same_seed_bit_identical():
    plant = PlantModel(Fopdt(gain=1.0, tau=1.0, dead_time=0.2), u_min=-2.0, u_max=2.0, x0=None)
    dist = DisturbanceSpec(variant="gaussian", std=0.05)
    sensor = SensorSpec(noise_std=0.01)
    cfg = SimConfig(dt=0.01, horizon=3.0, seed=99)

    def run():
        gains = PidGains(kp=0.8, ki=0.4, u_min=-math.inf, u_max=math.inf)
        return simulate(plant, PidController(gains), 1.0, cfg, dist, sensor)

    a, b = run(), run()
    for name in ("t", "w", "y", "y_meas", "u", "d"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_simulate_divergence_guard_carries_step():
    # positive feedback u = +5 y on an unstable wiring blows up
    unstable = PlantModel(LinearStateSpace(a=[[1.0]], b=[1.0], c=[[1.0]]), x0=[1.0],
                          u_min=-math.inf, u_max=math.inf)

    class PositiveFeedback:
        def reset(self):
            pass

        def step(self, w, y, dt):
            return 5.0 * float(y)

    with pytest.raises(SimulationDiverged) as err:
        simulate(unstable, PositiveFeedback(), 0.0, cfg=SimConfig(dt=0.05, horizon=50.0, seed=0))
    assert err.value.step > 0


def test_simulate_nonfinite_command_is_controller_fault():
    with pytest.raises(ControllerFault):
        simulate(INTEGRATOR, ConstantController(math.nan), 0.0,
                 cfg=SimConfig(dt=0.1, horizon=1.0, seed=0))


def test_actuator_clamp_invariant_random_controllers():
    plant = PlantModel(Fopdt(gain=2.0, tau=0.5, dead_time=0.0), u_min=-1.5, u_max=1.0, x0=None)
    rng = np.random.default_rng(7)

    class NoisyController:
        def __init__(self, seed):
            self.rng = np.random.default_rng(seed)

        def reset(self):
            pass

        def step(self, w, y, dt):
            return float(self.rng.normal(0.0, 10.0))

    for seed in rng.integers(0, 1000, size=5):
        traj = simulate(plant, NoisyController(int(seed)), 0.5,
                        cfg=SimConfig(dt=0.02, horizon=2.0, seed=int(seed)))
        assert np.all(traj.u >= -1.5) and np.all(traj.u <= 1.0)


def test_apply_sensor_passthrough():
    rng = np.random.default_rng(0)
    assert apply_sensor(0.77, SensorSpec(), rng) == 0.77


def test_apply_sensor_quantization_nearest_multiple():
    rng = np.random.default_rng(0)
    assert apply_sensor(0.234, SensorSpec(quantization=0.1), rng) == pytest.approx(0.2)


def test_apply_sensor_noise_statistics():
    rng = np.random.default_rng(42)
    spec = SensorSpec(noise_std=0.01)
    samples = np.array([apply_sensor(0.0, spec, rng) for _ in range(10000)])
    assert np.std(samples) == pytest.approx(0.01, rel=0.1)


def test_sensor_hold_between_samples():
    plant = INTEGRATOR
    sensor = SensorSpec(sample_period=0.05)  # 5 steps at dt = 0.01
    cfg = SimConfig(dt=0.01, horizon=0.5, seed=0)
    traj = simulate(plant, ConstantController(1.0), 0.0, sensor=sensor, cfg=cfg)
    # measurement constant within each 5-step hold window
    for k in range(0, len(traj) - 5, 5):
        assert np.ptp(traj.y_meas[k:k + 5]) == 0.0
    # y itself keeps ramping
    assert traj.y[-1] > 0.4


def test_dead_time_lag_matches_rounding():
    # cross-correlating the input with the output increments peaks at round(L/dt)
    dead = 0.25
    dt = 0.1
    plant = PlantModel(Fopdt(gain=1.0, tau=0.4, dead_time=dead), u_min=-math.inf, u_max=math.inf,
                       x0=None)
    rng = np.random.default_rng(3)
    u = np.where(rng.random(400) > 0.5, 1.0, -1.0)
    cfg = SimConfig(dt=dt, horizon=40.0, seed=3)
    traj = simulate(plant, SignalController(u), 0.0, cfg=cfg)
    dy = np.diff(traj.y)
    best_lag, best_val = -1, -np.inf
    for lag in range(0, 12):
        v = float(np.dot(traj.u[: len(dy) - lag], dy[lag:]))
        if v > best_val:
            best_lag, best_val = lag, v
    assert best_lag == DelayLine(dead, dt).n_samples == 3


def test_output_disturbance_enters_response_and_measurement():
    dist = DisturbanceSpec(variant="step", injection="output", time=0.5, magnitude=0.3)
    cfg = SimConfig(dt=0.01, horizon=1.0, seed=0)
    traj = simulate(INTEGRATOR, ConstantController(0.0), 0.0, disturbance=dist, cfg=cfg)
    assert traj.y[10] == 0.0
    assert traj.y[-1] == pytest.approx(0.3)
    assert traj.y_meas[-1] == pytest.approx(0.3)


def test_input_disturbance_drives_the_plant():
    dist = DisturbanceSpec(variant="step", injection="input", time=0.0, magnitude=1.0)
    cfg = SimConfig(dt=0.01, horizon=1.0, seed=0)
    traj = simulate(INTEGRATOR, ConstantController(0.0), 0.0, disturbance=dist, cfg=cfg)
    assert traj.y[-1] == pytest.approx(0.99, abs=0.02)  # integrates the unit disturbance
    assert np.all(traj.u == 0.0)  # recorded command excludes the disturbance


def test_second_order_plant_dc_gain():
    plant = PlantModel(SecondOrder(gain=2.0, omega_n=4.0, zeta=1.0), u_min=-math.inf,
                       u_max=math.inf, x0=None)
    cfg = SimConfig(dt=0.005, horizon=6.0, seed=0)
    traj = simulate(plant, ConstantController(1.0), 0.0, cfg=cfg)
    assert traj.y[-1] == pytest.approx(2.0, rel=1e-3)


def test_tank_level_equilibrium():
    # constant inflow u settles at h with c*sqrt(h) = u, i.e. h = (u/c)^2
    from loopbench.simcore import TankNonlinear

    plant = PlantModel(TankNonlinear(area=0.5, outflow_coeff=2.0), u_min=0.0, u_max=5.0, x0=None)
    traj = simulate(plant, ConstantController(1.0), 0.0,
                    cfg=SimConfig(dt=0.01, horizon=10.0, seed=0))
    assert traj.y[-1] == pytest.approx(0.25, rel=1e-2)


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, horizon=1.0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.1, horizon=-1.0, seed=0)
    assert SimConfig(dt=0.1, horizon=1.0, seed=0).n_steps == 10


# ---------------------------------------------------------------------------
# Float-state fast path: bit-for-bit against the array reference
# ---------------------------------------------------------------------------

def _array_dynamics(v):
    """The vector-state derivatives the float-state plants are checked
    against bit for bit, and the LTI plants to rounding."""
    if isinstance(v, LinearStateSpace):
        return lambda x, u: v.a @ x + v.b * u
    if isinstance(v, Fopdt):
        return lambda x, u: np.array([(v.gain * u - x[0]) / v.tau])
    if isinstance(v, SecondOrder):
        wn = v.omega_n
        return lambda x, u: np.array([x[1], v.gain * wn * wn * u - 2.0 * v.zeta * wn * x[1]
                                      - wn * wn * x[0]])
    return lambda x, u: np.array([(u - v.outflow_coeff * math.sqrt(max(x[0], 0.0))) / v.area])


def _lti(v):
    """(A, B, C) as nested float lists, a second-order plant in its companion
    form (state y, y'); None for a float-state plant."""
    if isinstance(v, SecondOrder):
        wn = v.omega_n
        return [[0.0, 1.0], [-(wn * wn), -2.0 * v.zeta * wn]], [0.0, v.gain * (wn * wn)], [[1.0, 0.0]]
    if isinstance(v, LinearStateSpace):
        return v.a.tolist(), v.b.tolist(), v.c.tolist()
    return None


def _rk4_or_diverged(state, u, dt, dynamics, step=rk4_step):
    try:
        return step(state, u, dt, dynamics)
    except SimulationDiverged:
        return "diverged"


def _linear(n_states, n_outputs, seed):
    rng = np.random.default_rng(seed)
    return LinearStateSpace(a=rng.normal(0.0, 2.0, size=(n_states, n_states)),
                            b=rng.normal(0.0, 1.0, size=n_states),
                            c=rng.normal(0.0, 1.0, size=(n_outputs, n_states)))


@pytest.mark.parametrize("variant", [
    Fopdt(gain=1.7, tau=0.35, dead_time=0.0),
    TankNonlinear(area=0.8, outflow_coeff=1.3),
    SecondOrder(gain=2.5, omega_n=3.0, zeta=0.15),
    # (states, outputs): 1x1, 2x1, 2x2, 4x1, 4x3
    _linear(1, 1, 1), _linear(2, 1, 2), _linear(2, 2, 3), _linear(4, 1, 4), _linear(4, 3, 5),
])
@pytest.mark.bits
def test_float_state_rk4_matches_array_branch_bitwise(variant):
    """Every plant's float-state step with `==` on its bits: FOPDT and the
    tank against RK4's stages on a numpy vector, an LTI plant's map and
    output against `lti_step_reference` and `lti_output_reference`. No form
    makes a BLAS call, so this also runs under the portable profile
    (tests/test_nnet.py)."""
    plant = PlantModel(variant, u_min=-math.inf, u_max=math.inf, x0=None)
    lti = _lti(variant)
    rng = np.random.default_rng(2024)
    n = 10_000
    # states and inputs over many decades and both signs: negative tank
    # levels exercise the drain clamp; the tail overflows to non-finite
    states = rng.normal(0.0, 1.0, size=(n, plant.state_dim)) * 10.0 ** rng.integers(-6, 7, size=(n, 1))
    states[-20:] *= 1e300
    inputs = rng.normal(0.0, 1.0, size=n) * 10.0 ** rng.integers(-6, 7, size=n)
    steps = 10.0 ** rng.uniform(-4.0, 0.0, size=n)
    output = plant.output_map()
    for x, u, dt in zip(states, inputs.tolist(), steps.tolist()):
        if lti is None:
            fast = _rk4_or_diverged(float(x[0]), u, dt, plant.dynamics(dt))
            slow = _rk4_or_diverged(x, u, dt, _array_dynamics(variant), array_rk4_step)
            assert fast == slow if isinstance(slow, str) else [fast] == slow.tolist()
            continue
        a, b, c = lti
        x = tuple(x.tolist())
        y = output(x)
        assert isinstance(y, float) == (plant.n_outputs == 1)
        assert np.array(y).tobytes() == np.array(lti_output_reference(c, x)).tobytes()
        fast = _rk4_or_diverged(x, u, dt, plant.dynamics(dt))
        slow = lti_step_reference(a, b, dt)(x, u)
        if not all(map(math.isfinite, slow)):
            assert fast == "diverged"
        else:
            assert np.array(fast).tobytes() == np.array(slow).tobytes()


@pytest.mark.parametrize("variant", [
    SecondOrder(gain=2.5, omega_n=3.0, zeta=0.15),
    _linear(1, 1, 1), _linear(2, 1, 2), _linear(3, 2, 6), _linear(4, 3, 5),
])
def test_lti_step_map_agrees_with_the_stage_form(variant):
    """An LTI plant's step is RK4's four stages rearranged into x -> Phi x +
    Gamma u, so the two differ by rounding alone: within 1e-14 (about 45
    ulps of 1) of |x|_inf + dt |B|_inf |u|, over steps with dt |A|_inf up
    to 1."""
    plant = PlantModel(variant, u_min=-math.inf, u_max=math.inf, x0=None)
    a, b, _ = _lti(variant)
    stages = _array_dynamics(variant)
    a_norm, b_norm = np.abs(a).sum(axis=1).max(), np.abs(b).max()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(2000):
        x = rng.normal(0.0, 1.0, size=plant.state_dim) * 10.0 ** rng.uniform(-3.0, 3.0)
        u = float(rng.normal(0.0, 1.0) * 10.0 ** rng.uniform(-3.0, 3.0))
        dt = float(10.0 ** rng.uniform(-4.0, 0.0)) / a_norm
        fast = np.array(rk4_step(tuple(x.tolist()), u, dt, plant.dynamics(dt)))
        slow = array_rk4_step(x, u, dt, stages)
        scale = np.abs(x).max() + dt * b_norm * abs(u)
        worst = max(worst, np.abs(fast - slow).max() / scale)
    assert worst <= 1e-14, worst


def test_lti_step_map_global_error_is_fourth_order():
    """x' = A x + B u with A = [[-1, 1], [0, -5]], B = (0, 1), u held at 1.5
    from x(0) = (1, -0.5), through `simulate` with both states as outputs,
    against the closed form x(t) = x_ss + e^(At) (x(0) - x_ss): halving dt
    from 0.025 to 0.0125 cuts the largest error over t in [0, 2] by about
    2^4 = 16."""
    u, x0 = 1.5, np.array([1.0, -0.5])
    x_ss = np.array([0.2, 0.2]) * u  # -A^-1 B u

    def worst_error(dt):
        plant = PlantModel(LinearStateSpace(a=[[-1.0, 1.0], [0.0, -5.0]], b=[0.0, 1.0],
                                            c=np.eye(2)), u_min=-math.inf, u_max=math.inf, x0=x0)
        traj = simulate(plant, ConstantController(u), 0.0, SimConfig(dt=dt, horizon=2.0, seed=0))
        t = traj.t
        e0, e1 = x0 - x_ss
        exact0 = x_ss[0] + np.exp(-t) * e0 + (np.exp(-t) - np.exp(-5.0 * t)) / 4.0 * e1
        exact1 = x_ss[1] + np.exp(-5.0 * t) * e1
        return max(np.abs(traj.y - exact0).max(), np.abs(traj.y_extra[:, 0] - exact1).max())

    coarse, fine = worst_error(0.025), worst_error(0.0125)
    assert coarse < 1e-6
    assert 15.0 <= coarse / fine <= 18.0, coarse / fine


@pytest.mark.parametrize("plant", [
    PlantModel(Fopdt(gain=1.5, tau=0.8, dead_time=0.15), u_min=-math.inf, u_max=math.inf, x0=None),
    PlantModel(SecondOrder(gain=1.0, omega_n=2.0, zeta=0.4), u_min=-math.inf, u_max=math.inf,
               x0=None),
    PlantModel(TankNonlinear(area=1.2, outflow_coeff=0.8), x0=[0.3], u_min=-math.inf,
               u_max=math.inf),
    PlantModel(LinearStateSpace(a=[[0.0, 1.0], [-2.0, -0.7]], b=[0.0, 2.0], c=[[1.0, 0.0]]),
               u_min=-math.inf, u_max=math.inf, x0=None),
    PlantModel(LinearStateSpace(a=[[-0.5, 0.5], [0.0, -3.0]], b=[0.0, 3.0], c=np.eye(2)),
               u_min=-math.inf, u_max=math.inf, x0=None),
], ids=["fopdt", "second_order", "tank", "linear", "linear2"])
def test_simulate_calls_rk4_step_once_per_step(plant, monkeypatch):
    """The benchmark's traced runs check `simcore.rk4_step` calls against the
    step counts of their configs, so each step integrates through it once."""
    calls = []
    real = simcore.rk4_step
    monkeypatch.setattr(simcore, "rk4_step", lambda *args: calls.append(1) or real(*args))
    cfg = SimConfig(dt=0.01, horizon=0.5, seed=0)
    traj = simulate(plant, ConstantController(0.5), 1.0,
                    disturbance=DisturbanceSpec("step", "output", time=0.2, magnitude=0.1), cfg=cfg)
    assert len(calls) == cfg.n_steps == len(traj) == 50


@pytest.mark.parametrize("sensor", [
    SensorSpec(noise_std=0.03),
    SensorSpec(quantization=0.01),
    SensorSpec(quantization=0.25),
    SensorSpec(noise_std=0.2, quantization=0.05),
])
@pytest.mark.bits
def test_float_sensor_reading_matches_apply_sensor_bitwise(sensor):
    # random readings plus exact multiples of 1/8, which sit on the
    # round-half-to-even ties of the 0.25 quantizer
    ys = np.random.default_rng(5).normal(0.0, 3.0, size=10_000).tolist()
    ys += (np.arange(-40, 41) * 0.125).tolist()
    rng = np.random.default_rng(11)
    read = _sensor_reader(sensor, 0.01, rng, len(ys), n_outputs=1)[0]
    slow = np.random.default_rng(11)
    for y in ys:
        assert read(y) == apply_sensor(np.array([y]), sensor, slow)
    # both generators end in the same state: the stream did not shift
    assert rng.random() == slow.random()


class _Seen:
    """A controller wrapper that keeps every measurement the loop hands it."""

    def __init__(self, inner):
        self.inner, self.seen = inner, []

    def reset(self):
        self.inner.reset()
        self.seen.clear()

    def step(self, w, y, dt):
        self.seen.append(y if isinstance(y, float) else y.copy())
        return self.inner.step(w, y, dt)


SENSOR_CASES = [
    SensorSpec(noise_std=0.03),
    SensorSpec(noise_std=0.03, sample_period=0.003),
    SensorSpec(noise_std=0.03, sample_period=0.007),
    SensorSpec(quantization=0.01, sample_period=0.003),
    SensorSpec(noise_std=0.02, quantization=0.005, sample_period=0.007),
]
SENSOR_IDS = ["noise-1", "noise-3", "noise-7", "quant-3", "noise-quant-7"]


@pytest.mark.bits
@pytest.mark.parametrize("sensor", SENSOR_CASES, ids=SENSOR_IDS)
@pytest.mark.parametrize("two_outputs", [False, True], ids=["fopdt", "linear2"])
def test_simulate_sensor_readings_match_apply_sensor_bitwise(sensor, two_outputs):
    """Every reading `simulate` hands the controller against `apply_sensor`
    per reading on its own generator, after the same disturbance draws. The
    10,007-step run reads 10,007, 3,336 or 1,430 times: more than one noise
    chunk and no multiple of it."""
    gains = PidGains(kp=1.2, ki=0.8, u_min=-3.0, u_max=3.0)
    if two_outputs:
        plant = PlantModel(LinearStateSpace(a=[[-0.5, 0.5], [0.0, -3.0]], b=[0.0, 3.0],
                                            c=np.eye(2)), u_min=-math.inf, u_max=math.inf, x0=None)
        inner = CascadeController(CascadeSpec(gains, gains, 0, 1))
    else:
        plant = PlantModel(Fopdt(gain=1.5, tau=0.8, dead_time=0.015), u_min=-math.inf,
                           u_max=math.inf, x0=None)
        inner = PidController(gains)
    cfg = SimConfig(dt=0.001, horizon=10.007, seed=3)
    disturbance = DisturbanceSpec("gaussian", "output", std=0.05)
    ctrl = _Seen(inner)
    traj = simulate(plant, ctrl, np.where(cfg.time_grid() >= 0.5, 1.0, 0.0), cfg, disturbance,
                    sensor)

    rng = np.random.default_rng(cfg.seed)
    assert disturbance.series(cfg, rng).tobytes() == traj.d.tobytes()
    every = sensor.steps_per_sample(cfg.dt)
    outputs = traj.y[:, None] if traj.y_extra is None else np.column_stack([traj.y, traj.y_extra])
    expected = []
    for k, y in enumerate(outputs):
        if k % every == 0:
            held = apply_sensor(y, sensor, rng)
        expected.append(held)
    assert len(ctrl.seen) == len(expected) == cfg.n_steps == 10_007
    assert all(isinstance(y, float) != two_outputs for y in ctrl.seen)
    assert np.array(ctrl.seen).tobytes() == np.array(expected).tobytes()
    assert traj.y_meas.tobytes() == np.array(expected).reshape(cfg.n_steps, -1)[:, 0].tobytes()


@pytest.mark.bits
@pytest.mark.parametrize("sensor", SENSOR_CASES, ids=SENSOR_IDS)
def test_vector_sensor_reading_matches_apply_sensor_bitwise(sensor):
    """A two-output plant's readings and the generator's end state against
    `apply_sensor` on its own generator, over 2,500 readings."""
    n_steps = 2499 * sensor.steps_per_sample(0.001) + 1
    ys = np.random.default_rng(5).normal(0.0, 3.0, size=(2500, 2))
    rng = np.random.default_rng(11)
    read = _sensor_reader(sensor, 0.001, rng, n_steps, 2)[0]
    slow = np.random.default_rng(11)
    for y in ys:
        assert read(y).tobytes() == apply_sensor(y, sensor, slow).tobytes()
    assert rng.random() == slow.random()
