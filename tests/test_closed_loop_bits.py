"""The closed-loop blocks bound once per run against copies of the per-step
code they replaced, byte for byte.

The copies below re-derive every constant on each call, as the blocks did
before they were bound: the deployed neural controller and gain scheduler
read their normalization stats, output centre and half-span and gain bounds
from the arrays; a linear plant's step and output are rebuilt from A, B and
C in index loops (`test_simcore.lti_step_reference`); the sensor branches on its options per reading; a step or profile
reference is a callable sampled at every grid time. Every output byte and
the generator's end state must stay the same.
"""

import math
import types
from dataclasses import replace

import numpy as np
import pytest

from loopbench.config import reference_from, resolve_config
from loopbench.dataio import TimeSeries, write_timeseries
from loopbench.errors import ControllerFault
from loopbench.neuro import (
    GainScheduler, NeuralControlLoop, NeuralController, ScheduledPidController,
    train_imitation,
)
from loopbench.nnet import Mlp, SupervisedDataset, TrainConfig
from loopbench.pid import (
    STRUCTURES, CascadeController, CascadeSpec, PidGains, PidState, cascade_step, pid_step,
)
from loopbench.simcore import (
    ConstantController, DisturbanceSpec, Fopdt, LinearStateSpace, PlantModel, SensorSpec,
    SimConfig, _noise_draws, _sensor_reader, primary_output, rk4_step, simulate,
)
from test_neuro import spy_gains
from test_simcore import lti_output_reference, lti_step_reference

pytestmark = pytest.mark.bits


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# the per-step copies
# ---------------------------------------------------------------------------

def ref_normalized(row, mean, std):
    return [(f - m) / s for f, m, s in zip(row, mean.tolist(), std.tolist())]


class RefControlLoop:
    """`NeuralControlLoop.step` with the stats read from the arrays and the
    centre and half-span computed per step."""

    def __init__(self, nc):
        self.nc = nc
        self.y_win = [0.0] * nc.memory
        self.u_win = [0.0] * nc.memory

    def step(self, w, y, dt):
        nc, y_win, u_win = self.nc, self.y_win, self.u_win
        y_win[-1] = primary_output(y)
        out, _ = nc.mlp.forward_cached(ref_normalized(nc.features(w, y_win, u_win),
                                                      nc.feat_mean, nc.feat_std))
        z = float(out[0])
        if not math.isfinite(z):
            raise ControllerFault("non-finite network output")
        u = 0.5 * (nc.u_max + nc.u_min) + 0.5 * (nc.u_max - nc.u_min) * math.tanh(z)
        y_win.append(0.0)
        del y_win[0]
        u_win.append(u)
        del u_win[0]
        return u


class RefScheduledPid:
    """`ScheduledPidController.step` with the stats and bounds read from the
    arrays and the setpoint weight derived from the structure."""

    def __init__(self, gs, template):
        self.gs = gs
        self.gains = types.SimpleNamespace(
            kp=0.0, ki=0.0, kd=0.0, u_min=template.u_min, u_max=template.u_max,
            deriv_filter_n=template.deriv_filter_n,
            setpoint_weight=0.0 if template.structure in ("pid-p", "pi-pd") else 1.0)
        self.state = PidState()
        self.e_win = [0.0] * gs.memory
        self.y_win = [0.0] * gs.memory
        self.gain_trace = []

    def step(self, w, y, dt):
        gs = self.gs
        y0 = primary_output(y)
        self.e_win.append(w - y0)
        del self.e_win[0]
        self.y_win.append(y0)
        del self.y_win[0]
        out, _ = gs.mlp.forward_cached(ref_normalized(gs.features(self.e_win, self.y_win),
                                                      gs.feat_mean, gs.feat_std))
        z = [min(max(v, -60.0), 60.0) for v in out.tolist()]
        sig = [1.0 / (1.0 + e) for e in np.exp([-v for v in z]).tolist()]
        kp, ki, kd = [lo + s * (hi - lo) for s, (lo, hi) in zip(sig, gs.bounds.tolist())]
        self.gain_trace.append((kp, ki, kd))
        self.gains.kp, self.gains.ki, self.gains.kd = kp, ki, kd
        return pid_step(self.gains, self.state, w, y0, dt)


class RefCascade(CascadeController):
    """`CascadeController.step` indexing numpy scalars out of the measurement."""

    def step(self, w, y, dt):
        y_vec = np.atleast_1d(y)
        return cascade_step(self.spec, self.states, w, float(y_vec[self.spec.outer_channel]),
                            float(y_vec[self.spec.inner_channel]), dt)


class RefSampler:
    """A sampler branching on the sensor's options at every reading."""

    def __init__(self, sensor, dt, rng, n_steps, n_outputs=1):
        self.every = sensor.steps_per_sample(dt)
        self.noise_std = sensor.noise_std
        self.quantization = sensor.quantization
        if sensor.noise_std > 0.0:
            self._noise = _noise_draws(rng, sensor.noise_std, -(-n_steps // self.every), n_outputs)

    def read(self, y):
        if self.noise_std > 0.0:
            y = y + next(self._noise)
        if self.quantization > 0.0:
            y = np.rint(y / self.quantization) * self.quantization
        return float(y) if isinstance(y, float) else y


def ref_step_reference(level, time=0.0, baseline=0.0):
    return lambda t: level if t >= time else baseline


def ref_profile_reference(t_ref, w_ref):
    return lambda t: float(np.interp(t, t_ref, w_ref))


def _drive(loop, inputs):
    """Outputs of `loop.step` over (w, y) pairs, ending at the first fault."""
    out = []
    for w, y in inputs:
        try:
            out.append(loop.step(w, y, 0.01))
        except ControllerFault as exc:
            out.append(str(exc))
            break
    return out


def _same(got, want):
    assert [isinstance(v, str) for v in got] == [isinstance(v, str) for v in want]
    assert [v for v in got if isinstance(v, str)] == [v for v in want if isinstance(v, str)]
    assert _bits([v for v in got if not isinstance(v, str)]) == \
        _bits([v for v in want if not isinstance(v, str)])


def _inputs(rng, n):
    """(w, y) pairs at three scales; the largest saturates tanh and clips z."""
    scale = np.array([1e-3, 1.0, 1e3])[np.arange(n) % 3]
    return list(zip((rng.normal(size=n) * scale).tolist(), (rng.normal(size=n) * scale).tolist()))


def _random_net(rng, sizes, seed, nan_output):
    net = Mlp(sizes, seed=seed)
    for b in net.biases:
        b[...] = rng.normal(size=b.shape) * 0.3
    if nan_output:
        net.biases[-1][0] = math.nan
    return net


# ---------------------------------------------------------------------------
# learned blocks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("hidden", [(), (7,), (9, 5)], ids=["0-hidden", "1-hidden", "2-hidden"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_neural_step_bit_equal_to_per_step_form(m, hidden):
    rng = np.random.default_rng([m, len(hidden)])
    n = 1 + 2 * m
    for seed in range(4):
        nc = NeuralController(_random_net(rng, [n, *hidden, 1], seed, nan_output=seed == 3),
                              u_min=-rng.uniform(0.1, 4.0), u_max=rng.uniform(0.1, 4.0),
                              memory=m, feat_mean=rng.normal(size=n),
                              feat_std=rng.uniform(0.2, 3.0, size=n))
        inputs = _inputs(rng, 120)
        loop, ref = NeuralControlLoop(nc), RefControlLoop(nc)
        got, want = _drive(loop, inputs), _drive(ref, inputs)
        _same(got, want)
        assert (seed == 3) == isinstance(got[-1], str)
        assert _bits(loop.y_win + loop.u_win) == _bits(ref.y_win + ref.u_win)


@pytest.mark.parametrize("hidden", [(), (6,), (8, 4)], ids=["0-hidden", "1-hidden", "2-hidden"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_scheduled_pid_step_bit_equal_to_per_step_form(m, hidden):
    rng = np.random.default_rng([m, len(hidden), 1])
    n = 2 * m
    for seed in range(4):
        lo = rng.uniform(0.0, 2.0, size=3) * (rng.random(3) < 0.7)
        hi = np.where(rng.random(3) < 0.2, lo, lo + rng.uniform(0.0, 5.0, size=3))
        gs = GainScheduler(_random_net(rng, [n, *hidden, 3], seed, nan_output=seed == 3),
                           bounds=np.column_stack([lo, hi]), memory=m,
                           feat_mean=rng.normal(size=n), feat_std=rng.uniform(0.2, 3.0, size=n))
        template = PidGains(kp=1.0, structure=STRUCTURES[seed % len(STRUCTURES)],
                            u_min=-rng.uniform(0.5, 5.0), u_max=rng.uniform(0.5, 5.0),
                            deriv_filter_n=rng.uniform(2.0, 20.0))
        inputs = _inputs(rng, 120)
        ctl, ref = ScheduledPidController(gs, template), RefScheduledPid(gs, template)
        gain_trace = spy_gains(ctl)
        got, want = _drive(ctl, inputs), _drive(ref, inputs)
        _same(got, want)
        assert (seed == 3) == isinstance(got[-1], str)  # a NaN gain faults the PID step
        assert _bits(gain_trace) == _bits(ref.gain_trace)
        assert _bits(list(vars(ctl.state).values())) == _bits(list(vars(ref.state).values()))


@pytest.mark.parametrize("kind", ["neural", "scheduler"])
def test_learned_block_reset_after_bind_runs_on_the_moved_parameters(kind):
    """`Mlp.bind` moves a block's parameters into another vector, as
    `train_imitation` does for its working controller. The block binds its
    row pass at `reset`, so a block built before the move and reset after it
    runs on the new vector's views: a write to that vector after the move
    reaches its steps, which keep the bits of the per-step copy."""
    rng = np.random.default_rng(17)
    if kind == "neural":
        block = NeuralController(_random_net(rng, [7, 9, 5, 1], 2, nan_output=False),
                                 u_min=-2.0, u_max=3.0, memory=3, feat_mean=rng.normal(size=7),
                                 feat_std=rng.uniform(0.2, 3.0, size=7))
        ctl, make_ref = NeuralControlLoop(block), RefControlLoop
    else:
        block = GainScheduler(_random_net(rng, [6, 8, 3], 2, nan_output=False),
                              bounds=[[0.1, 2.0], [0.0, 1.0], [0.0, 0.2]], memory=3,
                              feat_mean=rng.normal(size=6), feat_std=rng.uniform(0.2, 3.0, size=6))
        template = PidGains(kp=1.0, u_min=-3.0, u_max=3.0)
        ctl = ScheduledPidController(block, template)
        make_ref = lambda gs: RefScheduledPid(gs, template)
    before = block.mlp.params
    moved = np.empty(before.size + 3)[3:]
    block.mlp.bind(moved)
    moved *= 0.75  # the vector left behind keeps the old values
    assert not np.array_equal(moved, before)
    ctl.reset()
    inputs = _inputs(rng, 150)
    got, want = _drive(ctl, inputs), _drive(make_ref(block), inputs)
    _same(got, want)
    assert not isinstance(got[-1], str)


@pytest.mark.parametrize("epochs", [0, 3])
def test_trained_imitation_controller_deploys_with_its_fitted_stats(epochs):
    """`train_imitation` fits the feature stats; the controller it returns
    (its working controller when no epoch ran, else a snapshot) deploys with
    them, not with the stats of the controller it started from."""
    rng = np.random.default_rng(3)
    x = rng.normal(2.0, 3.0, size=(160, 5))
    y = np.tanh(x[:, :1] - 2.0)
    nc = NeuralController(Mlp([5, 6, 1], seed=1), u_min=-2.0, u_max=2.0, memory=2)
    trained = train_imitation(nc, SupervisedDataset(x[:80], y[:80]),
                              SupervisedDataset(x[80:], y[80:]), 0.5,
                              TrainConfig(batch_size=16, max_epochs=epochs, learning_rate=1e-2,
                                          patience=10_000, seed=0),
                              aux_weight=0.0).controller
    assert not np.array_equal(trained.feat_mean, nc.feat_mean)
    assert not np.array_equal(trained.feat_std, nc.feat_std)
    inputs = _inputs(rng, 60)
    _same(_drive(NeuralControlLoop(trained), inputs), _drive(RefControlLoop(trained), inputs))


@pytest.mark.parametrize("structure", STRUCTURES)
def test_setpoint_weight_is_fixed_by_the_structure(structure):
    gains = PidGains(kp=1.5, ki=0.5, structure=structure, u_min=-math.inf, u_max=math.inf)
    want = 0.0 if structure in ("pid-p", "pi-pd") else 1.0
    assert gains.setpoint_weight == want
    other = "pi-pd" if want == 1.0 else "pid"
    assert replace(gains, structure=other).setpoint_weight == 1.0 - want
    assert "setpoint_weight" not in repr(gains)


@pytest.mark.parametrize("channels", [(0, 1), (1, 0), (2, 0), (0, 0)])
def test_cascade_step_bit_equal_to_per_step_form(channels):
    rng = np.random.default_rng(channels)
    spec = CascadeSpec(outer=PidGains(kp=1.5, ki=0.7, kd=0.1, u_min=-2.0, u_max=2.0),
                       inner=PidGains(kp=3.0, ki=1.2, structure="pi-pd", u_min=-4.0, u_max=4.0),
                       outer_channel=channels[0], inner_channel=channels[1])
    ctl, ref = CascadeController(spec), RefCascade(spec)
    ys = rng.normal(0.0, 2.0, size=(300, 3))
    if channels == (0, 0):  # a single-output measurement, as a float
        ys = ys[:, 0].tolist()
    ws = rng.normal(size=300).tolist()
    got = [ctl.step(w, y, 0.01) for w, y in zip(ws, ys)]
    want = [ref.step(w, y, 0.01) for w, y in zip(ws, ys)]
    assert _bits(got) == _bits(want)


# ---------------------------------------------------------------------------
# plant, sensor and reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("outputs", [1, 2, 3])
@pytest.mark.parametrize("states", [1, 2, 3, 4])
def test_linear_plant_bit_equal_to_array_branch(states, outputs):
    """A run of `output_map()` and `dynamics(dt)` calls, interleaved as in
    `simulate`, against the LTI step and output rebuilt in index loops on
    every step; every multi-output reading stays as it was returned."""
    rng = np.random.default_rng([states, outputs])
    variant = LinearStateSpace(a=rng.normal(0.0, 1.5, size=(states, states)),
                               b=rng.normal(0.0, 1.0, size=states),
                               c=rng.normal(0.0, 1.0, size=(outputs, states)))
    plant = PlantModel(variant, x0=rng.normal(size=states), u_min=-math.inf, u_max=math.inf)
    output = plant.output_map()
    a, b, c = variant.a.tolist(), variant.b.tolist(), variant.c.tolist()
    x = x_ref = plant.initial_state()
    readings, ref_readings = [], []
    for u, dt in zip(rng.normal(0.0, 2.0, size=400).tolist(),
                     (10.0 ** rng.uniform(-3.0, -1.0, size=400)).tolist()):
        y = output(x)
        assert isinstance(y, float) == (outputs == 1)
        readings.append(y)
        ref_readings.append(lti_output_reference(c, x_ref))
        assert _bits(y) == _bits(ref_readings[-1])
        dynamics, ref = plant.dynamics(dt), lti_step_reference(a, b, dt)
        assert _bits(dynamics(x, u)) == _bits(ref(x, u))
        x, x_ref = rk4_step(x, u, dt, dynamics), ref(x_ref, u)
        assert _bits(x) == _bits(x_ref)
    assert _bits(readings) == _bits(ref_readings)


@pytest.mark.parametrize("outputs", [1, 2])
@pytest.mark.parametrize("period", [None, 0.01, 0.03], ids=["every-step", "dt", "3dt"])
@pytest.mark.parametrize("quantization", [0.0, 0.01])
@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_sensor_read_bit_equal_to_per_reading_branches(noise, quantization, period, outputs):
    """Readings of a 3,001-step run (not a whole number of noise chunks),
    their types and the generator's end state."""
    sensor = SensorSpec(noise_std=noise, sample_period=period, quantization=quantization)
    n_steps = 3001
    rng, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
    read, every = _sensor_reader(sensor, 0.01, rng, n_steps, outputs)
    ref = RefSampler(sensor, 0.01, rng_ref, n_steps, outputs)
    assert every == ref.every
    ys = np.random.default_rng(5).normal(0.0, 3.0, size=(n_steps, outputs))
    ys[::7] = np.round(ys[::7] * 8.0) / 8.0  # round-half-to-even ties of the quantizer
    for k in range(0, n_steps, every):
        y = ys[k] if outputs > 1 else float(ys[k, 0])
        got, want = read(y), ref.read(y)
        assert type(got) is type(want)
        assert _bits(got) == _bits(want)
    assert rng.random() == rng_ref.random()


@pytest.mark.parametrize("level, time, baseline", [
    (1.0, 0.0, 0.0), (1.0, 0.5, 0.0), (-2.5, 0.37, 0.75), (3, 1, -1), (1.0, -1.0, 0.0),
    (1.0, 99.0, 0.2), (1.0, math.nan, -0.0), (-0.0, 0.2, 0.0), (1e300, 0.1, -1e-300),
], ids=["at-0", "mid", "on-grid", "ints", "before", "after", "nan-time", "neg-zero", "extreme"])
def test_step_reference_array_bit_equal_to_callable(level, time, baseline):
    """The config's `np.where` step against the callable sampled at each grid
    time, alone and as the `w`, `y` and `u` of a run."""
    cfg = SimConfig(dt=0.01, horizon=1.0, seed=4)
    t = cfg.time_grid()
    step = {"variant": "step", "level": level, "time": time, "baseline": baseline}
    got = reference_from(resolve_config({"reference": step}), cfg)
    want = np.array([float(ref_step_reference(level, time, baseline)(tk)) for tk in t])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    plant = PlantModel(Fopdt(gain=1.0, tau=0.5, dead_time=0.0), u_min=-1e9, u_max=1e9, x0=None)
    runs = [simulate(plant, ConstantController(0.25), reference, cfg,
                     DisturbanceSpec("gaussian", "output", std=0.1), SensorSpec(noise_std=0.01))
            for reference in (got, want)]
    for name in ("w", "y", "y_meas", "u", "d"):
        assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes()


def test_profile_reference_array_bit_equal_to_callable(tmp_path):
    """The config's one `np.interp` over the grid against the callable sampled
    at each grid time, on random profiles: some start after the grid and end
    before it (held values), and some have fewer samples than the grid and
    some more (numpy's precomputed and per-sample slopes)."""
    rng = np.random.default_rng(12)
    for i in range(60):
        cfg = SimConfig(dt=0.01, horizon=float(rng.integers(5, 300)) / 100, seed=0)
        n_ref = int(rng.integers(1, 2 * cfg.n_steps + 2))
        t_ref = np.unique(rng.uniform(-0.5, cfg.horizon + 0.5, n_ref))  # sorted
        w_ref = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=len(t_ref))
        path = tmp_path / f"profile{i}.csv"
        zeros = np.zeros(len(t_ref))
        write_timeseries(TimeSeries(t_ref, w_ref, zeros, zeros, zeros, extra=None), path)
        got = reference_from(resolve_config({"reference": {"variant": "profile",
                                                           "path": str(path)}}), cfg)
        want = np.array([ref_profile_reference(t_ref, w_ref)(tk) for tk in cfg.time_grid()])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
