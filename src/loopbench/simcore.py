"""Deterministic fixed-step closed-loop simulation.

Plants are integrated with classical RK4 on a uniform grid, a linear one on
RK4's one-step map built once per run. Dead time is realized as a
sample-quantized delay buffer, disturbances and sensor noise come from a
single seeded generator, so equal configs give bit-identical trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Protocol, Sequence, Union

import numpy as np

from .errors import ControllerFault, SimulationDiverged

DIVERGENCE_FACTOR = 1e9
# grid ceiling: a run keeps about ten float64 arrays of this length; one that
# writes its files peaks near 672 B/step (6.7 GB) while it formats them
MAX_STEPS = 10_000_000


def _round_half_away(x: float) -> int:
    """Round half away from zero (3.5 -> 4, 2.5 -> 3), unlike banker's round()."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


# ---------------------------------------------------------------------------
# Configuration and domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    """Grid definition plus the seed for every stochastic element of a run.

    A grid holds at most MAX_STEPS steps, checked before any array is built.
    """

    dt: float
    horizon: float
    seed: int = 0

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be > 0")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be > 0")
        if not self.horizon / self.dt <= MAX_STEPS:
            raise ValueError(f"horizon / dt exceeds the ceiling of {MAX_STEPS} steps")
        if self.n_steps < 1:
            raise ValueError("horizon too short for one step")

    @property
    def n_steps(self) -> int:
        return _round_half_away(self.horizon / self.dt)

    def time_grid(self) -> np.ndarray:
        return np.arange(self.n_steps) * self.dt


@dataclass(frozen=True)
class LinearStateSpace:
    """x' = A x + B u, y = C x. SISO unless C has several rows."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.asarray(self.b, dtype=float).reshape(-1)
        c = np.atleast_2d(np.asarray(self.c, dtype=float))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if a.shape[0] != a.shape[1]:
            raise ValueError("A must be square")
        if b.shape[0] != a.shape[0] or c.shape[1] != a.shape[0]:
            raise ValueError("B/C dimensions inconsistent with A")


@dataclass(frozen=True)
class Fopdt:
    """First order plus dead time: K e^(-L s) / (tau s + 1)."""

    gain: float
    tau: float
    dead_time: float

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError("tau must be > 0")
        if self.dead_time < 0.0:
            raise ValueError("dead_time must be >= 0")


@dataclass(frozen=True)
class SecondOrder:
    """K omega_n^2 / (s^2 + 2 zeta omega_n s + omega_n^2)."""

    gain: float
    omega_n: float
    zeta: float

    def __post_init__(self):
        if self.omega_n <= 0.0:
            raise ValueError("omega_n must be > 0")
        if self.zeta < 0.0:
            raise ValueError("zeta must be >= 0")


@dataclass(frozen=True)
class TankNonlinear:
    """Level tank: A h' = u - c sqrt(h). Output is the level h."""

    area: float
    outflow_coeff: float

    def __post_init__(self):
        if self.area <= 0.0:
            raise ValueError("area must be > 0")
        if self.outflow_coeff < 0.0:
            raise ValueError("outflow_coeff must be >= 0")


PlantVariant = Union[LinearStateSpace, Fopdt, SecondOrder, TankNonlinear]

# Integrator state: a float for Fopdt and TankNonlinear, a tuple of floats for
# the LTI plants (LinearStateSpace, SecondOrder). A float state takes RK4's
# four stages; a tuple state steps on the precomputed map Phi x + Gamma u, and
# its output C x is a sum of float products: no BLAS call, so no plant's bits
# depend on the OpenBLAS core.
PlantState = Union[float, tuple]


@dataclass(frozen=True)
class PlantModel:
    """A plant variant plus its actuator limits."""

    variant: PlantVariant
    u_min: float
    u_max: float
    x0: np.ndarray | None = None

    def __post_init__(self):
        if not self.u_min < self.u_max:
            raise ValueError("require u_min < u_max")
        if self.x0 is not None:
            x0 = np.asarray(self.x0, dtype=float).reshape(-1)
            if x0.shape[0] != self.state_dim:
                raise ValueError("x0 dimension does not match the plant variant")
            object.__setattr__(self, "x0", x0)

    def state_space(self) -> LinearStateSpace | None:
        """The plant as x' = A x + B u, y = C x, a second-order plant in its
        companion form (state y, y'); None for FOPDT and the tank."""
        v = self.variant
        if isinstance(v, SecondOrder):
            wn2 = v.omega_n * v.omega_n
            return LinearStateSpace(a=[[0.0, 1.0], [-wn2, -2.0 * v.zeta * v.omega_n]],
                                    b=[0.0, v.gain * wn2], c=[[1.0, 0.0]])
        return v if isinstance(v, LinearStateSpace) else None

    @property
    def state_dim(self) -> int:
        lti = self.state_space()
        return 1 if lti is None else lti.a.shape[0]

    @property
    def n_outputs(self) -> int:
        v = self.variant
        return v.c.shape[0] if isinstance(v, LinearStateSpace) else 1

    @property
    def dead_time(self) -> float:
        return self.variant.dead_time if isinstance(self.variant, Fopdt) else 0.0

    def initial_state(self) -> PlantState:
        """A float for Fopdt and TankNonlinear, a tuple of floats otherwise."""
        x0 = self.x0.tolist() if self.x0 is not None else [0.0] * self.state_dim
        return x0[0] if isinstance(self.variant, (Fopdt, TankNonlinear)) else tuple(x0)

    def dynamics(self, dt: float) -> Callable[[PlantState, float], PlantState]:
        """What `rk4_step` steps the plant on, with its constants bound once.

        FOPDT and the tank: the derivative f(x, u), whose four stages
        `rk4_step` evaluates. An LTI plant: the whole RK4 step over `dt`,
        (x, u) -> Phi x + Gamma u (`_rk4_map`).
        """
        v = self.variant
        if isinstance(v, Fopdt):
            gain, tau = v.gain, v.tau
            return lambda x, u: (gain * u - x) / tau
        if isinstance(v, TankNonlinear):
            area, outflow = v.area, v.outflow_coeff
            # level cannot drain below zero
            return lambda x, u: (u - outflow * math.sqrt(max(x, 0.0))) / area
        lti = self.state_space()
        return _rk4_map(lti.a.tolist(), lti.b.tolist(), dt)

    def output_map(self) -> Callable[[PlantState], object]:
        """The measurement y(x), its variant picked once: a float for a
        single-output plant, a fresh numpy vector for a multi-output one.
        An LTI plant's y_i is `_dot(C_i, x)`."""
        lti = self.state_space()
        if lti is None:
            return lambda x: x
        c = lti.c.tolist()
        if len(c) > 1:
            return lambda x: np.array([_dot(row, x) for row in c])
        return partial(_dot, c[0])


def _dot(row, x) -> float:
    """row_0 x_0 + row_1 x_1 + ..., summed left to right."""
    acc = row[0] * x[0]
    for j in range(1, len(row)):
        acc += row[j] * x[j]
    return acc


def _rk4_map(a: list, b: list, dt: float) -> Callable[[tuple, float], tuple]:
    """One classical RK4 step over `dt` of x' = A x + B u, u held, as one map
    (x, u) -> Phi x + Gamma u. With M = dt A, Phi = I + M + M^2/2 + M^3/6 +
    M^4/24 and Gamma = dt (I + M/2 + M^2/6 + M^3/24) B: the four stages'
    algebra exactly (Butcher, Numerical Methods for ODEs, 3rd ed. 2016).

    Built in floats in Horner form, in this order: T = I, then
    T = I + (M T) / k for k = 4, 3, 2; Gamma = dt (T B); Phi = I + M T. I adds
    1.0 on the diagonal and 0.0 off it. Every sum is a `_dot`, and a step's
    x+_i is `_dot(Phi_i, x) + Gamma_i u`.
    """
    m = [[dt * e for e in row] for row in a]
    n = range(len(a))

    def horner(t, k):  # I + (M T) / k
        cols = list(zip(*t))
        return [[_dot(m[i], cols[j]) / k + float(i == j) for j in n] for i in n]

    t = [[float(i == j) for j in n] for i in n]
    for k in (4.0, 3.0, 2.0):
        t = horner(t, k)
    rows = [(phi, dt * _dot(row, b)) for phi, row in zip(horner(t, 1.0), t)]
    return lambda x, u: tuple([_dot(phi, x) + gamma * u for phi, gamma in rows])


@dataclass(frozen=True)
class DisturbanceSpec:
    """Additive disturbance D(t); injected at the plant input or output."""

    variant: str = "none"  # none | step | gaussian | sinusoid
    injection: str = "input"  # input | output
    time: float = 0.0
    magnitude: float = 0.0
    std: float = 0.0
    amplitude: float = 0.0
    period: float = 1.0

    def __post_init__(self):
        if self.variant not in ("none", "step", "gaussian", "sinusoid"):
            raise ValueError(f"unknown disturbance variant {self.variant!r}")
        if self.injection not in ("input", "output"):
            raise ValueError(f"unknown injection point {self.injection!r}")
        if self.std < 0.0:
            raise ValueError("std must be >= 0")
        if self.variant == "sinusoid" and self.period <= 0.0:
            raise ValueError("period must be > 0")

    def check_grid(self, cfg: SimConfig) -> None:
        """ValueError unless a step lands inside the horizon of `cfg`."""
        if self.variant == "step" and not 0.0 <= self.time <= cfg.horizon:
            raise ValueError("step time outside the horizon")

    def series(self, cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
        self.check_grid(cfg)
        t = cfg.time_grid()
        if self.variant == "none":
            return np.zeros(cfg.n_steps)
        if self.variant == "step":
            return np.where(t >= self.time, self.magnitude, 0.0)
        if self.variant == "gaussian":
            return rng.normal(0.0, self.std, size=cfg.n_steps)
        return self.amplitude * np.sin(2.0 * math.pi * t / self.period)


NO_DISTURBANCE = DisturbanceSpec()


@dataclass(frozen=True)
class SensorSpec:
    """Zero-order-hold sampling with additive gaussian noise and quantization."""

    noise_std: float = 0.0
    sample_period: float | None = None  # None -> every step
    quantization: float = 0.0

    def __post_init__(self):
        if self.noise_std < 0.0 or self.quantization < 0.0:
            raise ValueError("noise_std and quantization must be >= 0")

    def steps_per_sample(self, dt: float) -> int:
        if self.sample_period is None:
            return 1
        ratio = self.sample_period / dt
        m = _round_half_away(ratio)
        if m < 1 or abs(ratio - m) > 1e-9 * max(1.0, ratio):
            raise ValueError("sample_period must be a positive multiple of dt")
        return m


IDEAL_SENSOR = SensorSpec()


def primary_output(y) -> float:
    """Output 0 of a measurement: the float of a single-output plant or the
    first element of a multi-output plant's vector. Single-loop controllers
    regulate this output."""
    return float(y if isinstance(y, float) else y[0] if hasattr(y, "__len__") else y)


# readings per sized noise draw; a chunk, not the run, so memory stays flat
_NOISE_CHUNK = 1024


def _noise_draws(rng: np.random.Generator, std: float, readings: int, n_outputs: int):
    """The noise of `readings` sensor readings, a float or a row of
    `n_outputs` values each, drawn `_NOISE_CHUNK` readings per `rng.normal`
    call. A module-level generator, so that no reference cycle keeps a chunk
    alive after its run."""
    while readings > 0:
        m = min(readings, _NOISE_CHUNK)
        if n_outputs == 1:
            yield from rng.normal(0.0, std, size=m).tolist()
        else:
            yield from rng.normal(0.0, std, size=(m, n_outputs))
        readings -= m


def _sensor_reader(sensor: SensorSpec, dt: float, rng: np.random.Generator, n_steps: int,
                   n_outputs: int):
    """The sensor of one run of `n_steps` as (read, m): a fresh reading
    `read(y)` every m-th step, the held value in between.

    A reading of `y` (a float, or the vector of a multi-output plant) adds
    noise, then rounds to the quantization step with `np.rint`; `read` is
    built for the sensor's options here, not branched per reading. The run
    draws ceil(n_steps / m) readings of `n_outputs` noise values, in chunks:
    a sized draw gives the values of as many scalar draws, so every reading
    and the generator's end state are those of one draw per reading.
    """
    every, q, rint = sensor.steps_per_sample(dt), sensor.quantization, np.rint
    noise = None
    if sensor.noise_std > 0.0:
        noise = _noise_draws(rng, sensor.noise_std, -(-n_steps // every), n_outputs).__next__
    if q > 0.0:
        if n_outputs > 1:
            quantize = lambda y: rint(y / q) * q
        else:
            quantize = lambda y: float(rint(y / q) * q)
        read = quantize if noise is None else lambda y: quantize(y + noise())
    else:
        read = (lambda y: y) if noise is None else lambda y: y + noise()
    return read, every


class DelayLine:
    """Pure transport delay quantized to round(L/dt) samples (half away from zero)."""

    def __init__(self, dead_time: float, dt: float):
        if dead_time < 0.0 or dt <= 0.0:
            raise ValueError("require dead_time >= 0 and dt > 0")
        self.n_samples = _round_half_away(dead_time / dt)
        self._buf = [0.0] * max(self.n_samples, 1)
        self._idx = 0

    def push_pop(self, x: float) -> float:
        if self.n_samples == 0:
            return x
        out = self._buf[self._idx]
        self._buf[self._idx] = float(x)
        self._idx = (self._idx + 1) % self.n_samples
        return out


# ---------------------------------------------------------------------------
# Integrator
# ---------------------------------------------------------------------------

def rk4_step(state: PlantState, u, dt: float, dynamics: Callable) -> PlantState:
    """Classical 4th-order Runge-Kutta update with input held over the step.

    A float state takes the four stages of the derivative `dynamics`,
    x + (dt / 6)(k1 + 2 k2 + 2 k3 + k4). A tuple state is an LTI plant's, and
    `dynamics` is then its whole step over `dt` (`PlantModel.dynamics(dt)`):
    one call of the map, then the same finite check.
    """
    if isinstance(state, float):
        k1 = dynamics(state, u)
        k2 = dynamics(state + 0.5 * dt * k1, u)
        k3 = dynamics(state + 0.5 * dt * k2, u)
        k4 = dynamics(state + dt * k3, u)
        out = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        finite = math.isfinite(out)
    else:
        out = dynamics(state, u)
        finite = all(map(math.isfinite, out))
    if not finite:
        raise SimulationDiverged("non-finite state after RK4 stage", step=-1)
    return out


# ---------------------------------------------------------------------------
# Controllers usable by the loop
# ---------------------------------------------------------------------------

class Controller(Protocol):
    def reset(self) -> None: ...

    def step(self, w: float, y, dt: float) -> float: ...


class ConstantController:
    """Emits a fixed value; the canonical adversarial 'AI' stand-in."""

    def __init__(self, value: float):
        self.value = value

    def reset(self) -> None:
        pass

    def step(self, w, y, dt) -> float:
        return self.value


class SignalController:
    """Plays back a precomputed input sequence (open-loop excitation runs)."""

    def __init__(self, u: Sequence[float]):
        self._u = u
        self._k = 0

    def reset(self) -> None:
        self._k = 0

    def step(self, w, y, dt) -> float:
        seq = self._u
        value = float(seq[self._k]) if self._k < len(seq) else float(seq[-1])
        self._k += 1
        return value


# ---------------------------------------------------------------------------
# Trajectory record and the main loop
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Uniformly sampled record of one closed- or open-loop run.

    `y` is the primary plant response channel; `y_extra` holds further output
    channels when the plant has more than one (cascade setups).
    """

    t: np.ndarray
    w: np.ndarray
    y: np.ndarray
    y_meas: np.ndarray
    u: np.ndarray
    d: np.ndarray
    dt: float
    y_extra: np.ndarray | None

    def __post_init__(self):
        n = len(self.t)
        for name in ("w", "y", "y_meas", "u", "d"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"array {name!r} length mismatch")
        spacing = np.diff(self.t)
        if n > 1 and (np.any(spacing <= 0) or np.ptp(spacing) > 1e-9 * self.dt):
            raise ValueError("t must be strictly increasing with constant spacing")

    def __len__(self) -> int:
        return len(self.t)


def _reference_array(reference, t: np.ndarray) -> np.ndarray:
    """The reference on the time grid `t`, given as a scalar or an array of
    the grid's length."""
    arr = np.asarray(reference, dtype=float)
    if arr.ndim == 0:
        return np.full(len(t), float(arr))
    if arr.shape[0] != len(t):
        raise ValueError("reference array length must equal the step count")
    return arr.copy()


def simulate(
    plant: PlantModel,
    controller: Controller,
    reference,
    cfg: SimConfig,
    disturbance: DisturbanceSpec = NO_DISTURBANCE,
    sensor: SensorSpec = IDEAL_SENSOR,
    gain_schedule: Callable[[float], float] | None = None,
) -> Trajectory:
    """Run one fixed-step loop and record every block-diagram signal.

    Per step: read the (possibly disturbed) output, sample the sensor,
    step the controller, clamp the command to the actuator limits, add any
    input disturbance, integrate the plant. `gain_schedule`, when given,
    scales the effective plant input by gain_schedule(t) — a parametric
    process change such as a mid-episode gain doubling.
    """
    n = cfg.n_steps
    rng = np.random.default_rng(cfg.seed)
    t = cfg.time_grid()
    w = _reference_array(reference, t)
    d = disturbance.series(cfg, rng)
    read, every = _sensor_reader(sensor, cfg.dt, rng, n, plant.n_outputs)

    multi = plant.n_outputs > 1
    y_rec = np.zeros(n)
    y_meas_rec = np.zeros(n)
    u_rec = np.zeros(n)
    y_extra = np.zeros((n, plant.n_outputs - 1)) if multi else None

    push_pop = DelayLine(plant.dead_time, cfg.dt).push_pop if plant.dead_time > 0.0 else None
    ref_scale = max(1.0, float(np.max(np.abs(w))) if n else 1.0)
    guard = DIVERGENCE_FACTOR * ref_scale

    x = plant.initial_state()
    dt = cfg.dt
    dynamics, output = plant.dynamics(dt), plant.output_map()
    u_lo, u_hi = plant.u_min, plant.u_max
    controller.reset()
    # `rk4_step` stays a per-step global lookup, so a wrapper on the module sees each step
    step = controller.step
    input_additive = disturbance.injection == "input"
    # plain floats in the loop: one conversion here instead of a numpy
    # scalar per element access
    w_k, d_k, t_k = w.tolist(), d.tolist(), t.tolist()

    # a learned block's overflow shows up as a non-finite command, which the
    # loop's own checks referee, so numpy's warnings for it stay quiet
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            y = output(x)  # float, or a vector on a multi-output plant
            if not input_additive:
                y = y + d_k[k]
            if multi:
                bounded = all([math.isfinite(v) and abs(v) <= guard for v in y.tolist()])
            else:
                bounded = math.isfinite(y) and abs(y) <= guard
            if not bounded:
                raise SimulationDiverged("plant output exceeded the divergence guard", step=k)

            if k % every == 0:
                y_m = read(y)
            if multi:
                y_rec[k], y_meas_rec[k], y_extra[k] = y[0], y_m[0], y[1:]
            else:
                y_rec[k], y_meas_rec[k] = y, y_m

            u_cmd = step(w_k[k], y_m, dt)
            if not math.isfinite(u_cmd):
                raise ControllerFault(f"controller emitted a non-finite command at step {k}")
            u_k = min(max(float(u_cmd), u_lo), u_hi)
            u_rec[k] = u_k

            u_plant = u_k + d_k[k] if input_additive else u_k
            if gain_schedule is not None:
                u_plant = u_plant * float(gain_schedule(t_k[k]))
            u_eff = push_pop(u_plant) if push_pop is not None else u_plant
            try:
                x = rk4_step(x, u_eff, dt, dynamics)
            except SimulationDiverged as exc:
                raise SimulationDiverged("non-finite state during integration", step=k) from exc

    return Trajectory(t=t, w=w, y=y_rec, y_meas=y_meas_rec, u=u_rec, d=d, dt=cfg.dt,
                      y_extra=y_extra)
