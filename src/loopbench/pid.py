"""PID controller family: the conventional baseline and the safety fallback path.

One core stepper covers the four wiring structures. Derivative action is on
the measurement (filtered) to avoid setpoint kick; the integral uses the
trapezoid rule with conditional anti-windup (frozen while pushing further
into saturation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ControllerFault
from .simcore import primary_output

STRUCTURES = ("pid", "pi-d", "pid-p", "pi-pd")

# Structures whose proportional term acts on the measurement instead of the
# error (the trailing -P / -PD block of the decomposition sits in the
# feedback path).
_MEASUREMENT_PROPORTIONAL = ("pid-p", "pi-pd")


@dataclass(frozen=True)
class PidGains:
    kp: float
    ki: float = 0.0
    kd: float = 0.0
    structure: str = "pid"
    u_min: float = -math.inf
    u_max: float = math.inf
    deriv_filter_n: float = 10.0
    # weight of w in the proportional term, fixed by the structure
    setpoint_weight: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("kp", "ki", "kd", "u_min", "u_max", "deriv_filter_n"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.kp < 0.0 or self.ki < 0.0 or self.kd < 0.0:
            raise ValueError("gains must be >= 0")
        if self.deriv_filter_n <= 0.0:
            raise ValueError("derivative filter ratio N must be > 0")
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}")
        if not self.u_min < self.u_max:
            raise ValueError("require u_min < u_max")
        object.__setattr__(self, "setpoint_weight",
                           0.0 if self.structure in _MEASUREMENT_PROPORTIONAL else 1.0)

    @staticmethod
    def from_time_constants(kp: float, limits: tuple[float, float], ti: float = math.inf,
                            td: float = 0.0) -> "PidGains":
        """Rule-style parameterization: ki = kp/Ti, kd = kp*Td, output `limits`."""
        ki = 0.0 if not math.isfinite(ti) or ti <= 0.0 else kp / ti
        return PidGains(kp=kp, ki=ki, kd=kp * td, u_min=limits[0], u_max=limits[1])


@dataclass
class PidState:
    """Mutable per-loop state; reset state is all-zero and unprimed."""

    integrator: float = 0.0
    last_error: float = 0.0
    last_meas: float = 0.0
    d_filt: float = 0.0
    primed: bool = False

    def reset(self) -> None:
        self.integrator = 0.0
        self.last_error = 0.0
        self.last_meas = 0.0
        self.d_filt = 0.0
        self.primed = False


def pid_step(gains: PidGains, state: PidState, w: float, y: float, dt: float) -> float:
    """Advance the controller one step and return the clamped output.

    The first step after reset treats the previous error/measurement as the
    current ones, so a constant error integrates at the full rectangle rate
    and the derivative starts from zero. Each gain and state field is read
    once; the state is written whole before a non-finite output raises.
    """
    if not (math.isfinite(w) and math.isfinite(y)):
        raise ControllerFault("non-finite reference or measurement")

    e = w - y
    if not state.primed:
        state.last_error = e
        state.last_meas = y
        state.d_filt = 0.0

    kp = gains.kp
    p_term = kp * (gains.setpoint_weight * w - y)

    d_term = 0.0
    kd = gains.kd
    if kd > 0.0:
        # first-order filter on the measurement derivative, T_f = kd/(kp N)
        tf = kd / (kp * gains.deriv_filter_n) if kp > 0.0 else 0.0
        state.d_filt = d_filt = (tf * state.d_filt + (y - state.last_meas)) / (tf + dt)
        d_term = -kd * d_filt

    inc = gains.ki * dt * 0.5 * (e + state.last_error)
    integrator = state.integrator
    u = p_term + integrator + inc + d_term

    if u > (u_max := gains.u_max):
        u = u_max
        inc = min(inc, 0.0)  # freeze while pushing further into saturation
    elif u < (u_min := gains.u_min):
        u = u_min
        inc = max(inc, 0.0)

    state.integrator = integrator + inc
    state.last_error = e
    state.last_meas = y
    state.primed = True
    if not math.isfinite(u):
        raise ControllerFault("non-finite controller output")
    return u


def pid_sync(state: PidState, target_output: float, gains: PidGains, w: float, y: float) -> PidState:
    """Back-solve the integrator so the next pid_step emits target_output.

    The returned state zeroes the next derivative contribution and mirrors
    the error so the next trapezoid increment cancels, making the handover
    exact whenever the error is unchanged across the switch step. Requires
    integral action; a proportional-only controller cannot match an
    arbitrary output.
    """
    if not (gains.u_min <= target_output <= gains.u_max):
        raise ValueError("target output outside the configured limits")
    e = w - y
    p_term = gains.kp * (gains.setpoint_weight * w - y)
    if gains.ki <= 0.0:
        if abs(target_output - (p_term + state.integrator)) <= 1e-12 * max(1.0, abs(target_output)):
            return replace(state)
        raise ValueError("no integral action: cannot reach the requested output")
    return PidState(
        integrator=target_output - p_term,
        last_error=-e,
        last_meas=y,
        d_filt=0.0,
        primed=True,
    )


@dataclass(frozen=True)
class CascadeSpec:
    """Outer loop drives the inner loop's reference; sensor A feeds the inner loop."""

    outer: PidGains
    inner: PidGains
    outer_channel: int = 0
    inner_channel: int = 1


@dataclass
class CascadeState:
    outer: PidState
    inner: PidState

    def reset(self) -> None:
        self.outer.reset()
        self.inner.reset()


def cascade_step(spec: CascadeSpec, states: CascadeState, w: float,
                 y_outer: float, y_inner: float, dt: float) -> float:
    """Outer PID sets the inner reference (clamped by its own limits); inner PID drives the plant."""
    r_inner = pid_step(spec.outer, states.outer, w, y_outer, dt)
    return pid_step(spec.inner, states.inner, r_inner, y_inner, dt)


# ---------------------------------------------------------------------------
# Simulation-loop adapters
# ---------------------------------------------------------------------------

class PidController:
    """Controller-protocol wrapper around one gain set and its state."""

    def __init__(self, gains: PidGains):
        self.gains = gains
        self.state = PidState()

    def reset(self) -> None:
        self.state.reset()

    def step(self, w: float, y, dt: float) -> float:
        return pid_step(self.gains, self.state, w, primary_output(y), dt)

    def sync_to(self, target_output: float, w: float, y: float) -> None:
        self.state = pid_sync(self.state, target_output, self.gains, w, y)


class CascadeController:
    """Cascade adapter; expects the simulator to hand it the full measurement vector."""

    def __init__(self, spec: CascadeSpec):
        self.spec = spec
        self.states = CascadeState(PidState(), PidState())

    def reset(self) -> None:
        self.states.reset()

    def step(self, w: float, y, dt: float) -> float:
        y_vec = np.atleast_1d(y).tolist()
        spec = self.spec
        return cascade_step(spec, self.states, w, y_vec[spec.outer_channel],
                            y_vec[spec.inner_channel], dt)
