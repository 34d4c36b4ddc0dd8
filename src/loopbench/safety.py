"""Supervisors bounding the influence of learned controller blocks.

Two designs with intentionally different fault philosophies: the threshold
switch escalates to a conventional fallback path (hot standby, bumpless
handover), while the bounded blender absorbs faults because its whole
contract is a hard cap on the learned block's authority.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dataio import write_csv
from .errors import ControllerFault, NumericalFailure
from .simcore import primary_output

MODE_AI = "AI"
MODE_FALLBACK = "FALLBACK"


@dataclass(frozen=True)
class TransitionEvent:
    step: int
    time: float
    direction: str  # "AI->FALLBACK" or "FALLBACK->AI"
    cause: str


@dataclass
class SwitchSupervisor:
    """Threshold switch with dwell-counted hysteresis between AI and fallback.

    Falls back immediately on a non-finite or out-of-range AI command, and
    after `dwell` consecutive steps with |e| > theta_hi. Returns to AI only
    after `dwell` consecutive steps in which |e| < theta_lo, the AI command
    is valid, and it agrees with the hot fallback to within `agree_tol`
    (None: 10% of the actuator span). Without the agreement gate a
    persistently wrong AI would be re-admitted as soon as the fallback has
    recovered the loop, and the pair would limit-cycle. The transition log
    is append-only.
    """

    theta_hi: float
    theta_lo: float
    dwell: int
    agree_tol: float | None
    mode: str = field(init=False, default=MODE_AI)
    log: list = field(init=False, default_factory=list)
    last_u: float = field(init=False, default=0.0)
    step_count: int = field(init=False, default=0)
    _hi_count: int = field(init=False, default=0)
    _lo_count: int = field(init=False, default=0)

    def __post_init__(self):
        if not (self.theta_hi > self.theta_lo >= 0.0):
            raise ValueError("require theta_hi > theta_lo >= 0")
        if self.dwell < 1:
            raise ValueError("dwell must be >= 1")

    def _agreement(self, limits: tuple[float, float]) -> float:
        if self.agree_tol is not None:
            return self.agree_tol
        span = limits[1] - limits[0]
        return 0.1 * span if math.isfinite(span) else math.inf

    def reset(self) -> None:
        self.mode = MODE_AI
        self.log.clear()
        self.last_u = 0.0
        self.step_count = 0
        self._hi_count = 0
        self._lo_count = 0

    def _switch(self, direction: str, cause: str, t: float) -> None:
        self.log.append(TransitionEvent(self.step_count, t, direction, cause))
        self.mode = MODE_FALLBACK if direction.endswith(MODE_FALLBACK) else MODE_AI
        self._hi_count = 0
        self._lo_count = 0

    def decide(self, ai_valid: bool, cause_if_invalid: str, e: float, t: float,
               ai_agrees: bool = True) -> bool:
        """Update dwell counters and the mode; True when AI->FALLBACK fired now."""
        handover = False
        if self.mode == MODE_AI:
            if not ai_valid:
                self._switch(f"{MODE_AI}->{MODE_FALLBACK}", cause_if_invalid, t)
                handover = True
            elif abs(e) > self.theta_hi:
                self._hi_count += 1
                if self._hi_count >= self.dwell:
                    self._switch(f"{MODE_AI}->{MODE_FALLBACK}", "error-threshold", t)
                    handover = True
            else:
                self._hi_count = 0
        else:
            if ai_valid and ai_agrees and abs(e) < self.theta_lo:
                self._lo_count += 1
                if self._lo_count >= self.dwell:
                    self._switch(f"{MODE_FALLBACK}->{MODE_AI}", "recovered", t)
            else:
                self._lo_count = 0
        return handover


def _ai_validity(u_ai: float, limits: tuple[float, float]) -> tuple[bool, str]:
    if not math.isfinite(u_ai):
        return False, "nonfinite"
    if u_ai < limits[0] or u_ai > limits[1]:
        return False, "out-of-range"
    return True, ""


def write_transition_log(log, path) -> None:
    """Serialize the switch log as step,time,direction,cause CSV."""
    write_csv(path, ["step", "time", "direction", "cause"],
              [(ev.step, ev.time, ev.direction, ev.cause) for ev in log])


@dataclass(frozen=True)
class AbsorbEvent:
    step: int
    cause: str


@dataclass
class BoundedBlender:
    """Caps the learned correction at +-delta around the conventional command."""

    delta: float
    absorb_log: list = field(init=False, default_factory=list)
    step_count: int = field(init=False, default=0)

    def __post_init__(self):
        if self.delta < 0.0:
            raise ValueError("delta must be >= 0")

    def reset(self) -> None:
        self.absorb_log.clear()
        self.step_count = 0

    def blend_step(self, u_conv: float, u_ai_correction: float,
                   limits: tuple[float, float]) -> float:
        corr = u_ai_correction
        if not math.isfinite(corr):
            self.absorb_log.append(AbsorbEvent(self.step_count, "nonfinite-correction"))
            corr = 0.0
        u = u_conv + min(max(corr, -self.delta), self.delta)
        # the bound is on the recorded difference, so enforce it in the same
        # float arithmetic a checker will use (u_conv + delta can round up)
        while abs(u - u_conv) > self.delta:
            u = math.nextafter(u, u_conv)
        u = min(max(u, limits[0]), limits[1])
        self.step_count += 1
        return u


# ---------------------------------------------------------------------------
# Simulation-loop adapters
# ---------------------------------------------------------------------------

class SupervisedController:
    """Runs an AI controller under the threshold switch with a hot PID fallback.

    Both controllers step every cycle. On an AI->FALLBACK handover the
    fallback integrator is synced to the last selected output before its own
    step, so the handover is bumpless whenever integral action allows it;
    without integral action the handover proceeds unsynced. A fault of the
    fallback itself ends the run as a `NumericalFailure`.
    """

    def __init__(self, ai, fallback, supervisor: SwitchSupervisor,
                 limits: tuple[float, float]):
        self.ai = ai
        self.fallback = fallback
        self.supervisor = supervisor
        self.limits = limits
        self.modes: list[str] = []
        self._t = 0.0

    def reset(self) -> None:
        self.ai.reset()
        self.fallback.reset()
        self.supervisor.reset()
        self.modes.clear()
        self._t = 0.0

    def step(self, w: float, y, dt: float) -> float:
        y0 = primary_output(y)
        try:
            u_ai = float(self.ai.step(w, y, dt))
        except ControllerFault:
            u_ai = math.nan
        valid, cause = _ai_validity(u_ai, self.limits)
        e = w - y0
        sup = self.supervisor

        # in AI mode the switch decides first, so a handover can sync the
        # fallback before its step; in fallback mode no handover is possible,
        # so the fallback runs first and its output feeds the re-entry gate
        in_fallback = sup.mode == MODE_FALLBACK
        if not in_fallback and sup.decide(valid, cause, e, self._t):
            try:
                self.fallback.sync_to(sup.last_u, w, y0)
            except ValueError:
                pass  # proportional-only or out-of-range target: plain handover
        try:
            u_fb = float(self.fallback.step(w, y0, dt))
        except ControllerFault as exc:
            raise NumericalFailure(f"fallback failed: {exc} (step {sup.step_count})") from exc
        if in_fallback:
            agrees = valid and abs(u_ai - u_fb) <= sup._agreement(self.limits)
            sup.decide(valid, cause, e, self._t, ai_agrees=agrees)

        u = u_ai if sup.mode == MODE_AI else u_fb
        sup.last_u = u
        sup.step_count += 1
        self.modes.append(sup.mode)
        self._t += dt
        return u


class BlendedController:
    """Conventional controller plus a delta-capped learned correction."""

    def __init__(self, conventional, correction_source, blender: BoundedBlender,
                 limits: tuple[float, float]):
        self.conventional = conventional
        self.correction_source = correction_source
        self.blender = blender
        self.limits = limits
        self.u_conv_trace: list[float] = []
        self.u_trace: list[float] = []

    def reset(self) -> None:
        self.conventional.reset()
        self.correction_source.reset()
        self.blender.reset()
        self.u_conv_trace.clear()
        self.u_trace.clear()

    def step(self, w: float, y, dt: float) -> float:
        u_conv = float(self.conventional.step(w, y, dt))
        try:
            corr = float(self.correction_source.step(w, y, dt))
        except ControllerFault:
            corr = math.nan
        u = self.blender.blend_step(u_conv, corr, self.limits)
        self.u_conv_trace.append(u_conv)
        self.u_trace.append(u)
        return u
