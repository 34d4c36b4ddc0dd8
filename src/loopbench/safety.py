"""Safety wrappers bounding the influence of learned controller blocks.

Two designs with intentionally different fault philosophies, one class
each: the threshold switch (`SupervisedController`) escalates to a
conventional fallback path (hot standby, bumpless handover), while the
bounded blender (`BlendedController`) absorbs faults because its whole
contract is a hard cap on the learned block's authority.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def write_transition_log(log, path) -> None:
    """Serialize the switch log as step,time,direction,cause CSV."""
    write_csv(path, ["step", "time", "direction", "cause"],
              [(ev.step, ev.time, ev.direction, ev.cause) for ev in log])


@dataclass(frozen=True)
class AbsorbEvent:
    step: int
    cause: str


class SupervisedController:
    """Runs an AI controller under a threshold switch with a hot PID fallback.

    The switch falls back immediately on a non-finite or out-of-range AI
    command, and after `dwell` consecutive steps with |e| > theta_hi. It
    returns to AI only after `dwell` consecutive steps in which |e| <
    theta_lo, the AI command is valid, and it agrees with the hot fallback to
    within `agree_tol` (None: 10% of the actuator span). Without the
    agreement gate a persistently wrong AI would be re-admitted as soon as
    the fallback has recovered the loop, and the pair would limit-cycle. The
    transition log is append-only.

    Both controllers step every cycle. On an AI->FALLBACK handover the
    fallback integrator is synced to the last selected output before its own
    step, so the handover is bumpless whenever integral action allows it;
    without integral action the handover proceeds unsynced. A fault of the
    fallback itself ends the run as a `NumericalFailure`.
    """

    def __init__(self, ai, fallback, limits: tuple[float, float], theta_hi: float,
                 theta_lo: float, dwell: int, agree_tol: float | None):
        if not (theta_hi > theta_lo >= 0.0):
            raise ValueError("require theta_hi > theta_lo >= 0")
        if dwell < 1:
            raise ValueError("dwell must be >= 1")
        if agree_tol is None:
            span = limits[1] - limits[0]
            agree_tol = 0.1 * span if math.isfinite(span) else math.inf
        elif not agree_tol >= 0.0:
            raise ValueError("agree_tol must be None or >= 0")
        self.ai = ai
        self.fallback = fallback
        self.limits = limits
        self.theta_hi = theta_hi
        self.theta_lo = theta_lo
        self.dwell = dwell
        self.agree_tol = agree_tol
        self.mode = MODE_AI
        self.log: list[TransitionEvent] = []
        # consecutive steps toward leaving the current mode; `_switch` zeroes it
        self._count = 0
        self._k = 0  # the step being taken
        self._last_u = 0.0
        self._t = 0.0

    def reset(self) -> None:
        self.ai.reset()
        self.fallback.reset()
        self.mode = MODE_AI
        self.log.clear()
        self._count = 0
        self._k = 0
        self._last_u = 0.0
        self._t = 0.0

    def _switch(self, mode: str, cause: str) -> None:
        self.log.append(TransitionEvent(self._k, self._t, f"{self.mode}->{mode}", cause))
        self.mode = mode
        self._count = 0

    def step(self, w: float, y, dt: float) -> float:
        y0 = primary_output(y)
        try:
            u_ai = float(self.ai.step(w, y, dt))
        except ControllerFault:
            u_ai = math.nan
        # the cause of an immediate fallback; empty for a valid AI command
        if not math.isfinite(u_ai):
            cause = "nonfinite"
        elif u_ai < self.limits[0] or u_ai > self.limits[1]:
            cause = "out-of-range"
        else:
            cause = ""
        e = abs(w - y0)

        # in AI mode the switch decides first, so a handover can sync the
        # fallback before its step; in fallback mode no handover is possible,
        # so the fallback runs first and its output feeds the re-entry gate
        in_fallback = self.mode == MODE_FALLBACK
        if not in_fallback:
            if not cause:
                self._count = self._count + 1 if e > self.theta_hi else 0
                if self._count >= self.dwell:
                    cause = "error-threshold"
            if cause:
                self._switch(MODE_FALLBACK, cause)
                try:
                    self.fallback.sync_to(self._last_u, w, y0)
                except ValueError:
                    pass  # proportional-only or out-of-range target: plain handover
        try:
            u_fb = float(self.fallback.step(w, y0, dt))
        except ControllerFault as exc:
            raise NumericalFailure(f"fallback failed: {exc} (step {self._k})") from exc
        if in_fallback:
            admit = not cause and abs(u_ai - u_fb) <= self.agree_tol and e < self.theta_lo
            self._count = self._count + 1 if admit else 0
            if self._count >= self.dwell:
                self._switch(MODE_AI, "recovered")

        u = u_ai if self.mode == MODE_AI else u_fb
        self._last_u = u
        self._k += 1
        self._t += dt
        return u


class BlendedController:
    """Conventional controller plus a learned correction capped at +-delta.

    A correction that is non-finite, or whose source raises a
    `ControllerFault`, is absorbed as zero and logged with its step.
    """

    def __init__(self, conventional, correction_source, limits: tuple[float, float],
                 delta: float):
        if delta < 0.0:
            raise ValueError("delta must be >= 0")
        self.conventional = conventional
        self.correction_source = correction_source
        self.limits = limits
        self.delta = delta
        self.absorb_log: list[AbsorbEvent] = []
        self.u_conv_trace: list[float] = []

    def reset(self) -> None:
        self.conventional.reset()
        self.correction_source.reset()
        self.absorb_log.clear()
        self.u_conv_trace.clear()

    def step(self, w: float, y, dt: float) -> float:
        u_conv = float(self.conventional.step(w, y, dt))
        try:
            corr = float(self.correction_source.step(w, y, dt))
        except ControllerFault:
            corr = math.nan
        if not math.isfinite(corr):
            self.absorb_log.append(AbsorbEvent(len(self.u_conv_trace), "nonfinite-correction"))
            corr = 0.0
        delta = self.delta
        u = u_conv + min(max(corr, -delta), delta)
        # the bound is on the recorded difference, so enforce it in the same
        # float arithmetic a checker will use (u_conv + delta can round up)
        while abs(u - u_conv) > delta:
            u = math.nextafter(u, u_conv)
        u = min(max(u, self.limits[0]), self.limits[1])
        self.u_conv_trace.append(u_conv)
        return u
