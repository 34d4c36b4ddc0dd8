"""Closed-loop performance metrics and controller inference latency."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .dataio import write_csv
from .errors import DataError
from .neuro import NeuralControlLoop, NeuralController

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

CSV_COLUMNS = (
    "label", "overshoot_pct", "rise_time_s", "settling_time_s", "settled",
    "steady_state_error", "iae", "ise", "itae", "total_variation_u", "mean_abs_u",
)


@dataclass
class StepMetrics:
    """Step-response quality figures; settling_time is NaN when never settled."""

    overshoot_pct: float
    rise_time_s: float
    settling_time_s: float
    settled: bool
    steady_state_error: float
    iae: float
    ise: float
    itae: float
    total_variation_u: float
    mean_abs_u: float


def crossing_time(t: np.ndarray, y: np.ndarray, level: float, sign: float) -> float:
    """First interpolated time sign*(y - level) becomes >= 0; NaN if never."""
    z = sign * (y - level)
    idx = np.flatnonzero(z >= 0.0)
    if len(idx) == 0:
        return math.nan
    k = int(idx[0])
    if k == 0 or z[k] == z[k - 1]:
        return float(t[k])
    frac = -z[k - 1] / (z[k] - z[k - 1])
    return float(t[k - 1] + frac * (t[k] - t[k - 1]))


def compute_step_metrics(traj, band: float) -> StepMetrics:
    """Metrics for a single-step reference; integrals use the trapezoid rule.

    Times are measured from the step onset. A response that leaves the
    +-band*step_size corridor at the final sample is marked not settled
    rather than raising.
    """
    t = np.asarray(traj.t, dtype=float)
    w = np.asarray(traj.w, dtype=float)
    y = np.asarray(traj.y, dtype=float)
    u = np.asarray(traj.u, dtype=float)
    e = w - y

    changes = np.flatnonzero(np.abs(np.diff(w)) > 0.0)
    if len(changes):
        k_step = int(changes[0]) + 1
        w0 = float(w[0])
    else:
        # step already active at t = 0: the pre-step level is the initial output
        k_step = 0
        w0 = float(y[0])
    w1 = float(w[-1])
    dw = w1 - w0
    t_seg = t[k_step:] - t[k_step]
    y_seg = y[k_step:]

    if dw == 0.0:
        overshoot = 0.0
        rise = math.nan
    else:
        sign = math.copysign(1.0, dw)
        overshoot = max(0.0, float(np.max(sign * (y_seg - w1))) / abs(dw)) * 100.0
        t10 = crossing_time(t_seg, y_seg, w0 + 0.1 * dw, sign)
        t90 = crossing_time(t_seg, y_seg, w0 + 0.9 * dw, sign)
        rise = t90 - t10 if math.isfinite(t10) and math.isfinite(t90) else math.nan

    tol = band * abs(dw)
    dev = np.abs(y_seg - w1)
    outside = np.flatnonzero(dev > tol)
    if len(outside) == 0:
        settling, settled = 0.0, True
    elif outside[-1] == len(dev) - 1:
        settling, settled = math.nan, False
    else:
        k = int(outside[-1])
        frac = (dev[k] - tol) / (dev[k] - dev[k + 1]) if dev[k] != dev[k + 1] else 1.0
        settling, settled = float(t_seg[k] + frac * (t_seg[k + 1] - t_seg[k])), True

    tail = max(len(y_seg) // 20, 1)
    ss_error = w1 - float(np.mean(y_seg[-tail:]))

    iae = float(_trapezoid(np.abs(e), t))
    ise = float(_trapezoid(e * e, t))
    itae = float(_trapezoid(np.clip(t - t[k_step], 0.0, None) * np.abs(e), t))

    return StepMetrics(
        overshoot_pct=overshoot, rise_time_s=rise, settling_time_s=settling,
        settled=settled, steady_state_error=ss_error, iae=iae, ise=ise, itae=itae,
        total_variation_u=float(np.sum(np.abs(np.diff(u)))) if len(u) > 1 else 0.0,
        mean_abs_u=float(np.mean(np.abs(u))),
    )


@dataclass
class ComparisonTable:
    rows: list  # (label, StepMetrics), sorted by IAE

    def to_csv(self, path) -> None:
        write_csv(path, CSV_COLUMNS, [
            (label, m.overshoot_pct, m.rise_time_s, m.settling_time_s, int(m.settled),
             m.steady_state_error, m.iae, m.ise, m.itae, m.total_variation_u, m.mean_abs_u)
            for label, m in self.rows])

    def format_text(self) -> str:
        headers = ("label", "overshoot%", "rise[s]", "settle[s]", "ss-err", "IAE", "ISE", "ITAE")
        rows = [headers]
        for label, m in self.rows:
            rows.append((
                label, f"{m.overshoot_pct:.3f}", f"{m.rise_time_s:.4g}",
                f"{m.settling_time_s:.4g}" if m.settled else "not-settled",
                f"{m.steady_state_error:.4g}", f"{m.iae:.6g}", f"{m.ise:.6g}", f"{m.itae:.6g}",
            ))
        widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
        return "\n".join("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
                         for row in rows)


def compare(entries, band: float) -> ComparisonTable:
    """StepMetrics per (label, trajectory) pair, sorted by IAE.

    Entries sharing a run must share the reference and disturbance arrays
    exactly; anything else is not a like-for-like comparison.
    """
    items = list(entries)
    if not items:
        raise ValueError("nothing to compare")
    _, first = items[0]
    for label, traj in items[1:]:
        if not (np.array_equal(first.w, traj.w) and np.array_equal(first.d, traj.d)):
            raise DataError(f"entry {label!r} has a different reference or disturbance")
    rows = [(label, compute_step_metrics(traj, band)) for label, traj in items]
    rows.sort(key=lambda r: (r[1].iae, r[0]))
    return ComparisonTable(rows)


@dataclass
class LatencyReport:
    median_ms: float
    p95_ms: float
    max_ms: float
    times_ms: np.ndarray


def measure_latency(nc: NeuralController, trials: int, warmup: int) -> LatencyReport:
    """Wall time of single deployed steps of the neural controller `nc` on
    the monotonic clock: each one `NeuralControlLoop.step` (the row pass,
    the tanh squash and the window shift) on a zero reference and
    measurement, in one loop from its `reset()`, as a closed-loop run makes
    them. Runs `warmup` discarded steps first, then records exactly `trials`
    timings. Single-threaded by construction.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    step = NeuralControlLoop(nc).step  # the loop resets as it is built
    for _ in range(warmup):
        step(0.0, 0.0, 0.0)  # a neural step reads no dt
    times = np.empty(trials)
    for i in range(trials):
        start = time.perf_counter_ns()
        step(0.0, 0.0, 0.0)
        times[i] = (time.perf_counter_ns() - start) / 1e6
    return LatencyReport(
        median_ms=float(np.median(times)),
        p95_ms=float(np.percentile(times, 95)),
        max_ms=float(np.max(times)),
        times_ms=times,
    )
