"""Classical identification and tuning rules: the static hand-crafted gain path.

Step-test identification uses the two-point (28.3% / 63.2%) method; the
ultimate point comes from a relay feedback experiment instead of a
destabilizing gain sweep. Ziegler-Nichols, Cohen-Coon, and a Kappa-Tau
stand-in (AMIGO-form rules) map the results onto PID gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .metrics import crossing_time
from .pid import PidGains
from .simcore import PlantModel, SignalController, SimConfig, Trajectory, simulate

# Fraction of the final change used by the two-point method: 1 - e^(-1/3)
# and 1 - e^(-1), so tau = 1.5 (t63 - t28) for a true first-order response.
_P28 = 0.283
_P63 = 0.632


@dataclass(frozen=True)
class FopdtModel:
    """First-order-plus-dead-time fit: K e^(-L s) / (tau s + 1)."""

    gain: float
    tau: float
    dead_time: float

    def __post_init__(self):
        if not (math.isfinite(self.gain) and self.gain != 0.0):
            raise ValueError("gain must be finite and non-zero")
        if not self.tau > 0.0:
            raise ValueError("tau must be > 0")
        if not self.dead_time >= 0.0:
            raise ValueError("dead_time must be >= 0")


@dataclass(frozen=True)
class UltimateParams:
    """Gain and period at the stability boundary (Ziegler-Nichols inputs)."""

    ku: float
    pu: float

    def __post_init__(self):
        if self.ku <= 0.0 or self.pu <= 0.0:
            raise ValueError("Ku and Pu must be > 0")


# ---------------------------------------------------------------------------
# Step-test identification
# ---------------------------------------------------------------------------

def run_step_test(plant: PlantModel, cfg: SimConfig, u1: float) -> Trajectory:
    """Open-loop input step from 0 to `u1` at 5 % of the horizon, from steady
    state, recorded for identification."""
    u = np.where(cfg.time_grid() >= 0.05 * cfg.horizon, u1, 0.0)
    return simulate(plant, SignalController(u), 0.0, cfg=cfg)


def identify_fopdt_step(traj: Trajectory) -> FopdtModel:
    """Two-point FOPDT fit from an open-loop step test.

    tau = 1.5 (t63 - t28), L = t63 - tau (clamped at zero), K = dy/du.
    The trajectory must contain exactly one input step out of steady state
    and the response must settle and be monotone after the dead time.
    """
    u = np.asarray(traj.u, dtype=float)
    y = np.asarray(traj.y, dtype=float)
    t = np.asarray(traj.t, dtype=float)

    changes = np.flatnonzero(np.abs(np.diff(u)) > 0.0)
    if len(changes) == 0:
        raise NumericalFailure("input contains no step")
    k_step = int(changes[0]) + 1
    du = float(u[k_step] - u[0])
    if len(changes) > 1 and np.any(np.abs(u[k_step:] - u[k_step]) > 1e-12 * max(1.0, abs(du))):
        raise NumericalFailure("input is not a single step")

    y0 = float(np.mean(y[:k_step])) if k_step > 1 else float(y[0])
    tail = max(len(y) // 10, 2)
    y_inf = float(np.mean(y[-tail:]))
    dy = y_inf - y0
    if abs(dy) <= 1e-9 * max(1.0, abs(du)):
        raise NumericalFailure("flat response: no identifiable gain")
    if float(np.ptp(y[-tail:])) > 0.02 * abs(dy):
        raise NumericalFailure("no steady final value within the horizon")

    sign = math.copysign(1.0, dy)
    seg_t = t[k_step:] - t[k_step]
    seg_y = y[k_step:]

    onset = np.flatnonzero(sign * (seg_y - y0) > 0.01 * abs(dy))
    start = int(onset[0]) if len(onset) else 0
    steps = sign * np.diff(seg_y[start:])
    if np.any(steps < -0.01 * abs(dy)):
        raise NumericalFailure("response is not monotone after the dead time")

    times = []
    for frac in (_P28, _P63):
        level = y0 + frac * dy
        times.append(crossing_time(seg_t, seg_y, level, sign))
        if math.isnan(times[-1]):
            raise NumericalFailure(f"response never reached the {level:.6g} level")
    t28, t63 = times
    tau = 1.5 * (t63 - t28)
    if tau <= 0.0:
        raise NumericalFailure("degenerate two-point geometry")
    return FopdtModel(gain=dy / du, tau=tau, dead_time=max(t63 - tau, 0.0))


# ---------------------------------------------------------------------------
# Relay feedback experiment
# ---------------------------------------------------------------------------

class _RelayController:
    """Ideal relay around zero error: +h / -h, holding the last sign at e == 0."""

    def __init__(self, amplitude: float):
        self.h = amplitude
        self._sign = 1.0

    def reset(self) -> None:
        self._sign = 1.0

    def step(self, w, y, dt) -> float:
        e = w - float(y)
        if e > 0.0:
            self._sign = 1.0
        elif e < 0.0:
            self._sign = -1.0
        return self._sign * self.h


def _rising_crossings(t: np.ndarray, y: np.ndarray, level: float) -> np.ndarray:
    below = y[:-1] < level
    above = y[1:] >= level
    idx = np.flatnonzero(below & above)
    frac = (level - y[idx]) / (y[idx + 1] - y[idx])
    return t[idx] + frac * (t[idx + 1] - t[idx])


def relay_experiment(plant: PlantModel, relay_amplitude: float, cfg: SimConfig) -> UltimateParams:
    """Estimate Ku, Pu from the limit cycle induced by an ideal relay.

    The first 30% of the horizon is discarded as transient. The describing
    function gives Ku = 4 h / (pi a) with a the oscillation amplitude; Pu is
    the mean spacing of rising zero crossings. At least 4 regular, resolvable
    cycles are required.
    """
    h = abs(relay_amplitude)
    if h <= 0.0:
        raise ValueError("relay amplitude must be nonzero")
    if not (plant.u_min <= -h and h <= plant.u_max):
        raise ValueError("relay amplitude outside the actuator limits")

    traj = simulate(plant, _RelayController(h), reference=0.0, cfg=cfg)
    start = int(0.3 * len(traj))
    t = traj.t[start:]
    y = traj.y[start:]

    crossings = _rising_crossings(t, y - float(np.mean(y)), 0.0)
    if len(crossings) < 5:
        raise NumericalFailure("fewer than 4 full cycles after the transient discard")
    periods = np.diff(crossings)
    pu = float(np.mean(periods))
    if pu < 8.0 * cfg.dt:
        raise NumericalFailure("oscillation at the sampling scale, not a process limit cycle")
    if float(np.std(periods)) > 0.2 * pu:
        raise NumericalFailure("oscillation period is not sustained")

    # First-harmonic amplitude over an integer number of cycles: for a linear
    # plant in periodic steady state this inverts the describing-function
    # relation exactly, where the raw peak would bias Ku low on non-sinusoidal
    # limit cycles.
    window = (t >= crossings[0]) & (t < crossings[-1])
    tw = t[window]
    yw = y[window] - float(np.mean(y[window]))
    omega = 2.0 * math.pi / pu
    a = 2.0 * abs(np.mean(yw * np.exp(-1j * omega * tw)))
    if a <= 0.0:
        raise NumericalFailure("zero oscillation amplitude")
    return UltimateParams(ku=4.0 * h / (math.pi * a), pu=pu)


def ultimate_from_fopdt(model: FopdtModel) -> UltimateParams:
    """Phase-crossover solution for an FOPDT model: w L + atan(w tau) = pi.

    Analytic counterpart of the relay experiment; requires dead time, since a
    pure first-order lag never reaches -180 degrees.
    """
    if model.dead_time <= 0.0:
        raise NumericalFailure("no phase crossover without dead time")
    lo, hi = 1e-12, math.pi / model.dead_time
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * model.dead_time + math.atan(mid * model.tau) < math.pi:
            lo = mid
        else:
            hi = mid
    w_u = 0.5 * (lo + hi)
    ku = math.sqrt(1.0 + (w_u * model.tau) ** 2) / abs(model.gain)
    return UltimateParams(ku=ku, pu=2.0 * math.pi / w_u)


# ---------------------------------------------------------------------------
# Tuning rules
# ---------------------------------------------------------------------------

def tune_ziegler_nichols(up: UltimateParams, kind: str, limits: tuple[float, float]) -> PidGains:
    """Classic ultimate-cycle table for P, PI, and PID controllers."""
    kind = kind.lower()
    if kind == "p":
        return PidGains.from_time_constants(0.5 * up.ku, limits)
    if kind == "pi":
        return PidGains.from_time_constants(0.45 * up.ku, limits, ti=up.pu / 1.2)
    if kind == "pid":
        return PidGains.from_time_constants(0.6 * up.ku, limits, ti=0.5 * up.pu, td=0.125 * up.pu)
    raise ValueError(f"unknown controller kind {kind!r}")


def tune_cohen_coon(model: FopdtModel, limits: tuple[float, float]) -> PidGains:
    """Cohen-Coon PID rule; needs a nonzero dead time."""
    if model.dead_time <= 0.0:
        raise NumericalFailure("Cohen-Coon needs dead time > 0")
    k, tau, L = model.gain, model.tau, model.dead_time
    r = L / tau
    kp = (1.0 / k) * (tau / L) * (4.0 / 3.0 + r / 4.0)
    ti = L * (32.0 + 6.0 * r) / (13.0 + 8.0 * r)
    td = 4.0 * L / (11.0 + 2.0 * r)
    return PidGains.from_time_constants(kp, limits, ti=ti, td=td)


def tune_kappa_tau(model: FopdtModel, limits: tuple[float, float]) -> PidGains:
    """Kappa-Tau style rule in its AMIGO form; needs a nonzero dead time."""
    if model.dead_time <= 0.0:
        raise NumericalFailure("Kappa-Tau needs dead time > 0")
    k, tau, L = model.gain, model.tau, model.dead_time
    kp = (1.0 / k) * (0.2 + 0.45 * tau / L)
    ti = L * (0.4 * L + 0.8 * tau) / (L + 0.1 * tau)
    td = 0.5 * L * tau / (0.3 * L + tau)
    return PidGains.from_time_constants(kp, limits, ti=ti, td=td)

