"""Learned control blocks: static AI gain tuning, adaptive gain scheduling,
and full neural controllers with two training modes.

Training is deterministic and desk-scale: imitation is plain seeded
supervised regression onto a teacher controller, and the closed-loop mode
backpropagates through an unrolled controller-surrogate rollout with
hand-written reverse passes (checked against finite differences in the test
suite). Output saturation and gain bounds are structural (tanh / sigmoid
squashes), not post-hoc clamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ControllerFault, FeatureUnavailable, ParseError, SimulationDiverged, \
    TooShort, TrainingUnstable, TuningFailed
from .nnet import Adam, Mlp, SupervisedDataset, TrainConfig, normalize
from .pid import PidGains, PidState, pid_step
from .simcore import primary_output
from .surrogate import NarxModel


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


# ---------------------------------------------------------------------------
# Feature windows
# ---------------------------------------------------------------------------

@dataclass
class ControlHistory:
    """Newest-first buffers of past measurements and controls, zero-warm."""

    m: int
    y: list = field(default_factory=list)
    u: list = field(default_factory=list)

    def __post_init__(self):
        if not self.y:
            self.y = [0.0] * self.m
        if not self.u:
            self.u = [0.0] * self.m

    def push(self, y_now: float, u_now: float) -> None:
        self.y = [y_now] + self.y[: self.m - 1]
        self.u = [u_now] + self.u[: self.m - 1]

    def reset(self) -> None:
        self.y = [0.0] * self.m
        self.u = [0.0] * self.m


@dataclass
class NeuralController:
    """Direct neural control law squashed into the actuator range.

    Features: current reference, the last m measurements (newest first,
    including the current one), and the last m controls. The tanh output
    squash makes saturation structural for arbitrary network weights.
    """

    mlp: Mlp
    u_min: float
    u_max: float
    memory: int = 4
    feat_mean: np.ndarray = None
    feat_std: np.ndarray = None
    aux: Mlp | None = None  # one-layer head on the last hidden activation

    def __post_init__(self):
        want = 1 + 2 * self.memory
        if self.mlp.layer_sizes[0] != want or self.mlp.layer_sizes[-1] != 1:
            raise ValueError(f"controller net must map {want} features to 1 output")
        if self.feat_mean is None:
            self.feat_mean = np.zeros(want)
        if self.feat_std is None:
            self.feat_std = np.ones(want)

    @property
    def center(self) -> float:
        return 0.5 * (self.u_max + self.u_min)

    @property
    def half_span(self) -> float:
        return 0.5 * (self.u_max - self.u_min)

    def features(self, w: float, y_now: float, hist: ControlHistory) -> np.ndarray:
        return np.array([w, y_now, *hist.y[: self.memory - 1], *hist.u[: self.memory]])

    def output(self, feat_raw: np.ndarray) -> float:
        z = float(self.mlp.forward(normalize(feat_raw, self.feat_mean, self.feat_std))[0])
        if not math.isfinite(z):
            raise ControllerFault("non-finite network output")
        return self.center + self.half_span * math.tanh(z)

    def aux_output(self, feat_raw: np.ndarray) -> float:
        if self.aux is None:
            raise FeatureUnavailable("disturbance head not enabled on this controller")
        fn = normalize(feat_raw, self.feat_mean, self.feat_std)
        _, acts = self.mlp.forward_cached(fn)
        return float(self.aux.forward(acts[-1])[0, 0])

    def copy(self) -> "NeuralController":
        return NeuralController(self.mlp.copy(), self.u_min, self.u_max, self.memory,
                                self.feat_mean.copy(), self.feat_std.copy(),
                                self.aux.copy() if self.aux else None)


class NeuralControlLoop:
    """Controller-protocol adapter owning the history buffers."""

    def __init__(self, nc: NeuralController):
        self.nc = nc
        self.hist = ControlHistory(nc.memory)

    def reset(self) -> None:
        self.hist.reset()

    def step(self, w: float, y, dt: float) -> float:
        """Assemble features, run the net, squash, and update the history."""
        y0 = primary_output(y)
        u = self.nc.output(self.nc.features(w, y0, self.hist))
        self.hist.push(y0, u)
        return u


@dataclass
class GainScheduler:
    """Maps a recent error/measurement window to bounded (kp, ki, kd).

    Bounds are enforced by scaled sigmoids, so emitted gains stay inside
    them for arbitrary network weights; a zero network yields the bound
    midpoints.
    """

    mlp: Mlp
    bounds: np.ndarray  # (3, 2) rows (lo, hi) for kp, ki, kd
    memory: int = 4
    feat_mean: np.ndarray = None
    feat_std: np.ndarray = None
    aux: Mlp | None = None  # one-layer head on the last hidden activation

    def __post_init__(self):
        self.bounds = np.asarray(self.bounds, dtype=float).reshape(3, 2)
        if np.any(self.bounds[:, 0] > self.bounds[:, 1]) or np.any(self.bounds[:, 0] < 0.0):
            raise ValueError("gain bounds must satisfy 0 <= lo <= hi")
        want = 2 * self.memory
        if self.mlp.layer_sizes[0] != want or self.mlp.layer_sizes[-1] != 3:
            raise ValueError(f"scheduler net must map {want} features to 3 gains")
        if self.feat_mean is None:
            self.feat_mean = np.zeros(want)
        if self.feat_std is None:
            self.feat_std = np.ones(want)

    def features(self, e_window, y_window) -> np.ndarray:
        return np.concatenate([e_window, y_window])

    def gains_from(self, feat_raw: np.ndarray) -> tuple[float, float, float]:
        z = self.mlp.forward(normalize(feat_raw, self.feat_mean, self.feat_std))
        g = self.bounds[:, 0] + _sigmoid(np.clip(z, -60.0, 60.0)) * (self.bounds[:, 1] - self.bounds[:, 0])
        return float(g[0]), float(g[1]), float(g[2])

    def aux_output(self, feat_raw: np.ndarray) -> float:
        if self.aux is None:
            raise FeatureUnavailable("disturbance head not enabled on this scheduler")
        fn = normalize(feat_raw, self.feat_mean, self.feat_std)
        _, acts = self.mlp.forward_cached(fn)
        return float(self.aux.forward(acts[-1])[0, 0])

    def copy(self) -> "GainScheduler":
        return GainScheduler(self.mlp.copy(), self.bounds.copy(), self.memory,
                             self.feat_mean.copy(), self.feat_std.copy(),
                             self.aux.copy() if self.aux else None)


class _ScheduledGains:
    """The gain set `pid_step` reads: wiring, limits and filter ratio copied
    once from a validated template, kp/ki/kd overwritten every step. The
    scheduler's sigmoid bounds already hold what `PidGains` would re-check."""

    __slots__ = ("kp", "ki", "kd", "setpoint_weight", "u_min", "u_max", "deriv_filter_n")

    def __init__(self, template: PidGains):
        for name in self.__slots__:
            setattr(self, name, getattr(template, name))


class ScheduledPidController:
    """PID whose gains are rewritten by the scheduler before every step."""

    def __init__(self, gs: GainScheduler, template: PidGains):
        self.gs = gs
        self.template = template
        self.gains = _ScheduledGains(template)
        self.state = PidState()
        self.e_win = [0.0] * gs.memory
        self.y_win = [0.0] * gs.memory
        self.gain_trace: list[tuple[float, float, float]] = []

    def reset(self) -> None:
        self.state.reset()
        self.e_win = [0.0] * self.gs.memory
        self.y_win = [0.0] * self.gs.memory
        self.gain_trace.clear()

    def step(self, w: float, y, dt: float) -> float:
        y0 = primary_output(y)
        e = w - y0
        self.e_win = [e] + self.e_win[:-1]
        self.y_win = [y0] + self.y_win[:-1]
        kp, ki, kd = self.gs.gains_from(self.gs.features(self.e_win, self.y_win))
        self.gain_trace.append((kp, ki, kd))
        self.gains.kp, self.gains.ki, self.gains.kd = kp, ki, kd
        return pid_step(self.gains, self.state, w, y0, dt)


# ---------------------------------------------------------------------------
# Imitation training with dual-dataset mixing
# ---------------------------------------------------------------------------

@dataclass
class DualDatasetMix:
    """Coverage set A and operational set B, mixed A-fraction lam per batch."""

    a: SupervisedDataset
    b: SupervisedDataset
    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("mix ratio must be in [0, 1]")


def imitation_data_from_run(traj, m: int, with_disturbance: bool = False) -> SupervisedDataset:
    """(features -> teacher control) pairs replayed from a closed-loop record.

    Features are built exactly as the deployed controller builds them, with
    the teacher's own outputs in the control history. With
    `with_disturbance`, rows also carry the next-step disturbance as a second
    target column for the auxiliary head.
    """
    hist = ControlHistory(m)
    feats, targets = [], []
    n = len(traj.t)
    for k in range(n - 1):
        y_k = float(traj.y_meas[k])
        feats.append(np.array([traj.w[k], y_k, *hist.y[: m - 1], *hist.u[:m]]))
        row = [float(traj.u[k])]
        if with_disturbance:
            row.append(float(traj.d[k + 1]))
        targets.append(row)
        hist.push(y_k, float(traj.u[k]))
    return SupervisedDataset(np.stack(feats), np.array(targets))


@dataclass
class ImitationResult:
    controller: NeuralController
    history: list  # (train_loss, val_rmse_a, val_rmse_b) per epoch
    a_fraction: list  # realized A-share per epoch
    val_rmse_a: float = math.nan
    val_rmse_b: float = math.nan


def _contiguous_split(ds: SupervisedDataset, fraction: float = 0.75):
    n = len(ds)
    k = int(np.floor(n * fraction))
    if k < 1 or n - k < 1:
        raise TooShort("dataset too small for a train/validation split")
    return (SupervisedDataset(ds.x[:k], ds.y[:k]),
            SupervisedDataset(ds.x[k:], ds.y[k:]))


def train_imitation(nc: NeuralController, mix: DualDatasetMix, cfg: TrainConfig,
                    aux_weight: float = 0.0) -> ImitationResult:
    """Clone a teacher control law by lam-mixed supervised regression.

    Targets are teacher controls in actuator units; the loss is taken after
    the tanh squash so the trained network is exactly what deploys. When the
    controller has an auxiliary head and the datasets carry a second target
    column, the multitask loss L_main + aux_weight * MSE(d_hat, d) trains
    trunk and head together, one Adam update per batch.
    """
    a_train, a_val = _contiguous_split(mix.a)
    b_train, b_val = _contiguous_split(mix.b)

    work = nc.copy()
    all_x = np.vstack([a_train.x, b_train.x])
    work.feat_mean = all_x.mean(axis=0)
    work.feat_std = np.maximum(all_x.std(axis=0), 1e-12)

    has_aux = work.aux is not None and a_train.y.shape[1] > 1
    params = work.mlp.params
    if has_aux:
        # trunk and head parameters side by side in one optimizer vector
        params = np.empty(work.mlp.n_params + work.aux.n_params)
        work.mlp.bind(params[:work.mlp.n_params])
        work.aux.bind(params[work.mlp.n_params:])
    adam = Adam(params.size, cfg.learning_rate, cfg.beta1, cfg.beta2)
    rng = np.random.default_rng(cfg.seed)

    def _batch_arrays(idx_a, idx_b):
        xs = np.vstack([a_train.x[idx_a], b_train.x[idx_b]])
        ys = np.vstack([a_train.y[idx_a], b_train.y[idx_b]])
        return xs, ys

    def _loss_and_step(xs, ys):
        fn = normalize(xs, work.feat_mean, work.feat_std)
        z, acts = work.mlp.forward_cached(fn)
        th = np.tanh(z[:, :1])
        u_hat = work.center + work.half_span * th
        diff = u_hat - ys[:, :1]
        loss = float(np.mean(diff ** 2))
        gz = (2.0 * diff / diff.size) * work.half_span * (1.0 - th ** 2)
        extra = None
        if has_aux:
            d_hat, acts_aux = work.aux.forward_cached(acts[-1])
            d_diff = d_hat - ys[:, 1:2]
            loss += aux_weight * float(np.mean(d_diff ** 2))
            grads_aux, extra = work.aux.backward(acts_aux, aux_weight * 2.0 * d_diff / d_diff.size)
        grads, _ = work.mlp.backward(acts, gz, extra_last_hidden_grad=extra)
        if has_aux:
            grads = np.concatenate([grads, grads_aux])
        adam.step(params, grads)
        return loss

    def _val_rmse(ds):
        fn = normalize(ds.x, work.feat_mean, work.feat_std)
        u_hat = work.center + work.half_span * np.tanh(work.mlp.forward(fn)[:, :1])
        return float(np.sqrt(np.mean((u_hat - ds.y[:, :1]) ** 2)))

    n_total = len(a_train) + len(b_train)
    n_batches = max(n_total // cfg.batch_size, 1)
    result = ImitationResult(controller=work, history=[], a_fraction=[])
    best = math.inf
    best_snapshot = None
    wait = 0

    for epoch in range(cfg.max_epochs):
        losses = []
        a_draws = 0
        for _ in range(n_batches):
            from_a = rng.random(cfg.batch_size) < mix.lam
            na = int(from_a.sum())
            a_draws += na
            idx_a = rng.integers(0, len(a_train), size=na)
            idx_b = rng.integers(0, len(b_train), size=cfg.batch_size - na)
            losses.append(_loss_and_step(*_batch_arrays(idx_a, idx_b)))
        va, vb = _val_rmse(a_val), _val_rmse(b_val)
        result.history.append((float(np.mean(losses)), va, vb))
        result.a_fraction.append(a_draws / (n_batches * cfg.batch_size))
        score = 0.5 * (va * va + vb * vb)
        if score < best:
            best = score
            best_snapshot = work.copy()
            wait = 0
        else:
            wait += 1
            if wait > cfg.patience:
                break

    result.controller = best_snapshot if best_snapshot is not None else work
    work = result.controller  # report the snapshot that is actually returned
    result.val_rmse_a = _val_rmse(a_val)
    result.val_rmse_b = _val_rmse(b_val)
    return result


# ---------------------------------------------------------------------------
# Closed-loop training: backprop through the surrogate rollout
# ---------------------------------------------------------------------------

@dataclass
class BpttResult:
    trained: object  # NeuralController or GainScheduler
    history: list  # mean episode loss per epoch
    skipped: list  # diverged episode count per epoch


def _controller_rollout(nc: NeuralController, narx: NarxModel, w_seq: np.ndarray,
                        horizon: int, rho: float, want_grads: bool):
    """Unrolled controller->surrogate loop; returns (loss, flat grads or None).

    The reverse pass propagates adjoints through the surrogate into both the
    output-lag and control-lag windows, then through the controller squash
    and network into its parameters and feature history.
    """
    p, q, m = narx.p, narx.q, nc.memory
    pad_y = max(p, m)
    pad_u = max(q - 1, m, 1)
    ys = np.zeros(pad_y + horizon)
    us = np.zeros(pad_u + horizon)
    caches_c, caches_s, zs = [], [], []

    loss_track = 0.0
    loss_du = 0.0
    for k in range(horizon):
        iy = pad_y - 1 + k
        y_now = ys[iy]
        feat_c = np.concatenate([[w_seq[k], y_now], ys[iy - m + 1: iy][::-1],
                                 us[pad_u - 1 + k - m + 1: pad_u + k][::-1]])
        fn = normalize(feat_c, nc.feat_mean, nc.feat_std)
        z_out, acts_c = nc.mlp.forward_cached(fn)
        z = float(z_out[0, 0])
        u_k = nc.center + nc.half_span * math.tanh(z)
        us[pad_u + k] = u_k

        feat_s = np.concatenate([ys[iy - p + 1: iy + 1][::-1],
                                 us[pad_u + k - q + 1: pad_u + k + 1][::-1]])
        y_next, acts_s = narx.predict_cached(feat_s)
        if not math.isfinite(y_next):
            raise SimulationDiverged("surrogate rollout diverged", step=k)
        ys[pad_y + k] = y_next

        loss_track += (y_next - w_seq[k + 1]) ** 2
        loss_du += (u_k - us[pad_u + k - 1]) ** 2
        if want_grads:
            caches_c.append(acts_c)
            caches_s.append(acts_s)
            zs.append(z)

    loss = loss_track / horizon + rho * loss_du / horizon
    if not want_grads:
        return loss, None

    ybar = np.zeros_like(ys)
    ubar = np.zeros_like(us)
    pgrads = np.zeros(nc.mlp.n_params)
    for k in range(horizon - 1, -1, -1):
        iy = pad_y - 1 + k
        ybar[pad_y + k] += 2.0 * (ys[pad_y + k] - w_seq[k + 1]) / horizon
        du = us[pad_u + k] - us[pad_u + k - 1]
        ubar[pad_u + k] += 2.0 * rho * du / horizon
        ubar[pad_u + k - 1] -= 2.0 * rho * du / horizon

        fbar_s = narx.backward_to_features(caches_s[k], float(ybar[pad_y + k]))
        for j in range(p):
            ybar[iy - j] += fbar_s[j]
        for j in range(q):
            ubar[pad_u + k - j] += fbar_s[p + j]

        dz = float(ubar[pad_u + k]) * nc.half_span * (1.0 - math.tanh(zs[k]) ** 2)
        g_c, gf = nc.mlp.backward(caches_c[k], np.array([[dz]]))
        pgrads += g_c
        df = gf[0] / nc.feat_std
        ybar[iy] += df[1]
        for j in range(1, m):
            ybar[iy - j] += df[1 + j]
        for j in range(m):
            ubar[pad_u - 1 + k - j] += df[1 + m + j]

    return loss, pgrads


def _scheduler_rollout(gs: GainScheduler, narx: NarxModel, w_seq: np.ndarray,
                       horizon: int, rho: float, want_grads: bool,
                       limits: tuple[float, float]):
    """Unrolled scheduled-PI->surrogate loop with a differentiable PI core.

    The training core uses rectangle integration with conditional anti-windup
    (branch flags recorded for the reverse pass); the derivative channel is
    left to the deployed PID, where it is bounded anyway.
    """
    p, q, m = narx.p, narx.q, gs.memory
    dt = narx.dt
    pad_y = max(p, m)
    pad_u = max(q - 1, 1)
    ys = np.zeros(pad_y + horizon)
    us = np.zeros(pad_u + horizon)
    es = np.zeros(m + horizon)
    caches_g, caches_s, z_list, gain_list, flags = [], [], [], [], []

    s_int = 0.0
    loss_track = 0.0
    loss_du = 0.0
    lo, hi = gs.bounds[:, 0], gs.bounds[:, 1]
    for k in range(horizon):
        iy = pad_y - 1 + k
        e_k = w_seq[k] - ys[iy]
        es[m + k] = e_k
        feat = np.concatenate([es[k + 1: m + k + 1][::-1], ys[iy - m + 1: iy + 1][::-1]])
        fn = normalize(feat, gs.feat_mean, gs.feat_std)
        z_out, acts_g = gs.mlp.forward_cached(fn)
        z = np.clip(z_out[0], -60.0, 60.0)
        sig = _sigmoid(z)
        gains = lo + sig * (hi - lo)
        kp, ki = float(gains[0]), float(gains[1])

        inc = ki * e_k * dt
        s_cand = s_int + inc
        u_raw = kp * e_k + s_cand
        if u_raw > limits[1]:
            u_k, sat = limits[1], 1
        elif u_raw < limits[0]:
            u_k, sat = limits[0], -1
        else:
            u_k, sat = u_raw, 0
        frozen = sat != 0 and (inc * sat > 0.0)
        s_prev = s_int
        s_int = s_prev if frozen else s_cand
        us[pad_u + k] = u_k

        feat_s = np.concatenate([ys[iy - p + 1: iy + 1][::-1],
                                 us[pad_u + k - q + 1: pad_u + k + 1][::-1]])
        y_next, acts_s = narx.predict_cached(feat_s)
        if not math.isfinite(y_next):
            raise SimulationDiverged("surrogate rollout diverged", step=k)
        ys[pad_y + k] = y_next

        loss_track += (y_next - w_seq[k + 1]) ** 2
        loss_du += (u_k - us[pad_u + k - 1]) ** 2
        if want_grads:
            caches_g.append(acts_g)
            caches_s.append(acts_s)
            z_list.append(z)
            gain_list.append((kp, ki))
            flags.append((sat, frozen))

    loss = loss_track / horizon + rho * loss_du / horizon
    if not want_grads:
        return loss, None

    ybar = np.zeros_like(ys)
    ubar = np.zeros_like(us)
    ebar = np.zeros_like(es)
    sbar = 0.0  # adjoint of the integrator entering step k+1
    pgrads = np.zeros(gs.mlp.n_params)
    for k in range(horizon - 1, -1, -1):
        iy = pad_y - 1 + k
        ybar[pad_y + k] += 2.0 * (ys[pad_y + k] - w_seq[k + 1]) / horizon
        du = us[pad_u + k] - us[pad_u + k - 1]
        ubar[pad_u + k] += 2.0 * rho * du / horizon
        ubar[pad_u + k - 1] -= 2.0 * rho * du / horizon

        fbar_s = narx.backward_to_features(caches_s[k], float(ybar[pad_y + k]))
        for j in range(p):
            ybar[iy - j] += fbar_s[j]
        for j in range(q):
            ubar[pad_u + k - j] += fbar_s[p + j]

        sat, frozen = flags[k]
        kp, ki = gain_list[k]
        e_k = es[m + k]
        du_raw = float(ubar[pad_u + k]) if sat == 0 else 0.0
        # s_cand feeds u_raw always and the next state only when not frozen
        ds_cand = du_raw + (0.0 if frozen else sbar)
        ds_prev = ds_cand + (sbar if frozen else 0.0)
        dkp = du_raw * e_k
        dki = ds_cand * e_k * dt
        de = du_raw * kp + ds_cand * ki * dt
        ebar[m + k] += de
        sbar = ds_prev

        z = z_list[k]
        sig = _sigmoid(z)
        dz = np.array([dkp, dki, 0.0]) * sig * (1.0 - sig) * (hi - lo)
        g_g, gf = gs.mlp.backward(caches_g[k], dz.reshape(1, 3))
        pgrads += g_g
        df = gf[0] / gs.feat_std
        for j in range(m):
            ebar[m + k - j] += df[j]
            ybar[iy - j] += df[m + j]

        # ebar[m+k] is final here (the PID core above and the feature windows
        # of steps >= k are all processed); fold e_k = w_k - y_k into y_k now,
        # before iteration k-1 consumes ybar for y_k.
        ybar[iy] -= ebar[m + k]

    return loss, pgrads


def bptt_loss_and_grad(target, narx: NarxModel, w_seq, horizon: int, rho: float = 0.01,
                       limits: tuple[float, float] = (-math.inf, math.inf),
                       want_grads: bool = True):
    """Rollout loss and exact gradient w.r.t. the trained network's weights.

    loss = mean squared tracking error + rho * mean squared control move.
    Exposed separately so the finite-difference oracle in the tests can call
    the same computation it is checking.
    """
    w_seq = np.asarray(w_seq, dtype=float)
    if len(w_seq) < horizon + 1:
        raise ValueError("reference must cover horizon + 1 samples")
    if isinstance(target, NeuralController):
        return _controller_rollout(target, narx, w_seq, horizon, rho, want_grads)
    if isinstance(target, GainScheduler):
        return _scheduler_rollout(target, narx, w_seq, horizon, rho, want_grads, limits)
    raise TypeError("target must be a NeuralController or GainScheduler")


def train_bptt(target, narx: NarxModel, references, horizon: int, cfg: TrainConfig,
               rho: float = 0.01, clip_norm: float = 1.0,
               limits: tuple[float, float] | None = None) -> BpttResult:
    """Train a controller or scheduler through closed-loop surrogate rollouts.

    One Adam update per episode in a fixed seeded order; gradient norm is
    clipped at `clip_norm`. Diverged rollouts are skipped and counted; more
    than half skipped in one epoch aborts as unstable. horizon = 0 is the
    degenerate no-op contract (loss 0, no update).
    """
    if horizon > 200:
        raise ValueError("rollout horizon is capped at 200 steps")
    work = target.copy()
    if horizon == 0:
        return BpttResult(trained=work, history=[0.0], skipped=[0])
    if limits is None:
        limits = (target.u_min, target.u_max) if isinstance(target, NeuralController) \
            else (-math.inf, math.inf)

    refs = [np.asarray(r, dtype=float) for r in references]
    rng = np.random.default_rng(cfg.seed)
    adam = Adam(work.mlp.n_params, cfg.learning_rate, cfg.beta1, cfg.beta2)
    result = BpttResult(trained=work, history=[], skipped=[])

    for _ in range(cfg.max_epochs):
        order = rng.permutation(len(refs))
        losses = []
        skipped = 0
        for idx in order:
            try:
                loss, flat = bptt_loss_and_grad(work, narx, refs[idx], horizon, rho, limits)
            except SimulationDiverged:
                skipped += 1
                continue
            if not math.isfinite(loss):
                skipped += 1
                continue
            norm = float(np.linalg.norm(flat))
            if norm > clip_norm:
                flat = flat * (clip_norm / norm)
            adam.step(work.mlp.params, flat)
            losses.append(loss)
        if skipped > 0.5 * len(refs):
            raise TrainingUnstable(f"{skipped}/{len(refs)} rollouts diverged in one epoch")
        result.history.append(float(np.mean(losses)) if losses else math.nan)
        result.skipped.append(skipped)
    return result


# ---------------------------------------------------------------------------
# Static AI gain tuning: bounded Nelder-Mead over simulated episodes
# ---------------------------------------------------------------------------

class _BudgetExhausted(Exception):
    pass


def nelder_mead_bounded(f, x0: np.ndarray, bounds: np.ndarray, budget: int,
                        seed: int = 0, restarts: int = 1, init_scale: float = 0.25):
    """Minimal Nelder-Mead with clipped-to-bounds evaluations and an exact
    evaluation budget shared across seeded restarts.

    Returns (best_x, best_cost, trace) where trace holds (eval_index, cost)
    of every evaluation in order.
    """
    bounds = np.asarray(bounds, dtype=float)
    n = len(x0)
    trace = []
    best_x, best_f = None, math.inf
    evals = 0

    def wrapped(x):
        nonlocal evals, best_x, best_f
        if evals >= budget:
            raise _BudgetExhausted
        xc = np.clip(x, bounds[:, 0], bounds[:, 1])
        c = float(f(xc))
        trace.append((evals, c))
        evals += 1
        if c < best_f:
            best_f, best_x = c, xc.copy()
        return c

    rng = np.random.default_rng(seed)
    starts = [np.asarray(x0, dtype=float)]
    for _ in range(max(restarts - 1, 0)):
        starts.append(bounds[:, 0] + rng.random(n) * (bounds[:, 1] - bounds[:, 0]))

    alpha, gamma, rho_c, sigma = 1.0, 2.0, 0.5, 0.5
    try:
        for x_start in starts:
            simplex = [x_start.copy()]
            for i in range(n):
                v = x_start.copy()
                step = init_scale * (bounds[i, 1] - bounds[i, 0])
                v[i] = v[i] + step if v[i] + step <= bounds[i, 1] else v[i] - step
                simplex.append(v)
            fs = [wrapped(v) for v in simplex]
            for _ in range(10 * budget):
                order = np.argsort(fs)
                simplex = [simplex[i] for i in order]
                fs = [fs[i] for i in order]
                if np.std(fs) < 1e-14 and max(np.linalg.norm(v - simplex[0]) for v in simplex) < 1e-12:
                    break
                centroid = np.mean(simplex[:-1], axis=0)
                xr = centroid + alpha * (centroid - simplex[-1])
                fr = wrapped(xr)
                if fs[0] <= fr < fs[-2]:
                    simplex[-1], fs[-1] = xr, fr
                    continue
                if fr < fs[0]:
                    xe = centroid + gamma * (xr - centroid)
                    fe = wrapped(xe)
                    simplex[-1], fs[-1] = (xe, fe) if fe < fr else (xr, fr)
                    continue
                xc = centroid + rho_c * (simplex[-1] - centroid)
                fc = wrapped(xc)
                if fc < fs[-1]:
                    simplex[-1], fs[-1] = xc, fc
                    continue
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                    fs[i] = wrapped(simplex[i])
    except _BudgetExhausted:
        pass
    return best_x, best_f, trace


@dataclass
class StaticTuneResult:
    gains: PidGains
    cost: float
    trace: list
    n_evals: int


def _episode_cost_on_surrogate(narx: NarxModel, gains: PidGains, reference: np.ndarray,
                               rho: float) -> float:
    """IAE + rho * integral(|u|) of a PID loop closed over the surrogate."""
    state = PidState()
    dt = narx.dt
    w = np.asarray(reference, dtype=float).tolist()
    y_hist = [0.0] * narx.p  # chronological lag windows: p outputs, q-1 inputs between steps
    u_hist = [0.0] * (narx.q - 1)
    scale = max(1.0, float(np.max(np.abs(reference))))
    iae = 0.0
    effort = 0.0
    y_now = 0.0
    for k in range(len(w) - 1):
        try:
            u = pid_step(gains, state, w[k], y_now, dt)
        except ControllerFault:
            return math.inf
        u_hist.append(u)
        y_now = narx.predict_one(y_hist, u_hist)
        if not math.isfinite(y_now) or abs(y_now) > 1e6 * scale:
            return math.inf
        y_hist.append(y_now)
        del y_hist[0]
        del u_hist[0]
        iae += abs(w[k + 1] - y_now) * dt
        effort += abs(u) * dt
    return iae + rho * effort


def tune_static_ai(model, episodes, gain_bounds, budget: int, rho: float = 0.01,
                   seed: int = 0, restarts: int = 2, x0=None, cost_fn=None,
                   gain_kw: dict | None = None) -> StaticTuneResult:
    """Derivative-free (kp, ki, kd) search against the surrogate.

    `model` is the NarxModel the episodes are simulated on; `episodes` is a
    list of reference arrays. The cost is the episode mean of
    IAE + rho * integral(|u|). `cost_fn(vec) -> float`, when given, replaces
    the simulation cost entirely (test stubs, custom objectives).
    """
    if budget < 1:
        raise ValueError("evaluation budget must be positive")
    bounds = np.asarray(gain_bounds, dtype=float).reshape(3, 2)
    gain_kw = gain_kw or {}

    if cost_fn is None:
        if not episodes:
            raise ValueError("need at least one episode")

        def cost_fn(vec):
            gains = PidGains(kp=float(vec[0]), ki=float(vec[1]), kd=float(vec[2]), **gain_kw)
            costs = [_episode_cost_on_surrogate(model, gains, ep, rho) for ep in episodes]
            return float(np.mean(costs))

    start = np.asarray(x0, dtype=float) if x0 is not None else 0.5 * (bounds[:, 0] + bounds[:, 1])
    start = np.clip(start, bounds[:, 0], bounds[:, 1])
    best_x, best_f, trace = nelder_mead_bounded(cost_fn, start, bounds, budget,
                                                seed=seed, restarts=restarts)
    if best_x is None or not math.isfinite(best_f):
        raise TuningFailed("every candidate evaluation diverged")
    gains = PidGains(kp=float(best_x[0]), ki=float(best_x[1]), kd=float(best_x[2]), **gain_kw)
    return StaticTuneResult(gains=gains, cost=best_f, trace=trace, n_evals=len(trace))


# ---------------------------------------------------------------------------
# Serialization: nnet weight file plus a JSON metadata sidecar
# ---------------------------------------------------------------------------

def save_controller(nc: NeuralController, path, extras: dict | None = None) -> None:
    """Weights file plus metadata sidecar; `extras` records training context
    such as the dataset mix ratio and disturbance-head weight."""
    from .nnet import save_sidecar, save_weights

    save_weights(nc.mlp, path)
    meta = {
        "kind": "neural-controller",
        "memory": nc.memory,
        "u_min": nc.u_min,
        "u_max": nc.u_max,
        "feat_mean": [float(v) for v in nc.feat_mean],
        "feat_std": [float(v) for v in nc.feat_std],
    }
    if nc.aux is not None:
        meta["aux_w"] = [[float(v) for v in row] for row in nc.aux.weights[0]]
        meta["aux_b"] = [float(v) for v in nc.aux.biases[0]]
    if extras:
        meta["training"] = dict(sorted(extras.items()))
    save_sidecar(path, meta)


def _aux_from(meta: dict, trunk: Mlp, path) -> Mlp | None:
    """The sidecar's disturbance head, checked against the trunk it branches
    off; a malformed head raises ParseError naming the sidecar."""
    if "aux_w" not in meta:
        return None
    where = f"{path}.meta.json"
    try:
        w = np.array(meta["aux_w"], dtype=float)
        b = np.array(meta.get("aux_b"), dtype=float)
    except (TypeError, ValueError):
        raise ParseError(f"{where}: aux_w and aux_b must be numeric arrays", line=1) from None
    width = trunk.layer_sizes[-2]
    if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] != width:
        raise ParseError(f"{where}: aux_w must be a non-empty matrix of rows of {width} values "
                         f"(the last hidden layer), got shape {w.shape}", line=1)
    if b.shape != (w.shape[0],):
        raise ParseError(f"{where}: aux_b must hold {w.shape[0]} values, got shape {b.shape}",
                         line=1)
    aux = Mlp([width, w.shape[0]], init=False)
    aux.weights[0][...] = w
    aux.biases[0][...] = b
    return aux


def load_controller(path) -> NeuralController:
    from .nnet import load_sidecar, load_weights

    mlp = load_weights(path)
    meta = load_sidecar(path, "neural-controller", ("memory", "u_min", "u_max", "feat_mean", "feat_std"))
    return NeuralController(
        mlp, meta["u_min"], meta["u_max"], meta["memory"],
        np.array(meta["feat_mean"]), np.array(meta["feat_std"]), _aux_from(meta, mlp, path),
    )


def save_scheduler(gs: GainScheduler, path, extras: dict | None = None) -> None:
    from .nnet import save_sidecar, save_weights

    save_weights(gs.mlp, path)
    meta = {
        "kind": "gain-scheduler",
        "memory": gs.memory,
        "bounds": [[float(lo), float(hi)] for lo, hi in gs.bounds],
        "feat_mean": [float(v) for v in gs.feat_mean],
        "feat_std": [float(v) for v in gs.feat_std],
    }
    if gs.aux is not None:
        meta["aux_w"] = [[float(v) for v in row] for row in gs.aux.weights[0]]
        meta["aux_b"] = [float(v) for v in gs.aux.biases[0]]
    if extras:
        meta["training"] = dict(sorted(extras.items()))
    save_sidecar(path, meta)


def load_scheduler(path) -> GainScheduler:
    from .nnet import load_sidecar, load_weights

    mlp = load_weights(path)
    meta = load_sidecar(path, "gain-scheduler", ("memory", "bounds", "feat_mean", "feat_std"))
    return GainScheduler(
        mlp, np.array(meta["bounds"]), meta["memory"],
        np.array(meta["feat_mean"]), np.array(meta["feat_std"]), _aux_from(meta, mlp, path),
    )
