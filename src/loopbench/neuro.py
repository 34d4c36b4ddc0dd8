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
from itertools import cycle

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataio import split_contiguous
from .errors import ControllerFault, DataError, NumericalFailure
from .nnet import Adam, Mlp, SupervisedDataset, TrainConfig, check_int, check_number, \
    feature_stats, float_vector, mean_square, normalize
from .pid import PidGains, PidState, pid_step
from .simcore import primary_output
from .surrogate import NarxModel, lag_features


def _checked_stats(mean, std, size: int):
    """Feature normalization stats checked to `size` entries (zero mean and
    unit std where not given)."""
    mean = np.zeros(size) if mean is None else float_vector(mean, size, "feat_mean")
    std = np.ones(size) if std is None else float_vector(std, size, "feat_std", positive=True)
    return mean, std


@dataclass
class NeuralController:
    """Direct neural control law squashed into the actuator range.

    Features: current reference, the last m measurements (newest first,
    including the current one), and the last m controls. The tanh output
    squash makes saturation structural for arbitrary network weights.
    `features` builds the row for deployment and BPTT; imitation replay
    (`imitation_data_from_run`) copies the same rows out of a whole record.
    The output centre and half-span are taken at construction, so a new
    controller is built to change them or the stats.
    """

    KIND = "neural-controller"

    mlp: Mlp
    u_min: float
    u_max: float
    memory: int
    feat_mean: np.ndarray = None
    feat_std: np.ndarray = None
    aux: Mlp | None = None  # one-layer head on the last hidden activation

    def __post_init__(self):
        check_number(self.u_min, "u_min")
        check_number(self.u_max, "u_max")
        if not self.u_min < self.u_max:
            raise ValueError(f"need u_min < u_max, got {self.u_min} and {self.u_max}")
        check_int(self.memory, "memory")
        want = 1 + 2 * self.memory
        if self.mlp.layer_sizes[0] != want or self.mlp.layer_sizes[-1] != 1:
            raise ValueError(f"controller net must map {want} features to 1 output")
        self.feat_mean, self.feat_std = _checked_stats(self.feat_mean, self.feat_std, want)
        self.center = 0.5 * (self.u_max + self.u_min)
        self.half_span = 0.5 * (self.u_max - self.u_min)

    @staticmethod
    def features(w: float, y_window, u_window) -> list:
        """Row from chronological windows of exactly m samples (newest last):
        y(k-m+1)..y(k), the current measurement included, and u(k-m)..u(k-1)."""
        return [w, *y_window[::-1], *u_window[::-1]]

    def copy(self) -> "NeuralController":
        return NeuralController(self.mlp.copy(), self.u_min, self.u_max, self.memory,
                                self.feat_mean.copy(), self.feat_std.copy(),
                                self.aux.copy() if self.aux else None)


class NeuralControlLoop:
    """Controller-protocol adapter owning the zero-warm feature windows and
    the network's one-row pass (`Mlp.stacked_pass(1, ...)`), bound at every
    `reset`."""

    def __init__(self, nc: NeuralController):
        self.nc = nc
        self.reset()

    def reset(self) -> None:
        nc = self.nc
        self.y_win = [0.0] * nc.memory
        self.u_win = [0.0] * nc.memory
        _, self._net = nc.mlp.stacked_pass(1, nc.feat_mean, nc.feat_std)

    def step(self, w: float, y, dt: float) -> float:
        """Run the net on the current row and squash its output z into
        center + half_span * tanh(z), then shift both windows. The
        measurement goes into the window's newest slot, which shifts out
        only once the output is valid: a faulted step leaves no history."""
        nc, y_win, u_win = self.nc, self.y_win, self.u_win
        y_win[-1] = primary_output(y)
        z, = self._net(nc.features(w, y_win, u_win))
        if not math.isfinite(z):
            raise ControllerFault("non-finite network output")
        u = nc.center + nc.half_span * math.tanh(z)
        y_win.append(0.0)
        del y_win[0]
        u_win.append(u)
        del u_win[0]
        return u


@dataclass
class GainScheduler:
    """Maps a recent error/measurement window to bounded (kp, ki, kd).

    Bounds are enforced by scaled sigmoids, so emitted gains stay inside
    them for arbitrary network weights; a zero network yields the bound
    midpoints. The bounds are taken at construction, as (lo, hi - lo) float
    pairs.
    """

    KIND = "gain-scheduler"

    mlp: Mlp
    bounds: np.ndarray  # (3, 2) rows (lo, hi) for kp, ki, kd
    memory: int
    feat_mean: np.ndarray = None
    feat_std: np.ndarray = None

    def __post_init__(self):
        self.bounds = float_vector(np.ravel(self.bounds), 6, "bounds").reshape(3, 2)
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        if not np.all((0.0 <= lo) & (lo <= hi)):
            raise ValueError("gain bounds must satisfy 0 <= lo <= hi")
        check_int(self.memory, "memory")
        want = 2 * self.memory
        if self.mlp.layer_sizes[0] != want or self.mlp.layer_sizes[-1] != 3:
            raise ValueError(f"scheduler net must map {want} features to 3 gains")
        self.feat_mean, self.feat_std = _checked_stats(self.feat_mean, self.feat_std, want)
        self._spans = [(lo, hi - lo) for lo, hi in self.bounds.tolist()]

    @staticmethod
    def features(e_window, y_window) -> list:
        """Row from chronological windows of exactly m samples (newest last):
        the errors, then the measurements, each newest first."""
        return [*e_window[::-1], *y_window[::-1]]

    def squash(self, zs: list):
        """Gains lo + s * (hi - lo) and the sigmoid s of each network output
        clipped to [-60, 60], as flat lists of floats, from the outputs of
        one or more rows (three per row, [kp, ki, kd] each). The sigmoid is
        1 / (1 + exp(-z)) through np.exp, whose bits math.exp does not match;
        the clip and the negation are exact, so clipping -z to [-60, 60] is
        the same. A NaN output stays NaN, as both comparisons are false."""
        e = np.exp([60.0 if z < -60.0 else -60.0 if z > 60.0 else -z for z in zs]).tolist()
        sig = [1.0 / (1.0 + v) for v in e]
        return [lo + s * span for s, (lo, span) in zip(sig, cycle(self._spans))], sig

    def copy(self) -> "GainScheduler":
        return GainScheduler(self.mlp.copy(), self.bounds.copy(), self.memory,
                             self.feat_mean.copy(), self.feat_std.copy())


class _ScheduledGains:
    """The gain set `pid_step` reads: wiring, limits and filter ratio copied
    once from a validated template, kp/ki/kd overwritten every step. The
    scheduler's sigmoid bounds already hold what `PidGains` would re-check."""

    __slots__ = ("kp", "ki", "kd", "setpoint_weight", "u_min", "u_max", "deriv_filter_n")

    def __init__(self, template: PidGains):
        for name in self.__slots__:
            setattr(self, name, getattr(template, name))


class ScheduledPidController:
    """PID whose gains are rewritten by the scheduler before every step, from
    the scheduler network's one-row pass (`Mlp.stacked_pass(1, ...)`), bound
    at every `reset`, and `GainScheduler.squash`."""

    def __init__(self, gs: GainScheduler, template: PidGains):
        self.gs = gs
        self.template = template
        self.gains = _ScheduledGains(template)
        self.state = PidState()
        self.gain_trace: list[tuple[float, float, float]] = []
        self.reset()

    def reset(self) -> None:
        gs = self.gs
        self.state.reset()
        self.e_win = [0.0] * gs.memory
        self.y_win = [0.0] * gs.memory
        self.gain_trace.clear()
        _, self._net = gs.mlp.stacked_pass(1, gs.feat_mean, gs.feat_std)

    def step(self, w: float, y, dt: float) -> float:
        gs, e_win, y_win, gains = self.gs, self.e_win, self.y_win, self.gains
        y0 = primary_output(y)
        e_win.append(w - y0)
        del e_win[0]
        y_win.append(y0)
        del y_win[0]
        kp, ki, kd = gs.squash(self._net(gs.features(e_win, y_win)))[0]
        self.gain_trace.append((kp, ki, kd))
        gains.kp, gains.ki, gains.kd = kp, ki, kd
        return pid_step(gains, self.state, w, y0, dt)


# ---------------------------------------------------------------------------
# Imitation training with dual-dataset mixing
# ---------------------------------------------------------------------------

def imitation_data_from_run(runs, m: int, with_disturbance: bool) -> SupervisedDataset:
    """(features -> teacher control) pairs replayed from closed-loop records,
    each run's rows after the previous run's.

    Each row holds, bit for bit, what `NeuralController.features` gives the
    deployed controller, with the teacher's own outputs in the control
    history. With
    `with_disturbance`, rows also carry the next-step disturbance as a second
    target column for the auxiliary head.
    """
    xs, ys = [], []
    for traj in runs:
        n = len(traj.t)
        if n < 2:  # the last sample has no next step, so one sample gives no row
            raise ValueError(f"a teacher run needs at least two samples, got {n}")
        # zero-warm records: step k's windows are y_pad[k:k+m] and u_pad[k:k+m],
        # and its row is `features(w[k], y window, u window)`, each window reversed
        y_pad = np.concatenate([np.zeros(m - 1), np.asarray(traj.y_meas, dtype=float)])
        u_pad = np.concatenate([np.zeros(m), np.asarray(traj.u, dtype=float)])
        x = np.empty((n - 1, 1 + 2 * m))
        x[:, 0] = traj.w[:n - 1]
        x[:, 1:m + 1] = sliding_window_view(y_pad, m)[:n - 1, ::-1]
        x[:, m + 1:] = sliding_window_view(u_pad, m)[:n - 1, ::-1]
        targets = [u_pad[m:m + n - 1]]
        if with_disturbance:
            targets.append(np.asarray(traj.d, dtype=float)[1:n])
        xs.append(x)
        ys.append(np.column_stack(targets))
    return SupervisedDataset(np.vstack(xs), np.vstack(ys))


@dataclass
class ImitationResult:
    controller: NeuralController
    history: list  # (train_loss, val_rmse_a, val_rmse_b) per epoch
    a_fraction: list  # realized A-share per epoch
    val_rmse_a: float = field(init=False, default=math.nan)
    val_rmse_b: float = field(init=False, default=math.nan)


def train_imitation(nc: NeuralController, a: SupervisedDataset, b: SupervisedDataset, lam: float,
                    cfg: TrainConfig, aux_weight: float) -> ImitationResult:
    """Clone a teacher control law by supervised regression on coverage set
    `a` and operational set `b`, each batch row coming from `a` with
    probability `lam`.

    Each epoch draws its batches' rows at once, in one order: the A/B mask of
    every slot (`random`), then for every slot a row of `a` and a row of `b`
    (two `integers` calls), of which the mask keeps one.

    Targets are teacher controls in actuator units; the loss is taken after
    the tanh squash so the trained network is exactly what deploys. When the
    controller has an auxiliary head and the datasets carry a second target
    column, the multitask loss L_main + aux_weight * MSE(d_hat, d) trains
    trunk and head together, one Adam update per batch.
    """
    blocks = []
    for ds in (a, b):  # the last quarter of each set validates
        k = split_contiguous(len(ds), 0.25)
        if k < 1 or len(ds) - k < 1:
            raise DataError("dataset too small for a train/validation split")
        blocks += [SupervisedDataset(ds.x[:k], ds.y[:k]), SupervisedDataset(ds.x[k:], ds.y[k:])]
    a_train, a_val, b_train, b_val = blocks

    all_x = np.vstack([a_train.x, b_train.x])
    work = NeuralController(nc.mlp.copy(), nc.u_min, nc.u_max, nc.memory, *feature_stats(all_x),
                            nc.aux.copy() if nc.aux else None)
    # normalization is elementwise, so normalizing every row once and then
    # gathering a batch rounds exactly as normalizing the gathered batch
    train_xn = normalize(all_x, work.feat_mean, work.feat_std)
    train_y = np.vstack([a_train.y, b_train.y])
    val_a, val_b = ((normalize(ds.x, work.feat_mean, work.feat_std), ds.y[:, :1])
                    for ds in (a_val, b_val))

    has_aux = work.aux is not None and a_train.y.shape[1] > 1
    params = work.mlp.params
    if has_aux:
        # trunk and head parameters side by side in one optimizer vector
        params = np.empty(work.mlp.n_params + work.aux.n_params)
        work.mlp.bind(params[:work.mlp.n_params])
        work.aux.bind(params[work.mlp.n_params:])
    adam = Adam(params.size, cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    grads = np.empty(params.size)  # laid out like `params`, rewritten every step

    # one binding per run: the batch's rows, targets, squashed loss and
    # adjoints live in buffers, each computed in the operation order of
    # diff = center + half_span * tanh(z) - u and
    # gz = (2.0 * diff / k) * half_span * (1.0 - tanh(z) ** 2)
    k = cfg.batch_size
    trunk = work.mlp.batch_pass(k, grads[:work.mlp.n_params])
    ys = np.empty((k, train_y.shape[1]))
    th, diff, sq = np.empty((k, 1)), np.empty((k, 1)), np.empty((k, 1))
    if has_aux:
        # the head's input is the trunk's last hidden activation, in place
        head = work.aux.batch_pass(k, grads[work.mlp.n_params:], x=trunk.acts[-1])
        extra = np.empty(trunk.acts[-1].shape)

    def _loss_and_step(rows):
        # the indices are in range, so clipping changes none and spares
        # `take` the buffered copy it makes to check them
        train_xn.take(rows, axis=0, out=trunk.x, mode="clip")
        train_y.take(rows, axis=0, out=ys, mode="clip")
        trunk.forward()
        np.tanh(trunk.out, out=th)
        np.multiply(work.half_span, th, out=diff)
        np.add(work.center, diff, out=diff)
        np.subtract(diff, ys[:, :1], out=diff)
        loss = mean_square(diff, sq)
        gz = trunk.g
        np.multiply(2.0, diff, out=gz)
        np.divide(gz, k, out=gz)
        np.multiply(gz, work.half_span, out=gz)
        np.square(th, out=sq)
        np.subtract(1.0, sq, out=sq)
        np.multiply(gz, sq, out=gz)
        head_adjoint = None
        if has_aux:
            head.forward()
            gz_aux = head.g  # the one-layer head's only adjoint, from d_hat - d
            np.subtract(head.out, ys[:, 1:2], out=gz_aux)
            loss += aux_weight * mean_square(gz_aux, sq)
            np.multiply(aux_weight * 2.0, gz_aux, out=gz_aux)
            np.divide(gz_aux, k, out=gz_aux)
            work.aux.backward(head)
            head_adjoint = np.dot(gz_aux, work.aux.weights[0], out=extra)
        work.mlp.backward(trunk, head_adjoint)
        adam.step(params, grads)
        return loss

    def _val_rmse(split):
        xn, u_teacher = split
        u_hat = work.center + work.half_span * np.tanh(work.mlp.forward(xn)[:, :1])
        return float(np.sqrt(np.mean((u_hat - u_teacher) ** 2)))

    n_total = len(a_train) + len(b_train)
    n_batches = max(n_total // cfg.batch_size, 1)
    result = ImitationResult(controller=work, history=[], a_fraction=[])
    best = math.inf
    best_snapshot = None
    wait = 0

    for epoch in range(cfg.max_epochs):
        from_a = rng.random((n_batches, k)) < lam
        epoch_rows = np.where(from_a, rng.integers(0, len(a_train), (n_batches, k)),
                              rng.integers(len(a_train), n_total, (n_batches, k)))
        losses = [_loss_and_step(rows) for rows in epoch_rows]
        va, vb = _val_rmse(val_a), _val_rmse(val_b)
        result.history.append((float(np.mean(losses)), va, vb))
        result.a_fraction.append(int(np.count_nonzero(from_a)) / from_a.size)
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
    result.val_rmse_a = _val_rmse(val_a)
    result.val_rmse_b = _val_rmse(val_b)
    return result


# ---------------------------------------------------------------------------
# Closed-loop training: backprop through the surrogate rollout
# ---------------------------------------------------------------------------

@dataclass
class BpttResult:
    trained: object  # NeuralController or GainScheduler
    history: list  # mean episode loss per epoch
    skipped: list  # diverged episode count per epoch


class _StackedSteps:
    """One network's pass over the E episodes of a lockstep rollout, bound
    once per rollout (`Mlp.stacked_pass`, which packs and normalizes), with
    every step's layer inputs kept for the reverse pass: `run(k, rows)` runs
    the pass on the E feature rows (one flat list of floats, episode after
    episode), copies each layer's input into step k of `hist`
    ((horizon, E, 1, width) per layer, for one episode too) and returns the
    outputs as one flat list, episode after episode."""

    def __init__(self, net: Mlp, n_ep: int, horizon: int, mean: np.ndarray, std: np.ndarray):
        acts, self._run = net.stacked_pass(n_ep, mean, std)
        self.hist = [np.empty((horizon, n_ep, 1, a.shape[-1])) for a in acts]
        self._keep = list(zip(self.hist, acts))

    def run(self, k: int, rows: list) -> list:
        outs = self._run(rows)
        for h, a in self._keep:
            h[k] = a
        return outs

    def slopes(self) -> list:
        """Every step's tanh slopes `1 - a ** 2`, one batched product per hidden layer."""
        return [1.0 - h ** 2 for h in self.hist[1:]]


class _ControllerBlock:
    """The neural controller as a rollout block: u_k = center + half_span *
    tanh(z) on each episode's own row."""

    def __init__(self, nc: NeuralController, n_ep: int):
        self.nc = nc
        self.std = nc.feat_std.tolist()
        self.ths = [[] for _ in range(n_ep)]  # tanh(z) of each episode's steps

    def row(self, e, w, y_window, u_window) -> list:
        return self.nc.features(w, y_window, u_window)

    def controls(self, zs) -> list:
        center, half_span = self.nc.center, self.nc.half_span
        us = []
        for ths, z in zip(self.ths, zs):
            ths.append(math.tanh(z))
            us.append(center + half_span * ths[-1])
        return us

    def output_adjoint(self, k, e, u_bar) -> list:
        return [u_bar * self.nc.half_span * (1.0 - self.ths[e][k] ** 2)]

    def scatter(self, k, e, gx, ybar, ubar, iy, iu) -> None:
        # the row's adjoint into the y and u windows, one sum per entry
        m, std = self.nc.memory, self.std
        for j in range(1, m + 1):
            ybar[iy + 1 - j] += gx[j] / std[j]
            ubar[iu - j] += gx[m + j] / std[m + j]


class _SchedulerBlock:
    """Scheduled PI core as a rollout block: rectangle integration with
    conditional anti-windup (branch flags kept for the reverse pass); the
    derivative channel is left to the deployed PID, where it is bounded
    anyway. Each episode's error record, integrator and their adjoints live
    here."""

    def __init__(self, gs: GainScheduler, dt: float, limits, horizon: int, n_ep: int):
        self.gs, self.dt, self.limits = gs, dt, limits
        self.es = [[0.0] * gs.memory for _ in range(n_ep)]  # zero-warm error records
        self.ebar = [[0.0] * (gs.memory + horizon) for _ in range(n_ep)]
        self.std = gs.feat_std.tolist()
        self.s_int = [0.0] * n_ep
        self.sbar = [0.0] * n_ep  # adjoint of the integrator entering step k+1
        self.caches = [[] for _ in range(n_ep)]

    def row(self, e, w, y_window, u_window) -> list:
        gs, es = self.gs, self.es[e]
        es.append(w - y_window[-1])
        return gs.features(es[-gs.memory:], y_window)

    def controls(self, zs) -> list:
        gains, sig = self.gs.squash(zs)
        (u_lo, u_hi), dt, s_int = self.limits, self.dt, self.s_int
        us = []
        for e, cache in enumerate(self.caches):
            kp, ki = gains[3 * e:3 * e + 2]
            e_k = self.es[e][-1]
            inc = ki * e_k * dt
            s_cand = s_int[e] + inc
            u_raw = kp * e_k + s_cand
            sat = 1 if u_raw > u_hi else -1 if u_raw < u_lo else 0
            frozen = sat != 0 and (inc * sat > 0.0)
            if not frozen:
                s_int[e] = s_cand
            us.append(u_hi if sat > 0 else u_lo if sat < 0 else u_raw)
            cache.append((sig[3 * e:3 * e + 3], kp, ki, sat, frozen))
        return us

    def output_adjoint(self, k, e, u_bar) -> list:
        # the PI core into ebar[m+k] and the sbar carry, then the adjoints
        # of the network outputs
        gs, m, dt = self.gs, self.gs.memory, self.dt
        sig, kp, ki, sat, frozen = self.caches[e][k]
        e_k, sbar = self.es[e][m + k], self.sbar[e]
        du_raw = u_bar if sat == 0 else 0.0
        # s_cand feeds u_raw always and the next state only when not frozen
        ds_cand = du_raw + (0.0 if frozen else sbar)
        self.sbar[e] = ds_cand + (sbar if frozen else 0.0)
        self.ebar[e][m + k] += du_raw * kp + ds_cand * ki * dt
        return [d * s * (1.0 - s) * span for d, s, (lo, span)
                in zip((du_raw * e_k, ds_cand * e_k * dt, 0.0), sig, gs._spans)]

    def scatter(self, k, e, gx, ybar, ubar, iy, iu) -> None:
        # the window scatters, and last the fold of the final ebar[m+k] into
        # the newest y (e_k = w_k - y_k)
        m, std, ebar = self.gs.memory, self.std, self.ebar[e]
        for j in range(m):
            ebar[m + k - j] += gx[j] / std[j]
            ybar[iy - j] += gx[m + j] / std[m + j]
        ybar[iy] -= ebar[m + k]


# a diverged episode's rows overflow or turn NaN, which its loss reports
@np.errstate(over="ignore", invalid="ignore")
def bptt_loss_and_grad(target, narx: NarxModel, w_seqs, horizon: int, rho: float,
                       limits: tuple[float, float]) -> list:
    """Rollout loss and exact gradient w.r.t. the trained network's weights,
    one (loss, gradient) pair per reference in `w_seqs`, all on the current
    weights.

    loss = mean squared tracking error + rho * mean squared control move.
    The episodes run in lockstep: each step, every episode builds its
    feature row on floats, and the rows go through one stacked pass per
    network (`_StackedSteps`); the reverse runs the surrogate and target
    adjoints as one `np.matmul` per layer over the episodes
    (`Mlp.row_input_adjoint`). The loop owns the output and control records,
    the surrogate step, the loss and the surrogate adjoint; the controller or
    the scheduled PI core supplies its rows, its controls from the network
    outputs, the adjoint of those outputs and its window scatters. The rows
    of a stack are independent and each episode's float work is its own, so
    each pair has the bits of that episode run alone. A rollout whose loss is
    not finite (a prediction or control past the float range, or a square of
    its error) has diverged: it runs to the end of the forward loop without a
    numpy warning and gets gradient None. Exposed separately so the
    finite-difference oracle in the tests can call the same computation it
    is checking.
    """
    w_seqs = [np.asarray(w, dtype=float).tolist() for w in w_seqs]
    if any(len(w) < horizon + 1 for w in w_seqs):
        raise ValueError("each reference must cover horizon + 1 samples")
    n_ep = len(w_seqs)
    if not n_ep:
        return []
    if isinstance(target, NeuralController):
        block = _ControllerBlock(target, n_ep)
    elif isinstance(target, GainScheduler):
        block = _SchedulerBlock(target, narx.dt, limits, horizon, n_ep)
    else:
        raise TypeError("target must be a NeuralController or GainScheduler")
    p, q, m = narx.p, narx.q, target.memory
    pad_y = max(p, m)
    pad_u = max(q - 1, m, 1)
    # the records and their adjoints are float lists, one per episode
    episodes = [(w, [0.0] * (pad_y + horizon), [0.0] * (pad_u + horizon)) for w in w_seqs]
    net = _StackedSteps(target.mlp, n_ep, horizon, target.feat_mean, target.feat_std)
    sur = _StackedSteps(narx.mlp, n_ep, horizon, narx.x_mean, narx.x_std)
    y_std, y_mean = narx._y_std, narx._y_mean
    sq_track, sq_du = [0.0] * n_ep, [0.0] * n_ep

    for k in range(horizon):
        iy, iu = pad_y - 1 + k, pad_u + k  # newest output; the control chosen now
        rows = []
        for e, (w, y, u) in enumerate(episodes):
            rows += block.row(e, w[k], y[iy - m + 1:iy + 1], u[iu - m:iu])
        controls = block.controls(net.run(k, rows))
        rows = []
        for (w, y, u), u_k in zip(episodes, controls):
            u[iu] = u_k
            rows += lag_features(y[iy - p + 1:iy + 1], u[iu - q + 1:iu + 1], p, q)
        for e, ((w, y, u), v) in enumerate(zip(episodes, sur.run(k, rows))):
            y[iy + 1] = y_next = v * y_std + y_mean
            # float64 squares: inf past the float range, where a float's ** 2 raises
            sq_track[e] += np.float64(y_next - w[k + 1]) ** 2
            sq_du[e] += np.float64(u[iu] - u[iu - 1]) ** 2
    losses = [t / horizon + rho * d / horizon for t, d in zip(sq_track, sq_du)]
    alive = [e for e, loss in enumerate(losses) if math.isfinite(loss)]

    sur_slopes, net_slopes = sur.slopes(), net.slopes()
    # the target's pre-activation adjoints, by step, episode and layer
    gzs = [np.empty((horizon, n_ep, 1, n)) for n in target.mlp.layer_sizes[1:]]
    # the output adjoint stacks; a diverged episode's row stays zero
    g_sur, g_net = np.zeros((n_ep, 1, 1)), np.zeros((n_ep, 1, target.mlp.layer_sizes[-1]))
    x_std = narx.x_std.tolist()
    bars = {e: ([0.0] * len(episodes[e][1]), [0.0] * len(episodes[e][2])) for e in alive}

    # each reverse step adds, in this order: the loss terms, the surrogate
    # adjoint, then the block's terms; every += is a float sum, so this
    # order into each entry is what keeps the gradient's bits (sums into
    # different entries may go in any order)
    for k in range(horizon - 1, -1, -1):
        iy, iu = pad_y - 1 + k, pad_u + k
        for e in alive:
            (w, y, u), (ybar, ubar) = episodes[e], bars[e]
            ybar[iy + 1] += 2.0 * (y[iy + 1] - w[k + 1]) / horizon
            du = u[iu] - u[iu - 1]
            ubar[iu] += 2.0 * rho * du / horizon
            ubar[iu - 1] -= 2.0 * rho * du / horizon
            g_sur[e] = ybar[iy + 1] * y_std
        gx_sur = narx.mlp.row_input_adjoint(g_sur, sur_slopes, k).reshape(n_ep, -1).tolist()
        for e in alive:
            gx, (ybar, ubar) = gx_sur[e], bars[e]
            for j in range(p):
                ybar[iy - j] += gx[j] / x_std[j]
            for j in range(q):
                ubar[iu - j] += gx[p + j] / x_std[p + j]
            g_net[e] = block.output_adjoint(k, e, ubar[iu])
        gx_net = target.mlp.row_input_adjoint(g_net, net_slopes, k, gzs).reshape(n_ep, -1).tolist()
        for e in alive:
            block.scatter(k, e, gx_net[e], *bars[e], iy, iu)
    # summed in the reverse loop's order, last step first
    return [(loss, target.mlp.summed_row_gradient([g[::-1, e, 0] for g in gzs],
                                                  [a[::-1, e, 0] for a in net.hist])
             if e in bars else None) for e, loss in enumerate(losses)]


# gradient norm above which a BPTT update is scaled down to it
CLIP_NORM = 1.0

# the longest rollout `train_bptt` unrolls, in steps
MAX_HORIZON = 200


def train_bptt(target, narx: NarxModel, references, horizon: int, cfg: TrainConfig,
               limits: tuple[float, float], rho: float) -> BpttResult:
    """Train a controller or scheduler through closed-loop surrogate rollouts.

    `limits` bound the scheduled PI core's command (a controller bounds its
    own). Each epoch rolls every reference out in lockstep on the epoch's
    start weights (`bptt_loss_and_grad`), then makes one Adam update per
    episode that did not diverge, in a seeded permutation's order, each from
    its own gradient with the norm clipped at `CLIP_NORM`; an epoch's
    gradients are thus up to `len(references) - 1` updates old. Diverged
    rollouts are skipped and counted; more than half skipped in one epoch
    aborts as unstable. horizon = 0 is the degenerate no-op contract (loss 0,
    no update).
    """
    if horizon > MAX_HORIZON:
        raise ValueError(f"rollout horizon is capped at {MAX_HORIZON} steps")
    work = target.copy()
    if horizon == 0:
        return BpttResult(trained=work, history=[0.0], skipped=[0])

    refs = [np.asarray(r, dtype=float) for r in references]
    rng = np.random.default_rng(cfg.seed)
    adam = Adam(work.mlp.n_params, cfg.learning_rate)
    result = BpttResult(trained=work, history=[], skipped=[])

    for _ in range(cfg.max_epochs):
        order = rng.permutation(len(refs))
        losses = []
        for loss, flat in bptt_loss_and_grad(work, narx, [refs[i] for i in order], horizon, rho,
                                             limits):
            if flat is None:
                continue
            norm = float(np.linalg.norm(flat))
            if norm > CLIP_NORM:
                flat = flat * (CLIP_NORM / norm)
            adam.step(work.mlp.params, flat)
            losses.append(loss)
        skipped = len(refs) - len(losses)
        if skipped > 0.5 * len(refs):
            raise NumericalFailure(f"{skipped}/{len(refs)} rollouts diverged in one epoch")
        result.history.append(float(np.mean(losses)) if losses else math.nan)
        result.skipped.append(skipped)
    return result


# ---------------------------------------------------------------------------
# Static AI gain tuning: bounded Nelder-Mead over simulated episodes
# ---------------------------------------------------------------------------

class _BudgetExhausted(Exception):
    pass


# a start simplex's edge along each axis, as a fraction of that axis's bounds
SIMPLEX_SCALE = 0.25


def nelder_mead_bounded(f, x0: np.ndarray, bounds: np.ndarray, budget: int, seed: int,
                        restarts: int):
    """Minimal Nelder-Mead with clipped-to-bounds evaluations and an exact
    evaluation budget shared across seeded restarts.

    `f(points) -> costs` takes a list of points: a start simplex's n + 1
    vertices and a shrink's n new vertices go in one call, as their costs do
    not depend on each other; a reflection, expansion or contraction is a
    call of one point. A call the budget cuts evaluates only the points it
    has left, so trace, best point and cost are those of evaluating every
    point one after another. Returns (best_x, best_cost, trace) where trace
    holds (eval_index, cost) of every evaluation in order.
    """
    bounds = np.asarray(bounds, dtype=float)
    n = len(x0)
    trace = []
    best_x, best_f = None, math.inf
    evals = 0

    def wrapped(xs):
        nonlocal evals, best_x, best_f
        todo = [np.clip(x, bounds[:, 0], bounds[:, 1]) for x in xs[:budget - evals]]
        costs = [float(c) for c in f(todo)] if todo else []
        for xc, c in zip(todo, costs, strict=True):
            trace.append((evals, c))
            evals += 1
            if c < best_f:
                best_f, best_x = c, xc.copy()
        if len(todo) < len(xs):
            raise _BudgetExhausted
        return costs

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
                step = SIMPLEX_SCALE * (bounds[i, 1] - bounds[i, 0])
                v[i] = v[i] + step if v[i] + step <= bounds[i, 1] else v[i] - step
                simplex.append(v)
            fs = wrapped(simplex)
            for _ in range(10 * budget):
                order = np.argsort(fs)
                simplex = [simplex[i] for i in order]
                fs = [fs[i] for i in order]
                with np.errstate(invalid="ignore"):  # an inf cost: nan spread, no break
                    flat = np.std(fs) < 1e-14
                if flat and max(np.linalg.norm(v - simplex[0]) for v in simplex) < 1e-12:
                    break
                centroid = np.mean(simplex[:-1], axis=0)
                xr = centroid + alpha * (centroid - simplex[-1])
                fr, = wrapped([xr])
                if fs[0] <= fr < fs[-2]:
                    simplex[-1], fs[-1] = xr, fr
                    continue
                if fr < fs[0]:
                    xe = centroid + gamma * (xr - centroid)
                    fe, = wrapped([xe])
                    simplex[-1], fs[-1] = (xe, fe) if fe < fr else (xr, fr)
                    continue
                xc = centroid + rho_c * (simplex[-1] - centroid)
                fc, = wrapped([xc])
                if fc < fs[-1]:
                    simplex[-1], fs[-1] = xc, fc
                    continue
                simplex[1:] = [simplex[0] + sigma * (v - simplex[0]) for v in simplex[1:]]
                fs[1:] = wrapped(simplex[1:])
    except _BudgetExhausted:
        pass
    return best_x, best_f, trace


@dataclass
class StaticTuneResult:
    gains: PidGains
    cost: float
    trace: list


def _episode_reference(reference) -> tuple[list, float]:
    """An episode's reference as a list of floats, and its divergence bound,
    1e6 * max(1, max |reference|)."""
    ref = np.asarray(reference, dtype=float)
    return ref.tolist(), 1e6 * max(1.0, float(np.max(np.abs(ref))))


class _Episode:
    """One episode of the AI search between its steps (`_lockstep_costs`):
    the gains, the PID state, the feature row that `lag_features` lays out,
    kept in place (zero lags at the start; between steps its first slot is
    the newest output and its last the input the next step pushes out), the
    reference `w`, its divergence `bound`, rho, the IAE and effort sums, and
    the cost once the episode has ended."""

    __slots__ = ("gains", "state", "row", "w", "bound", "rho", "iae", "effort", "cost")

    def __init__(self, gains: PidGains, row: list, w: list, bound: float, rho: float):
        self.gains, self.state, self.row = gains, PidState(), row
        self.w, self.bound, self.rho = w, bound, rho
        self.iae = self.effort = 0.0


def _episode_cost_on_surrogate(narx: NarxModel, gains: PidGains, w: list, bound: float,
                               rho: float) -> _Episode:
    """The start of an episode whose cost is IAE + rho * integral(|u|) of a
    PID loop closed over the surrogate on the reference `w` and its `bound`
    (`_episode_reference`), or inf once a prediction is not finite or leaves
    the bound; `_lockstep_costs` runs it."""
    return _Episode(gains, [0.0] * (narx.p + narx.q), w, bound, rho)


def _lockstep_costs(narx: NarxModel, episodes) -> list:
    """The costs of `_episode_cost_on_surrogate` episodes run side by side,
    each bit-equal to that episode run alone: each episode's floats are its
    own, and the rows of a stacked pass are independent. Each step is one
    pass over the live episodes, each taking the prediction of the step
    before (denormalized on floats, as `predict_one` does; checked, pushed
    into its row and added to its sums) and then its PID step, whose
    control it pushes into its row; then one `Mlp.stacked_pass`, bound once
    for the call's k episodes, runs all their rows as one flat list, in
    which the rows of episodes that have left repeat the last live row, and
    returns their predictions as one. An episode leaves when its reference
    ends (cost IAE + rho * effort), or at cost inf on a `ControllerFault` or
    a prediction that is not finite or leaves its bound. The episodes may
    belong to several gain points (a whole start simplex or shrink); a lone
    episode runs on the one-row pass that `predict_one` runs on."""
    n = len(episodes)
    if not n:
        return []
    _, run = narx.mlp.stacked_pass(n, narx.x_mean, narx.x_std)
    width, dt, p = narx.p + narx.q, narx.dt, narx.p
    y_std, y_mean = narx._y_std, narx._y_mean
    live, outs, k = episodes, [None] * n, 0
    while live:
        rows, stay = [], []
        for ep, v in zip(live, outs):
            row, w = ep.row, ep.w
            if v is not None:  # step k - 1's prediction, as `predict_one` makes it
                y = v * y_std + y_mean
                if not math.isfinite(y) or abs(y) > ep.bound:
                    ep.cost = math.inf
                    continue
                del row[p - 1]
                row.insert(0, y)
                ep.iae += abs(w[k] - y) * dt
                ep.effort += abs(row[p]) * dt
            if k == len(w) - 1:
                ep.cost = ep.iae + ep.rho * ep.effort
                continue
            try:
                u = pid_step(ep.gains, ep.state, w[k], row[0], dt)
            except ControllerFault:
                ep.cost = math.inf
                continue
            del row[-1]
            row.insert(p, u)
            rows += row
            stay.append(ep)
        live = stay
        if live:
            if len(live) < n:
                rows += rows[-width:] * (n - len(live))
            outs = run(rows)
        k += 1
    return [ep.cost for ep in episodes]


def tune_static_ai(model, episodes, gain_bounds, budget: int, rho: float, seed: int,
                   restarts: int, x0, limits: tuple[float, float]) -> StaticTuneResult:
    """Derivative-free (kp, ki, kd) search against the surrogate, from `x0`
    (the bounds' midpoint when None), for gains with output `limits`.

    `model` is the NarxModel the episodes are simulated on; `episodes` is a
    list of reference arrays. The cost is the episode mean of
    IAE + rho * integral(|u|). Every episode of every point of one search
    call (a start simplex, a shrink, or one point) runs in one lockstep
    (`_lockstep_costs`), and each point's cost is the mean over its own
    episodes.
    """
    if budget < 1:
        raise ValueError("evaluation budget must be positive")
    if not episodes:
        raise ValueError("need at least one episode")
    bounds = np.asarray(gain_bounds, dtype=float).reshape(3, 2)
    m = len(episodes)
    references = [_episode_reference(ep) for ep in episodes]

    def costs_of(points):
        runs = []
        for vec in points:
            gains = PidGains(kp=float(vec[0]), ki=float(vec[1]), kd=float(vec[2]),
                             u_min=limits[0], u_max=limits[1])
            runs += [_episode_cost_on_surrogate(model, gains, w, bound, rho)
                     for w, bound in references]
        costs = _lockstep_costs(model, runs)
        return [float(np.mean(costs[i:i + m])) for i in range(0, len(costs), m)]

    start = np.asarray(x0, dtype=float) if x0 is not None else 0.5 * (bounds[:, 0] + bounds[:, 1])
    start = np.clip(start, bounds[:, 0], bounds[:, 1])
    # a prediction that overflows ends its episode at cost inf, which the
    # search referees, so numpy's warnings for it stay quiet
    with np.errstate(over="ignore", invalid="ignore"):
        best_x, best_f, trace = nelder_mead_bounded(costs_of, start, bounds, budget, seed,
                                                    restarts)
    if best_x is None or not math.isfinite(best_f):
        raise NumericalFailure("every candidate evaluation diverged")
    gains = PidGains(kp=float(best_x[0]), ki=float(best_x[1]), kd=float(best_x[2]),
                     u_min=limits[0], u_max=limits[1])
    return StaticTuneResult(gains=gains, cost=best_f, trace=trace)
