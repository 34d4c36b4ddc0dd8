"""Empirical plant models learned from recorded trajectories.

A discrete-time NARX one-step predictor (lagged outputs and inputs in, next
output out) is the workhorse: it trains in seconds and its rollout is exact
to differentiate, which the closed-loop training in `neuro` relies on. Its
network runs k feature rows at once through one `Mlp.stacked_pass`: one row
per step for `predict_one`, k rows for callers that bind their own pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataio import split_contiguous, uniform_dt
from .errors import DataError, SimulationDiverged
from .nnet import Mlp, SupervisedDataset, TrainConfig, check_int, check_number, feature_stats, \
    float_vector, normalize, train


def lag_features(y_window, u_window, p: int, q: int) -> list:
    """The NARX feature row [y(k)..y(k-p+1), u(k)..u(k-q+1)], newest first,
    from chronological windows (newest sample last, at least p outputs and
    q inputs; only the newest count)."""
    return [*y_window[:-p - 1:-1], *u_window[:-q - 1:-1]]


def make_regression_dataset(y: np.ndarray, u: np.ndarray, p: int, q: int) -> SupervisedDataset:
    """One-step regression rows from output and input records sampled on a
    uniform grid and long enough for the lag orders (both of which the caller
    checks).

    Row k holds p output lags and q input lags with target y(k+1); rows run
    from k = max(p, q) to N-2, so an N-sample series yields N-1-max(p, q)
    rows. Row k is `lag_features(y[:k+1], u[:k+1], p, q)`, copied out of
    reversed sliding windows.
    """
    if p < 1 or q < 1:
        raise ValueError("lag orders must be >= 1")
    n = len(y)
    k0 = max(p, q)
    x = np.empty((n - 1 - k0, p + q))
    # the window ending at sample k starts at k - p + 1 (outputs), k - q + 1 (inputs)
    x[:, :p] = sliding_window_view(y, p)[k0 - p + 1:n - p, ::-1]
    x[:, p:] = sliding_window_view(u, q)[k0 - q + 1:n - q, ::-1]
    return SupervisedDataset(x, y[k0 + 1:n].reshape(-1, 1))


@dataclass
class NarxModel:
    """Trained one-step predictor plus everything needed to reapply it.

    `predict_one` takes a feature row as `lag_features` lays it out, which a
    rollout keeps in place step to step, and runs it through a one-row
    `mlp.stacked_pass(1, x_mean, x_std)` bound at construction, which packs
    it, normalizes it against the stats it copied and runs the network;
    denormalizing on floats rounds as the array does, so it is bit-equal to
    the array form. The AI search's lockstep, BPTT and the held-out report
    bind a k-row pass of the same network, whose outputs, each denormalized
    on floats as here, are `predict_one`'s bits.
    """

    KIND = "narx-surrogate"

    mlp: Mlp
    p: int
    q: int
    dt: float
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: np.ndarray
    y_std: np.ndarray

    def __post_init__(self):
        check_int(self.p, "p")
        check_int(self.q, "q")
        check_number(self.dt, "dt")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        n = self.p + self.q
        if self.mlp.layer_sizes[0] != n or self.mlp.layer_sizes[-1] != 1:
            raise ValueError(f"surrogate net must map p + q = {n} features to 1 output")
        self.x_mean = float_vector(self.x_mean, n, "x_mean")
        self.x_std = float_vector(self.x_std, n, "x_std", positive=True)
        self.y_mean = float_vector(self.y_mean, 1, "y_mean")
        self.y_std = float_vector(self.y_std, 1, "y_std", positive=True)
        _, self._net = self.mlp.stacked_pass(1, self.x_mean, self.x_std)
        self._y_mean = float(self.y_mean[0])
        self._y_std = float(self.y_std[0])

    def predict_one(self, row) -> float:
        """Next output from one feature row (p + q floats, newest first)."""
        return self._net(row)[0] * self._y_std + self._y_mean


@dataclass
class SurrogateReport:
    one_step_rmse: float
    rollout_rmse: float
    output_range: float
    n_train: int
    n_val: int
    resampled: bool
    # coverage view of the training inputs; no pass/fail attached
    u_histogram: tuple
    u_bin_edges: tuple

    def as_dict(self) -> dict:
        return {
            "one_step_rmse": self.one_step_rmse,
            "rollout_rmse": self.rollout_rmse,
            "output_range": self.output_range,
            "n_train": self.n_train,
            "n_val": self.n_val,
            "resampled": self.resampled,
        }


def fit_surrogate(traj, p: int, q: int, cfg: TrainConfig, hidden, val_fraction: float,
                  resampled: bool) -> tuple[NarxModel, SurrogateReport]:
    """Fit a NARX model with a contiguous-in-time train/validation split.

    The last `val_fraction` of the record is held out; normalization stats
    come from the training block only. The report carries the held-out
    one-step RMSE and a free-running rollout RMSE over the same block.
    """
    dt = uniform_dt(traj.t)
    y = np.asarray(traj.y, dtype=float)
    u = np.asarray(traj.u, dtype=float)
    n = len(y)
    n_train = split_contiguous(n, val_fraction)
    for block, size in (("training", n_train), ("held-out", n - n_train)):
        if size < p + q + 2:
            raise DataError(f"the {block} block of the record has {size} samples; "
                            f"p = {p}, q = {q} need at least {p + q + 2}")

    train_ds = make_regression_dataset(y[:n_train], u[:n_train], p, q)
    val_ds = make_regression_dataset(y[n_train:], u[n_train:], p, q)
    x_mean, x_std = feature_stats(train_ds.x)
    y_mean, y_std = feature_stats(train_ds.y)
    train_n, val_n = (SupervisedDataset(normalize(ds.x, x_mean, x_std), normalize(ds.y, y_mean, y_std))
                      for ds in (train_ds, val_ds))

    net = Mlp([p + q, *hidden, 1], seed=cfg.seed)
    result = train(net, train_n, val_n, cfg)
    model = NarxModel(result.net, p, q, dt, x_mean, x_std, y_mean, y_std)

    # held-out one-step predictions: the validation rows in one stacked
    # pass, each row bit-equal to `predict_one` on it
    _, run = model.mlp.stacked_pass(len(val_ds), x_mean, x_std)
    preds = np.array(run(val_ds.x.ravel().tolist())) * y_std + y_mean
    val_y, val_u = y[n_train:], u[n_train:]
    k0 = max(p, q)
    one_step_rmse = float(np.sqrt(np.mean((preds - val_y[k0 + 1:]) ** 2)))

    # free run from the start of the held-out block: u_seq[i] is the input at
    # the step of the newest output, so prediction i lands on val_y[k0+1+i]
    roll = narx_rollout(model, val_y[:k0 + 1], val_u[k0:-1], u_init=val_u[k0 - q + 1:k0])
    rollout_rmse = float(np.sqrt(np.mean((roll - val_y[k0 + 1:]) ** 2)))

    hist, edges = np.histogram(u[:n_train], bins=10)
    report = SurrogateReport(
        one_step_rmse=one_step_rmse, rollout_rmse=rollout_rmse,
        output_range=float(np.ptp(y)), n_train=len(train_ds), n_val=len(val_ds),
        resampled=resampled, u_histogram=tuple(int(c) for c in hist),
        u_bin_edges=tuple(float(e) for e in edges),
    )
    return model, report


def narx_rollout(model: NarxModel, y_init, u_seq, u_init) -> np.ndarray:
    """Free-running prediction: each output feeds back into its own lag window.

    `y_init` seeds the output lags (chronological; at least p samples).
    `u_seq[i]` is the input applied at the time of the then-newest output, so
    prediction i is the output one step after it; `u_init` holds the q-1
    inputs that precede u_seq[0]. A one-element u_seq is exactly a one-step
    prediction. Every operation here is a smooth affine/tanh map, so the
    rollout admits exact reverse-mode gradients w.r.t. inputs and weights
    (see `neuro.train_bptt`).
    """
    p, q = model.p, model.q
    y_hist = np.asarray(y_init, dtype=float).tolist()
    if len(y_hist) < p:
        raise ValueError(f"initial output window must hold at least p = {p} samples")
    u_hist = np.asarray(u_init, dtype=float).tolist()
    if len(u_hist) < q - 1:
        raise ValueError(f"initial input window must hold at least q-1 = {q - 1} samples")
    # the feature row, kept in place: the newest p outputs and q - 1 inputs,
    # newest first, then a slot for the oldest input, which each step's new
    # input pushes out (the first step's a placeholder)
    row = [*lag_features(y_hist, u_hist, p, q - 1), 0.0]

    out = []
    for i, u_now in enumerate(np.asarray(u_seq, dtype=float).tolist()):
        del row[-1]
        row.insert(p, u_now)
        y_next = model.predict_one(row)
        if not math.isfinite(y_next):
            raise SimulationDiverged("non-finite prediction", step=i)
        out.append(y_next)
        del row[p - 1]
        row.insert(0, y_next)
    return np.array(out, dtype=float)

