"""Empirical plant models learned from recorded trajectories.

A discrete-time NARX one-step predictor (lagged outputs and inputs in, next
output out) is the workhorse: it trains in seconds and its rollout is exact
to differentiate, which the closed-loop training in `neuro` relies on. The
hybrid variant adds a learned residual on top of a known physics map so the
physics covers the border cases the data never visits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MustResample, RolloutDiverged, TooShort
from .nnet import Mlp, SupervisedDataset, TrainConfig, denormalize, normalize, train


def _series_dt(t: np.ndarray) -> float:
    spacing = np.diff(t)
    if len(spacing) == 0:
        raise TooShort("need at least two samples")
    step = float(spacing[0])
    if np.ptp(spacing) > 1e-9 * max(step, 1.0):
        raise MustResample("trajectory is not uniformly sampled; resample first")
    return step


def lag_features(y: np.ndarray, u: np.ndarray, k: int, p: int, q: int) -> np.ndarray:
    """Feature row at time k: [y(k)..y(k-p+1), u(k)..u(k-q+1)], newest first."""
    return np.concatenate([y[k - p + 1:k + 1][::-1], u[k - q + 1:k + 1][::-1]])


def make_regression_dataset(traj, p: int, q: int) -> SupervisedDataset:
    """One-step regression rows from a uniformly sampled trajectory.

    Row k holds p output lags and q input lags with target y(k+1); rows run
    from k = max(p, q) to N-2, so an N-sample series yields N-1-max(p, q)
    rows. Normalization stats are those of this dataset.
    """
    if p < 1 or q < 1:
        raise ValueError("lag orders must be >= 1")
    _series_dt(np.asarray(traj.t, dtype=float))
    y = np.asarray(traj.y, dtype=float)
    u = np.asarray(traj.u, dtype=float)
    n = len(y)
    if n <= p + q + 1:
        raise TooShort(f"need more than p+q+1 = {p + q + 1} samples, got {n}")
    k0 = max(p, q)
    rows = np.stack([lag_features(y, u, k, p, q) for k in range(k0, n - 1)])
    targets = y[k0 + 1:n].reshape(-1, 1)
    return SupervisedDataset(rows, targets)


@dataclass
class NarxModel:
    """Trained one-step predictor plus everything needed to reapply it.

    Per-step prediction runs on Python floats around one single-row
    `Mlp.forward`: float arithmetic rounds exactly as numpy's elementwise
    ops, so the result is bit-equal to normalizing and denormalizing arrays.
    The float copies of the normalization stats are taken at construction.
    """

    mlp: Mlp
    p: int
    q: int
    dt: float
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: np.ndarray
    y_std: np.ndarray

    def __post_init__(self):
        self._x_stats = list(zip(np.asarray(self.x_mean, dtype=float).tolist(),
                                 np.asarray(self.x_std, dtype=float).tolist()))
        self._y_mean = float(self.y_mean[0])
        self._y_std = float(self.y_std[0])

    def predict_feat(self, feat_raw) -> float:
        """Next output from a raw newest-first feature row (any float sequence)."""
        xn = [(f - m) / s for f, (m, s) in zip(feat_raw, self._x_stats)]
        z = float(self.mlp.forward(np.array([xn]))[0, 0])
        return z * self._y_std + self._y_mean

    def predict_one(self, y_window, u_window) -> float:
        """Next output from chronological windows (newest sample last)."""
        return self.predict_feat([*y_window[-self.p:][::-1], *u_window[-self.q:][::-1]])

    # -- differentiable pieces used by closed-loop training ------------------

    def predict_cached(self, feat_raw: np.ndarray):
        xn = normalize(feat_raw, self.x_mean, self.x_std)
        out, acts = self.mlp.forward_cached(xn)
        y_next = float(denormalize(out[0], self.y_mean, self.y_std)[0])
        return y_next, acts

    def backward_to_features(self, acts, upstream: float) -> np.ndarray:
        """Adjoint of the raw feature vector given d(loss)/d(prediction)."""
        _, gx = self.mlp.adjoints(acts, np.array([[upstream * self._y_std]]))
        return gx[0] / self.x_std


@dataclass
class SurrogateReport:
    one_step_rmse: float
    rollout_rmse: float
    output_range: float
    n_train: int
    n_val: int
    resampled: bool = False
    # coverage view of the training inputs; no pass/fail attached
    u_histogram: tuple = ()
    u_bin_edges: tuple = ()

    def as_dict(self) -> dict:
        return {
            "one_step_rmse": self.one_step_rmse,
            "rollout_rmse": self.rollout_rmse,
            "output_range": self.output_range,
            "n_train": self.n_train,
            "n_val": self.n_val,
            "resampled": self.resampled,
        }


def fit_surrogate(traj, p: int, q: int, cfg: TrainConfig,
                  hidden=(32,), val_fraction: float = 0.25,
                  resampled: bool = False) -> tuple[NarxModel, SurrogateReport]:
    """Fit a NARX model with a contiguous-in-time train/validation split.

    The last `val_fraction` of the record is held out; normalization stats
    come from the training block only. The report carries the held-out
    one-step RMSE and a free-running rollout RMSE over the same block.
    """
    dt = _series_dt(np.asarray(traj.t, dtype=float))
    y = np.asarray(traj.y, dtype=float)
    u = np.asarray(traj.u, dtype=float)
    n = len(y)
    n_train = int(np.floor(n * (1.0 - val_fraction)))
    if n_train <= p + q + 1 or n - n_train <= max(p, q) + 1:
        raise TooShort("record too short for the requested split and lag orders")

    class _Block:
        def __init__(self, sl):
            self.t, self.y, self.u = traj.t[sl], y[sl], u[sl]

    train_ds = make_regression_dataset(_Block(slice(0, n_train)), p, q)
    val_ds = make_regression_dataset(_Block(slice(n_train, n)), p, q).with_stats_of(train_ds)

    net = Mlp([p + q, *hidden, 1], seed=cfg.seed)
    result = train(net, train_ds.normalized(), val_ds.normalized(), cfg)
    model = NarxModel(result.net, p, q, dt,
                      train_ds.x_mean, train_ds.x_std, train_ds.y_mean, train_ds.y_std)

    val_y, val_u = y[n_train:], u[n_train:]
    k0 = max(p, q)
    preds = np.array([model.predict_feat(lag_features(val_y, val_u, k, p, q))
                      for k in range(k0, len(val_y) - 1)])
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


def narx_rollout(model: NarxModel, y_init, u_seq, u_init=None) -> np.ndarray:
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
    u_hist = np.asarray(u_init, dtype=float).tolist() if u_init is not None else [0.0] * (q - 1)
    if len(u_hist) < q - 1:
        raise ValueError(f"initial input window must hold at least q-1 = {q - 1} samples")
    # the windows hold exactly p outputs and q-1 inputs between steps
    del y_hist[:-p]
    del u_hist[:len(u_hist) - (q - 1)]

    out = []
    for i, u_now in enumerate(np.asarray(u_seq, dtype=float).tolist()):
        u_hist.append(u_now)
        y_next = model.predict_one(y_hist, u_hist)
        if not math.isfinite(y_next):
            raise RolloutDiverged("non-finite prediction", step=i)
        out.append(y_next)
        y_hist.append(y_next)
        del y_hist[0]
        del u_hist[0]
    return np.array(out, dtype=float)


# ---------------------------------------------------------------------------
# Hybrid physics + residual model
# ---------------------------------------------------------------------------

@dataclass
class HybridModel:
    """Known physics map plus an additive learned residual (blend weight 1).

    `physics(y_window, u_window)` predicts the next output from chronological
    windows. With all-zero residual weights the hybrid equals the physics
    exactly, by construction: the residual is the raw network output on
    NARX-normalized features.
    """

    physics: Callable[[np.ndarray, np.ndarray], float]
    residual: Mlp
    p: int
    q: int
    x_mean: np.ndarray
    x_std: np.ndarray

    def residual_feat(self, y_window: np.ndarray, u_window: np.ndarray) -> np.ndarray:
        feat = np.concatenate([np.asarray(y_window, dtype=float)[-self.p:][::-1],
                               np.asarray(u_window, dtype=float)[-self.q:][::-1]])
        return normalize(feat, self.x_mean, self.x_std)


def hybrid_predict(model: HybridModel, y_window, u_window) -> float:
    y_window = np.asarray(y_window, dtype=float)
    u_window = np.asarray(u_window, dtype=float)
    base = float(model.physics(y_window, u_window))
    corr = float(model.residual.forward(model.residual_feat(y_window, u_window))[0])
    return base + corr


def fit_hybrid(traj, physics: Callable[[np.ndarray, np.ndarray], float],
               p: int, q: int, cfg: TrainConfig, hidden=(16,),
               val_fraction: float = 0.25) -> HybridModel:
    """Train the residual on the physics prediction error over the record."""
    _series_dt(np.asarray(traj.t, dtype=float))
    y = np.asarray(traj.y, dtype=float)
    u = np.asarray(traj.u, dtype=float)

    ds = make_regression_dataset(traj, p, q)
    k0 = max(p, q)
    phys = np.array([physics(y[k - p + 1:k + 1], u[k - q + 1:k + 1])
                     for k in range(k0, len(y) - 1)]).reshape(-1, 1)
    resid_targets = ds.y - phys

    feats = normalize(ds.x, ds.x_mean, ds.x_std)
    n_train = int(np.floor(len(feats) * (1.0 - val_fraction)))
    if n_train < 2 or len(feats) - n_train < 1:
        raise TooShort("record too short for residual training")
    train_ds = SupervisedDataset(feats[:n_train], resid_targets[:n_train])
    val_ds = SupervisedDataset(feats[n_train:], resid_targets[n_train:])

    net = Mlp([p + q, *hidden, 1], seed=cfg.seed)
    result = train(net, train_ds, val_ds, cfg)
    return HybridModel(physics=physics, residual=result.net, p=p, q=q,
                       x_mean=ds.x_mean, x_std=ds.x_std)


# ---------------------------------------------------------------------------
# Serialization: nnet weight file plus a JSON metadata sidecar
# ---------------------------------------------------------------------------

def save_narx(model: NarxModel, path) -> None:
    from .nnet import save_sidecar, save_weights

    save_weights(model.mlp, path)
    meta = {
        "kind": "narx-surrogate",
        "p": model.p,
        "q": model.q,
        "dt": model.dt,
        "x_mean": [float(v) for v in model.x_mean],
        "x_std": [float(v) for v in model.x_std],
        "y_mean": [float(v) for v in model.y_mean],
        "y_std": [float(v) for v in model.y_std],
    }
    save_sidecar(path, meta)


def load_narx(path) -> NarxModel:
    from .nnet import load_sidecar, load_weights

    mlp = load_weights(path)
    meta = load_sidecar(path, "narx-surrogate", ("p", "q", "dt", "x_mean", "x_std", "y_mean", "y_std"))
    return NarxModel(
        mlp, meta["p"], meta["q"], meta["dt"],
        np.array(meta["x_mean"]), np.array(meta["x_std"]),
        np.array(meta["y_mean"]), np.array(meta["y_std"]),
    )
