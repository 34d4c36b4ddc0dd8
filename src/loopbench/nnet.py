"""Minimal dense feedforward network with hand-written reverse-mode gradients.

This is the single function-approximation engine behind plant surrogates,
gain schedulers, and neural controllers. 64-bit floats throughout; tanh
hidden layers, identity output; Adam-rule updates with seeded shuffling so
training is bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError, TrainingDiverged

STD_FLOOR = 1e-12

WEIGHTS_MAGIC = "loopbench-mlp v1"


def normalize(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (x - mean) / std


def denormalize(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return x * std + mean


def _stats(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = a.mean(axis=0)
    std = np.maximum(a.std(axis=0), STD_FLOOR)
    return mean, std


@dataclass
class SupervisedDataset:
    """Sample rows plus the per-feature normalization stats of this split."""

    x: np.ndarray
    y: np.ndarray
    x_mean: np.ndarray = None
    x_std: np.ndarray = None
    y_mean: np.ndarray = None
    y_std: np.ndarray = None

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.y = np.atleast_2d(np.asarray(self.y, dtype=float))
        if self.y.shape[0] == 1 and self.x.shape[0] > 1:
            self.y = self.y.T
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("input and target row counts differ")
        if self.x_mean is None:
            self.x_mean, self.x_std = _stats(self.x)
        if self.y_mean is None:
            self.y_mean, self.y_std = _stats(self.y)

    def __len__(self) -> int:
        return self.x.shape[0]

    def with_stats_of(self, other: "SupervisedDataset") -> "SupervisedDataset":
        """Same rows, normalization stats borrowed from another split."""
        return SupervisedDataset(self.x, self.y, other.x_mean, other.x_std,
                                 other.y_mean, other.y_std)

    def normalized(self) -> "SupervisedDataset":
        """Rows mapped into this dataset's normalized space."""
        xs = normalize(self.x, self.x_mean, self.x_std)
        ys = normalize(self.y, self.y_mean, self.y_std)
        d_in, d_out = self.x.shape[1], self.y.shape[1]
        return SupervisedDataset(xs, ys, np.zeros(d_in), np.ones(d_in),
                                 np.zeros(d_out), np.ones(d_out))


class Mlp:
    """tanh hidden layers, identity output, Glorot-uniform init.

    All parameters live in one float64 vector `params`, laid out layer by
    layer as the row-major weight matrix followed by the bias; `weights[l]`
    and `biases[l]` are views into it, so writing either updates the other.
    """

    def __init__(self, layer_sizes, seed: int = 0, init: bool = True):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError("need at least input and output sizes, all >= 1")
        self.layer_sizes = sizes
        self.params = np.zeros(sum((n_in + 1) * n_out for n_in, n_out in zip(sizes[:-1], sizes[1:])))
        self.weights, self.biases = self._views(self.params)
        if init:
            rng = np.random.default_rng(seed)
            for w in self.weights:
                lim = np.sqrt(6.0 / sum(w.shape))
                w[...] = rng.uniform(-lim, lim, size=w.shape)

    def _views(self, vec: np.ndarray):
        """Per-layer weight and bias views into a vector laid out like `params`."""
        weights, biases, pos = [], [], 0
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            weights.append(vec[pos:pos + n_in * n_out].reshape(n_out, n_in))
            pos += n_in * n_out
            biases.append(vec[pos:pos + n_out])
            pos += n_out
        return weights, biases

    def bind(self, vec: np.ndarray) -> None:
        """Move the parameters into `vec` (same length) and view them there,
        so that several networks can share one optimizer vector."""
        vec[...] = self.params
        self.params = vec
        self.weights, self.biases = self._views(vec)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def n_params(self) -> int:
        return self.params.size

    def copy(self) -> "Mlp":
        out = Mlp(self.layer_sizes, init=False)
        out.params[...] = self.params
        return out

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        a = np.asarray(x, dtype=float)
        single = a.ndim == 1
        if a.ndim < 2:
            a = a.reshape(1, -1)
        if a.shape[1] != self.layer_sizes[0]:
            raise ValueError(f"input dim {a.shape[1]} != first layer size {self.layer_sizes[0]}")
        for l in range(self.n_layers - 1):
            a = np.tanh(a @ self.weights[l].T + self.biases[l])
        out = a @ self.weights[-1].T + self.biases[-1]
        return out[0] if single else out

    def forward_cached(self, x: np.ndarray):
        """Batch forward keeping every activation for the reverse pass."""
        a = np.atleast_2d(np.asarray(x, dtype=float))
        acts = [a]
        for l in range(self.n_layers - 1):
            a = np.tanh(a @ self.weights[l].T + self.biases[l])
            acts.append(a)
        out = a @ self.weights[-1].T + self.biases[-1]
        return out, acts

    def adjoints(self, acts, grad_out: np.ndarray, extra_last_hidden_grad: np.ndarray | None = None):
        """Reverse pass through the activations only: (adjoint of each layer's
        pre-activation, last layer first; adjoint of the input).

        `extra_last_hidden_grad` injects an adjoint at the last hidden
        activation (used by auxiliary output heads that branch off there).
        """
        g = np.atleast_2d(np.asarray(grad_out, dtype=float))
        gzs = [g]
        ga = g @ self.weights[-1]
        if extra_last_hidden_grad is not None:
            ga = ga + np.atleast_2d(extra_last_hidden_grad)
        for l in range(self.n_layers - 2, -1, -1):
            gz = ga * (1.0 - acts[l + 1] ** 2)
            gzs.append(gz)
            ga = gz @ self.weights[l]
        return gzs, ga

    def backward(self, acts, grad_out: np.ndarray, extra_last_hidden_grad: np.ndarray | None = None):
        """Reverse pass: (parameter gradient laid out like `params`, gradient
        w.r.t. the input); `adjoints` documents the arguments."""
        gzs, ga = self.adjoints(acts, grad_out, extra_last_hidden_grad)
        parts = []  # last layer first, bias before weights
        for l, gz in zip(range(self.n_layers - 1, -1, -1), gzs):
            parts += [gz.sum(axis=0), (gz.T @ acts[l]).ravel()]
        return np.concatenate(parts[::-1]), ga


# ---------------------------------------------------------------------------
# Loss, gradients, optimizer
# ---------------------------------------------------------------------------

def mse(net: Mlp, x: np.ndarray, y: np.ndarray) -> float:
    pred = net.forward(np.atleast_2d(x))
    return float(np.mean((pred - np.atleast_2d(y)) ** 2))


def grad(net: Mlp, x: np.ndarray, y: np.ndarray):
    """Gradient of the mean squared error over the batch, laid out like
    `net.params`; returns (grads, loss)."""
    xb = np.atleast_2d(np.asarray(x, dtype=float))
    yb = np.atleast_2d(np.asarray(y, dtype=float))
    if xb.shape[0] == 0:
        raise ValueError("empty batch")
    out, acts = net.forward_cached(xb)
    diff = out - yb
    loss = float(np.mean(diff ** 2))
    grads, _ = net.backward(acts, 2.0 * diff / diff.size)
    return grads, loss


class Adam:
    """Adaptive-moment update rule on a flat parameter vector, in place."""

    def __init__(self, n_params: int, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One update of `params` (and the moments) in place; elementwise,
        so each entry rounds exactly as the out-of-place formula would."""
        self.t += 1
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grads
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * grads ** 2
        m_hat = self.m / (1.0 - self.beta1 ** self.t)
        v_hat = self.v / (1.0 - self.beta2 ** self.t)
        params -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")


@dataclass
class TrainResult:
    net: Mlp
    history: list = field(default_factory=list)  # (train_loss, val_loss) per epoch
    best_epoch: int = -1
    best_val_loss: float = float("inf")


def train(net: Mlp, data: SupervisedDataset, val: SupervisedDataset, cfg: TrainConfig) -> TrainResult:
    """Mini-batch Adam with seeded shuffling; returns the best-validation snapshot.

    Operates on the raw dataset arrays; callers that want normalized training
    pass `data.normalized()` / `val.with_stats_of(data).normalized()`.
    """
    work = net.copy()
    rng = np.random.default_rng(cfg.seed)
    adam = Adam(work.n_params, cfg.learning_rate, cfg.beta1, cfg.beta2)
    result = TrainResult(net=net.copy())
    n = len(data)
    wait = 0

    for epoch in range(cfg.max_epochs):
        perm = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            grads, loss = grad(work, data.x[idx], data.y[idx])
            batch_losses.append(loss)
            adam.step(work.params, grads)
        train_loss = float(np.mean(batch_losses))
        val_loss = mse(work, val.x, val.y)
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise TrainingDiverged("non-finite loss", epoch=epoch)
        result.history.append((train_loss, val_loss))
        if val_loss < result.best_val_loss:
            result.best_val_loss = val_loss
            result.best_epoch = epoch
            result.net = work.copy()
            wait = 0
        else:
            wait += 1
            if wait > cfg.patience:
                break
    return result


# ---------------------------------------------------------------------------
# Weight file format: versioned text, exact float round-trip via repr
# ---------------------------------------------------------------------------

def save_weights(net: Mlp, path) -> None:
    lines = [WEIGHTS_MAGIC, "layers " + " ".join(str(s) for s in net.layer_sizes)]
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        lines.append(f"W{l}")
        for row in w:
            lines.append(" ".join(repr(float(v)) for v in row))
        lines.append(f"b{l}")
        lines.append(" ".join(repr(float(v)) for v in b))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def load_weights(path) -> Mlp:
    """Inverse of `save_weights`. Malformed or truncated content raises
    ParseError with the 1-based line number."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()

    def line(pos: int) -> str:
        if pos >= len(lines):
            raise ParseError(f"{path}: file ends early", line=pos + 1)
        return lines[pos]

    def numbers(pos: int, count: int) -> np.ndarray:
        try:
            values = [float(v) for v in line(pos).split()]
        except ValueError:
            raise ParseError(f"{path}: non-numeric value", line=pos + 1) from None
        if len(values) != count:
            raise ParseError(f"{path}: expected {count} values, got {len(values)}", line=pos + 1)
        return np.array(values)

    if line(0) != WEIGHTS_MAGIC:
        raise ParseError(f"{path}: not a {WEIGHTS_MAGIC!r} file", line=1)
    header = line(1).split()
    if header[:1] != ["layers"]:
        raise ParseError(f"{path}: missing layer header", line=2)
    try:
        net = Mlp(header[1:], init=False)
    except ValueError as exc:
        raise ParseError(f"{path}: bad layer sizes: {exc}", line=2) from None
    pos = 2
    for l, (n_in, n_out) in enumerate(zip(net.layer_sizes[:-1], net.layer_sizes[1:])):
        if line(pos) != f"W{l}":
            raise ParseError(f"{path}: expected W{l} marker", line=pos + 1)
        for r in range(n_out):
            net.weights[l][r] = numbers(pos + 1 + r, n_in)
        pos += 1 + n_out
        if line(pos) != f"b{l}":
            raise ParseError(f"{path}: expected b{l} marker", line=pos + 1)
        net.biases[l][...] = numbers(pos + 1, n_out)
        pos += 2
    return net


# ---------------------------------------------------------------------------
# JSON metadata sidecar written next to each model's weights file
# ---------------------------------------------------------------------------

def save_sidecar(path, meta: dict) -> None:
    with open(str(path) + ".meta.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_sidecar(path, kind: str, keys) -> dict:
    """The sidecar of the weights file at `path`, checked for its `kind` and
    required `keys`; a malformed sidecar raises ParseError."""
    meta_path = str(path) + ".meta.json"
    text = Path(meta_path).read_text(encoding="utf-8")
    try:
        meta = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{meta_path}: invalid JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(meta, dict) or meta.get("kind") != kind:
        raise ParseError(f"{meta_path}: not a {kind} model", line=1)
    missing = [k for k in keys if k not in meta]
    if missing:
        raise ParseError(f"{meta_path}: missing {', '.join(missing)}", line=1)
    return meta
