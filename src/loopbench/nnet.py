"""Minimal dense feedforward network with hand-written reverse-mode gradients.

This is the single function-approximation engine behind plant surrogates,
gain schedulers, and neural controllers. 64-bit floats throughout; tanh
hidden layers, identity output; Adam-rule updates with seeded shuffling so
training is bit-reproducible.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import struct
from dataclasses import dataclass, field

import numpy as np

from .dataio import parse_json, read_text, write_json, write_lines
from .errors import NumericalFailure, ParseError

STD_FLOOR = 1e-12

WEIGHTS_MAGIC = "loopbench-mlp v1"

# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def normalize(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (x - mean) / std


def feature_stats(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and std of a row block, the std floored at STD_FLOOR."""
    mean = a.mean(axis=0)
    std = np.maximum(a.std(axis=0), STD_FLOOR)
    return mean, std


@dataclass
class SupervisedDataset:
    """Sample rows and their targets, one target row per sample row."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.y = np.atleast_2d(np.asarray(self.y, dtype=float))
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("input and target row counts differ")

    def __len__(self) -> int:
        return self.x.shape[0]


class Mlp:
    """tanh hidden layers, identity output, Glorot-uniform init.

    All parameters live in one float64 vector `params`, laid out layer by
    layer as the row-major weight matrix followed by the bias; `weights[l]`
    and `biases[l]` are views into it, so writing either updates the other.
    The forward passes read transposed views taken with them.
    """

    def __init__(self, layer_sizes, seed: int = 0, init: bool = True):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError("need at least input and output sizes, all >= 1")
        self.layer_sizes = sizes
        self.params = np.zeros(sum((n_in + 1) * n_out for n_in, n_out in zip(sizes[:-1], sizes[1:])))
        self._view_params()
        if init:
            rng = np.random.default_rng(seed)
            for w in self.weights:
                lim = np.sqrt(6.0 / sum(w.shape))
                w[...] = rng.uniform(-lim, lim, size=w.shape)

    def _view_params(self) -> None:
        """`weights`, `biases` and the transposed weights, as views of `params`."""
        self.weights, self.biases = self._views(self.params)
        self._weights_t = [w.T for w in self.weights]

    def _views(self, vec: np.ndarray):
        """Per-layer weight and bias views into a vector (or stack) laid out like `params`."""
        weights, biases, pos = [], [], 0
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            weights.append(vec[..., pos:pos + n_in * n_out].reshape(*vec.shape[:-1], n_out, n_in))
            pos += n_in * n_out
            biases.append(vec[..., pos:pos + n_out])
            pos += n_out
        return weights, biases

    def bind(self, vec: np.ndarray) -> None:
        """Move the parameters into `vec` (same length) and view them there,
        so that several networks can share one optimizer vector."""
        vec[...] = self.params
        self.params = vec
        self._view_params()

    @property
    def n_params(self) -> int:
        return self.params.size

    def copy(self) -> "Mlp":
        out = Mlp(self.layer_sizes, init=False)
        out.params[...] = self.params
        return out

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Network output: 1-D for a row, 2-D for a batch of rows."""
        return self.forward_cached(x)[0]

    def forward_cached(self, x: np.ndarray):
        """Forward pass keeping every activation for the reverse pass.

        A single row is 1-D in, 1-D out, and stays 1-D in between, so each
        layer is one matrix-vector product (gemv); a 2-D batch of rows runs
        through matrix products. A row rounds exactly as a one-row batch.
        """
        a = np.asarray(x, dtype=float)
        if a.shape[-1:] != (self.layer_sizes[0],):
            raise ValueError(f"input shape {a.shape} does not end in the first layer size "
                             f"{self.layer_sizes[0]}")
        weights_t, biases = self._weights_t, self.biases
        acts = [a]
        for l in range(len(weights_t) - 1):
            a = np.dot(a, weights_t[l])  # a fresh array: the bias and tanh go in place
            a += biases[l]
            acts.append(np.tanh(a, out=a))
        return np.dot(a, weights_t[-1]) + biases[-1], acts

    def stacked_pass(self, k: int, mean: np.ndarray, std: np.ndarray):
        """A forward pass of k independent rows bound to buffers allocated
        here, the rows normalized against copies of `mean` and `std` taken
        here: returns `(acts, run)`, where `acts` holds each layer's input
        buffer, the normalized input first, and `run(rows)` takes the rows'
        floats as one flat list, row after row, packs them into the input
        buffer with one `struct.pack_into`, normalizes them and computes every
        layer in place, and returns the k rows' outputs as one flat list of
        floats. Each output row has the bits of `forward_cached(normalize(row,
        mean, std))` on its row alone: one row runs on 1-D buffers, each layer
        one `np.dot` (a gemv) with the biases read through their views, so the
        pass follows the parameters as they change; k >= 2 rows run on
        (k, 1, n) stacks, each layer one `np.matmul`, which makes one gemv per
        row (a 2-D matrix product over the rows rounds differently), with the
        biases tiled to the stack's shape here, as an op on equal shapes skips
        numpy's broadcasting machinery, so that pass holds while the
        parameters stay as they are. Every layer reads the current weight
        views, so bind a pass after any `bind`."""
        if k < 1:
            raise ValueError(f"a stacked pass needs at least one row, got {k}")
        acts = [np.empty(n if k == 1 else (k, 1, n)) for n in self.layer_sizes]
        x = acts[0]
        mean, std = (np.broadcast_to(v, x.shape).copy() for v in (mean, std))
        fill = struct.Struct(f"{x.size}d").pack_into
        product, biases = np.dot, self.biases
        if k > 1:
            product = np.matmul
            biases = [np.broadcast_to(b, h.shape).copy() for b, h in zip(biases, acts[1:])]
        *hidden, (a_last, w_last, b_last, out) = zip(acts[:-1], self._weights_t, biases, acts[1:])
        flat = out.reshape(-1)
        add, tanh, subtract, divide = np.add, np.tanh, np.subtract, np.divide

        # each output buffer goes in positionally: an `out=` keyword costs
        # a parse per call, about 7 % of a 9-16-1 pass
        def run(rows) -> list:
            fill(x, 0, *rows)
            subtract(x, mean, x)
            divide(x, std, x)
            for a, w, b, h in hidden:
                product(a, w, h)
                add(h, b, h)
                tanh(h, h)
            product(a_last, w_last, out)
            add(out, b_last, out)
            return flat.tolist()
        return acts[:-1], run

    def batch_pass(self, k: int, grad: np.ndarray, x: np.ndarray | None = None) -> "BatchPass":
        """A forward and reverse pass of k rows bound to buffers allocated
        here (see `BatchPass`); the parameter gradient goes into `grad`, a
        vector laid out like `params`. `x`, if given, is the (k, inputs)
        input buffer, such as another pass's last hidden activation. The pass
        reads the current weight views, so bind it after any `bind`."""
        return BatchPass(self, k, grad, x)

    def backward(self, bp: "BatchPass", extra: np.ndarray | None = None) -> None:
        """Reverse pass of this network's bound batch `bp`, whose `g` holds the
        output adjoint: every pre-activation adjoint into `bp.gzs`, then the
        parameter gradient into `bp.grad`, each bias as the column sums
        (`np.add.reduce`) and each weight as `np.dot(gz.T, a)`, then 0.0 added
        in place, which turns any -0.0 of the BLAS products into 0.0, as sums
        from +0.0 give. `extra` (k, width) is an adjoint added at the last
        hidden activation, where an auxiliary output head branches off."""
        weights, gzs, acts, slopes = self.weights, bp.gzs, bp.acts, bp.slopes
        for l in range(len(weights) - 2, -1, -1):
            gz, s = gzs[l], slopes[l]
            np.dot(gzs[l + 1], weights[l + 1], out=gz)
            if extra is not None:
                np.add(gz, extra, out=gz)
                extra = None
            np.square(acts[l + 1], out=s)  # the bits of `1.0 - a ** 2`
            np.subtract(1.0, s, out=s)
            np.multiply(gz, s, out=gz)
        for gz, a, gw, gb in bp.terms:
            np.add.reduce(gz, axis=0, out=gb)
            np.dot(gz.T, a, out=gw)
        bp.grad += 0.0

    def row_input_adjoint(self, g, slopes, k: int, gzs=None) -> np.ndarray:
        """Input adjoint of step k of a history of 1-D passes, or of (E, 1, n)
        stacks of E passes each, from its output adjoint `g` (for a
        one-output net a float, or an (E, 1, 1) stack) and `slopes`, the tanh
        slopes `1 - a ** 2` of every step, stacked per hidden layer, first
        layer first. If given, `gzs` holds a history per layer, first layer
        first, and step k of each receives that layer's pre-activation adjoint
        (what `backward` writes into a one-row pass) for `summed_row_gradient`.
        A stack's products are one `np.matmul` per layer, one gemv per row, so
        each row has the bits of its pass run alone.

        For one output the first product is `g * W[0]`, not a gemv with
        [g]: the same exactly rounded products, but a zero one may be -0.0
        where the gemv gives +0.0. That sign reaches only sums from +0.0,
        which drop it."""
        w = self.weights
        l = len(w) - 1
        if gzs is not None:
            gzs[l][k] = g
        ga = g * w[l][0] if self.layer_sizes[-1] == 1 else np.matmul(g, w[l])
        while l:
            l -= 1
            gz = ga * slopes[l][k] if gzs is None else np.multiply(ga, slopes[l][k], out=gzs[l][k])
            ga = np.matmul(gz, w[l])
        return ga

    def summed_row_gradient(self, gzs, acts) -> np.ndarray:
        """Sum in order from +0.0 of the row gradients of 1-D passes, stacked per
        layer, first layer first: `gzs[l]` holds layer l's pre-activation adjoints
        and `acts[l]` its input activations, row i from pass i. Bit for bit
        the running sum from +0.0 of each pass's `backward` gradient as a
        one-row batch, row after row, as such a sum is never -0.0. The terms
        go in chunks of about 2^20 numbers (8 MB) under the running sum, which
        `np.add.reduce` over the stack adds row after row (numpy sums pairwise
        only along the contiguous axis)."""
        n = len(gzs[0])
        total, step = np.zeros(self.n_params), max(1, (1 << 20) // self.n_params)
        for s in range(0, n, step):
            rows = slice(s, min(s + step, n))
            terms = np.concatenate([total[None], np.empty((rows.stop - s, self.n_params))])
            weights, biases = self._views(terms[1:])
            for l, (gz, a) in enumerate(zip(gzs, acts)):
                biases[l][...] = gz[rows]
                np.multiply(gz[rows, :, None], a[rows, None], out=weights[l])
            total = np.add.reduce(terms, axis=0)
        return total


class BatchPass:
    """A forward and reverse pass of k rows through one network, bound to
    buffers allocated once: the caller fills the input `x` (k, inputs),
    `forward()` writes every hidden activation (`acts`, the input first) and
    the output `out` (k, outputs), the caller writes the output's adjoint
    into `g` (k, outputs), and `Mlp.backward` writes the pre-activation
    adjoints into `gzs` (first layer first; `g` is the last) and the
    parameter gradient into the views `terms` holds of `grad`. Each layer is
    the `forward_cached` batch product, `np.dot(a, W.T)`, with the bias and
    tanh in place, so every buffer holds the bits of those fresh arrays."""

    def __init__(self, net: Mlp, k: int, grad: np.ndarray, x: np.ndarray | None):
        sizes = net.layer_sizes
        self.x = np.empty((k, sizes[0])) if x is None else x
        self.acts = [self.x] + [np.empty((k, n)) for n in sizes[1:-1]]
        self.out = np.empty((k, sizes[-1]))
        self.gzs = [np.empty((k, n)) for n in sizes[1:]]
        self.g = self.gzs[-1]
        self.slopes = [np.empty((k, n)) for n in sizes[1:-1]]  # the hidden tanh slopes
        self.grad = grad
        grad_w, grad_b = net._views(grad)
        self.terms = list(zip(self.gzs, self.acts, grad_w, grad_b))
        *self._hidden, self._last = zip(self.acts, net._weights_t, net.biases,
                                        self.acts[1:] + [self.out])

    def forward(self) -> None:
        dot, add, tanh = np.dot, np.add, np.tanh
        for a, w_t, b, h in self._hidden:  # positional buffers, as in `Mlp.stacked_pass`
            dot(a, w_t, h)
            add(h, b, h)
            tanh(h, h)
        a, w_t, b, out = self._last
        dot(a, w_t, out)
        add(out, b, out)


# ---------------------------------------------------------------------------
# Loss, gradients, optimizer
# ---------------------------------------------------------------------------

def mean_square(diff: np.ndarray, sq: np.ndarray) -> float:
    """`np.mean(diff ** 2)` without its wrapper, the squares written into
    `sq` (which may be `diff`): the same sum and division."""
    return float(np.add.reduce(np.square(diff, out=sq), axis=None) / diff.size)


def mse(net: Mlp, x: np.ndarray, y: np.ndarray) -> float:
    diff = net.forward(np.atleast_2d(x)) - np.atleast_2d(y)
    return mean_square(diff, diff)


class Adam:
    """Adaptive-moment update rule on a flat parameter vector, in place, with
    two scratch vectors allocated once for the terms of the update."""

    def __init__(self, n_params: int, lr: float):
        self.lr = lr
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0
        self._a = np.empty(n_params)
        self._b = np.empty(n_params)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One update of `params` (and the moments) in place; elementwise and
        in the formula's operation order, so each entry rounds exactly as the
        out-of-place `m_hat = m / (1 - b1 ** t)`, ...,
        `params - lr * m_hat / (sqrt(v_hat) + eps)` would."""
        self.t += 1
        m, v, a, b = self.m, self.v, self._a, self._b
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, grads, out=a)
        v *= ADAM_BETA2
        np.square(grads, out=a)
        v += np.multiply(1.0 - ADAM_BETA2, a, out=a)
        np.divide(m, 1.0 - ADAM_BETA1 ** self.t, out=a)  # m_hat
        np.divide(v, 1.0 - ADAM_BETA2 ** self.t, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += ADAM_EPS
        np.multiply(self.lr, a, out=a)
        params -= np.divide(a, b, out=a)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    batch_size: int
    max_epochs: int
    patience: int
    seed: int

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")


@dataclass
class TrainResult:
    net: Mlp
    history: list = field(init=False, default_factory=list)  # (train_loss, val_loss) per epoch
    best_epoch: int = field(init=False, default=-1)
    best_val_loss: float = field(init=False, default=math.inf)


def train(net: Mlp, data: SupervisedDataset, val: SupervisedDataset, cfg: TrainConfig) -> TrainResult:
    """Mini-batch Adam with seeded shuffling; returns the best-validation snapshot.

    Operates on the raw dataset arrays; callers that want normalized training
    `normalize` both blocks with the `feature_stats` of the training block.
    """
    work = net.copy()
    rng = np.random.default_rng(cfg.seed)
    adam = Adam(work.n_params, cfg.learning_rate)
    result = TrainResult(net=net.copy())
    n = len(data)
    wait = 0
    grads = np.empty(work.n_params)  # laid out like `params`, rewritten every step

    def bound_step(k: int):
        """One mean-squared-error step on k rows, bound to buffers made here;
        the output adjoint is `2.0 * (out - y) / size`, in that order."""
        bp = work.batch_pass(k, grads)
        y, sq, diff = np.empty((k, data.y.shape[1])), np.empty(bp.out.shape), bp.g

        def step(idx) -> float:
            # the indices are a permutation's, so clipping changes none and
            # spares `take` the buffered copy it makes to check them
            data.x.take(idx, axis=0, out=bp.x, mode="clip")
            data.y.take(idx, axis=0, out=y, mode="clip")
            bp.forward()
            np.subtract(bp.out, y, out=diff)
            loss = mean_square(diff, sq)
            np.multiply(2.0, diff, out=diff)
            np.divide(diff, diff.size, out=diff)
            work.backward(bp)
            adam.step(work.params, grads)
            return loss
        return step

    # the full batches share one binding and the remainder batch has its own
    steps = {k: bound_step(k) for k in {min(cfg.batch_size, n), n % cfg.batch_size} if k}

    # an overflowing step shows up as a non-finite loss, which the check
    # below referees, so numpy's warnings for it stay quiet
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.max_epochs):
            perm = rng.permutation(n)
            batch_losses = []
            for start in range(0, n, cfg.batch_size):
                idx = perm[start:start + cfg.batch_size]
                batch_losses.append(steps[len(idx)](idx))
            train_loss = float(np.mean(batch_losses))
            val_loss = mse(work, val.x, val.y)
            if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
                raise NumericalFailure(f"non-finite loss (epoch {epoch})")
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
        lines.extend(" ".join(map(repr, row)) for row in w.tolist())
        lines.append(f"b{l}")
        lines.append(" ".join(map(repr, b.tolist())))
    write_lines(path, lines)


def load_weights(path) -> Mlp:
    """Inverse of `save_weights`. Malformed or truncated content, or a
    number that is not finite, raises ParseError with the 1-based line
    number."""
    lines = read_text(path).splitlines()

    def line(pos: int) -> str:
        if pos >= len(lines):
            raise ParseError(f"{path}: file ends early", line=pos + 1)
        return lines[pos]

    def numbers(pos: int, count: int) -> np.ndarray:
        cells = line(pos).split()
        try:
            values = [float(v) for v in cells]
        except ValueError:
            raise ParseError(f"{path}: non-numeric value", line=pos + 1) from None
        if len(values) != count:
            raise ParseError(f"{path}: expected {count} values, got {len(values)}", line=pos + 1)
        bad = [c for c, v in zip(cells, values) if not math.isfinite(v)]
        if bad:
            raise ParseError(f"{path}: non-finite value {bad[0]!r}", line=pos + 1)
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
# Model files: the weights file plus a JSON sidecar with every other field
# ---------------------------------------------------------------------------

def check_int(value, name: str) -> None:
    """TypeError unless `value` is an integer, ValueError unless it is >= 1."""
    if not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def check_number(value, name: str) -> None:
    """TypeError unless `value` is a real number."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")


def float_vector(value, size: int, name: str, positive: bool = False) -> np.ndarray:
    """`value` as a float64 vector of `size` entries (all > 0 if `positive`):
    TypeError for non-numeric entries, ValueError for any other shape."""
    vec = np.asarray(value)
    if vec.dtype.kind not in "iuf":
        raise TypeError(f"{name} must hold numbers, got {vec.dtype}")
    if vec.shape != (size,):
        raise ValueError(f"{name} must hold {size} values, got shape {vec.shape}")
    if positive and not np.all(vec > 0.0):
        raise ValueError(f"{name} must be positive")
    return vec.astype(float, copy=False)


def _sidecar_fields(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls) if f.name not in ("mlp", "aux")]


def save_model(model, path, extras: dict | None = None) -> None:
    """Weights file at `path` plus the `.meta.json` sidecar: the model's
    `KIND`, every dataclass field but the networks, the disturbance head as
    `aux_w`/`aux_b`, and `extras` (training context) as `training`."""
    save_weights(model.mlp, path)
    meta = {"kind": model.KIND}
    for name in _sidecar_fields(model):
        value = getattr(model, name)
        meta[name] = value.tolist() if isinstance(value, np.ndarray) else value
    if getattr(model, "aux", None) is not None:
        meta["aux_w"] = model.aux.weights[0].tolist()
        meta["aux_b"] = model.aux.biases[0].tolist()
    if extras:
        meta["training"] = extras
    write_json(str(path) + ".meta.json", meta)


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


def load_model(path, cls):
    """Inverse of `save_model` for the model class `cls`. A sidecar that
    `parse_json` rejects, is of another kind, lacks a field or holds one that
    `cls` rejects raises ParseError naming the sidecar."""
    mlp = load_weights(path)
    where = str(path) + ".meta.json"
    meta = parse_json(read_text(where), where)
    if not isinstance(meta, dict) or meta.get("kind") != cls.KIND:
        raise ParseError(f"{where}: not a {cls.KIND} model", line=1)
    names = _sidecar_fields(cls)
    missing = [k for k in names if k not in meta]
    if missing:
        raise ParseError(f"{where}: missing {', '.join(missing)}", line=1)
    try:
        fields = {k: np.array(meta[k]) if isinstance(meta[k], list) else meta[k] for k in names}
        if any(f.name == "aux" for f in dataclasses.fields(cls)):
            fields["aux"] = _aux_from(meta, mlp, path)
        return cls(mlp, **fields)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}", line=1) from None
