"""The training steps against copies of the step code they replaced, byte for byte.

The copies below are the reverse pass that built the parameter gradient
from per-layer parts, one concatenate and an added 0.0; the unbound batch
passes, which allocated every activation, adjoint and gradient term afresh
on each step, with the Adam update that allocated its terms too; the
imitation and `nnet.train` loops around them; and the BPTT rollout that
added every step's full gradient into its sum (`pgrads += backward(...)`),
on numpy output and control records. The current code runs each batch
through buffers bound once per run (`Mlp.batch_pass`), writes the gradient
in place, computes the input adjoint only where it is read, and forms the
BPTT gradient once per rollout from per-layer stacks, in chunks of bounded
size, on float adjoint records and with a one-output net's first reverse
product taken as `g * W[0]`; every output byte must stay the same.
"""

import itertools
import math

import numpy as np
import pytest

from loopbench.neuro import (
    GainScheduler, NeuralController, bptt_loss_and_grad, train_bptt, train_imitation,
)
from loopbench.errors import DataError, SimulationDiverged
from loopbench.nnet import Adam, Mlp, SupervisedDataset, TrainConfig, normalize, train
from test_neuro import _identity_narx
from test_surrogate import random_narx

pytestmark = pytest.mark.bits


# ---------------------------------------------------------------------------
# the reference network passes
# ---------------------------------------------------------------------------

def ref_forward_cached(net, x):
    """The forward pass on fresh arrays: one new array per operation."""
    a = np.asarray(x, dtype=float)
    acts = [a]
    for l in range(len(net.weights) - 1):
        a = np.tanh(np.dot(a, net.weights[l].T) + net.biases[l])
        acts.append(a)
    return np.dot(a, net.weights[-1].T) + net.biases[-1], acts


def ref_adjoints(net, acts, grad_out, extra=None):
    """(each layer's pre-activation adjoint, last layer first; the input adjoint)."""
    g = np.asarray(grad_out, dtype=float)
    gzs = [g]
    ga = np.dot(g, net.weights[-1])
    if extra is not None:
        ga = ga + extra
    for l in range(len(net.weights) - 2, -1, -1):
        gz = ga * (1.0 - acts[l + 1] ** 2)
        gzs.append(gz)
        ga = np.dot(gz, net.weights[l])
    return gzs, ga


def ref_backward(net, acts, grad_out, extra=None):
    """(parameter gradient from per-layer parts, one concatenate and an added
    0.0; the input adjoint, always computed)."""
    gzs, ga = ref_adjoints(net, acts, grad_out, extra)
    parts = []  # last layer first, bias before weights
    for l, gz in zip(range(len(net.weights) - 1, -1, -1), gzs):
        if acts[0].ndim == 1:
            parts += [gz, (gz[:, None] * acts[l]).ravel()]
        else:
            parts += [gz.sum(axis=0), (gz.T @ acts[l]).ravel()]
    return np.concatenate(parts[::-1]) + 0.0, ga


def unbound_forward_cached(net, x):
    """The batch forward pass on a fresh product per layer, bias and tanh
    added in place."""
    a = np.asarray(x, dtype=float)
    acts = [a]
    for l in range(len(net.weights) - 1):
        a = np.dot(a, net.weights[l].T)
        a += net.biases[l]
        acts.append(np.tanh(a, out=a))
    return np.dot(a, net.weights[-1].T) + net.biases[-1], acts


def unbound_backward(net, acts, grad_out, extra=None):
    """(the batch gradient written through per-layer views of a new vector,
    then 0.0 added; the input adjoint), from fresh adjoint arrays."""
    gzs = [np.asarray(grad_out, dtype=float)]
    for l in range(len(net.weights) - 2, -1, -1):
        ga = np.dot(gzs[-1], net.weights[l + 1])
        if extra is not None:
            ga += extra
            extra = None
        gzs.append(ga * (1.0 - acts[l + 1] ** 2))
    out = np.empty(net.n_params)
    weights, biases = net._views(out)
    for l, gz in zip(range(len(net.weights) - 1, -1, -1), gzs):
        np.add.reduce(gz, axis=0, out=biases[l])
        np.dot(gz.T, acts[l], out=weights[l])
    out += 0.0
    return out, np.dot(gzs[-1], net.weights[0])


class UnboundAdam(Adam):
    """Adam whose update allocates each of its terms."""

    def step(self, params, grads):
        self.t += 1
        self.m *= 0.9
        self.m += (1.0 - 0.9) * grads
        self.v *= 0.999
        self.v += (1.0 - 0.999) * grads ** 2
        m_hat = self.m / (1.0 - 0.9 ** self.t)
        v_hat = self.v / (1.0 - 0.999 ** self.t)
        params -= self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)


UNBOUND = (unbound_forward_cached, unbound_backward, UnboundAdam)


# no to three hidden layers; 1- and 3-wide outputs
SHAPES = [[3, 1], [1, 5, 1], [6, 16, 1], [8, 8, 3], [9, 32, 32, 1], [5, 7, 4, 3],
          [9, 32, 32, 32, 1], [2, 64, 48, 64, 3]]


@pytest.mark.parametrize("sizes", SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_backward_bit_equal_to_concatenated_parts(sizes):
    """Batches of 1 to 64 rows through a `batch_pass` bound once per batch
    size and run three times on fresh rows, its gradient into a slice of a
    longer vector, with and without an extra adjoint at the last hidden
    activation, and 1-D rows through `summed_row_gradient` on a one-row
    pass's adjoint stacks; zero adjoint entries check the sign of zero."""
    rng = np.random.default_rng(sizes)
    for seed in range(24):
        net = Mlp(sizes, seed=seed)
        for b in net.biases:
            b[...] = rng.normal(size=b.shape) * 0.5
        lead = () if seed % 3 == 0 else (int(rng.choice([1, 2, 7, 64])),)
        buf = np.full(net.n_params + 5, np.nan)
        bp = net.batch_pass(lead[0] if lead else 1, buf[2:-3])
        for _ in range(3):
            x = rng.normal(size=lead + (sizes[0],)) * (1e-3, 1.0, 50.0)[seed % 3]
            out_r, acts_r = ref_forward_cached(net, x)
            bp.x[...] = x
            bp.forward()
            assert bp.out.tobytes() == out_r.tobytes()
            assert all(a.tobytes() == a_r.tobytes() for a, a_r in zip(bp.acts, acts_r, strict=True))

            g = rng.normal(size=lead + (sizes[-1],))
            g[..., 0] = 0.0 if seed % 4 == 1 else g[..., 0]
            extra = None
            if len(sizes) > 2 and seed % 2:
                extra = rng.normal(size=lead + (sizes[-2],))
            want, want_gx = ref_backward(net, acts_r, g, extra)
            bp.g[...] = g
            net.backward(bp, None if extra is None else np.atleast_2d(extra))
            assert np.dot(bp.gzs[0], net.weights[0]).tobytes() == want_gx.tobytes()
            if not lead:  # a row's gradient is a sum over a one-row stack
                got = net.summed_row_gradient(bp.gzs, bp.acts)
                assert got.tobytes() == want.tobytes()
                continue
            assert buf[2:-3].tobytes() == want.tobytes() and np.isnan(buf[[0, 1, -3, -2, -1]]).all()


@pytest.mark.parametrize("sizes", [[3, 1], [8, 8, 3], [9, 32, 32, 1], [9, 512, 512, 1],
                                   [4, 700, 600, 2]], ids=lambda s: "-".join(map(str, s)))
def test_summed_row_gradient_bit_equal_to_running_sum(sizes):
    """1 to 40 row passes (10 for the wide nets, whose 2^20-number chunks hold
    3 and 2 of them), stacked per layer: the same bytes as adding each row's
    reference gradient into a zero vector in order; some passes have zero
    adjoints, so terms are zeros of either sign. Odd seeds stack the passes
    last first and hand in reversed views, as `bptt_loss_and_grad` does."""
    rng = np.random.default_rng([len(sizes), *sizes])
    for seed in range(6 if sizes[1] < 100 else 2):
        net = Mlp(sizes, seed=seed)
        passes, want = [], np.zeros(net.n_params)
        for i in range(int(rng.integers(1, 41)) if sizes[1] < 100 else 10):
            _, acts = net.forward_cached(rng.normal(size=sizes[0]) * 2.0)
            g = rng.normal(size=sizes[-1]) * (0.0 if i % 5 == 2 else 1.0)
            passes.append((ref_adjoints(net, acts, g)[0][::-1], acts))
            want += ref_backward(net, acts, g)[0]
        order = -1 if seed % 2 else 1
        gzs, acts = ([np.array(layer[::order])[::order] for layer in zip(*part)]
                     for part in zip(*passes))
        got = net.summed_row_gradient(gzs, acts)
        assert got.tobytes() == want.tobytes(), seed


def test_one_output_shortcut_equal_to_gemv_but_for_the_sign_of_zero():
    """`row_input_adjoint`'s first product on a one-output net, `g * W[0]`,
    against np.dot([g], W) for widths 1 to 257 and g over +-1e-300..1e300
    and +-0.0, weights with zeros of both signs and products from the
    subnormal range to 1e308: equal values, hence equal bits but for the
    sign of a zero, and equal bits once +0.0 is added."""
    rng = np.random.default_rng(257)
    gs = [sign * 10.0 ** e for e in range(-300, 301, 25) for sign in (1.0, -1.0)] + [0.0, -0.0]
    for width in range(1, 258):
        net = Mlp([width, 1], init=False)
        net.weights[0][0] = rng.normal(size=width) * 10.0 ** rng.uniform(-20, 7, size=width)
        net.weights[0][0, ::7] = 0.0
        net.weights[0][0, 3::7] = -0.0
        for g in gs:
            got = net.row_input_adjoint(g, [], 0)
            want = np.dot(np.array([g]), net.weights[0])
            assert np.array_equal(got, want), (width, g)
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes(), (width, g)


@pytest.mark.parametrize("sizes", SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_row_input_adjoint_bit_equal_to_adjoints(sizes):
    """Stacks of 1 to 9 row passes: each pass's input adjoint and the rows
    `row_input_adjoint` writes into the adjoint stacks against the
    reference adjoints of that pass, bit for bit once +0.0 is
    added (the one-output shortcut may give -0.0 where they give +0.0), and
    their `summed_row_gradient` against the running sum of the reference
    gradients, bit for bit; some passes have zero adjoints."""
    rng = np.random.default_rng([9, *sizes])
    for seed in range(6):
        net = Mlp(sizes, seed=seed)
        n = int(rng.integers(1, 10))
        passes = [net.forward_cached(rng.normal(size=sizes[0]) * 2.0)[1] for _ in range(n)]
        acts = [np.array(layer) for layer in zip(*passes)]
        slopes = [1.0 - a ** 2 for a in acts[1:]]
        gzs = [np.empty((n, width)) for width in sizes[1:]]
        want = np.zeros(net.n_params)
        for k in range(n):
            g = rng.normal(size=sizes[-1]) * (0.0 if k % 3 == 1 else 1.0)
            g_in = float(g[0]) if sizes[-1] == 1 else g
            gx = net.row_input_adjoint(g_in, slopes, k, gzs)
            want_gzs, want_gx = ref_adjoints(net, passes[k], g)
            assert (gx + 0.0).tobytes() == (want_gx + 0.0).tobytes()
            assert all((gz[k] + 0.0).tobytes() == (w + 0.0).tobytes()
                       for gz, w in zip(gzs, want_gzs[::-1], strict=True))
            assert (net.row_input_adjoint(g_in, slopes, k) + 0.0).tobytes() == (gx + 0.0).tobytes()
            want += ref_backward(net, passes[k], g)[0]
        assert net.summed_row_gradient(gzs, acts).tobytes() == want.tobytes(), seed


# ---------------------------------------------------------------------------
# imitation
# ---------------------------------------------------------------------------

def _split(ds, fraction=0.75):
    k = int(np.floor(len(ds) * fraction))
    if k < 1 or len(ds) - k < 1:
        raise DataError("dataset too small for a train/validation split")
    return SupervisedDataset(ds.x[:k], ds.y[:k]), SupervisedDataset(ds.x[k:], ds.y[k:])


def ref_train_imitation(nc, mix, cfg, aux_weight=0.0,
                        passes=(ref_forward_cached, ref_backward, Adam)):
    """`train_imitation` with the given forward pass, reverse pass and Adam
    class (by default the reference passes), a gradient concatenated per
    step and `np.mean` losses. Each epoch draws its A/B mask, A rows and B
    rows as three (batches, batch size) arrays, and batch i takes row i of
    each."""
    forward, backward, adam_cls = passes
    a, b, lam = mix
    a_train, a_val = _split(a)
    b_train, b_val = _split(b)
    work = nc.copy()
    all_x = np.vstack([a_train.x, b_train.x])
    work.feat_mean = all_x.mean(axis=0)
    work.feat_std = np.maximum(all_x.std(axis=0), 1e-12)
    train_xn = normalize(all_x, work.feat_mean, work.feat_std)
    train_y = np.vstack([a_train.y, b_train.y])
    val_a, val_b = ((normalize(ds.x, work.feat_mean, work.feat_std), ds.y[:, :1])
                    for ds in (a_val, b_val))
    has_aux = work.aux is not None and a_train.y.shape[1] > 1
    params = work.mlp.params
    if has_aux:
        params = np.empty(work.mlp.n_params + work.aux.n_params)
        work.mlp.bind(params[:work.mlp.n_params])
        work.aux.bind(params[work.mlp.n_params:])
    adam = adam_cls(params.size, cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)

    def loss_and_step(rows):
        ys = train_y[rows]
        z, acts = forward(work.mlp, train_xn[rows])
        th = np.tanh(z[:, :1])
        u_hat = work.center + work.half_span * th
        diff = u_hat - ys[:, :1]
        loss = float(np.mean(diff ** 2))
        gz = (2.0 * diff / diff.size) * work.half_span * (1.0 - th ** 2)
        extra = None
        if has_aux:
            d_hat, acts_aux = forward(work.aux, acts[-1])
            d_diff = d_hat - ys[:, 1:2]
            loss += aux_weight * float(np.mean(d_diff ** 2))
            grads_aux, extra = backward(work.aux, acts_aux,
                                            aux_weight * 2.0 * d_diff / d_diff.size)
        grads, _ = backward(work.mlp, acts, gz, extra)
        if has_aux:
            grads = np.concatenate([grads, grads_aux])
        adam.step(params, grads)
        return loss

    def val_rmse(split):
        xn, u_teacher = split
        u_hat = work.center + work.half_span * np.tanh(forward(work.mlp, xn)[0][:, :1])
        return float(np.sqrt(np.mean((u_hat - u_teacher) ** 2)))

    n_total = len(a_train) + len(b_train)
    n_batches = max(n_total // cfg.batch_size, 1)
    shape = (n_batches, cfg.batch_size)
    history, a_fraction = [], []
    best, best_snapshot, wait = math.inf, None, 0
    for _ in range(cfg.max_epochs):
        from_a = rng.random(shape) < lam
        idx_a = rng.integers(0, len(a_train), size=shape)
        idx_b = rng.integers(len(a_train), n_total, size=shape)
        losses = [loss_and_step(np.where(from_a[i], idx_a[i], idx_b[i]))
                  for i in range(n_batches)]
        va, vb = val_rmse(val_a), val_rmse(val_b)
        history.append((float(np.mean(losses)), va, vb))
        a_fraction.append(int(from_a.sum()) / (n_batches * cfg.batch_size))
        score = 0.5 * (va * va + vb * vb)
        if score < best:
            best, best_snapshot, wait = score, work.copy(), 0
        else:
            wait += 1
            if wait > cfg.patience:
                break
    work = best_snapshot if best_snapshot is not None else work
    return work, history, a_fraction, val_rmse(val_a), val_rmse(val_b)


def _mix(rng, n, with_aux, lam=0.6):
    x = rng.normal(size=(n, 9))
    u = np.tanh(x[:, :1] - 0.5 * x[:, 1:2])
    y = np.column_stack([u, np.sin(x[:, 2:3])]) if with_aux else u
    return SupervisedDataset(x, y), SupervisedDataset(0.3 * x, 0.3 * y), lam


@pytest.mark.parametrize("with_aux", [False, True], ids=["trunk", "aux-head"])
def test_train_imitation_bit_equal_to_concatenated_steps(with_aux):
    """Final parameters, history, A-share and validation RMSE, with and
    without the disturbance head, over three shapes and batch sizes, one
    batch per epoch (60 training rows at batch 64, so the batch repeats
    rows) and every row from `b` or from `a`."""
    for seed, hidden, batch, n, lam in ((0, [8], 16, 90, 0.6), (1, [12, 10], 32, 90, 0.6),
                                        (2, [6], 64, 90, 0.6), (3, [12], 64, 40, 0.6),
                                        (4, [8], 16, 200, 0.0), (5, [8], 16, 200, 1.0)):
        rng = np.random.default_rng(seed)
        aux = Mlp([hidden[-1], 1], seed=seed + 10) if with_aux else None
        nc = NeuralController(Mlp([9, *hidden, 1], seed=seed), u_min=-1.5, u_max=2.0,
                              memory=4, aux=aux)
        mix = _mix(rng, n, with_aux, lam)
        cfg = TrainConfig(learning_rate=0.01, batch_size=batch, max_epochs=12, patience=3,
                          seed=seed + 5)
        res = train_imitation(nc, *mix, cfg, aux_weight=0.7)
        ref, history, a_fraction, rmse_a, rmse_b = ref_train_imitation(nc, mix, cfg, aux_weight=0.7)
        assert res.controller.mlp.params.tobytes() == ref.mlp.params.tobytes()
        if with_aux:
            assert res.controller.aux.params.tobytes() == ref.aux.params.tobytes()
        assert repr(res.history) == repr(history)
        assert repr(res.a_fraction) == repr(a_fraction)
        assert repr((res.val_rmse_a, res.val_rmse_b)) == repr((rmse_a, rmse_b))
        if lam in (0.0, 1.0):
            assert res.a_fraction == [lam] * len(history)


@pytest.mark.parametrize("hidden", [[16], [32, 32]], ids=["9-16-1", "9-32-32-1"])
@pytest.mark.parametrize("head", [None, 0.0, 0.5], ids=["trunk", "beta-0", "beta-0.5"])
def test_bound_imitation_steps_bit_equal_to_unbound_steps(hidden, head):
    """510 imitation steps of batch 48 (17 per epoch, 30 epochs; not a power
    of two, so that dividing by it rounds) on one binding against the unbound
    passes and Adam: final parameters, history, A-share and validation RMSE
    byte for byte, without the disturbance head and with it at beta 0 (its
    adjoint is zeros of either sign) and 0.5."""
    rng = np.random.default_rng([len(hidden), 24])
    aux = None if head is None else Mlp([hidden[-1], 1], seed=3)
    nc = NeuralController(Mlp([9, *hidden, 1], seed=2), u_min=-1.5, u_max=2.0, memory=4, aux=aux)
    mix = _mix(rng, 560, head is not None)
    cfg = TrainConfig(learning_rate=0.005, batch_size=48, max_epochs=30, patience=30, seed=5)
    res = train_imitation(nc, *mix, cfg, aux_weight=head or 0.0)
    ref, history, a_fraction, rmse_a, rmse_b = ref_train_imitation(nc, mix, cfg, head or 0.0,
                                                                   UNBOUND)
    assert len(history) == 30
    assert res.controller.mlp.params.tobytes() == ref.mlp.params.tobytes()
    if head is not None:
        assert res.controller.aux.params.tobytes() == ref.aux.params.tobytes()
    assert repr(res.history) == repr(history)
    assert repr(res.a_fraction) == repr(a_fraction)
    assert repr((res.val_rmse_a, res.val_rmse_b)) == repr((rmse_a, rmse_b))


# ---------------------------------------------------------------------------
# nnet.train and Adam
# ---------------------------------------------------------------------------

def ref_train(net, data, val, cfg):
    """`nnet.train` on the unbound passes and Adam, each batch's rows gathered
    by fancy indexing."""
    forward, backward, adam_cls = UNBOUND
    work = net.copy()
    rng = np.random.default_rng(cfg.seed)
    adam = adam_cls(work.n_params, cfg.learning_rate)
    history, best_epoch, best_val, best_net, wait = [], -1, math.inf, net.copy(), 0
    for epoch in range(cfg.max_epochs):
        perm = rng.permutation(len(data))
        losses = []
        for start in range(0, len(data), cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            out, acts = forward(work, data.x[idx])
            diff = out - data.y[idx]
            losses.append(float(np.mean(diff ** 2)))
            adam.step(work.params, backward(work, acts, 2.0 * diff / diff.size)[0])
        val_loss = float(np.mean((forward(work, val.x)[0] - val.y) ** 2))
        history.append((float(np.mean(losses)), val_loss))
        if val_loss < best_val:
            best_val, best_epoch, best_net, wait = val_loss, epoch, work.copy(), 0
        else:
            wait += 1
            if wait > cfg.patience:
                break
    return best_net, history, best_epoch, best_val


@pytest.mark.parametrize("sizes, n, batch, epochs", [
    ([5, 16, 1], 203, 32, 75),  # 6 full batches and a remainder of 11: 525 steps
    ([9, 32, 32, 1], 203, 32, 75),
    ([4, 8, 3], 96, 32, 20),  # no remainder
    ([3, 6, 1], 20, 64, 30),  # one batch, smaller than the batch size
], ids=["5-16-1", "9-32-32-1", "4-8-3", "3-6-1"])
def test_bound_train_bit_equal_to_unbound_steps(sizes, n, batch, epochs):
    """`nnet.train`'s bound full and remainder batches against the unbound
    passes and Adam: best parameters, history and best epoch byte for byte."""
    rng = np.random.default_rng([n, *sizes])
    x = rng.normal(size=(n + 40, sizes[0]))
    y = np.tanh(x[:, :sizes[-1]] * 1.5) + 0.1 * rng.normal(size=(n + 40, sizes[-1]))
    data, val = SupervisedDataset(x[:n], y[:n]), SupervisedDataset(x[n:], y[n:])
    net = Mlp(sizes, seed=len(sizes))
    cfg = TrainConfig(learning_rate=0.01, batch_size=batch, max_epochs=epochs, patience=epochs,
                      seed=9)
    res = train(net, data, val, cfg)
    best, history, best_epoch, best_val = ref_train(net, data, val, cfg)
    assert len(history) == epochs
    assert res.net.params.tobytes() == best.params.tobytes()
    assert repr(res.history) == repr(history)
    assert (res.best_epoch, repr(res.best_val_loss)) == (best_epoch, repr(best_val))


def test_adam_step_bit_equal_to_out_of_place_formula():
    """1,000 in-place steps on the scratch vectors against the out-of-place
    formula, moments and parameters byte for byte after every step, with
    gradients spanning the subnormal range to 1e3, zeros of both signs, the
    smallest subnormal, and one 1e300 whose square overflows."""
    rng = np.random.default_rng(1000)
    n, lr = 64, 1e-3
    params = rng.normal(size=n)
    want, m, v = params.copy(), np.zeros(n), np.zeros(n)
    adam = Adam(n, lr)
    with np.errstate(over="ignore"):
        for t in range(1, 1001):
            g = rng.normal(size=n) * 10.0 ** rng.uniform(-320.0, 3.0, size=n)
            g[t % n], g[(t + 1) % n], g[(t + 2) % n] = -0.0, 0.0, -5e-324
            if t == 500:
                g[7] = 1e300
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g ** 2
            m_hat = m / (1.0 - 0.9 ** t)
            v_hat = v / (1.0 - 0.999 ** t)
            want = want - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            adam.step(params, g)
            assert adam.m.tobytes() == m.tobytes() and adam.v.tobytes() == v.tobytes(), t
            assert params.tobytes() == want.tobytes(), t
    assert np.isinf(v[7]) and np.isfinite(params).all()


# ---------------------------------------------------------------------------
# BPTT
# ---------------------------------------------------------------------------

def _normalized(row, mean, std):
    return [(f - m) / s for f, m, s in zip(row, mean.tolist(), std.tolist())]


class RefControllerBlock:
    def __init__(self, nc):
        self.nc = nc

    def forward(self, k, w, y_window, u_window):
        nc = self.nc
        out, acts = ref_forward_cached(nc.mlp, _normalized(nc.features(w, y_window, u_window),
                                                           nc.feat_mean, nc.feat_std))
        z = float(out[0])
        return nc.center + nc.half_span * math.tanh(z), (z, acts)

    def reverse(self, k, cache, u_bar, ybar_w, ubar_w):
        nc, m = self.nc, self.nc.memory
        z, acts = cache
        dz = u_bar * nc.half_span * (1.0 - math.tanh(z) ** 2)
        grads, gf = ref_backward(nc.mlp, acts, [dz])
        df = gf / nc.feat_std
        ybar_w += df[1:m + 1][::-1]
        ubar_w += df[m + 1:][::-1]
        return grads


class RefSchedulerBlock:
    def __init__(self, gs, dt, limits, horizon):
        self.gs, self.dt, self.limits = gs, dt, limits
        self.es = [0.0] * gs.memory
        self.ebar = np.zeros(gs.memory + horizon)
        self.s_int = 0.0
        self.sbar = 0.0

    def forward(self, k, w, y_window, u_window):
        gs, m, (u_lo, u_hi) = self.gs, self.gs.memory, self.limits
        e_k = w - y_window[-1]
        self.es.append(e_k)
        out, acts = ref_forward_cached(gs.mlp, _normalized(gs.features(self.es[-m:], y_window),
                                                           gs.feat_mean, gs.feat_std))
        sig = [1.0 / (1.0 + e) for e in
               np.exp([-min(max(z, -60.0), 60.0) for z in out.tolist()]).tolist()]
        kp, ki, _ = [lo + s * (hi - lo) for s, (lo, hi) in zip(sig, gs.bounds.tolist())]
        inc = ki * e_k * self.dt
        s_cand = self.s_int + inc
        u_raw = kp * e_k + s_cand
        sat = 1 if u_raw > u_hi else -1 if u_raw < u_lo else 0
        frozen = sat != 0 and (inc * sat > 0.0)
        if not frozen:
            self.s_int = s_cand
        u_k = u_hi if sat > 0 else u_lo if sat < 0 else u_raw
        return u_k, (sig, acts, kp, ki, sat, frozen)

    def reverse(self, k, cache, u_bar, ybar_w, ubar_w):
        gs, m, dt = self.gs, self.gs.memory, self.dt
        sig, acts, kp, ki, sat, frozen = cache
        e_k = self.es[m + k]
        du_raw = u_bar if sat == 0 else 0.0
        ds_cand = du_raw + (0.0 if frozen else self.sbar)
        ds_prev = ds_cand + (self.sbar if frozen else 0.0)
        self.ebar[m + k] += du_raw * kp + ds_cand * ki * dt
        self.sbar = ds_prev
        dz = [d * s * (1.0 - s) * (hi - lo) for d, s, (lo, hi)
              in zip((du_raw * e_k, ds_cand * e_k * dt, 0.0), sig, gs.bounds.tolist())]
        grads, gf = ref_backward(gs.mlp, acts, dz)
        df = gf / gs.feat_std
        self.ebar[k + 1:m + k + 1] += df[:m][::-1]
        ybar_w += df[m:][::-1]
        ybar_w[-1] -= self.ebar[m + k]
        return grads


def ref_predict(narx, y_window, u_window):
    row = [*y_window[-narx.p:][::-1], *u_window[-narx.q:][::-1]]
    xn = _normalized(row, narx.x_mean, narx.x_std)
    out, acts = ref_forward_cached(narx.mlp, xn)
    return float(out[0]) * float(narx.y_std[0]) + float(narx.y_mean[0]), acts


def ref_bptt_loss_and_grad(target, narx, w_seq, horizon, rho, limits):
    """The rollout on numpy records, adding each step's gradient into `pgrads`."""
    w_seq = np.asarray(w_seq, dtype=float)
    if isinstance(target, NeuralController):
        block = RefControllerBlock(target)
    else:
        block = RefSchedulerBlock(target, narx.dt, limits, horizon)
    p, q, m = narx.p, narx.q, target.memory
    pad_y = max(p, m)
    pad_u = max(q - 1, m, 1)
    ys = np.zeros(pad_y + horizon)
    us = np.zeros(pad_u + horizon)
    caches = []
    loss_track = 0.0
    loss_du = 0.0
    for k in range(horizon):
        iy, iu = pad_y - 1 + k, pad_u + k
        u_k, cache = block.forward(k, w_seq[k], ys[iy - m + 1:iy + 1].tolist(),
                                   us[iu - m:iu].tolist())
        us[iu] = u_k
        y_next, acts_s = ref_predict(narx, ys[iy - p + 1:iy + 1].tolist(),
                                     us[iu - q + 1:iu + 1].tolist())
        if not math.isfinite(y_next):
            raise SimulationDiverged("surrogate rollout diverged", step=k)
        ys[iy + 1] = y_next
        loss_track += (y_next - w_seq[k + 1]) ** 2
        loss_du += (u_k - us[iu - 1]) ** 2
        caches.append((cache, acts_s))
    loss = loss_track / horizon + rho * loss_du / horizon

    ybar = np.zeros_like(ys)
    ubar = np.zeros_like(us)
    pgrads = np.zeros(target.mlp.n_params)
    for k in range(horizon - 1, -1, -1):
        iy, iu = pad_y - 1 + k, pad_u + k
        cache, acts_s = caches[k]
        ybar[iy + 1] += 2.0 * (ys[iy + 1] - w_seq[k + 1]) / horizon
        du = us[iu] - us[iu - 1]
        ubar[iu] += 2.0 * rho * du / horizon
        ubar[iu - 1] -= 2.0 * rho * du / horizon
        _, gx = ref_backward(narx.mlp, acts_s, [float(ybar[iy + 1]) * float(narx.y_std[0])])
        fbar_s = gx / narx.x_std
        ybar[iy - p + 1:iy + 1] += fbar_s[:p][::-1]
        ubar[iu - q + 1:iu + 1] += fbar_s[p:][::-1]
        pgrads += block.reverse(k, cache, float(ubar[iu]), ybar[iy - m + 1:iy + 1],
                                ubar[iu - m:iu])
    return loss, pgrads


@pytest.mark.parametrize("kind", ["controller", "scheduler"])
def test_bptt_bit_equal_to_per_step_gradient_sum(kind):
    """p, q, m over {1,2,4} x {1,3,6} x {1,2,4}, four seeds, limits that
    saturate or never bind: loss and gradient byte-equal. Some seeds zero
    the output layer, so that many per-step terms are zeros of either sign."""
    horizon, rho = 30, 0.05
    cases = 0
    for p, q, m in itertools.product((1, 2, 4), (1, 3, 6), (1, 2, 4)):
        for seed in range(4):
            rng = np.random.default_rng([p, q, m, seed, 7])
            narx = random_narx(p, q, (5,), seed)
            n = 1 + 2 * m if kind == "controller" else 2 * m
            stats = {"feat_mean": rng.normal(size=n) * 0.1,
                     "feat_std": rng.uniform(0.5, 2.0, size=n)}
            if kind == "controller":
                target = NeuralController(Mlp([n, 6, 1], seed=seed), u_min=-1.5, u_max=2.0,
                                          memory=m, **stats)
            else:
                target = GainScheduler(Mlp([n, 5, 3], seed=seed),
                                       bounds=[[0.1, 3.0], [0.05, 2.0], [0.0, 0.5]], memory=m,
                                       **stats)
            if seed == 3:
                target.mlp.weights[-1][:, ::2] = 0.0
            w_seq = np.concatenate([np.zeros(2), np.full(horizon - 1, rng.uniform(0.5, 1.5))])
            w_seq += rng.normal(size=horizon + 1) * 0.05
            for limits in ((-0.4, 0.4), (-50.0, 50.0)):
                want = ref_bptt_loss_and_grad(target, narx, w_seq, horizon, rho, limits)
                [(loss, grads)] = bptt_loss_and_grad(target, narx, [w_seq], horizon, rho, limits)
                assert np.float64(loss).tobytes() == np.float64(want[0]).tobytes(), (p, q, m, seed)
                assert grads.tobytes() == want[1].tobytes(), (p, q, m, seed, limits)
                cases += 1
    assert cases == 216


def _bptt_case(kind, hidden, m, seed):
    rng = np.random.default_rng([m, seed, 11])
    n = 1 + 2 * m if kind == "controller" else 2 * m
    stats = {"feat_mean": rng.normal(size=n) * 0.1, "feat_std": rng.uniform(0.5, 2.0, size=n)}
    if kind == "controller":
        return NeuralController(Mlp([n, *hidden, 1], seed=seed), u_min=-1.5, u_max=2.0,
                                memory=m, **stats)
    return GainScheduler(Mlp([n, *hidden, 3], seed=seed),
                         bounds=[[0.1, 3.0], [0.05, 2.0], [0.0, 0.5]], memory=m, **stats)


def _assert_bptt_bit_equal(target, narx, w_seq, horizon, rho, limits, what):
    want = ref_bptt_loss_and_grad(target, narx, w_seq, horizon, rho, limits)
    [(loss, grads)] = bptt_loss_and_grad(target, narx, [w_seq], horizon, rho, limits)
    assert np.float64(loss).tobytes() == np.float64(want[0]).tobytes(), what
    assert grads.tobytes() == want[1].tobytes(), what


def test_bptt_bit_equal_where_the_shortcut_gives_negative_zero():
    """Rollouts whose one-output shortcut products are zeros, -0.0 where
    the reference's gemv gives +0.0: a surrogate with zeroed output weights
    tracking its own constant output (every surrogate adjoint g = +0.0, so
    every controller adjoint is 0.0 against weights of both signs), a
    controller with zeroed output weights (its g of both signs), and a
    scheduler saturated at every step (u_bar never reaches its PI core)."""
    horizon = 25
    for seed in range(3):
        rng = np.random.default_rng([seed, 13])
        w_seq = np.concatenate([np.zeros(2), np.full(horizon - 1, 1.0)])
        w_seq += rng.normal(size=horizon + 1) * 0.05

        flat = random_narx(2, 3, (5,), seed)
        flat.mlp.weights[-1][...] = 0.0
        level = float(flat.mlp.biases[-1][0]) * float(flat.y_std[0]) + float(flat.y_mean[0])
        for kind in ("controller", "scheduler"):
            target = _bptt_case(kind, [6], 2, seed)
            assert (target.mlp.weights[-1] < 0.0).any()
            _assert_bptt_bit_equal(target, flat, np.full(horizon + 1, level), horizon, 0.0,
                                   (-50.0, 50.0), (kind, "g = +0.0", seed))

        narx = random_narx(2, 3, (5,), seed)
        target = _bptt_case("controller", [6], 2, seed)
        target.mlp.weights[-1][...] = 0.0
        _assert_bptt_bit_equal(target, narx, w_seq, horizon, 0.05, (-50.0, 50.0),
                               ("zeroed controller output", seed))

        target = _bptt_case("scheduler", [6], 2, seed)
        _assert_bptt_bit_equal(target, narx, w_seq, horizon, 0.05, (0.5, 0.6),
                               ("saturated scheduler", seed))


@pytest.mark.parametrize("kind", ["controller", "scheduler"])
def test_bptt_bit_equal_on_a_linear_surrogate_and_a_deeper_target(kind):
    """A surrogate with no hidden layer (its input adjoint is the shortcut
    alone, and it has no slopes to stack) under a target with two hidden
    layers, and a hidden surrogate under a target with none."""
    horizon = 30
    for seed in range(3):
        rng = np.random.default_rng([seed, 17])
        w_seq = np.concatenate([np.zeros(2), np.full(horizon - 1, rng.uniform(0.5, 1.5))])
        w_seq += rng.normal(size=horizon + 1) * 0.05
        for narx, hidden in ((_identity_narx(), [6, 4]), (random_narx(2, 2, (), seed), [7, 5]),
                             (random_narx(2, 3, (5,), seed), [])):
            for m in (1, 3):
                target = _bptt_case(kind, hidden, m, seed)
                for limits in ((-0.4, 0.4), (-50.0, 50.0)):
                    _assert_bptt_bit_equal(target, narx, w_seq, horizon, 0.05, limits,
                                           (narx.mlp.layer_sizes, hidden, m, limits, seed))


def _references(rng, n_ep, horizon):
    """n_ep step references of their own levels and noise."""
    return [np.concatenate([np.zeros(2), np.full(horizon - 1, rng.uniform(-1.5, 1.5))])
            + rng.normal(size=horizon + 1) * 0.05 for _ in range(n_ep)]


@pytest.mark.parametrize("kind", ["controller", "scheduler"])
def test_lockstep_episodes_bit_equal_to_each_episode_alone(kind):
    """Lockstep rollouts of 1, 2, 3 and 5 episodes on one set of weights:
    each episode's loss and gradient byte-equal to `ref_bptt_loss_and_grad`
    on that episode alone, for a hidden surrogate under a target with one
    hidden layer, the linear surrogates under deeper targets and a hidden
    surrogate under a target with none, and limits that saturate the PI
    core or never bind."""
    horizon, rho = 30, 0.05
    cases = 0
    for seed in range(2):
        rng = np.random.default_rng([seed, 19])
        for narx, hidden in ((random_narx(2, 3, (5,), seed), [6]), (_identity_narx(), [6, 4]),
                             (random_narx(2, 2, (), seed), [7, 5]),
                             (random_narx(2, 3, (5,), seed), [])):
            for m in (1, 3):
                target = _bptt_case(kind, hidden, m, seed)
                for n_ep, limits in itertools.product((1, 2, 3, 5), ((-0.4, 0.4), (-50.0, 50.0))):
                    w_seqs = _references(rng, n_ep, horizon)
                    got = bptt_loss_and_grad(target, narx, w_seqs, horizon, rho, limits)
                    for i, (w_seq, (loss, grads)) in enumerate(zip(w_seqs, got, strict=True)):
                        want = ref_bptt_loss_and_grad(target, narx, w_seq, horizon, rho, limits)
                        what = (narx.mlp.layer_sizes, hidden, m, n_ep, i, limits, seed)
                        assert np.float64(loss).tobytes() == np.float64(want[0]).tobytes(), what
                        assert grads.tobytes() == want[1].tobytes(), what
                        cases += 1
    assert cases == 2 * 4 * 2 * 2 * 11


def ref_train_bptt(target, narx, refs, horizon, cfg, limits, rho):
    """`train_bptt`'s epoch rule on the reference rollout and Adam: each
    epoch, every episode's gradient alone at the epoch's start weights, then,
    in the seeded permutation's order, one update from each finite one, its
    norm clipped at 1."""
    work = target.copy()
    rng = np.random.default_rng(cfg.seed)
    adam = UnboundAdam(work.mlp.n_params, cfg.learning_rate)
    history, skipped = [], []
    for _ in range(cfg.max_epochs):
        order = rng.permutation(len(refs))
        start = work.copy()
        pairs = [ref_bptt_loss_and_grad(start, narx, refs[i], horizon, rho, limits) for i in order]
        losses = []
        for loss, g in pairs:
            if not math.isfinite(loss):
                continue
            norm = float(np.linalg.norm(g))
            if norm > 1.0:
                g = g * (1.0 / norm)
            adam.step(work.mlp.params, g)
            losses.append(loss)
        history.append(float(np.mean(losses)) if losses else math.nan)
        skipped.append(len(refs) - len(losses))
    return work, history, skipped


@pytest.mark.parametrize("kind", ["controller", "scheduler"])
def test_train_bptt_bit_equal_to_the_epoch_rule(kind):
    """`train_bptt` over 1 to 4 references and 6 epochs against the rule
    run on the reference rollout and Adam: final weights, history and
    skipped counts byte for byte; some of the controller's gradients pass
    the clip, the scheduler's stay below it."""
    horizon = 25
    for seed, n_ep, lr in ((0, 4, 0.02), (1, 3, 0.2), (2, 1, 0.05), (3, 2, 0.01)):
        rng = np.random.default_rng([seed, 23])
        narx = random_narx(2, 3, (5,), seed)
        target = _bptt_case(kind, [6], 2, seed)
        refs = _references(rng, n_ep, horizon)
        cfg = TrainConfig(learning_rate=lr, batch_size=32, max_epochs=6, patience=10_000,
                          seed=seed + 3)
        res = train_bptt(target, narx, refs, horizon, cfg, (-1.0, 1.0), 0.05)
        work, history, skipped = ref_train_bptt(target, narx, refs, horizon, cfg, (-1.0, 1.0),
                                                0.05)
        assert res.trained.mlp.params.tobytes() == work.mlp.params.tobytes(), seed
        assert repr(res.history) == repr(history) and res.skipped == skipped == [0] * 6, seed
