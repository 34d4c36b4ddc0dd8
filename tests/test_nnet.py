import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from loopbench.errors import NumericalFailure
from loopbench.nnet import (
    STD_FLOOR, Adam, Mlp, SupervisedDataset, TrainConfig, feature_stats, load_model,
    load_weights, mse, normalize, save_model, save_weights, train,
)
from loopbench.neuro import GainScheduler, NeuralController
from loopbench.surrogate import NarxModel


def grad(net, x, y):
    """Gradient of the mean squared error over the batch through one
    `batch_pass`, laid out like `net.params`, and the loss."""
    x, y = np.atleast_2d(x), np.atleast_2d(y)
    grads = np.full(net.n_params, np.nan)
    bp = net.batch_pass(len(x), grads)
    bp.x[...] = x
    bp.forward()
    diff = bp.out - y
    bp.g[...] = 2.0 * diff / diff.size
    net.backward(bp)
    return grads, float(np.mean(diff ** 2))


def fd_gradient(net, x, y, h=1e-5):
    """Central-difference oracle for the mean-squared-error gradient."""
    base = net.params.copy()
    out = np.zeros_like(base)
    for i in range(base.size):
        net.params[i] = base[i] + h
        hi = mse(net, x, y)
        net.params[i] = base[i] - h
        lo = mse(net, x, y)
        net.params[i] = base[i]
        out[i] = (hi - lo) / (2.0 * h)
    return out


def max_rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def test_zero_network_outputs_bias():
    net = Mlp([2, 3, 2], init=False)
    net.biases[-1][...] = [0.5, -1.25]
    assert np.allclose(net.forward(np.array([3.0, -7.0])), [0.5, -1.25])


def test_hand_computed_1_1_1():
    net = Mlp([1, 1, 1], init=False)
    net.weights[0][:] = 1.0
    net.weights[1][:] = 2.0
    out = net.forward(np.array([0.5]))
    assert out[0] == pytest.approx(2.0 * math.tanh(0.5), abs=1e-6)
    assert out[0] == pytest.approx(0.924234, abs=1e-6)


def test_tanh_oddness_zero_bias():
    net = Mlp([2, 8, 1], seed=3)
    for b in net.biases:
        b[:] = 0.0
    x = np.array([0.3, -1.1])
    assert net.forward(-x)[0] == pytest.approx(-net.forward(x)[0], abs=1e-12)


def test_dimension_mismatch_rejected():
    net = Mlp([3, 2])
    with pytest.raises(ValueError):
        net.forward(np.zeros(4))


def test_grad_zero_at_stationary_zero():
    net = Mlp([2, 4, 1], init=False)
    grads, loss = grad(net, np.zeros((5, 2)), np.zeros((5, 1)))
    assert loss == 0.0
    assert np.all(grads == 0.0)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    for seed, sizes in [(0, [2, 5, 1]), (1, [3, 4, 4, 2]), (2, [1, 8, 1])]:
        net = Mlp(sizes, seed=seed)
        x = rng.normal(size=(6, sizes[0]))
        y = rng.normal(size=(6, sizes[-1]))
        grads, _ = grad(net, x, y)
        assert max_rel_err(grads, fd_gradient(net, x, y)) < 1e-4


def test_grad_invariant_under_sample_duplication():
    rng = np.random.default_rng(1)
    net = Mlp([2, 6, 1], seed=4)
    x = rng.normal(size=(4, 2))
    y = rng.normal(size=(4, 1))
    g1 = grad(net, x, y)[0]
    g2 = grad(net, np.vstack([x, x]), np.vstack([y, y]))[0]
    assert np.allclose(g1, g2, atol=1e-14)


def test_train_fits_linear_map():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, size=(100, 1))
    y = 2.0 * x
    data = SupervisedDataset(x[:75], y[:75])
    val = SupervisedDataset(x[75:], y[75:])
    net = Mlp([1, 8, 1], seed=0)
    res = train(net, data, val, TrainConfig(learning_rate=0.01, batch_size=25,
                                            max_epochs=2000, patience=2000, seed=0))
    rmse = math.sqrt(mse(res.net, val.x, val.y))
    assert rmse < 0.01


def test_train_zero_epochs_returns_initialization():
    net = Mlp([1, 4, 1], seed=7)
    data = SupervisedDataset(np.zeros((4, 1)), np.zeros((4, 1)))
    res = train(net, data, data, TrainConfig(max_epochs=0, learning_rate=1e-2, batch_size=32,
                                             patience=10_000, seed=0))
    assert np.array_equal(res.net.params, net.params)


def test_train_deterministic_history():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 2))
    y = rng.normal(size=(40, 1))
    data, val = SupervisedDataset(x[:30], y[:30]), SupervisedDataset(x[30:], y[30:])
    cfg = TrainConfig(learning_rate=5e-3, batch_size=8, max_epochs=25, seed=11, patience=10_000)
    h1 = train(Mlp([2, 6, 1], seed=1), data, val, cfg).history
    h2 = train(Mlp([2, 6, 1], seed=1), data, val, cfg).history
    assert h1 == h2


def test_train_divergence_raises_with_epoch():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 1)) * 100.0
    y = rng.normal(size=(20, 1)) * 100.0
    data = SupervisedDataset(x, y)
    with np.errstate(all="ignore"), pytest.raises(NumericalFailure, match=r"^non-finite loss \(epoch 0\)$"):
        train(Mlp([1, 4, 1], seed=0), data, data,
              TrainConfig(learning_rate=1e200, batch_size=4, max_epochs=50, seed=0,
                          patience=10_000))


def test_train_loss_monotone_first_steps_on_convex_problem():
    # linear net (no hidden layer) + small lr: full-batch loss non-increasing
    rng = np.random.default_rng(4)
    x = rng.normal(size=(30, 2))
    y = x @ np.array([[1.0], [-2.0]]) + 0.3
    net = Mlp([2, 1], seed=0)
    adam = Adam(net.n_params, lr=1e-3)
    losses = []
    for _ in range(11):
        grads, loss = grad(net, x, y)
        losses.append(loss)
        adam.step(net.params, grads)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_normalization_round_trip():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(50, 3)) * 7.0 + 2.0
    mean, std = x.mean(axis=0), x.std(axis=0)
    assert np.allclose(normalize(x, mean, std) * std + mean, x, atol=1e-12)


def test_feature_stats_std_floor_guards_constant_features():
    x = np.ones((10, 2))
    mean, std = feature_stats(x)
    assert np.all(std == STD_FLOOR)
    assert np.all(normalize(x, mean, std) == 0.0)


def test_param_count():
    net = Mlp([3, 5, 2])
    assert net.n_params == (3 * 5 + 5) + (5 * 2 + 2)


def test_weights_file_round_trip(tmp_path):
    net = Mlp([2, 7, 3], seed=9)
    path = tmp_path / "net.weights"
    save_weights(net, path)
    loaded = load_weights(path)
    assert loaded.layer_sizes == net.layer_sizes
    assert np.array_equal(loaded.params, net.params)
    # byte-identical re-save
    save_weights(loaded, tmp_path / "net2.weights")
    assert (tmp_path / "net.weights").read_bytes() == (tmp_path / "net2.weights").read_bytes()


def _model(kind):
    """A model of `kind` with non-trivial normalization stats; the `-aux`
    kinds carry a disturbance head."""
    rng = np.random.default_rng(4)

    def stats(n):
        return rng.normal(size=n), rng.uniform(0.1, 3.0, size=n)

    if kind == "narx":
        return NarxModel(Mlp([5, 6, 1], seed=1), 3, 2, 0.05, *stats(5), *stats(1))
    if kind.startswith("controller"):
        aux = Mlp([4, 2], seed=3) if kind.endswith("-aux") else None
        return NeuralController(Mlp([7, 6, 4, 1], seed=2), -1.5, 2.5, 3, *stats(7), aux=aux)
    return GainScheduler(Mlp([6, 5, 3], seed=4), [[0.1, 2.0], [0.0, 1.0], [0.0, 0.3]], 3,
                         *stats(6))


@pytest.mark.parametrize("kind", ["narx", "controller", "controller-aux", "scheduler"])
def test_model_file_save_load_save_is_byte_identical(tmp_path, kind):
    model = _model(kind)
    save_model(model, tmp_path / "a.weights", extras={"mode": "test", "rho": 0.1})
    back = load_model(tmp_path / "a.weights", type(model))
    save_model(back, tmp_path / "b.weights", extras={"mode": "test", "rho": 0.1})
    for suffix in ("weights", "weights.meta.json"):
        assert (tmp_path / f"a.{suffix}").read_bytes() == (tmp_path / f"b.{suffix}").read_bytes()
    meta = json.loads((tmp_path / "a.weights.meta.json").read_text())
    assert meta["kind"] == type(model).KIND
    assert meta["training"] == {"mode": "test", "rho": 0.1}
    assert ("aux_w" in meta) == kind.endswith("-aux")


# ---------------------------------------------------------------------------
# one parameter vector: weights and biases are views into `params`
# ---------------------------------------------------------------------------

def _assert_views_of_params(net):
    for w, b in zip(net.weights, net.biases):
        assert np.shares_memory(net.params, w)
        assert np.shares_memory(net.params, b)
    marker = np.arange(net.n_params, dtype=float)
    net.params[...] = marker
    flat = np.concatenate([np.concatenate([w.ravel(), b]) for w, b in zip(net.weights, net.biases)])
    assert np.array_equal(flat, marker)


def test_params_views_after_init_copy_and_load(tmp_path):
    net = Mlp([3, 5, 4, 2], seed=1)
    save_weights(net, tmp_path / "net.weights")
    loaded = load_weights(tmp_path / "net.weights")
    assert np.array_equal(loaded.params, net.params)
    for each in (net, net.copy(), loaded):
        _assert_views_of_params(each)


def test_copy_shares_no_memory_with_source():
    net = Mlp([2, 4, 1], seed=3)
    dup = net.copy()
    for a in [dup.params, *dup.weights, *dup.biases]:
        for b in [net.params, *net.weights, *net.biases]:
            assert not np.shares_memory(a, b)
    dup.params += 1.0
    assert np.array_equal(net.params, Mlp([2, 4, 1], seed=3).params)


def test_backward_gradient_is_laid_out_like_params():
    rng = np.random.default_rng(6)
    net = Mlp([3, 4, 2], seed=2)
    x = rng.normal(size=(5, 3))
    g = rng.normal(size=(5, 2))
    grads = np.full(net.n_params, np.nan)
    bp = net.batch_pass(5, grads)
    bp.x[...] = x
    bp.forward()
    bp.g[...] = g
    net.backward(bp)
    acts = bp.acts
    gz = (g @ net.weights[1]) * (1.0 - acts[1] ** 2)
    # layer 0: W (4x3) then b (4); layer 1: W (2x4) then b (2)
    assert grads.shape == net.params.shape
    assert np.array_equal(grads[:12].reshape(4, 3), gz.T @ x)
    assert np.array_equal(grads[12:16], gz.sum(axis=0))
    assert np.array_equal(grads[16:24].reshape(2, 4), g.T @ acts[1])
    assert np.array_equal(grads[24:], g.sum(axis=0))


def _adam_reference(params, grad_seq, lr, beta1, beta2, eps):
    """Out-of-place Adam (Kingma & Ba, Alg. 1) in the operation order of the
    update rule; the in-place step must reproduce it bit for bit."""
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    for t, g in enumerate(grad_seq, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g ** 2
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        params = params - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def test_adam_in_place_step_equals_reference_bit_for_bit():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        scale = 10.0 ** rng.uniform(-6, 3)
        start = rng.normal(size=n)
        grad_seq = [rng.normal(size=n) * scale for _ in range(int(rng.integers(1, 30)))]
        lr = 10.0 ** rng.uniform(-4, -1)
        params = start.copy()
        adam = Adam(n, lr)
        for g in grad_seq:
            assert adam.step(params, g) is None
        assert np.array_equal(params, _adam_reference(start, grad_seq, lr, 0.9, 0.999, 1e-8))


def interleaved_backward(net, acts, grad_out, extra=None):
    """Reverse pass with parameter gradients and adjoints interleaved layer by
    layer; splitting the adjoint chain out must not move a bit."""
    g = np.atleast_2d(np.asarray(grad_out, dtype=float))
    parts = [g.sum(axis=0), (g.T @ acts[-1]).ravel()]
    ga = g @ net.weights[-1]
    if extra is not None:
        ga = ga + np.atleast_2d(extra)
    for l in range(len(net.weights) - 2, -1, -1):
        gz = ga * (1.0 - acts[l + 1] ** 2)
        parts += [gz.sum(axis=0), (gz.T @ acts[l]).ravel()]
        ga = gz @ net.weights[l]
    return np.concatenate(parts[::-1]), ga


@pytest.mark.bits
@pytest.mark.parametrize("sizes", [[3, 1], [4, 6, 1], [5, 7, 4, 3]])
def test_backward_and_adjoints_bit_equal_to_interleaved_pass(sizes):
    """A `batch_pass`'s activations, parameter gradient and pre-activation
    adjoints (through the input adjoint they give) against `forward_cached`
    and the interleaved reverse pass."""
    rng = np.random.default_rng(len(sizes))
    for seed in range(10):
        net = Mlp(sizes, seed=seed)
        rows = int(rng.integers(1, 6))
        _, acts = net.forward_cached(rng.normal(size=(rows, sizes[0])) * 3.0)
        g = rng.normal(size=(rows, sizes[-1]))
        extra = rng.normal(size=(rows, sizes[-2])) if seed % 2 and len(sizes) > 2 else None
        want_grads, want_ga = interleaved_backward(net, acts, g, extra)
        grads = np.empty(net.n_params)
        bp = net.batch_pass(rows, grads)
        bp.x[...] = acts[0]
        bp.forward()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(bp.acts, acts, strict=True))
        bp.g[...] = g
        net.backward(bp, extra)
        assert grads.tobytes() == want_grads.tobytes()
        assert np.dot(bp.gzs[0], net.weights[0]).tobytes() == want_ga.tobytes()
        assert len(bp.gzs) == len(net.weights)



# ---------------------------------------------------------------------------
# one single-row path: a 1-D row rounds exactly as a one-row (1, n) batch
# ---------------------------------------------------------------------------

def matmul_forward_cached(net, x):
    """Batch forward with `@` products, as a one-row (1, n) batch for 1-D `x`."""
    a = np.atleast_2d(np.asarray(x, dtype=float))
    acts = [a]
    for l in range(len(net.weights) - 1):
        a = np.tanh(a @ net.weights[l].T + net.biases[l])
        acts.append(a)
    return a @ net.weights[-1].T + net.biases[-1], acts


# no, one, two and three hidden layers; widths up to 64; 1- and 3-wide outputs
ROW_SHAPES = [[3, 1], [1, 5, 1], [6, 16, 1], [8, 8, 3], [4, 64, 3], [9, 32, 32, 1],
              [5, 7, 4, 3], [3, 64, 64, 1], [9, 32, 32, 32, 1], [2, 64, 48, 64, 3]]


@pytest.mark.bits
@pytest.mark.parametrize("sizes", ROW_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_row_path_bit_equal_to_one_row_batch(sizes):
    """forward and forward_cached on a 1-D row against the same calls on the
    (1, n) batch, a one-row `batch_pass` and the `@` reference, and the
    row's parameter gradient (`summed_row_gradient` over the one-row pass's
    adjoint stacks) against `backward` on that pass and the interleaved
    reference: outputs, activations, input adjoints and parameter gradients
    bit for bit."""
    rng = np.random.default_rng(sizes)
    for seed in range(30):
        net = Mlp(sizes, seed=seed)
        for b in net.biases:
            b[...] = rng.normal(size=b.shape) * 0.5
        x = rng.normal(size=sizes[0]) * (1e-3, 1.0, 50.0)[seed % 3]
        g = rng.normal(size=sizes[-1])
        extra = rng.normal(size=sizes[-2]) if seed % 2 and len(sizes) > 2 else None
        extra_b = None if extra is None else extra[None, :]

        out, acts = net.forward_cached(x)
        out_b, acts_b = net.forward_cached(x[None, :])
        out_r, acts_r = matmul_forward_cached(net, x)
        assert out.shape == (sizes[-1],) and all(a.ndim == 1 for a in acts)
        assert net.forward(x).tobytes() == out.tobytes() == out_b.tobytes() == out_r.tobytes()
        for a, a_b, a_r in zip(acts, acts_b, acts_r, strict=True):
            assert a.tobytes() == a_b.tobytes() == a_r.tobytes()

        grads_b = np.empty(net.n_params)
        bp = net.batch_pass(1, grads_b)
        bp.x[0] = x
        bp.forward()
        assert bp.out[0].tobytes() == out.tobytes()
        assert all(a.tobytes() == a_b[0].tobytes() for a, a_b in zip(acts, bp.acts, strict=True))
        bp.g[0] = g
        net.backward(bp, extra_b)
        grads = net.summed_row_gradient(bp.gzs, bp.acts)
        grads_r, gx_r = interleaved_backward(net, acts_r, g, extra)
        gx = np.dot(bp.gzs[0], net.weights[0])[0]
        assert grads.shape == net.params.shape and gx.shape == (sizes[0],)
        assert grads.tobytes() == grads_b.tobytes() == grads_r.tobytes()
        assert gx.tobytes() == gx_r.tobytes()

        # batches of several rows: np.dot products against the `@` reference
        xs = rng.normal(size=(1 + seed % 7, sizes[0]))
        out_b, acts_b = net.forward_cached(xs)
        out_r, acts_r = matmul_forward_cached(net, xs)
        assert out_b.tobytes() == out_r.tobytes()
        assert all(a.tobytes() == a_r.tobytes() for a, a_r in zip(acts_b, acts_r))


@pytest.mark.bits
@pytest.mark.parametrize("k", [1, 2, 3, 7, 750])
@pytest.mark.parametrize("sizes", [s for s in ROW_SHAPES if 3 <= len(s) <= 5],
                         ids=lambda s: "-".join(map(str, s)))
def test_stacked_pass_bit_equal_to_forward_cached_per_row(sizes, k):
    """k rows through one `stacked_pass` binding, called again and again on
    fresh rows of magnitudes 1e-3 to 50, some holding a NaN or an infinity,
    return one flat list of floats holding row by row the bits of
    `forward_cached(normalize(row, mean, std))` on each row alone, and leave
    every activation of each row, the normalized input first, in `acts`: one
    row runs on 1-D buffers (a gemv per layer), more on (k, 1, n) stacks,
    whose products make one gemv per row, as a 2-D matrix product would not.
    Every buffer is overwritten with junk between calls, so no call reads
    what the last one left, and the binding keeps copies of the stats, so
    writes to them after binding change nothing."""
    rng = np.random.default_rng([k, *sizes])
    n, n_out = sizes[0], sizes[-1]
    for seed in range(3):
        net = Mlp(sizes, seed=seed)
        for b in net.biases:
            b[...] = rng.normal(size=b.shape) * 0.5
        mean, std = rng.normal(size=n) * 0.3, rng.uniform(0.5, 2.0, size=n)
        acts, run = net.stacked_pass(k, mean, std)
        want_mean, want_std = mean.copy(), std.copy()
        mean += 1.0
        std *= 2.0
        assert [a.shape for a in acts] == [(m,) if k == 1 else (k, 1, m) for m in sizes[:-1]]
        for call in range(3):
            for buf in acts:
                buf[...] = (math.nan, math.inf, 1e300)[call]
            xs = rng.normal(size=(k, n)) * rng.choice([1e-3, 1.0, 50.0], size=(k, 1))
            bad = rng.random(k) < 0.2
            xs[bad, rng.integers(n, size=bad.sum())] = rng.choice([math.nan, math.inf, -math.inf],
                                                                 size=bad.sum())
            got = run(xs.ravel().tolist())
            assert type(got) is list and len(got) == k * n_out
            for i, x in enumerate(xs):
                out, want = net.forward_cached(normalize(x, want_mean, want_std))
                assert np.array(got[i * n_out:(i + 1) * n_out]).tobytes() == out.tobytes()
                assert all(a.reshape(k, -1)[i].tobytes() == w.tobytes()
                           for a, w in zip(acts, want, strict=True))
    with pytest.raises(ValueError):
        net.stacked_pass(0, mean, std)


@pytest.mark.bits
@pytest.mark.parametrize("sizes", [s for s in ROW_SHAPES if 3 <= len(s) <= 5],
                         ids=lambda s: "-".join(map(str, s)))
def test_row_pass_bit_equal_to_forward_cached(sizes):
    """One one-row `stacked_pass` binding, called again and again on rows of
    magnitudes 1e-3 to 50 and on rows holding a NaN or an infinity, gives the
    bits of `forward_cached` on the row normalized by `normalize`, output and
    every activation: the 1-D `np.dot` with `out=`, the bias and tanh in
    place and the in-place normalization round as the fresh arrays do. The
    binding keeps copies of the stats, and reads the weights and biases
    through their views, so an in-place parameter write reaches its next
    call."""
    rng = np.random.default_rng([5, *sizes])
    n = sizes[0]
    for seed in range(3):
        net = Mlp(sizes, seed=seed)
        for b in net.biases:
            b[...] = rng.normal(size=b.shape) * 0.5
        mean, std = rng.normal(size=n) * 0.3, rng.uniform(0.5, 2.0, size=n)
        acts, run = net.stacked_pass(1, mean, std)
        want_mean, want_std = mean.copy(), std.copy()
        mean += 1.0
        std *= 2.0
        for k in range(90):
            if k == 45:
                net.params *= 0.5
            row = rng.normal(size=n) * (1e-3, 1.0, 50.0)[k % 3]
            if k % 10 == 9:
                row[k % n] = (math.nan, math.inf, -math.inf)[k % 3]
            got = run(row.tolist())
            out, want = net.forward_cached(normalize(row, want_mean, want_std))
            assert type(got) is list and len(got) == sizes[-1]
            assert np.array(got).tobytes() == out.tobytes()
            assert all(a.tobytes() == w.tobytes() for a, w in zip(acts, want, strict=True))


# an AVX2 OpenBLAS core and numpy's SIMD dispatch capped below AVX-512 (x86-64-v3)
PORTABLE_PROFILE = {"OPENBLAS_CORETYPE": "Haswell",
                    "NPY_DISABLE_CPU_FEATURES": "AVX512_ICL,AVX512_SPR,X86_V4"}


# the bit tests the portable-profile run must include, whatever else carries the marker
PORTABLE_REQUIRED = (
    "test_nnet.py::test_row_path_bit_equal_to_one_row_batch",
    "test_nnet.py::test_backward_and_adjoints_bit_equal_to_interleaved_pass",
    "test_nnet.py::test_stacked_pass_bit_equal_to_forward_cached_per_row",
    "test_nnet.py::test_row_pass_bit_equal_to_forward_cached",
    "test_surrogate.py::test_surrogate_stacked_pass_bit_equal_to_predict_one",
    "test_surrogate.py::test_held_out_one_step_rmse_bit_equal_to_predict_one",
    "test_surrogate.py::test_reused_surrogate_stacked_pass_bit_equal_to_predict_one",
    "test_surrogate.py::test_predict_one_bit_equal_to_array_form",
    "test_surrogate.py::test_narx_rollout_bit_equal_to_array_form",
    "test_neuro.py::test_episode_cost_bit_equal_to_array_form",
    "test_neuro.py::test_lockstep_costs_match_array_form_per_episode",
    "test_neuro.py::test_lockstep_loop_costs_match_the_generator_and_array_forms",
    "test_neuro.py::test_nelder_mead_matches_the_sequential_search",
    "test_training_bits.py::",
    "test_neuro.py::test_control_loop_step_bit_equal_to_array_form",
    "test_neuro.py::test_gains_from_bit_equal_to_array_form",
    "test_simcore.py::test_float_state_rk4_matches_array_branch_bitwise",
    "test_simcore.py::test_float_sensor_reading_matches_apply_sensor_bitwise",
    "test_simcore.py::test_vector_sensor_reading_matches_apply_sensor_bitwise",
    "test_simcore.py::test_simulate_sensor_readings_match_apply_sensor_bitwise",
    "test_dataio.py::test_read_timeseries_matches_the_per_line_reference",
    "test_dataio.py::test_read_timeseries_matches_the_per_line_reference_on_fuzz_mutants",
    "test_closed_loop_bits.py::",
)


def test_row_path_bit_equal_under_the_portable_profile():
    """Every test marked `bits` (the row-vs-batch, stacked-row and lockstep
    tests, the training-step, plant, sensor and closed-loop block bit tests
    and the trajectory reader's reference tests) again, in a fresh
    interpreter under the portable profile: both variables are read once,
    when numpy and OpenBLAS load. Each must pass; none may be skipped."""
    here = os.path.dirname(os.path.abspath(__file__))
    script = ("import sys, pytest\n"
              "from numpy._core._multiarray_umath import __cpu_features__ as cpu\n"
              "assert not cpu.get('X86_V4'), 'AVX-512 dispatch was not disabled'\n"
              "sys.exit(pytest.main(sys.argv[1:]))\n")
    run = subprocess.run([sys.executable, "-c", script, "-v", "-p", "no:cacheprovider",
                          "-m", "bits", here],
                         env={**os.environ, **PORTABLE_PROFILE}, cwd=os.path.dirname(here),
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
    outcomes = re.findall(r"^tests/(\S+?::.*) ([A-Z]+) +\[ *\d+%\]$", run.stdout, re.M)
    assert outcomes and all(outcome == "PASSED" for _, outcome in outcomes), outcomes
    summary = run.stdout.strip().splitlines()[-1]
    assert f" {len(outcomes)} passed" in summary and "skipped" not in summary, summary
    names = {test.split("[")[0] for test, _ in outcomes}
    missing = [name for name in PORTABLE_REQUIRED if name not in names
               and not (name.endswith("::") and any(n.startswith(name) for n in names))]
    assert not missing, f"not run under the portable profile: {missing}"
