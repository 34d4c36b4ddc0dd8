import math

import numpy as np
import pytest

from loopbench.errors import TrainingDiverged
from loopbench.nnet import (
    Adam, Mlp, SupervisedDataset, TrainConfig, denormalize, grad,
    load_weights, mse, normalize, save_weights, train,
)


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
    res = train(net, data, data, TrainConfig(max_epochs=0))
    assert np.array_equal(res.net.params, net.params)


def test_train_deterministic_history():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 2))
    y = rng.normal(size=(40, 1))
    data, val = SupervisedDataset(x[:30], y[:30]), SupervisedDataset(x[30:], y[30:])
    cfg = TrainConfig(learning_rate=5e-3, batch_size=8, max_epochs=25, seed=11)
    h1 = train(Mlp([2, 6, 1], seed=1), data, val, cfg).history
    h2 = train(Mlp([2, 6, 1], seed=1), data, val, cfg).history
    assert h1 == h2


def test_train_divergence_raises_with_epoch():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 1)) * 100.0
    y = rng.normal(size=(20, 1)) * 100.0
    data = SupervisedDataset(x, y)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
        train(Mlp([1, 4, 1], seed=0), data, data,
              TrainConfig(learning_rate=1e200, batch_size=4, max_epochs=50, seed=0))


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
    assert np.allclose(denormalize(normalize(x, mean, std), mean, std), x, atol=1e-12)


def test_dataset_std_floor_guards_constant_features():
    ds = SupervisedDataset(np.ones((10, 2)), np.zeros((10, 1)))
    assert np.all(ds.x_std >= 1e-12)
    z = ds.normalized()
    assert np.all(z.x == 0.0)


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
    out, acts = net.forward_cached(x)
    grads, _ = net.backward(acts, g)
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
        lr, beta1, beta2 = 10.0 ** rng.uniform(-4, -1), rng.uniform(0.5, 0.99), rng.uniform(0.9, 0.9999)
        params = start.copy()
        adam = Adam(n, lr, beta1, beta2)
        for g in grad_seq:
            assert adam.step(params, g) is None
        assert np.array_equal(params, _adam_reference(start, grad_seq, lr, beta1, beta2, 1e-8))


def _interleaved_backward(net, acts, grad_out, extra=None):
    """Reverse pass with parameter gradients and adjoints interleaved layer by
    layer; splitting the adjoint chain out must not move a bit."""
    g = np.atleast_2d(np.asarray(grad_out, dtype=float))
    parts = [g.sum(axis=0), (g.T @ acts[-1]).ravel()]
    ga = g @ net.weights[-1]
    if extra is not None:
        ga = ga + np.atleast_2d(extra)
    for l in range(net.n_layers - 2, -1, -1):
        gz = ga * (1.0 - acts[l + 1] ** 2)
        parts += [gz.sum(axis=0), (gz.T @ acts[l]).ravel()]
        ga = gz @ net.weights[l]
    return np.concatenate(parts[::-1]), ga


@pytest.mark.parametrize("sizes", [[3, 1], [4, 6, 1], [5, 7, 4, 3]])
def test_backward_and_adjoints_bit_equal_to_interleaved_pass(sizes):
    rng = np.random.default_rng(len(sizes))
    for seed in range(10):
        net = Mlp(sizes, seed=seed)
        rows = int(rng.integers(1, 6))
        _, acts = net.forward_cached(rng.normal(size=(rows, sizes[0])) * 3.0)
        g = rng.normal(size=(rows, sizes[-1]))
        extra = rng.normal(size=(rows, sizes[-2])) if seed % 2 and len(sizes) > 2 else None
        want_grads, want_ga = _interleaved_backward(net, acts, g, extra)
        grads, ga = net.backward(acts, g, extra_last_hidden_grad=extra)
        gzs, ga_only = net.adjoints(acts, g, extra_last_hidden_grad=extra)
        assert grads.tobytes() == want_grads.tobytes()
        assert ga.tobytes() == want_ga.tobytes() == ga_only.tobytes()
        assert len(gzs) == net.n_layers

