import numpy as np
import pytest

from loopbench.dataio import ExcitationSpec, generate_excitation
from loopbench.errors import MustResample, RolloutDiverged, TooShort
from loopbench.nnet import Mlp, TrainConfig, denormalize, normalize, train
from loopbench.simcore import Fopdt, PlantModel, SignalController, SimConfig, simulate
from loopbench.surrogate import (
    HybridModel, NarxModel, fit_hybrid, fit_surrogate, hybrid_predict, lag_features,
    load_narx, make_regression_dataset, narx_rollout, save_narx,
)


class _Series:
    def __init__(self, t, y, u):
        self.t, self.y, self.u = t, y, u


def _linear_map_series(n=1000, seed=0, u=None):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, size=n) if u is None else u
    y = np.zeros(len(u))
    y[0] = 1.0
    for k in range(len(u) - 1):
        y[k + 1] = 0.9 * y[k] + 0.1 * u[k]
    return _Series(np.arange(len(u)) * 1.0, y, u)


def _fopdt_prbs_series():
    plant = PlantModel(Fopdt(gain=1.0, tau=1.0, dead_time=0.5), u_min=-2.0, u_max=2.0)
    cfg = SimConfig(dt=0.5, horizon=400.0, seed=1)
    exc = generate_excitation(
        ExcitationSpec(variant="prbs", order=9, amplitude=1.0, bit_period=1.0, seed=2), cfg)
    return simulate(plant, SignalController(exc), 0.0, cfg=cfg)


def test_dataset_row_count():
    s = _Series(np.arange(5) * 1.0, np.arange(5) * 1.0, np.zeros(5))
    ds = make_regression_dataset(s, 1, 1)
    assert len(ds) == 3


def test_dataset_constant_series_targets():
    s = _Series(np.arange(12) * 1.0, np.full(12, 3.5), np.zeros(12))
    ds = make_regression_dataset(s, 2, 1)
    assert np.all(ds.y == 3.5)


def test_dataset_rows_reproduce_source_exactly():
    s = _linear_map_series(n=30)
    ds = make_regression_dataset(s, 2, 2)
    k0 = 2
    for i in range(len(ds)):
        k = k0 + i
        assert np.array_equal(ds.x[i], lag_features(s.y, s.u, k, 2, 2))
        assert ds.y[i, 0] == s.y[k + 1]


def test_dataset_linear_relation_is_exactly_solvable():
    s = _linear_map_series(n=200)
    ds = make_regression_dataset(s, 2, 2)
    coef, *_ = np.linalg.lstsq(np.hstack([ds.x, np.ones((len(ds), 1))]), ds.y, rcond=None)
    resid = ds.x @ coef[:-1] + coef[-1] - ds.y
    assert float(np.max(np.abs(resid))) < 1e-10


def test_dataset_requires_uniform_sampling():
    t = np.array([0.0, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7])
    s = _Series(t, np.zeros(7), np.zeros(7))
    with pytest.raises(MustResample):
        make_regression_dataset(s, 1, 1)


def test_dataset_too_short():
    s = _Series(np.arange(4) * 1.0, np.zeros(4), np.zeros(4))
    with pytest.raises(TooShort):
        make_regression_dataset(s, 2, 2)


def test_fit_surrogate_fopdt_prbs_quality():
    traj = _fopdt_prbs_series()
    model, rep = fit_surrogate(
        traj, 2, 2,
        TrainConfig(learning_rate=0.01, batch_size=64, max_epochs=500, patience=100, seed=0),
        hidden=(32,))
    assert rep.one_step_rmse < 0.01 * rep.output_range
    assert rep.rollout_rmse < 0.05 * rep.output_range
    assert rep.n_train > 0 and rep.n_val > 0
    assert len(rep.u_histogram) == 10


def test_fit_surrogate_constant_data_predicts_the_constant():
    s = _Series(np.arange(60) * 1.0, np.full(60, 2.0), np.zeros(60))
    model, _ = fit_surrogate(s, 1, 1, TrainConfig(max_epochs=5, seed=0), hidden=(4,))
    pred = model.predict_one(np.array([2.0]), np.array([0.0]))
    assert pred == pytest.approx(2.0, abs=1e-6)


def test_fit_surrogate_deterministic_report():
    s = _linear_map_series(n=200)
    cfg = TrainConfig(learning_rate=0.01, batch_size=32, max_epochs=30, seed=5)
    _, r1 = fit_surrogate(s, 1, 1, cfg, hidden=(8,))
    _, r2 = fit_surrogate(s, 1, 1, cfg, hidden=(8,))
    assert r1.one_step_rmse == r2.one_step_rmse
    assert r1.rollout_rmse == r2.rollout_rmse


def _decay_surrogate():
    # coverage visits the tested trajectory: drive y to 1, then release to 0
    rng = np.random.default_rng(0)
    segs = []
    for _ in range(8):
        segs.append(rng.uniform(-1.0, 1.0, size=80))
        segs.append(np.ones(30))
        segs.append(np.zeros(70))
    s = _linear_map_series(u=np.concatenate(segs))
    model, _ = fit_surrogate(
        s, 1, 1,
        TrainConfig(learning_rate=5e-3, batch_size=64, max_epochs=2000, patience=2000, seed=0),
        hidden=(24,))
    # low-rate refinement pass for the free-run tail accuracy
    n_tr = int(np.floor(len(s.y) * 0.75))
    tr_ds = make_regression_dataset(_Series(s.t[:n_tr], s.y[:n_tr], s.u[:n_tr]), 1, 1)
    va_ds = make_regression_dataset(_Series(s.t[n_tr:], s.y[n_tr:], s.u[n_tr:]), 1, 1) \
        .with_stats_of(tr_ds)
    res = train(model.mlp, tr_ds.normalized(), va_ds.normalized(),
                TrainConfig(learning_rate=3e-4, batch_size=64, max_epochs=2500,
                            patience=2500, seed=1))
    return NarxModel(res.net, 1, 1, 1.0, tr_ds.x_mean, tr_ds.x_std, tr_ds.y_mean, tr_ds.y_std)


def test_rollout_tracks_geometric_decay():
    model = _decay_surrogate()
    roll = narx_rollout(model, [1.0], np.zeros(50))
    exact = 0.9 ** np.arange(1, 51)
    assert float(np.max(np.abs(roll - exact) / exact)) < 0.05


def test_rollout_stays_near_equilibrium():
    s = _linear_map_series(n=600, seed=3)
    model, _ = fit_surrogate(s, 1, 1, TrainConfig(learning_rate=0.01, batch_size=64,
                                                  max_epochs=400, patience=400, seed=0),
                             hidden=(16,))
    roll = narx_rollout(model, [0.0], np.zeros(30))
    assert float(np.max(np.abs(roll))) < 0.05


def test_rollout_length_one_equals_one_step():
    s = _linear_map_series(n=300)
    model, _ = fit_surrogate(s, 2, 2, TrainConfig(max_epochs=20, seed=0), hidden=(8,))
    y_win = np.array([0.4, 0.5])
    u_win = np.array([0.1])
    roll = narx_rollout(model, y_win, [0.2], u_init=u_win)
    one = model.predict_one(y_win, np.array([0.1, 0.2]))
    assert roll[0] == one


def test_rollout_diverged_carries_step():
    mlp = Mlp([2, 2, 1], init=False)
    mlp.weights[1][:] = 1e308  # force overflow after a couple of feedbacks
    mlp.weights[0][:] = 1.0
    model = NarxModel(mlp, 1, 1, 1.0, np.zeros(2), np.ones(2), np.zeros(1), np.full(1, 1e308))
    with np.errstate(all="ignore"), pytest.raises(RolloutDiverged):
        narx_rollout(model, [1.0], np.zeros(10))


def test_one_step_error_not_worse_than_rollout():
    traj = _fopdt_prbs_series()
    _, rep = fit_surrogate(traj, 2, 2,
                           TrainConfig(learning_rate=0.01, batch_size=64, max_epochs=200,
                                       patience=100, seed=0), hidden=(16,))
    assert rep.one_step_rmse <= rep.rollout_rmse + 1e-12


def test_hybrid_zero_residual_equals_physics():
    def physics(y_win, u_win):
        return 0.9 * y_win[-1] + 0.1 * u_win[-1]

    model = HybridModel(physics=physics, residual=Mlp([2, 4, 1], init=False),
                        p=1, q=1, x_mean=np.zeros(2), x_std=np.ones(2))
    for y0, u0 in [(0.0, 0.0), (1.0, -1.0), (-3.0, 2.0), (100.0, 5.0)]:
        assert hybrid_predict(model, [y0], [u0]) == physics([y0], [u0])


def test_hybrid_beats_pure_narx_on_extrapolation():
    # true map trained inside |u| <= 1; evaluated at inputs 1.5x beyond the range
    def true_map(y, u):
        return 0.9 * y + 0.1 * u

    s = _linear_map_series(n=800, seed=2)
    cfg = TrainConfig(learning_rate=0.01, batch_size=64, max_epochs=300, patience=300, seed=0)
    narx, _ = fit_surrogate(s, 1, 1, cfg, hidden=(16,))
    hybrid = fit_hybrid(s, lambda yw, uw: true_map(yw[-1], uw[-1]), 1, 1, cfg, hidden=(8,))

    rng = np.random.default_rng(9)
    y_test = rng.uniform(-1.0, 1.0, size=200)
    u_test = rng.uniform(1.0, 1.5, size=200) * rng.choice([-1.0, 1.0], size=200)
    err_narx, err_hybrid = [], []
    for y0, u0 in zip(y_test, u_test):
        truth = true_map(y0, u0)
        err_narx.append(narx.predict_one([y0], [u0]) - truth)
        err_hybrid.append(hybrid_predict(hybrid, [y0], [u0]) - truth)
    rmse_narx = float(np.sqrt(np.mean(np.square(err_narx))))
    rmse_hybrid = float(np.sqrt(np.mean(np.square(err_hybrid))))
    assert rmse_hybrid <= rmse_narx


def test_hybrid_zero_physics_degenerates_to_residual():
    res_net = Mlp([2, 6, 1], seed=2)
    model = HybridModel(physics=lambda yw, uw: 0.0, residual=res_net, p=1, q=1,
                        x_mean=np.zeros(2), x_std=np.ones(2))
    pred = hybrid_predict(model, [0.3], [0.7])
    assert pred == pytest.approx(float(res_net.forward(np.array([0.3, 0.7]))[0]))


def test_narx_save_load_round_trip(tmp_path):
    s = _linear_map_series(n=200)
    model, _ = fit_surrogate(s, 2, 2, TrainConfig(max_epochs=10, seed=0), hidden=(6,))
    save_narx(model, tmp_path / "sur.weights")
    back = load_narx(tmp_path / "sur.weights")
    y_win, u_win = np.array([0.1, 0.2]), np.array([0.3, -0.4])
    assert back.predict_one(y_win, u_win) == model.predict_one(y_win, u_win)
    assert back.dt == model.dt and back.p == model.p and back.q == model.q


# ---------------------------------------------------------------------------
# float lag windows: bit-for-bit against the all-array form
# ---------------------------------------------------------------------------

def array_predict_one(model, y_window, u_window):
    """One-step prediction on numpy arrays: feature row, normalization,
    single-row forward and denormalization as whole-array operations."""
    feat = np.concatenate([np.asarray(y_window, dtype=float)[-model.p:][::-1],
                           np.asarray(u_window, dtype=float)[-model.q:][::-1]])
    a = np.atleast_2d(np.asarray(normalize(feat, model.x_mean, model.x_std), dtype=float))
    net = model.mlp
    for l in range(net.n_layers - 1):
        a = np.tanh(a @ net.weights[l].T + net.biases[l])
    z = (a @ net.weights[-1].T + net.biases[-1])[0]
    return float(denormalize(z, model.y_mean, model.y_std)[0])


def array_rollout(model, y_init, u_seq, u_init=None):
    """`narx_rollout` with its lag windows rebuilt as arrays on every step."""
    y_hist = list(np.asarray(y_init, dtype=float))
    u_hist = list(np.asarray(u_init, dtype=float)) if u_init is not None else [0.0] * (model.q - 1)
    out = np.empty(len(u_seq))
    for i, u_now in enumerate(np.asarray(u_seq, dtype=float)):
        u_hist.append(float(u_now))
        y_next = array_predict_one(model, np.array(y_hist), np.array(u_hist))
        if not np.isfinite(y_next):
            raise RolloutDiverged("non-finite prediction", step=i)
        out[i] = y_next
        y_hist.append(y_next)
        y_hist = y_hist[-model.p:]
        u_hist = u_hist[-model.q:]
    return out


# (p, q, hidden): q = 1 leaves the older-input window empty; p > q, p < q and
# one or two hidden layers
NARX_SHAPES = [(1, 1, (6,)), (2, 1, (5, 4)), (3, 2, (7,)), (3, 1, (4, 6)), (2, 3, (5, 5)),
               (2, 2, (8,))]


def random_narx(p, q, hidden, seed, y_std=None):
    """A seeded untrained surrogate with non-trivial normalization stats."""
    rng = np.random.default_rng(seed)
    n = p + q
    return NarxModel(Mlp([n, *hidden, 1], seed=seed), p, q, 0.1,
                     x_mean=rng.normal(size=n) * 0.3, x_std=rng.uniform(0.05, 3.0, size=n),
                     y_mean=rng.normal(size=1),
                     y_std=np.array([rng.uniform(0.1, 5.0) if y_std is None else y_std]))


@pytest.mark.parametrize("p, q, hidden", NARX_SHAPES)
def test_predict_one_bit_equal_to_array_form(p, q, hidden):
    rng = np.random.default_rng(100 * p + 10 * q + len(hidden))
    for seed in range(5):
        model = random_narx(p, q, hidden, seed)
        for _ in range(200):
            # windows longer than the lag orders: only the newest samples count
            y_win = (rng.normal(size=p + 2) * rng.choice([1e-3, 1.0, 50.0])).tolist()
            u_win = (rng.normal(size=q + 1) * rng.choice([1e-3, 1.0, 50.0])).tolist()
            want = array_predict_one(model, y_win, u_win)
            assert model.predict_one(y_win, u_win) == want
            assert model.predict_one(np.array(y_win), np.array(u_win)) == want


@pytest.mark.parametrize("p, q, hidden", NARX_SHAPES)
def test_narx_rollout_bit_equal_to_array_form(p, q, hidden):
    rng = np.random.default_rng(7 * p + q)
    for seed in range(4):
        model = random_narx(p, q, hidden, seed)
        y_init = rng.normal(size=p + seed)
        u_seq = rng.uniform(-2.0, 2.0, size=60)
        u_init = rng.normal(size=q - 1 + seed % 2) if seed % 3 else None
        got = narx_rollout(model, y_init, u_seq, u_init=u_init)
        want = array_rollout(model, y_init, u_seq, u_init=u_init)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_narx_rollout_diverges_at_the_array_form_step():
    # features at their means give a zero hidden layer and the output y_mean;
    # once that feeds back, the 1e3-scaled output overflows
    model = random_narx(2, 1, (5,), seed=1, y_std=1e306)
    model.mlp.weights[-1][...] = 1e3
    y_init = [model.x_mean[1], model.x_mean[0]]  # chronological, features newest first
    u_seq = np.full(20, model.x_mean[2])
    with np.errstate(all="ignore"):
        with pytest.raises(RolloutDiverged) as want:
            array_rollout(model, y_init, u_seq)
        with pytest.raises(RolloutDiverged) as got:
            narx_rollout(model, y_init, u_seq)
    assert got.value.step == want.value.step > 0
    assert str(got.value) == str(want.value)


def test_narx_rollout_empty_input_sequence():
    model = random_narx(2, 2, (4,), seed=0)
    out = narx_rollout(model, [0.0, 0.0], [])
    assert out.shape == (0,) and out.dtype == np.float64
