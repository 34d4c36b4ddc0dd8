import numpy as np
import pytest

from loopbench.dataio import ExcitationSpec, generate_excitation, split_contiguous
from loopbench.errors import DataError, MustResample, SimulationDiverged
from loopbench.nnet import Mlp, SupervisedDataset, TrainConfig, feature_stats, load_model, normalize, \
    save_model, train
from loopbench.simcore import Fopdt, PlantModel, SignalController, SimConfig, simulate
from loopbench.surrogate import (
    NarxModel, fit_surrogate, lag_features, make_regression_dataset, narx_rollout,
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
    plant = PlantModel(Fopdt(gain=1.0, tau=1.0, dead_time=0.5), u_min=-2.0, u_max=2.0, x0=None)
    cfg = SimConfig(dt=0.5, horizon=400.0, seed=1)
    exc = generate_excitation(
        ExcitationSpec(variant="prbs", order=9, amplitude=1.0, bit_period=1.0, seed=2,
                       levels=(), dwell=1.0, f0=0.1, f1=1.0, duration=None), cfg,
        limits=(-np.inf, np.inf))
    return simulate(plant, SignalController(exc), 0.0, cfg=cfg)


def test_dataset_row_count():
    ds = make_regression_dataset(np.arange(5) * 1.0, np.zeros(5), 1, 1)
    assert len(ds) == 3


def test_dataset_constant_series_targets():
    ds = make_regression_dataset(np.full(12, 3.5), np.zeros(12), 2, 1)
    assert np.all(ds.y == 3.5)


def test_dataset_rows_reproduce_source_exactly():
    """Each windowed row is `lag_features` of the samples up to its step, and
    its target the next output, for equal and unequal lag orders."""
    s = _linear_map_series(n=30)
    for p, q in ((1, 1), (2, 1), (1, 3), (4, 2)):
        ds = make_regression_dataset(s.y, s.u, p, q)
        k0 = max(p, q)
        assert len(ds) == 30 - 1 - k0
        for i in range(len(ds)):
            k = k0 + i
            want = lag_features(s.y[:k + 1], s.u[:k + 1], p, q)
            assert ds.x[i].tobytes() == np.array(want).tobytes()
            assert ds.y[i, 0] == s.y[k + 1]


def test_dataset_linear_relation_is_exactly_solvable():
    s = _linear_map_series(n=200)
    ds = make_regression_dataset(s.y, s.u, 2, 2)
    coef, *_ = np.linalg.lstsq(np.hstack([ds.x, np.ones((len(ds), 1))]), ds.y, rcond=None)
    resid = ds.x @ coef[:-1] + coef[-1] - ds.y
    assert float(np.max(np.abs(resid))) < 1e-10


def test_dataset_requires_uniform_sampling():
    t = np.array([0.0, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7])
    s = _Series(t, np.zeros(7), np.zeros(7))
    with pytest.raises(MustResample):
        fit_surrogate(s, 1, 1, TrainConfig(max_epochs=5, seed=0, learning_rate=1e-2,
                                           batch_size=32, patience=10_000),
                      hidden=(4,), val_fraction=0.25, resampled=False)


def test_dataset_too_short():
    """A 16-sample record split 12/4: the held-out block is too short for
    p = q = 2, and the fit names it."""
    with pytest.raises(DataError, match="^the held-out block of the record has 4 samples; "
                                        "p = 2, q = 2 need at least 6$"):
        fit_surrogate(_linear_map_series(16), 2, 2,
                      TrainConfig(learning_rate=1e-2, batch_size=32, max_epochs=5, patience=10,
                                  seed=0), hidden=(4,), val_fraction=0.25, resampled=False)


def test_fit_surrogate_fopdt_prbs_quality():
    traj = _fopdt_prbs_series()
    model, rep = fit_surrogate(
        traj, 2, 2,
        TrainConfig(learning_rate=0.01, batch_size=64, max_epochs=500, patience=100, seed=0),
        hidden=(32,), val_fraction=0.25, resampled=False)
    assert rep.one_step_rmse < 0.01 * rep.output_range
    assert rep.rollout_rmse < 0.05 * rep.output_range
    assert rep.n_train > 0 and rep.n_val > 0
    assert len(rep.u_histogram) == 10


def test_fit_surrogate_constant_data_predicts_the_constant():
    s = _Series(np.arange(60) * 1.0, np.full(60, 2.0), np.zeros(60))
    model, _ = fit_surrogate(s, 1, 1, TrainConfig(max_epochs=5, seed=0,
                                                  learning_rate=1e-2, batch_size=32,
                                                  patience=10_000), hidden=(4,),
                             val_fraction=0.25, resampled=False)
    pred = model.predict_one([2.0, 0.0])
    assert pred == pytest.approx(2.0, abs=1e-6)


def test_fit_surrogate_deterministic_report():
    s = _linear_map_series(n=200)
    cfg = TrainConfig(learning_rate=0.01, batch_size=32, max_epochs=30, seed=5, patience=10_000)
    _, r1 = fit_surrogate(s, 1, 1, cfg, hidden=(8,), val_fraction=0.25, resampled=False)
    _, r2 = fit_surrogate(s, 1, 1, cfg, hidden=(8,), val_fraction=0.25, resampled=False)
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
        hidden=(24,), val_fraction=0.25, resampled=False)
    # low-rate refinement pass for the free-run tail accuracy
    n_tr = split_contiguous(len(s.y), 0.25)
    tr_ds = make_regression_dataset(s.y[:n_tr], s.u[:n_tr], 1, 1)
    va_ds = make_regression_dataset(s.y[n_tr:], s.u[n_tr:], 1, 1)
    x_mean, x_std = feature_stats(tr_ds.x)
    y_mean, y_std = feature_stats(tr_ds.y)
    tr_n, va_n = (SupervisedDataset(normalize(ds.x, x_mean, x_std), normalize(ds.y, y_mean, y_std))
                  for ds in (tr_ds, va_ds))
    res = train(model.mlp, tr_n, va_n,
                TrainConfig(learning_rate=3e-4, batch_size=64, max_epochs=2500,
                            patience=2500, seed=1))
    return NarxModel(res.net, 1, 1, 1.0, x_mean, x_std, y_mean, y_std)


def test_rollout_tracks_geometric_decay():
    model = _decay_surrogate()
    roll = narx_rollout(model, [1.0], np.zeros(50), u_init=[])
    exact = 0.9 ** np.arange(1, 51)
    assert float(np.max(np.abs(roll - exact) / exact)) < 0.05


def test_rollout_stays_near_equilibrium():
    s = _linear_map_series(n=600, seed=3)
    model, _ = fit_surrogate(s, 1, 1, TrainConfig(learning_rate=0.01, batch_size=64,
                                                  max_epochs=400, patience=400, seed=0),
                             hidden=(16,), val_fraction=0.25, resampled=False)
    roll = narx_rollout(model, [0.0], np.zeros(30), u_init=[])
    assert float(np.max(np.abs(roll))) < 0.05


def test_rollout_length_one_equals_one_step():
    s = _linear_map_series(n=300)
    model, _ = fit_surrogate(s, 2, 2, TrainConfig(max_epochs=20, seed=0,
                                                  learning_rate=1e-2, batch_size=32,
                                                  patience=10_000), hidden=(8,),
                             val_fraction=0.25, resampled=False)
    y_win = np.array([0.4, 0.5])
    u_win = np.array([0.1])
    roll = narx_rollout(model, y_win, [0.2], u_init=u_win)
    one = model.predict_one(lag_features(y_win, [0.1, 0.2], 2, 2))
    assert roll[0] == one


def test_rollout_diverged_carries_step():
    mlp = Mlp([2, 2, 1], init=False)
    mlp.weights[1][:] = 1e308  # the first prediction already overflows
    mlp.weights[0][:] = 1.0
    model = NarxModel(mlp, 1, 1, 1.0, np.zeros(2), np.ones(2), np.zeros(1), np.full(1, 1e308))
    with np.errstate(all="ignore"), pytest.raises(SimulationDiverged,
                                                  match=r"^non-finite prediction \(step 0\)$") as exc:
        narx_rollout(model, [1.0], np.zeros(10), u_init=[])
    assert exc.value.step == 0


def test_one_step_error_not_worse_than_rollout():
    traj = _fopdt_prbs_series()
    _, rep = fit_surrogate(traj, 2, 2,
                           TrainConfig(learning_rate=0.01, batch_size=64, max_epochs=200,
                                       patience=100, seed=0), hidden=(16,), val_fraction=0.25,
                           resampled=False)
    assert rep.one_step_rmse <= rep.rollout_rmse + 1e-12


def test_narx_save_load_round_trip(tmp_path):
    s = _linear_map_series(n=200)
    model, _ = fit_surrogate(s, 2, 2, TrainConfig(max_epochs=10, seed=0,
                                                  learning_rate=1e-2, batch_size=32,
                                                  patience=10_000), hidden=(6,),
                             val_fraction=0.25, resampled=False)
    save_model(model, tmp_path / "sur.weights")
    back = load_model(tmp_path / "sur.weights", NarxModel)
    row = [0.2, 0.1, -0.4, 0.3]
    assert back.predict_one(row) == model.predict_one(row)
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
    for l in range(len(net.weights) - 1):
        a = np.tanh(a @ net.weights[l].T + net.biases[l])
    z = (a @ net.weights[-1].T + net.biases[-1])[0]
    return float((z * model.y_std + model.y_mean)[0])


def array_rollout(model, y_init, u_seq, u_init):
    """`narx_rollout` with its lag windows rebuilt as arrays on every step."""
    y_hist = list(np.asarray(y_init, dtype=float))
    u_hist = list(np.asarray(u_init, dtype=float))
    out = np.empty(len(u_seq))
    for i, u_now in enumerate(np.asarray(u_seq, dtype=float)):
        u_hist.append(float(u_now))
        y_next = array_predict_one(model, np.array(y_hist), np.array(u_hist))
        if not np.isfinite(y_next):
            raise SimulationDiverged("non-finite prediction", step=i)
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


@pytest.mark.bits
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
            assert model.predict_one(lag_features(y_win, u_win, p, q)) == want
            assert model.predict_one(lag_features(np.array(y_win), np.array(u_win), p, q)) == want


def stacked_predictions(model, run, rows):
    """The feature rows through `run`, a `model.mlp.stacked_pass` binding of
    as many rows, as one flat list, each output denormalized on floats as
    `predict_one` does."""
    got = run([v for row in rows for v in row])
    assert len(got) == len(rows) and all(type(v) is float for v in got)
    return [v * model._y_std + model._y_mean for v in got]


@pytest.mark.bits
@pytest.mark.parametrize("p, q, hidden", NARX_SHAPES)
def test_surrogate_stacked_pass_bit_equal_to_predict_one(p, q, hidden):
    """k feature rows through one `mlp.stacked_pass(k, x_mean, x_std)`
    binding of the surrogate, each output denormalized on floats, give the
    bits of `predict_one` on each; k = 1 is a fresh binding of the one-row
    pass that `predict_one` and the AI search's lone episode run on."""
    rng = np.random.default_rng(10 * p + q + 1000 * len(hidden))
    for seed in range(3):
        model = random_narx(p, q, hidden, seed)
        for k in (1, 2, 3, 7, 750):
            rows = [lag_features((rng.normal(size=p + 2) * rng.choice([1e-3, 1.0, 50.0])).tolist(),
                                 (rng.normal(size=q + 1) * rng.choice([1e-3, 1.0, 50.0])).tolist(),
                                 p, q) for _ in range(k)]
            _, run = model.mlp.stacked_pass(k, model.x_mean, model.x_std)
            got = stacked_predictions(model, run, rows)
            assert got == [model.predict_one(row) for row in rows]


@pytest.mark.bits
@pytest.mark.parametrize("p, q, hidden", NARX_SHAPES)
def test_reused_surrogate_stacked_pass_bit_equal_to_predict_one(p, q, hidden):
    """One stacked binding of the surrogate called on fresh feature rows of
    scales that differ call to call, then on fewer than k fresh rows whose
    last one fills the spare rows (as the AI search pads the rows of
    episodes that have left), then on k again: every prediction is
    `predict_one`'s, so no call reads a row another call left in the
    buffers."""
    rng = np.random.default_rng(100 + 10 * p + q)
    for seed, k in enumerate((2, 3, 12)):
        model = random_narx(p, q, hidden, seed)
        _, run = model.mlp.stacked_pass(k, model.x_mean, model.x_std)
        for count in (k, k, k, k - 1, 1, k):
            scale = rng.choice([1e-3, 1.0, 50.0])
            rows = [(rng.normal(size=p + q) * scale).tolist() for _ in range(count)]
            rows += rows[-1:] * (k - count)
            got = stacked_predictions(model, run, rows)
            assert got == [model.predict_one(row) for row in rows]


@pytest.mark.bits
@pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (1, 3), (3, 2)])
def test_held_out_one_step_rmse_bit_equal_to_predict_one(p, q):
    """`fit_surrogate`'s held-out one-step RMSE, from the validation rows in
    one stacked pass, which normalizes them, is the RMSE of `predict_one`
    over the feature row of every window pair of the held-out block, bit for
    bit. The hidden layers are 32 wide, where one 2-D matrix product over
    the rows rounds differently."""
    s = _linear_map_series(n=400, seed=p + 10 * q)
    cfg = TrainConfig(learning_rate=1e-2, batch_size=32, max_epochs=15, patience=10_000, seed=p)
    model, rep = fit_surrogate(s, p, q, cfg, hidden=(32, 32), val_fraction=0.3, resampled=False)
    n_train = split_contiguous(len(s.y), 0.3)
    val_y, val_u = s.y[n_train:], s.u[n_train:]
    ys, us, k0 = val_y.tolist(), val_u.tolist(), max(p, q)
    preds = np.array([model.predict_one(lag_features(ys[k + 1 - p:k + 1], us[k + 1 - q:k + 1],
                                                     p, q))
                      for k in range(k0, len(val_y) - 1)])
    want = float(np.sqrt(np.mean((preds - val_y[k0 + 1:]) ** 2)))
    assert rep.n_val == len(preds)
    assert repr(rep.one_step_rmse) == repr(want)


@pytest.mark.bits
@pytest.mark.parametrize("p, q, hidden", NARX_SHAPES)
def test_narx_rollout_bit_equal_to_array_form(p, q, hidden):
    rng = np.random.default_rng(7 * p + q)
    for seed in range(4):
        model = random_narx(p, q, hidden, seed)
        y_init = rng.normal(size=p + seed)
        u_seq = rng.uniform(-2.0, 2.0, size=60)
        u_init = rng.normal(size=q - 1 + seed % 2) if seed % 3 else np.zeros(q - 1)
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
        with pytest.raises(SimulationDiverged) as want:
            array_rollout(model, y_init, u_seq, u_init=[])
        with pytest.raises(SimulationDiverged) as got:
            narx_rollout(model, y_init, u_seq, u_init=[])
    assert got.value.step == want.value.step > 0
    assert str(got.value) == str(want.value)


def test_narx_rollout_empty_input_sequence():
    model = random_narx(2, 2, (4,), seed=0)
    out = narx_rollout(model, [0.0, 0.0], [], u_init=[0.0])
    assert out.shape == (0,) and out.dtype == np.float64
