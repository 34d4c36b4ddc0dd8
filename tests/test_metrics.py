import math

import numpy as np
import pytest

from loopbench.errors import DataError
from loopbench.metrics import compare, compute_step_metrics, measure_latency
from loopbench.neuro import NeuralControlLoop, NeuralController
from loopbench.nnet import Mlp
from loopbench.pid import PidController
from loopbench.simcore import Fopdt, PlantModel, SimConfig, Trajectory, simulate
from loopbench.tuning import FopdtModel, tune_cohen_coon, tune_ziegler_nichols, ultimate_from_fopdt


def _traj(t, w, y, u=None, d=None):
    n = len(t)
    u = np.zeros(n) if u is None else np.asarray(u, dtype=float)
    d = np.zeros(n) if d is None else np.asarray(d, dtype=float)
    return Trajectory(t=np.asarray(t, float), w=np.asarray(w, float), y=np.asarray(y, float),
                      y_meas=np.asarray(y, float), u=u, d=d, dt=float(t[1] - t[0]), y_extra=None)


def test_second_order_overshoot_closed_form():
    # zeta = 0.5 underdamped step response peaks at exp(-pi zeta / sqrt(1 - zeta^2))
    zeta, wn = 0.5, 2.0
    t = np.arange(0, 10, 0.001)
    wd = wn * math.sqrt(1 - zeta ** 2)
    phi = math.atan2(math.sqrt(1 - zeta ** 2), zeta)
    y = 1 - np.exp(-zeta * wn * t) / math.sqrt(1 - zeta ** 2) * np.sin(wd * t + phi)
    m = compute_step_metrics(_traj(t, np.ones_like(t), y), band=0.02)
    expected = 100.0 * math.exp(-math.pi * zeta / math.sqrt(1 - zeta ** 2))
    assert m.overshoot_pct == pytest.approx(expected, abs=0.3)
    assert m.overshoot_pct == pytest.approx(16.30, abs=0.3)


def test_first_order_settling_time_closed_form():
    t = np.arange(0, 8, 0.001)
    y = 1 - np.exp(-t)
    m = compute_step_metrics(_traj(t, np.ones_like(t), y), band=0.02)
    assert m.settled
    assert m.settling_time_s == pytest.approx(math.log(50.0), abs=0.05)


def test_perfect_tracking_all_zero():
    t = np.arange(0, 2, 0.01)
    w = np.ones_like(t)
    m = compute_step_metrics(_traj(t, w, w), band=0.02)
    assert m.overshoot_pct == 0.0
    assert m.iae == 0.0 and m.ise == 0.0 and m.itae == 0.0
    assert m.settled and m.settling_time_s == 0.0
    assert m.steady_state_error == 0.0


def test_monotone_response_zero_overshoot():
    t = np.arange(0, 5, 0.01)
    y = 1 - np.exp(-2 * t)
    m = compute_step_metrics(_traj(t, np.ones_like(t), y), band=0.02)
    assert m.overshoot_pct == 0.0
    assert m.rise_time_s > 0.0


def test_error_integrals_nonnegative_and_iae_zero_iff_zero_error():
    t = np.arange(0, 3, 0.01)
    m = compute_step_metrics(_traj(t, np.ones_like(t), 1 - 1e-6 * np.exp(-t)), band=0.02)
    assert m.iae > 0.0 and m.ise > 0.0 and m.itae >= 0.0


def test_never_settles_marked_not_raised():
    t = np.arange(0, 5, 0.01)
    y = 1.0 + 0.2 * np.sin(5 * t)
    m = compute_step_metrics(_traj(t, np.ones_like(t), y), band=0.02)
    assert not m.settled
    assert math.isnan(m.settling_time_s)


def test_iae_converges_under_grid_refinement():
    # IAE of e(t) = e^-t on [0, 5]: successive dt halvings approach the integral
    exact = 1.0 - math.exp(-5.0)
    errs = []
    for dt in (0.2, 0.1, 0.05, 0.025):
        t = np.arange(0, 5 + dt / 2, dt)
        y = 1 - np.exp(-t)
        m = compute_step_metrics(_traj(t, np.ones_like(t), y), band=0.02)
        errs.append(abs(m.iae - exact))
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_mid_horizon_step_uses_reference_levels():
    t = np.arange(0, 4, 0.01)
    w = np.where(t >= 1.0, 2.0, 1.0)
    y = np.where(t >= 1.0, 2.0, 1.0).astype(float)
    m = compute_step_metrics(_traj(t, w, y), band=0.02)
    assert m.overshoot_pct == 0.0
    assert m.settled


def test_compare_single_entry():
    t = np.arange(0, 2, 0.01)
    table = compare({"only": _traj(t, np.ones_like(t), 1 - np.exp(-3 * t))}.items(), band=0.02)
    assert len(table.rows) == 1
    assert table.rows[0][0] == "only"


def test_compare_duplicate_labels_identical_rows():
    t = np.arange(0, 2, 0.01)
    tr = _traj(t, np.ones_like(t), 1 - np.exp(-3 * t))
    table = compare([("a", tr), ("b", tr)], band=0.02)
    assert table.rows[0][1] == table.rows[1][1]


def test_compare_rejects_mismatched_reference():
    t = np.arange(0, 2, 0.01)
    a = _traj(t, np.ones_like(t), 1 - np.exp(-3 * t))
    b = _traj(t, 2 * np.ones_like(t), 1 - np.exp(-3 * t))
    with pytest.raises(DataError, match="^entry 'b' has a different reference or disturbance$"):
        compare([("a", a), ("b", b)], band=0.02)


def test_compare_zn_vs_cohen_coon_deterministic():
    plant = PlantModel(Fopdt(gain=1.0, tau=1.0, dead_time=0.5), u_min=-10.0, u_max=10.0, x0=None)
    model = FopdtModel(gain=1.0, tau=1.0, dead_time=0.5)
    cfg = SimConfig(dt=0.01, horizon=20.0, seed=0)
    runs = {
        "zn": simulate(plant, PidController(tune_ziegler_nichols(
            ultimate_from_fopdt(model), "pid", limits=(-math.inf, math.inf))), 1.0, cfg=cfg),
        "cc": simulate(plant, PidController(tune_cohen_coon(model, limits=(-math.inf, math.inf))),
                       1.0, cfg=cfg),
    }
    t1 = compare(runs.items(), band=0.02)
    t2 = compare(runs.items(), band=0.02)
    assert [r[0] for r in t1.rows] == [r[0] for r in t2.rows]
    for (_, m) in t1.rows:
        assert math.isfinite(m.iae) and math.isfinite(m.ise)


def test_compare_csv_and_text(tmp_path):
    t = np.arange(0, 2, 0.01)
    table = compare({"run": _traj(t, np.ones_like(t), 1 - np.exp(-3 * t))}.items(), band=0.02)
    out = tmp_path / "cmp.csv"
    table.to_csv(out)
    header = out.read_text().splitlines()[0]
    assert header.startswith("label,overshoot_pct,rise_time_s,settling_time_s")
    text = table.format_text()
    assert "run" in text and "IAE" in text


def test_latency_counts_and_order_statistics(monkeypatch):
    """`measure_latency` times exactly `trials` deployed steps of one loop,
    after `warmup` untimed ones, from the loop's reset."""
    net = Mlp([9, 32, 32, 1], seed=0)
    assert net.n_params <= 5000
    nc = NeuralController(net, -1.0, 1.0, 4)
    loops, step = [], NeuralControlLoop.step

    def counting_step(self, w, y, dt):
        loops.append(self)
        return step(self, w, y, dt)
    monkeypatch.setattr(NeuralControlLoop, "step", counting_step)
    rep = measure_latency(nc, trials=1000, warmup=100)
    assert rep.times_ms.shape == (1000,)
    assert rep.max_ms >= rep.p95_ms >= rep.median_ms >= 0.0
    assert len(loops) == 1100 and all(loop is loops[0] for loop in loops)
    assert loops[0].nc is nc
    # zero-warm windows shifted 1,100 times, the net's outputs in the control window
    assert loops[0].y_win == [0.0] * 4 and all(-1.0 <= u <= 1.0 for u in loops[0].u_win)
