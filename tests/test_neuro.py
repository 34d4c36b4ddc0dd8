import itertools
import math
import warnings

import numpy as np
import pytest

from loopbench import neuro
from loopbench.dataio import split_contiguous
from loopbench.errors import ControllerFault, NumericalFailure
from loopbench.neuro import (
    GainScheduler, NeuralControlLoop, NeuralController,
    ScheduledPidController, bptt_loss_and_grad, imitation_data_from_run,
    _episode_cost_on_surrogate, _episode_reference, _lockstep_costs, nelder_mead_bounded,
    train_bptt,
    train_imitation, tune_static_ai,
)
from loopbench.nnet import Adam, Mlp, TrainConfig, load_model, normalize, save_model
from loopbench.pid import PidController, PidGains, PidState, pid_step
from loopbench.simcore import (
    DisturbanceSpec, Fopdt, PlantModel, SensorSpec, SimConfig, simulate,
)
from loopbench.surrogate import NarxModel, lag_features
from test_nnet import interleaved_backward, matmul_forward_cached
from test_surrogate import NARX_SHAPES, array_predict_one, random_narx


def _identity_narx():
    """Linear surrogate implementing y[k+1] = u[k] exactly."""
    net = Mlp([2, 1], init=False)
    net.weights[0][:] = np.array([[0.0, 1.0]])
    return NarxModel(net, 1, 1, 0.1, np.zeros(2), np.ones(2), np.zeros(1), np.ones(1))


def _random_narx(seed=3):
    rng = np.random.default_rng(seed)
    return NarxModel(Mlp([4, 5, 1], seed=seed), 2, 2, 0.1,
                     x_mean=rng.normal(size=4) * 0.1, x_std=rng.uniform(0.5, 2.0, size=4),
                     y_mean=np.array([0.05]), y_std=np.array([1.3]))


def _fd_bptt(target, narx, w_seq, horizon, rho, limits, h=1e-5):
    params = target.mlp.params
    base = params.copy()
    g = np.zeros_like(base)
    for i in range(base.size):
        params[i] = base[i] + h
        [(hi, _)] = bptt_loss_and_grad(target, narx, [w_seq], horizon, rho, limits)
        params[i] = base[i] - h
        [(lo, _)] = bptt_loss_and_grad(target, narx, [w_seq], horizon, rho, limits)
        params[i] = base[i]
        g[i] = (hi - lo) / (2.0 * h)
    return g


def _max_rel(a, b):
    den = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / den))


def _aux_output(nc, row):
    """The disturbance head's estimate on a feature row, through the trunk's
    1-D row path on the row normalized on floats."""
    xn = [(f - m) / s for f, m, s in zip(row, nc.feat_mean.tolist(), nc.feat_std.tolist())]
    return float(nc.aux.forward(nc.mlp.forward_cached(xn)[1][-1])[0])


def _gains(gs, row, net=None):
    """The gains the deployed scheduled PID takes from a feature row: the
    scheduler network's bound one-row pass (`net`, or one bound here), then
    `GainScheduler.squash`."""
    net = net or gs.mlp.stacked_pass(1, gs.feat_mean, gs.feat_std)[1]
    return tuple(gs.squash(net(row))[0])


def spy_gains(ctl: ScheduledPidController) -> list:
    """The (kp, ki, kd) that `ctl` takes at each step from here on, recorded
    by a spy set on its scheduler instance's `squash`; the controller itself
    keeps no record of them."""
    trace, squash = [], ctl.gs.squash

    def spy(zs):
        out = squash(zs)
        trace.append(tuple(out[0]))
        return out
    ctl.gs.squash = spy
    return trace


# ---------------------------------------------------------------------------
# neural controller and scheduler basics
# ---------------------------------------------------------------------------

def test_zero_weight_controller_outputs_range_center():
    nc = NeuralController(Mlp([9, 4, 1], init=False), u_min=-1.0, u_max=1.0, memory=4)
    u = NeuralControlLoop(nc).step(0.7, 0.3, 0.01)
    assert u == 0.0


def test_pre_squash_saturation_hits_limit():
    net = Mlp([9, 4, 1], init=False)
    net.biases[-1][:] = 100.0
    nc = NeuralController(net, u_min=-1.0, u_max=1.0, memory=4)
    u = NeuralControlLoop(nc).step(0.0, 0.0, 0.01)
    assert abs(u - 1.0) < 1e-6


def test_controller_output_structurally_bounded_fuzz():
    nc = NeuralController(Mlp([9, 8, 1], seed=2), u_min=-0.5, u_max=2.0, memory=4)
    rng = np.random.default_rng(0)
    loop = NeuralControlLoop(nc)
    loop.reset()
    for _ in range(5000):
        u = loop.step(float(rng.normal(0, 1e6)), float(rng.normal(0, 1e6)), 0.01)
        assert -0.5 <= u <= 2.0


def test_nonfinite_network_output_is_controller_fault():
    net = Mlp([9, 4, 1], init=False)
    net.biases[-1][:] = math.nan
    nc = NeuralController(net, u_min=-1.0, u_max=1.0, memory=4)
    with pytest.raises(ControllerFault):
        NeuralControlLoop(nc).step(0.0, 0.0, 0.01)


def test_zero_weight_scheduler_emits_bound_midpoints():
    gs = GainScheduler(Mlp([8, 4, 3], init=False), bounds=[[0.1, 10.0]] * 3, memory=4)
    kp, ki, kd = _gains(gs, np.zeros(8))
    assert kp == pytest.approx(5.05)
    assert ki == pytest.approx(5.05)
    assert kd == pytest.approx(5.05)


def test_scheduler_gains_never_leave_bounds_fuzz():
    bounds = np.array([[0.1, 10.0], [0.0, 2.0], [0.05, 0.5]])
    gs = GainScheduler(Mlp([8, 6, 3], seed=7), bounds=bounds, memory=4)
    rng = np.random.default_rng(1)
    feats = rng.normal(0.0, 1e4, size=(100_000, 8))
    _, net = gs.mlp.stacked_pass(1, gs.feat_mean, gs.feat_std)
    for f in feats:
        kp, ki, kd = _gains(gs, f, net)
        assert 0.1 <= kp <= 10.0
        assert 0.0 <= ki <= 2.0
        assert 0.05 <= kd <= 0.5


def test_scheduled_pid_controller_runs_and_traces_gains():
    gs = GainScheduler(Mlp([8, 6, 3], seed=0), bounds=[[0.2, 2.0], [0.1, 1.0], [0.0, 0.1]],
                       memory=4)
    plant = PlantModel(Fopdt(gain=1.0, tau=1.0, dead_time=0.1), u_min=-3.0, u_max=3.0, x0=None)
    ctl = ScheduledPidController(gs, PidGains(kp=1.0, u_min=-3.0, u_max=3.0))
    gain_trace = spy_gains(ctl)
    traj = simulate(plant, ctl, 1.0, cfg=SimConfig(dt=0.02, horizon=5.0, seed=0))
    assert len(gain_trace) == len(traj)
    for kp, ki, kd in gain_trace:
        assert 0.2 <= kp <= 2.0 and 0.1 <= ki <= 1.0 and 0.0 <= kd <= 0.1


class _RebuiltGainsController(ScheduledPidController):
    """Scheduled PID that builds and validates a fresh PidGains every step,
    from gains of the scheduler's array form."""

    def __init__(self, gs, template):
        super().__init__(gs, template)
        self.gain_trace = []

    def step(self, w, y, dt):
        y0 = float(y)
        e = w - y0
        self.e_win = self.e_win[1:] + [e]
        self.y_win = self.y_win[1:] + [y0]
        kp, ki, kd = _array_gains(self.gs, self.gs.features(self.e_win, self.y_win))
        self.gain_trace.append((kp, ki, kd))
        gains = PidGains(kp=kp, ki=ki, kd=kd, structure=self.template.structure,
                         u_min=self.template.u_min, u_max=self.template.u_max,
                         deriv_filter_n=self.template.deriv_filter_n)
        return pid_step(gains, self.state, w, y0, dt)


@pytest.mark.parametrize("structure", ["pid", "pi-d", "pid-p", "pi-pd"])
def test_scheduled_pid_bit_equal_to_rebuilt_gains(structure):
    rng = np.random.default_rng(len(structure))
    gs = GainScheduler(Mlp([8, 6, 3], seed=4), bounds=[[0.2, 2.0], [0.1, 1.0], [0.0, 0.2]],
                       memory=4)
    template = PidGains(kp=1.0, structure=structure, u_min=-2.0, u_max=2.5, deriv_filter_n=7.0)
    new, ref = ScheduledPidController(gs, template), _RebuiltGainsController(gs, template)
    gain_trace = spy_gains(new)
    for _ in range(300):
        w, y, dt = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(0.005, 0.1)
        assert new.step(w, y, dt) == ref.step(w, y, dt)
    assert gain_trace == ref.gain_trace
    assert vars(new.state) == vars(ref.state)


def test_scheduled_pid_nonfinite_gains_fault_at_the_same_step():
    gs = GainScheduler(Mlp([8, 6, 3], seed=4), bounds=[[0.2, 2.0], [0.1, 1.0], [0.0, 0.2]],
                       memory=4)
    template = PidGains(kp=1.0, u_min=-3.0, u_max=3.0)
    outcomes = []
    for ctl in (ScheduledPidController(gs.copy(), template),
                _RebuiltGainsController(gs.copy(), template)):
        for k in range(20):
            if k == 12:
                ctl.gs.mlp.params[0] = math.nan  # the scheduler emits NaN gains from here on
            try:
                ctl.step(1.0, 0.1 * k, 0.05)
            except ControllerFault as exc:
                outcomes.append((k, str(exc)))
                break
    assert outcomes[0] == outcomes[1] == (12, "non-finite controller output")


# The controller and scheduler steps as whole-array operations on a one-row
# (1, n) batch, kept as the bit-for-bit reference of their 1-D row path.

def _array_output(nc, row):
    out, acts = matmul_forward_cached(nc.mlp, normalize(row, nc.feat_mean, nc.feat_std))
    z = float(out[0, 0])
    if not math.isfinite(z):
        raise ControllerFault("non-finite network output")
    return nc.center + nc.half_span * math.tanh(z), acts


class _ArrayControlLoop(NeuralControlLoop):
    def step(self, w, y, dt):
        self.y_win[-1] = float(y)
        u, _ = _array_output(self.nc, self.nc.features(w, self.y_win, self.u_win))
        self.y_win.append(0.0)
        del self.y_win[0]
        self.u_win.append(u)
        del self.u_win[0]
        return u


def _array_gains(gs, row):
    out, _ = matmul_forward_cached(gs.mlp, normalize(row, gs.feat_mean, gs.feat_std))
    z = np.clip(out[0], -60.0, 60.0)
    lo, hi = gs.bounds[:, 0], gs.bounds[:, 1]
    g = lo + 1.0 / (1.0 + np.exp(-z)) * (hi - lo)
    return float(g[0]), float(g[1]), float(g[2])


def _bits(values):
    return np.array(values, dtype=float).tobytes()


@pytest.mark.bits
@pytest.mark.parametrize("m, hidden", [(1, (6,)), (2, (16, 8)), (4, (32, 32)), (3, (8, 8, 8))])
def test_control_loop_step_bit_equal_to_array_form(m, hidden):
    """Steps from windows at three scales (the largest saturates tanh), and
    the disturbance head on the same rows."""
    rng = np.random.default_rng([m, *hidden])
    n = 1 + 2 * m
    for seed in range(6):
        nc = NeuralController(Mlp([n, *hidden, 1], seed=seed), u_min=-rng.uniform(0.5, 3.0),
                              u_max=rng.uniform(0.5, 3.0), memory=m,
                              feat_mean=rng.normal(size=n) * 0.1,
                              feat_std=rng.uniform(0.5, 2.0, size=n),
                              aux=Mlp([hidden[-1], 1], seed=seed + 1))
        for b in nc.mlp.biases:
            b[...] = rng.normal(size=b.shape) * 0.3
        loop, ref = NeuralControlLoop(nc), _ArrayControlLoop(nc)
        got, want = [], []
        for k in range(150):
            scale = (1e-3, 1.0, 1e3)[k % 3]
            w, y = rng.normal() * scale, rng.normal() * scale
            row = nc.features(w, [*loop.y_win[1:], y], loop.u_win)
            acts = _array_output(nc, row)[1]
            got.append(_aux_output(nc, row))
            want.append(float(matmul_forward_cached(nc.aux, acts[-1])[0][0, 0]))
            got.append(loop.step(w, y, 0.01))
            want.append(ref.step(w, y, 0.01))
        assert _bits(got) == _bits(want)


@pytest.mark.bits
@pytest.mark.parametrize("m, hidden", [(1, (5,)), (2, (8,)), (4, (8, 8)), (3, (16, 16, 4))])
def test_gains_from_bit_equal_to_array_form(m, hidden):
    """The deployed scheduler's gains, one bound row pass reused for every
    row, then `squash`: rows at three scales (the largest clips z at +-60),
    bounds with lo = 0 and lo = hi among them, and NaN rows."""
    rng = np.random.default_rng([m, *hidden, 1])
    n = 2 * m
    for seed in range(6):
        lo = rng.uniform(0.0, 2.0, size=3) * (rng.random(3) < 0.7)
        hi = np.where(rng.random(3) < 0.2, lo, lo + rng.uniform(0.0, 5.0, size=3))
        gs = GainScheduler(Mlp([n, *hidden, 3], seed=seed), bounds=np.column_stack([lo, hi]),
                           memory=m, feat_mean=rng.normal(size=n) * 0.1,
                           feat_std=rng.uniform(0.5, 2.0, size=n))
        for b in gs.mlp.biases:
            b[...] = rng.normal(size=b.shape) * 0.3
        _, net = gs.mlp.stacked_pass(1, gs.feat_mean, gs.feat_std)
        for k in range(300):
            row = rng.normal(size=n) * (1e-3, 1.0, 1e4)[k % 3]
            if k % 50 == 49:
                row[k % n] = math.nan
            row = row.tolist()
            assert _bits(_gains(gs, row, net)) == _bits(_array_gains(gs, row))


# ---------------------------------------------------------------------------
# BPTT: gradient oracle and training behavior
# ---------------------------------------------------------------------------

def test_bptt_controller_gradient_matches_finite_differences():
    narx = _random_narx()
    rng = np.random.default_rng(0)
    for seed in range(3):
        nc = NeuralController(Mlp([7, 6, 1], seed=seed), u_min=-2.0, u_max=2.0, memory=3,
                              feat_mean=rng.normal(size=7) * 0.1,
                              feat_std=rng.uniform(0.5, 2.0, size=7))
        w_seq = rng.normal(size=8) * 0.5
        [(_, g)] = bptt_loss_and_grad(nc, narx, [w_seq], 3, 0.01, limits=(-math.inf, math.inf))
        assert _max_rel(g, _fd_bptt(nc, narx, w_seq, 3, 0.01, (-2.0, 2.0))) < 1e-4


def test_bptt_scheduler_gradient_matches_finite_differences():
    narx = _random_narx()
    rng = np.random.default_rng(4)
    for seed in range(3):
        gs = GainScheduler(Mlp([6, 5, 3], seed=seed),
                           bounds=[[0.1, 3.0], [0.05, 2.0], [0.0, 0.5]], memory=3,
                           feat_mean=rng.normal(size=6) * 0.1,
                           feat_std=rng.uniform(0.5, 2.0, size=6))
        w_seq = rng.normal(size=8) * 0.5
        limits = (-100.0, 100.0)
        [(_, g)] = bptt_loss_and_grad(gs, narx, [w_seq], 3, 0.01, limits)
        assert _max_rel(g, _fd_bptt(gs, narx, w_seq, 3, 0.01, limits)) < 1e-4


# The two rollouts `bptt_loss_and_grad` used before it became one loop with a
# controller block and a scheduled-PI block, kept as the bit-for-bit reference.
# Every network pass here runs on a one-row (1, n) batch.

def _ref_surrogate_step(narx, feat_s):
    out, acts = narx.mlp.forward_cached(np.atleast_2d(normalize(feat_s, narx.x_mean, narx.x_std)))
    return float((out[0] * narx.y_std + narx.y_mean)[0]), acts


def _ref_surrogate_adjoint(narx, acts, upstream):
    g = np.array([[upstream * float(narx.y_std[0])]])
    gx = interleaved_backward(narx.mlp, acts, g)[1]
    return gx[0] / narx.x_std


def _ref_controller_rollout(nc, narx, w_seq, horizon, rho):
    p, q, m = narx.p, narx.q, nc.memory
    pad_y = max(p, m)
    pad_u = max(q - 1, m, 1)
    ys = np.zeros(pad_y + horizon)
    us = np.zeros(pad_u + horizon)
    caches_c, caches_s, zs = [], [], []
    loss_track = 0.0
    loss_du = 0.0
    for k in range(horizon):
        iy = pad_y - 1 + k
        y_now = ys[iy]
        feat_c = np.concatenate([[w_seq[k], y_now], ys[iy - m + 1: iy][::-1],
                                 us[pad_u - 1 + k - m + 1: pad_u + k][::-1]])
        z_out, acts_c = nc.mlp.forward_cached(np.atleast_2d(normalize(feat_c, nc.feat_mean,
                                                                      nc.feat_std)))
        z = float(z_out[0, 0])
        u_k = nc.center + nc.half_span * math.tanh(z)
        us[pad_u + k] = u_k
        feat_s = np.concatenate([ys[iy - p + 1: iy + 1][::-1],
                                 us[pad_u + k - q + 1: pad_u + k + 1][::-1]])
        y_next, acts_s = _ref_surrogate_step(narx, feat_s)
        ys[pad_y + k] = y_next
        loss_track += (y_next - w_seq[k + 1]) ** 2
        loss_du += (u_k - us[pad_u + k - 1]) ** 2
        caches_c.append(acts_c)
        caches_s.append(acts_s)
        zs.append(z)
    loss = loss_track / horizon + rho * loss_du / horizon

    ybar = np.zeros_like(ys)
    ubar = np.zeros_like(us)
    pgrads = np.zeros(nc.mlp.n_params)
    for k in range(horizon - 1, -1, -1):
        iy = pad_y - 1 + k
        ybar[pad_y + k] += 2.0 * (ys[pad_y + k] - w_seq[k + 1]) / horizon
        du = us[pad_u + k] - us[pad_u + k - 1]
        ubar[pad_u + k] += 2.0 * rho * du / horizon
        ubar[pad_u + k - 1] -= 2.0 * rho * du / horizon
        fbar_s = _ref_surrogate_adjoint(narx, caches_s[k], float(ybar[pad_y + k]))
        for j in range(p):
            ybar[iy - j] += fbar_s[j]
        for j in range(q):
            ubar[pad_u + k - j] += fbar_s[p + j]
        dz = float(ubar[pad_u + k]) * nc.half_span * (1.0 - math.tanh(zs[k]) ** 2)
        g_c, gf = interleaved_backward(nc.mlp, caches_c[k], np.array([[dz]]))
        pgrads += g_c
        df = gf[0] / nc.feat_std
        ybar[iy] += df[1]
        for j in range(1, m):
            ybar[iy - j] += df[1 + j]
        for j in range(m):
            ubar[pad_u - 1 + k - j] += df[1 + m + j]
    return loss, pgrads


def _ref_scheduler_rollout(gs, narx, w_seq, horizon, rho, limits):
    p, q, m = narx.p, narx.q, gs.memory
    dt = narx.dt
    pad_y = max(p, m)
    pad_u = max(q - 1, 1)
    ys = np.zeros(pad_y + horizon)
    us = np.zeros(pad_u + horizon)
    es = np.zeros(m + horizon)
    caches_g, caches_s, z_list, gain_list, flags = [], [], [], [], []
    s_int = 0.0
    loss_track = 0.0
    loss_du = 0.0
    lo, hi = gs.bounds[:, 0], gs.bounds[:, 1]
    for k in range(horizon):
        iy = pad_y - 1 + k
        e_k = w_seq[k] - ys[iy]
        es[m + k] = e_k
        feat = np.concatenate([es[k + 1: m + k + 1][::-1], ys[iy - m + 1: iy + 1][::-1]])
        z_out, acts_g = gs.mlp.forward_cached(np.atleast_2d(normalize(feat, gs.feat_mean,
                                                                      gs.feat_std)))
        z = np.clip(z_out[0], -60.0, 60.0)
        gains = lo + 1.0 / (1.0 + np.exp(-z)) * (hi - lo)
        kp, ki = float(gains[0]), float(gains[1])
        inc = ki * e_k * dt
        s_cand = s_int + inc
        u_raw = kp * e_k + s_cand
        if u_raw > limits[1]:
            u_k, sat = limits[1], 1
        elif u_raw < limits[0]:
            u_k, sat = limits[0], -1
        else:
            u_k, sat = u_raw, 0
        frozen = sat != 0 and (inc * sat > 0.0)
        s_int = s_int if frozen else s_cand
        us[pad_u + k] = u_k
        feat_s = np.concatenate([ys[iy - p + 1: iy + 1][::-1],
                                 us[pad_u + k - q + 1: pad_u + k + 1][::-1]])
        y_next, acts_s = _ref_surrogate_step(narx, feat_s)
        ys[pad_y + k] = y_next
        loss_track += (y_next - w_seq[k + 1]) ** 2
        loss_du += (u_k - us[pad_u + k - 1]) ** 2
        caches_g.append(acts_g)
        caches_s.append(acts_s)
        z_list.append(z)
        gain_list.append((kp, ki))
        flags.append((sat, frozen))
    loss = loss_track / horizon + rho * loss_du / horizon

    ybar = np.zeros_like(ys)
    ubar = np.zeros_like(us)
    ebar = np.zeros_like(es)
    sbar = 0.0
    pgrads = np.zeros(gs.mlp.n_params)
    for k in range(horizon - 1, -1, -1):
        iy = pad_y - 1 + k
        ybar[pad_y + k] += 2.0 * (ys[pad_y + k] - w_seq[k + 1]) / horizon
        du = us[pad_u + k] - us[pad_u + k - 1]
        ubar[pad_u + k] += 2.0 * rho * du / horizon
        ubar[pad_u + k - 1] -= 2.0 * rho * du / horizon
        fbar_s = _ref_surrogate_adjoint(narx, caches_s[k], float(ybar[pad_y + k]))
        for j in range(p):
            ybar[iy - j] += fbar_s[j]
        for j in range(q):
            ubar[pad_u + k - j] += fbar_s[p + j]
        sat, frozen = flags[k]
        kp, ki = gain_list[k]
        e_k = es[m + k]
        du_raw = float(ubar[pad_u + k]) if sat == 0 else 0.0
        ds_cand = du_raw + (0.0 if frozen else sbar)
        ds_prev = ds_cand + (sbar if frozen else 0.0)
        dkp = du_raw * e_k
        dki = ds_cand * e_k * dt
        ebar[m + k] += du_raw * kp + ds_cand * ki * dt
        sbar = ds_prev
        sig = 1.0 / (1.0 + np.exp(-z_list[k]))
        dz = np.array([dkp, dki, 0.0]) * sig * (1.0 - sig) * (hi - lo)
        g_g, gf = interleaved_backward(gs.mlp, caches_g[k], dz.reshape(1, 3))
        pgrads += g_g
        df = gf[0] / gs.feat_std
        for j in range(m):
            ebar[m + k - j] += df[j]
            ybar[iy - j] += df[m + j]
        ybar[iy] -= ebar[m + k]
    return loss, pgrads


@pytest.mark.parametrize("kind", ["controller", "scheduler"])
def test_one_rollout_loop_bit_equal_to_the_two_rollouts(kind):
    """p, q, m over {1,2,4} x {1,3,6} x {1,2,4}, four seeds, and limits that
    saturate the PI core or never bind: loss and gradient equal with ==."""
    horizon, rho = 30, 0.05
    cases = 0
    for p, q, m in itertools.product((1, 2, 4), (1, 3, 6), (1, 2, 4)):
        for seed in range(4):
            rng = np.random.default_rng([p, q, m, seed])
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
            w_seq = np.concatenate([np.zeros(2), np.full(horizon - 1, rng.uniform(0.5, 1.5))])
            w_seq += rng.normal(size=horizon + 1) * 0.05
            for limits in ((-0.4, 0.4), (-50.0, 50.0)):
                if kind == "controller":
                    want = _ref_controller_rollout(target, narx, w_seq, horizon, rho)
                else:
                    want = _ref_scheduler_rollout(target, narx, w_seq, horizon, rho, limits)
                [(loss, grads)] = bptt_loss_and_grad(target, narx, [w_seq], horizon, rho, limits)
                assert loss == want[0], (p, q, m, seed, limits)
                assert np.array_equal(grads, want[1]), (p, q, m, seed, limits)
                cases += 1
    assert cases == 216


def test_bptt_identity_surrogate_learns_constant_reference():
    nc = NeuralController(Mlp([9, 8, 1], seed=0), u_min=-1.0, u_max=1.0, memory=4)
    res = train_bptt(nc, _identity_narx(), [np.full(40, 0.5)], horizon=30,
                     cfg=TrainConfig(learning_rate=0.05, max_epochs=300, seed=0, batch_size=32,
                                     patience=10_000),
                     limits=(-1.0, 1.0), rho=0.001)
    assert res.history[-1] < 1e-4
    loop = NeuralControlLoop(res.trained)
    u = 0.0
    for _ in range(30):
        u = loop.step(0.5, u, 0.1)
    assert u == pytest.approx(0.5, abs=0.01)


def test_bptt_zero_horizon_is_noop():
    nc = NeuralController(Mlp([9, 4, 1], seed=1), u_min=-1.0, u_max=1.0, memory=4)
    res = train_bptt(nc, _identity_narx(), [np.full(5, 0.5)], horizon=0,
                     cfg=TrainConfig(max_epochs=50, seed=0,
                                     learning_rate=1e-2, batch_size=32,
                                     patience=10_000), limits=(-1.0, 1.0), rho=0.01)
    assert res.history == [0.0]
    assert np.array_equal(res.trained.mlp.params, nc.mlp.params)


def test_bptt_deterministic_weights():
    def run():
        nc = NeuralController(Mlp([9, 6, 1], seed=2), u_min=-1.0, u_max=1.0, memory=4)
        res = train_bptt(nc, _identity_narx(), [np.full(20, 0.3), np.full(20, -0.2)],
                         horizon=15, cfg=TrainConfig(learning_rate=0.02, max_epochs=40, seed=9,
                                                     batch_size=32, patience=10_000),
                         limits=(-1.0, 1.0), rho=0.01)
        return res.trained.mlp.params

    assert np.array_equal(run(), run())


def test_bptt_unstable_when_rollouts_diverge():
    bad = Mlp([2, 2, 1], init=False)
    bad.weights[0][:] = 1.0
    bad.weights[1][:] = 1e200
    narx = NarxModel(bad, 1, 1, 0.1, np.zeros(2), np.ones(2), np.zeros(1), np.full(1, 1e200))
    nc = NeuralController(Mlp([9, 4, 1], seed=0), u_min=-1.0, u_max=1.0, memory=4)
    with np.errstate(all="ignore"), pytest.raises(NumericalFailure, match="^1/1 rollouts diverged in one epoch$"):
        train_bptt(nc, narx, [np.full(30, 0.5)], horizon=20,
                   cfg=TrainConfig(max_epochs=3, seed=0, learning_rate=1e-2,
                                   batch_size=32, patience=10_000), limits=(-1.0, 1.0), rho=0.01)


def _overflowing_case(kind):
    """The surrogate y[k+1] = 10 y[k] + u[k] and a target whose zero biases
    make its control track the reference's scale."""
    net = Mlp([2, 1], init=False)
    net.weights[0][:] = np.array([[10.0, 1.0]])
    narx = NarxModel(net, 1, 1, 0.1, np.zeros(2), np.ones(2), np.zeros(1), np.ones(1))
    if kind == "controller":
        return NeuralController(Mlp([9, 4, 1], seed=0), u_min=-1.0, u_max=1.0, memory=4), narx
    return GainScheduler(Mlp([8, 6, 3], seed=0), bounds=[[0.2, 2.0], [0.1, 1.0], [0.0, 0.1]],
                         memory=4), narx


@pytest.mark.parametrize("kind", ["controller", "scheduler"])
def test_bptt_skips_a_rollout_whose_squares_overflow(kind):
    """y[k+1] = 10 y[k] + u[k] diverges through finite outputs (and, under the
    scheduler without limits, finite controls) whose squares pass the float
    range: the loss is inf, the rollout is skipped, and one skipped reference
    in one makes training unstable."""
    target, narx = _overflowing_case(kind)
    w_seq = np.full(201, 0.5)
    with np.errstate(all="ignore"):
        [(loss, _)] = bptt_loss_and_grad(target, narx, [w_seq], 200, 0.01,
                                         limits=(-math.inf, math.inf))
        assert loss == math.inf
        with pytest.raises(NumericalFailure, match="^1/1 rollouts diverged in one epoch$"):
            cfg = TrainConfig(learning_rate=1e-2, batch_size=32, max_epochs=1, patience=10_000,
                              seed=0)
            train_bptt(target, narx, [w_seq], horizon=200, cfg=cfg, limits=(-math.inf, math.inf),
                       rho=0.01)


@pytest.mark.parametrize("kind", ["controller", "scheduler"])
def test_bptt_skips_only_the_diverged_episode_of_an_epoch(kind):
    """Two references on `_overflowing_case`: at 1e-250 the output stays near
    1e-50 over 200 steps, at 0.5 its squares pass the float range. The
    diverged row changes no bit of its neighbour and raises no numpy
    warning; the epoch counts one skipped and updates from the other
    episode's gradient alone. Two diverged of three abort the epoch."""
    target, narx = _overflowing_case(kind)
    tiny, big = np.full(201, 1e-250), np.full(201, 0.5)
    inf = (-math.inf, math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [(loss, grad), (big_loss, big_grad)] = bptt_loss_and_grad(target, narx, [tiny, big],
                                                                  200, 0.01, inf)
    [(alone, alone_grad)] = bptt_loss_and_grad(target, narx, [tiny], 200, 0.01, inf)
    assert math.isfinite(loss) and np.isfinite(grad).all() and grad.any()
    assert np.float64(loss).tobytes() == np.float64(alone).tobytes()
    assert grad.tobytes() == alone_grad.tobytes()
    assert big_loss == math.inf and big_grad is None

    cfg = TrainConfig(learning_rate=1e-2, batch_size=32, max_epochs=1, patience=10_000, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = train_bptt(target, narx, [tiny, big], horizon=200, cfg=cfg, limits=inf, rho=0.01)
    assert res.skipped == [1] and repr(res.history) == repr([float(loss)])
    want = target.mlp.params.copy()
    norm = float(np.linalg.norm(grad))
    Adam(want.size, 1e-2).step(want, grad * (1.0 / norm) if norm > 1.0 else grad)
    assert res.trained.mlp.params.tobytes() == want.tobytes()
    with pytest.raises(NumericalFailure, match="^2/3 rollouts diverged in one epoch$"):
        train_bptt(target, narx, [tiny, big, np.full(201, 1.0)], horizon=200, cfg=cfg,
                   limits=inf, rho=0.01)


def test_bptt_horizon_cap():
    nc = NeuralController(Mlp([9, 4, 1], seed=0), u_min=-1.0, u_max=1.0, memory=4)
    with pytest.raises(ValueError):
        train_bptt(nc, _identity_narx(), [np.zeros(300)], horizon=250,
                   cfg=TrainConfig(max_epochs=1, seed=0, learning_rate=1e-2,
                                   batch_size=32, patience=10_000), limits=(-1.0, 1.0), rho=0.01)


# ---------------------------------------------------------------------------
# static AI tuning (bounded Nelder-Mead)
# ---------------------------------------------------------------------------

def _one_point_at_a_time(cost):
    """A `nelder_mead_bounded` objective from a cost of one point."""
    return lambda points: [cost(v) for v in points]


def test_nelder_mead_quadratic_stub_argmin():
    quadratic = lambda v: (v[0] - 1) ** 2 + (v[1] - 2) ** 2 + (v[2] - 0.5) ** 2
    best_x, _, trace = nelder_mead_bounded(_one_point_at_a_time(quadratic), np.full(3, 2.5),
                                           np.array([[0.0, 5.0]] * 3), budget=500, seed=0,
                                           restarts=2)
    assert best_x == pytest.approx([1.0, 2.0, 0.5], abs=1e-3)
    assert len(trace) <= 500


def test_budget_one_returns_first_simplex_point():
    res = tune_static_ai(_identity_narx(), [np.ones(10)], [[0.0, 4.0]] * 3, budget=1, rho=0.01,
                         seed=0, restarts=2, x0=None, limits=(-3.0, 3.0))
    assert len(res.trace) == 1
    assert (res.gains.kp, res.gains.ki, res.gains.kd) == (2.0, 2.0, 2.0)  # bound midpoint start


def test_positive_budget_required():
    with pytest.raises(ValueError):
        tune_static_ai(_identity_narx(), [np.ones(10)], [[0.0, 1.0]] * 3, budget=0, rho=0.01,
                       seed=0, restarts=2, x0=None, limits=(-math.inf, math.inf))


def test_tune_static_ai_against_surrogate_episode():
    # surrogate of a one-step-lag plant; optimized gains must track a step well
    narx = _identity_narx()
    ref = np.concatenate([np.zeros(5), np.ones(45)])
    res = tune_static_ai(narx, [ref], [[0.0, 2.0], [0.0, 2.0], [0.0, 0.2]],
                         budget=300, rho=0.01, seed=0, restarts=2, x0=None, limits=(-3.0, 3.0))
    assert math.isfinite(res.cost)
    assert res.cost < 1.0  # a stable tracking loop; diverging candidates cost inf


def _array_episode_cost(narx, gains, reference, rho):
    """`_episode_cost_on_surrogate` with its lag windows rebuilt as arrays on
    every step and the reference indexed as an array."""
    state = PidState()
    p, q = narx.p, narx.q
    y_hist = [0.0] * p
    u_hist = [0.0] * max(q - 1, 0)
    scale = max(1.0, float(np.max(np.abs(reference))))
    iae = 0.0
    effort = 0.0
    y_now = 0.0
    for k in range(len(reference) - 1):
        try:
            u = pid_step(gains, state, float(reference[k]), y_now, narx.dt)
        except ControllerFault:
            return math.inf
        u_hist.append(u)
        y_now = array_predict_one(narx, np.array(y_hist), np.array(u_hist))
        if not math.isfinite(y_now) or abs(y_now) > 1e6 * scale:
            return math.inf
        y_hist.append(y_now)
        y_hist = y_hist[-p:]
        u_hist = u_hist[-q:] if q > 1 else []
        iae += abs(float(reference[k + 1]) - y_now) * narx.dt
        effort += abs(u) * narx.dt
    return iae + rho * effort


def _episode(narx, gains, reference, rho):
    """An episode on a reference array, as the search makes one."""
    return _episode_cost_on_surrogate(narx, gains, *_episode_reference(reference), rho)


def _costs(narx, cases):
    """`_lockstep_costs` over fresh episodes of (gains, reference, rho) cases."""
    return _lockstep_costs(narx, [_episode(narx, *c) for c in cases])


def _generator_episode(narx, gains, reference, rho):
    """The episode as a generator, the form the search ran before its
    lockstep loop: each step yields its feature row (it changes in place on
    the next send), is sent the prediction from it, and returns the cost
    when the episode ends, inf once a prediction is not finite or leaves the
    bound."""
    w, bound = _episode_reference(reference)
    state = PidState()
    dt, p = narx.dt, narx.p
    row = [0.0] * (p + narx.q)
    iae = 0.0
    effort = 0.0
    y_now = 0.0
    for k in range(len(w) - 1):
        try:
            u = pid_step(gains, state, w[k], y_now, dt)
        except ControllerFault:
            return math.inf
        del row[-1]
        row.insert(p, u)
        y_now = yield row
        if not math.isfinite(y_now) or abs(y_now) > bound:
            return math.inf
        del row[p - 1]
        row.insert(0, y_now)
        iae += abs(w[k + 1] - y_now) * dt
        effort += abs(u) * dt
    return iae + rho * effort


def _generator_cost(narx, case):
    """The cost of one `_generator_episode`, each row predicted by `predict_one`."""
    episode, y = _generator_episode(narx, *case), None
    try:
        while True:
            y = narx.predict_one(episode.send(y))
    except StopIteration as stop:
        return stop.value


@pytest.mark.bits
@pytest.mark.parametrize("p, q, hidden", NARX_SHAPES)
def test_episode_cost_bit_equal_to_array_form(p, q, hidden):
    """Episodes run in lockstep three, two and one at a time (a stack of
    one) cost exactly what the array form gives each on its own."""
    rng = np.random.default_rng(11 * p + q)
    for seed in range(4):
        narx = random_narx(p, q, hidden, seed)
        cases = []
        for _ in range(6):
            gains = PidGains(kp=rng.uniform(0.0, 3.0), ki=rng.uniform(0.0, 2.0),
                             kd=rng.uniform(0.0, 0.3), u_min=-3.0, u_max=3.0)
            ref = np.concatenate([np.zeros(3), np.full(40, rng.uniform(-2.0, 2.0))])
            cases.append((gains, ref, rng.uniform(0.0, 0.1)))
        want = [_array_episode_cost(narx, *case) for case in cases]
        assert all(math.isfinite(c) for c in want)
        assert _costs(narx, cases[:3]) == want[:3]
        assert _costs(narx, [(g, ref.tolist(), rho) for g, ref, rho in cases[3:]]) == want[3:]
        assert _costs(narx, cases[1:3]) == want[1:3]
        for case, cost in zip(cases, want):
            assert _costs(narx, [case]) == [cost]


@pytest.mark.parametrize("case", ["bound", "fault-output", "fault-reference"])
def test_episode_cost_inf_paths_match_array_form(case):
    narx = random_narx(2, 1, (5, 4), seed=2)
    gains = PidGains(kp=1.0, ki=0.5, u_min=-math.inf, u_max=math.inf)
    ref = np.concatenate([np.zeros(3), np.ones(30)])
    if case == "bound":
        # predictions of order 1e9 break the 1e6 * scale divergence bound
        narx = random_narx(2, 1, (5, 4), seed=2, y_std=1e9)
    elif case == "fault-output":
        ref[:] = 5.0
        gains = PidGains(kp=1e308, ki=0.5,
                         u_min=-math.inf, u_max=math.inf)  # kp * error overflows: ControllerFault
    else:
        ref[10] = math.nan  # pid_step rejects the reference: ControllerFault
    assert _array_episode_cost(narx, gains, ref, 0.01) == math.inf
    for count in (1, 2, 3):
        assert _costs(narx, [(gains, ref, 0.01)] * count) == [math.inf] * count


def _linear_narx():
    """Surrogate with no hidden layer, y[k+1] = 0.5 y[k] + u[k], so a large
    enough command passes the divergence bound."""
    net = Mlp([2, 1], init=False)
    net.weights[0][:] = np.array([[0.5, 1.0]])
    return NarxModel(net, 1, 1, 0.1, np.zeros(2), np.ones(2), np.zeros(1), np.ones(1))


def _nan_narx():
    """`_linear_narx` with a second input lag of weight 0 and std 1e-305: the
    step after a command passes about 1.8e3, that lag's normalized value
    overflows, and 0 * inf makes the prediction NaN, which only the finite
    check catches (NaN is not past any bound)."""
    net = Mlp([3, 1], init=False)
    net.weights[0][:] = np.array([[0.5, 1.0, 0.0]])
    return NarxModel(net, 1, 2, 0.1, np.zeros(3), np.array([1.0, 1.0, 1e-305]), np.zeros(1),
                     np.ones(1))


LOCKSTEP_NARX = {"linear": _linear_narx(), "nan": _nan_narx(),
                 "p3q2": random_narx(3, 2, (7,), seed=1), "p2q3": random_narx(2, 3, (5, 5), seed=4)}


LOCKSTEP_CASES = [("fault", "linear"), ("fault", "p3q2"), ("fault", "p2q3"), ("bound", "linear"),
                  ("nonfinite", "nan"), ("lengths", "linear"), ("lengths", "p3q2"),
                  ("lengths", "p2q3")]


def _lockstep_cases(case):
    """(gains, reference, rho) cases of which episodes end early, each at its
    own step: a ControllerFault (cost inf), a prediction past the 1e6 * scale
    bound or a NaN one while the others finish (the tanh of a hidden layer
    bounds the other surrogates' predictions), and references of unequal
    length."""
    rng = np.random.default_rng(7)
    cases = [(PidGains(kp=rng.uniform(0.2, 2.0), ki=rng.uniform(0.0, 1.0), kd=rng.uniform(0.0, 0.2),
                       u_min=-3.0, u_max=3.0),
              np.concatenate([np.zeros(2), np.full(n, rng.uniform(-2.0, 2.0))]),
              rng.uniform(0.0, 0.1)) for n in (30, 30, 30, 30)]
    if case == "fault":
        ref = cases[1][1].copy()
        ref[12] = math.nan  # pid_step rejects the reference at step 12
        cases[1] = (cases[1][0], ref, cases[1][2])
    elif case == "bound":
        # a command of 1e7 sends the linear surrogate past 1e6 once the reference steps
        cases[2] = (PidGains(kp=1e7, u_min=-1e7, u_max=1e7), cases[2][1], cases[2][2])
    elif case == "nonfinite":
        # a command of 1e4 once the reference steps: the output stays inside
        # the bound, and `_nan_narx` predicts NaN two steps later, which for
        # a reference of five samples is its last prediction (an unchecked
        # NaN there would be the cost; earlier, `pid_step` would refuse it)
        gains = PidGains(kp=1e4, u_min=-1e4, u_max=1e4)
        cases[2] = (gains, cases[2][1], cases[2][2])
        cases.append((gains, np.concatenate([np.zeros(2), np.ones(3)]), 0.01))
    else:
        # one step, none, and 5, 31 and 19 steps
        cases = [(g, ref[:n], rho) for (g, ref, rho), n in zip(cases, (2, 1, 6, 32))]
        cases.append((cases[0][0], np.concatenate([np.zeros(2), np.full(18, 0.7)]), 0.01))
    return cases


@pytest.mark.bits
@pytest.mark.parametrize("case, name", LOCKSTEP_CASES)
def test_lockstep_costs_match_array_form_per_episode(case, name):
    """Episodes that end early, each at its own step, leave the lockstep
    (`_lockstep_cases`)."""
    narx = LOCKSTEP_NARX[name]
    cases = _lockstep_cases(case)
    with np.errstate(over="ignore", invalid="ignore"):  # the nonfinite case's overflow
        want = [_array_episode_cost(narx, *c) for c in cases]
        assert sum(math.isfinite(c) for c in want) >= len(cases) - 1 - (case == "nonfinite")
        if case != "lengths":
            assert not all(math.isfinite(c) for c in want)
        assert _costs(narx, cases) == want


def test_lockstep_costs_of_no_episodes_are_an_empty_list():
    """A call with no episodes binds no stacked pass, which needs a row, and
    returns no cost."""
    assert _lockstep_costs(LOCKSTEP_NARX["linear"], []) == []


@pytest.mark.bits
@pytest.mark.parametrize("case, name", LOCKSTEP_CASES)
def test_lockstep_loop_costs_match_the_generator_and_array_forms(case, name):
    """The lockstep loop's cost of each episode is, bit for bit, that of the
    generator form it replaced (`_generator_episode`, run alone on the row
    path) and that of the array form, with 1, 2, 3 and 5 episodes side by
    side: every run of that many consecutive cases of `_lockstep_cases` and
    one that finishes, taken cyclically, so each episode that ends early
    (a fault, a divergence, a short reference) does so in a stack of every
    size and at every place in it."""
    narx = LOCKSTEP_NARX[name]
    cases = [*_lockstep_cases(case),
             (PidGains(kp=0.8, ki=0.4, kd=0.05, u_min=-3.0, u_max=3.0),
              np.concatenate([np.zeros(2), np.full(25, 0.6)]), 0.02)]
    n = len(cases)
    with np.errstate(over="ignore", invalid="ignore"):  # the nonfinite case's overflow
        want = [_array_episode_cost(narx, *c) for c in cases]
        assert [_generator_cost(narx, c) for c in cases] == want
        for count in (1, 2, 3, 5):
            for start in range(n):
                at = [(start + j) % n for j in range(count)]
                assert _costs(narx, [cases[i] for i in at]) == [want[i] for i in at]


def _window_episode(narx, gains, reference, rho):
    """`_episode_cost_on_surrogate` in its window form: the same episode,
    yielding its chronological lag windows (p outputs and q inputs, newest
    last; they change in place on the next send) instead of its feature row."""
    state = PidState()
    dt = narx.dt
    w = np.asarray(reference, dtype=float).tolist()
    y_hist = [0.0] * narx.p
    u_hist = [0.0] * (narx.q - 1)
    bound = 1e6 * max(1.0, float(np.max(np.abs(reference))))
    iae = effort = y_now = 0.0
    for k in range(len(w) - 1):
        try:
            u = pid_step(gains, state, w[k], y_now, dt)
        except ControllerFault:
            return math.inf
        u_hist.append(u)
        y_now = yield y_hist, u_hist
        if not math.isfinite(y_now) or abs(y_now) > bound:
            return math.inf
        y_hist.append(y_now)
        del y_hist[0]
        del u_hist[0]
        iae += abs(w[k + 1] - y_now) * dt
        effort += abs(u) * dt
    return iae + rho * effort


ROW_NARX = {**LOCKSTEP_NARX, "p2q1": random_narx(2, 1, (5, 4), seed=3)}


def _spied_costs(monkeypatch, narx, cases):
    """`_costs` of the cases with the surrogate's inputs spied on: every pass
    of the `Mlp.stacked_pass` binding, as its k feature rows and the
    predictions made from them (denormalized on floats), in call order."""
    calls, width = [], narx.p + narx.q
    stacked_pass = Mlp.stacked_pass

    def spied_pass(self, k, mean, std):
        acts, run = stacked_pass(self, k, mean, std)

        def spy(rows):
            outs = run(rows)
            calls.append(([rows[i * width:(i + 1) * width] for i in range(k)],
                          [v * narx._y_std + narx._y_mean for v in outs]))
            return outs
        return acts, spy

    with monkeypatch.context() as m:
        m.setattr(Mlp, "stacked_pass", spied_pass)
        return _costs(narx, cases), calls


@pytest.mark.parametrize("case, name", [*LOCKSTEP_CASES, ("fault", "p2q1"), ("lengths", "p2q1")])
def test_episode_rows_are_lag_features_of_the_window_form(case, name, monkeypatch):
    """Each episode alone (a one-row pass), and all of them in one lockstep:
    at every step, the row each live episode gives the surrogate has the
    bits of `lag_features` of the window form's windows when the window
    form is sent the same predictions, the live episodes are those the
    window form has not ended, the rows of the episodes that have left
    repeat the last live row, and both end every episode with the same
    cost: the episodes that end early (`_lockstep_cases`) included."""
    narx = ROW_NARX[name]
    cases = _lockstep_cases(case)
    early = []
    for group in [*([c] for c in cases), cases]:
        with np.errstate(over="ignore", invalid="ignore"):  # the nonfinite case's overflow
            costs, calls = _spied_costs(monkeypatch, narx, group)
        windows = [_window_episode(narx, *c) for c in group]
        want, now, steps = [None] * len(group), [None] * len(group), [0] * len(group)

        def send(i, y):
            try:
                now[i] = windows[i].send(y)
            except StopIteration as stop:
                want[i] = stop.value
        for i in range(len(group)):
            send(i, None)
        for rows, ys in calls:
            live = [i for i, cost in enumerate(want) if cost is None]
            n = len(live)
            assert len(rows) == len(group) and np.array(rows[n:]).tobytes() == \
                np.array(rows[n - 1:n] * (len(group) - n)).tobytes()
            for i, row, y in zip(live, rows, ys):
                y_win, u_win = now[i]
                assert np.array(row).tobytes() == \
                    np.array(lag_features(y_win, u_win, narx.p, narx.q)).tobytes()
                steps[i] += 1
                send(i, y)
        assert None not in want and repr(costs) == repr(want)
        if case == "nonfinite" and len(group) > 1:
            assert any(math.isnan(y) for _, ys in calls for y in ys)
        early.append(sum(n < len(c[1]) - 1 for n, c in zip(steps, group)))
    # one episode ends early, alone and in the lockstep, unless the lengths differ
    assert sum(early[:-1]) == early[-1] == (case != "lengths")


def test_tune_static_ai_costs_equal_the_per_episode_mean(monkeypatch):
    """The search's cost of each evaluation, every trace row included, equals
    the mean of the per-episode array costs for one, two and three episodes:
    the lockstep of every episode of a start simplex or shrink changes no bit,
    also where the budget cuts a shrink after two of its three points."""
    narx = random_narx(2, 2, (8,), seed=5)
    bounds = [[0.1, 2.0], [0.05, 2.0], [0.0, 0.2]]
    box = np.array(bounds)
    rows = []
    lockstep = neuro._lockstep_costs
    monkeypatch.setattr(neuro, "_lockstep_costs",
                        lambda model, runs: rows.append(len(runs)) or lockstep(model, runs))
    # the budget that ends two points into the first shrink, by episode count
    for count, cut in [(1, 10), (2, 13), (3, 13)]:
        episodes = [np.concatenate([np.zeros(2), np.full(25, level)])
                    for level in (0.5, 1.0, 1.5)[:count]]

        def oracle(vec):
            gains = PidGains(kp=float(vec[0]), ki=float(vec[1]), kd=float(vec[2]), u_min=-3.0,
                             u_max=3.0)
            return float(np.mean([_array_episode_cost(narx, gains, ep, 0.01) for ep in episodes]))

        for budget in (cut, 25):
            rows.clear()
            got = tune_static_ai(narx, episodes, bounds, budget=budget, rho=0.01, seed=3,
                                 restarts=2, x0=None, limits=(-3.0, 3.0))
            want_x, want_f, want_trace = nelder_mead_bounded(
                _one_point_at_a_time(oracle), 0.5 * (box[:, 0] + box[:, 1]), box, budget,
                seed=3, restarts=2)
            assert got.trace == want_trace and got.cost == want_f
            assert got.gains == PidGains(kp=float(want_x[0]), ki=float(want_x[1]),
                                         kd=float(want_x[2]), u_min=-3.0, u_max=3.0)
            assert len(got.trace) == budget and rows[0] == 4 * count
            assert (rows[-1] == 2 * count) if budget == cut else (3 * count in rows)


def _sequential_nelder_mead(f, x0, bounds, budget, seed=0, restarts=1):
    """`nelder_mead_bounded` as it was before it batched the start simplex and
    the shrink: `f(x) -> cost` of one point, every point evaluated in turn."""
    bounds = np.asarray(bounds, dtype=float)
    n = len(x0)
    trace = []
    best_x, best_f = None, math.inf
    evals = 0

    class BudgetExhausted(Exception):
        pass

    def wrapped(x):
        nonlocal evals, best_x, best_f
        if evals >= budget:
            raise BudgetExhausted
        xc = np.clip(x, bounds[:, 0], bounds[:, 1])
        c = float(f(xc))
        trace.append((evals, c))
        evals += 1
        if c < best_f:
            best_f, best_x = c, xc.copy()
        return c

    rng = np.random.default_rng(seed)
    starts = [np.asarray(x0, dtype=float)]
    for _ in range(max(restarts - 1, 0)):
        starts.append(bounds[:, 0] + rng.random(n) * (bounds[:, 1] - bounds[:, 0]))

    alpha, gamma, rho_c, sigma = 1.0, 2.0, 0.5, 0.5
    try:
        for x_start in starts:
            simplex = [x_start.copy()]
            for i in range(n):
                v = x_start.copy()
                step = 0.25 * (bounds[i, 1] - bounds[i, 0])
                v[i] = v[i] + step if v[i] + step <= bounds[i, 1] else v[i] - step
                simplex.append(v)
            fs = [wrapped(v) for v in simplex]
            for _ in range(10 * budget):
                order = np.argsort(fs)
                simplex = [simplex[i] for i in order]
                fs = [fs[i] for i in order]
                with np.errstate(invalid="ignore"):  # an inf cost: nan spread, no break
                    flat = np.std(fs) < 1e-14
                if flat and max(np.linalg.norm(v - simplex[0]) for v in simplex) < 1e-12:
                    break
                centroid = np.mean(simplex[:-1], axis=0)
                xr = centroid + alpha * (centroid - simplex[-1])
                fr = wrapped(xr)
                if fs[0] <= fr < fs[-2]:
                    simplex[-1], fs[-1] = xr, fr
                    continue
                if fr < fs[0]:
                    xe = centroid + gamma * (xr - centroid)
                    fe = wrapped(xe)
                    simplex[-1], fs[-1] = (xe, fe) if fe < fr else (xr, fr)
                    continue
                xc = centroid + rho_c * (simplex[-1] - centroid)
                fc = wrapped(xc)
                if fc < fs[-1]:
                    simplex[-1], fs[-1] = xc, fc
                    continue
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                    fs[i] = wrapped(simplex[i])
    except BudgetExhausted:
        pass
    return best_x, best_f, trace


# one-point costs: an optimum outside the box, ties (a coarse floor and a
# constant, which shrink on every step), and inf on part of the box or all of it
SEARCH_COSTS = {
    "outside": lambda v: float(np.sum((v - 10.0) ** 2)),
    "ties": lambda v: float(np.floor(4.0 * np.sum((v - 0.3) ** 2))),
    "constant": lambda v: 1.0,
    "inf-part": lambda v: math.inf if v[0] > 0.6 else float(np.sum((v - 0.9) ** 2)),
    "inf-all": lambda v: math.inf,
}


@pytest.mark.bits
@pytest.mark.parametrize("restarts", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", list(SEARCH_COSTS))
def test_nelder_mead_matches_the_sequential_search(name, n, restarts):
    """Start simplices and shrinks evaluated as one call of several points give
    the trace, best point and best cost of evaluating them one at a time, for
    every budget from 1 to 12: budgets that end inside a start simplex, inside
    a shrink, and past them."""
    cost = SEARCH_COSTS[name]
    bounds = np.array([[0.0, 1.0], [0.0, 2.0], [-1.0, 0.5]])[:n]
    x0 = np.array([0.4, 1.9, 0.2])[:n]
    for budget in range(1, 13):
        sizes = []

        def batch(points):
            sizes.append(len(points))
            return [cost(v) for v in points]

        want_x, want_f, want_trace = _sequential_nelder_mead(cost, x0, bounds, budget,
                                                             seed=budget, restarts=restarts)
        got_x, got_f, got_trace = nelder_mead_bounded(batch, x0, bounds, budget,
                                                      seed=budget, restarts=restarts)
        assert got_trace == want_trace and len(got_trace) == sum(sizes) <= budget
        assert got_f == want_f
        assert (got_x is None and want_x is None) or got_x.tobytes() == want_x.tobytes()
        assert sizes[0] == min(n + 1, budget) and all(1 <= k <= n + 1 for k in sizes)
        if name == "constant" and n == 3 and budget == 12:
            # start simplex, reflection, contraction, shrink, then a shrink cut after one point
            assert sizes == [4, 1, 1, 3, 1, 1, 1]


def test_nelder_mead_respects_bounds():
    seen = []

    def probe(points):
        seen.extend(v.copy() for v in points)
        return [float(np.sum((v - 10.0) ** 2)) for v in points]  # optimum far outside bounds

    nelder_mead_bounded(probe, np.array([0.5, 0.5]), np.array([[0.0, 1.0], [0.0, 1.0]]),
                        budget=200, seed=0, restarts=2)
    pts = np.array(seen)
    assert len(pts) == 200 and np.all(pts >= 0.0) and np.all(pts <= 1.0)


# ---------------------------------------------------------------------------
# imitation with dual-dataset mixing
# ---------------------------------------------------------------------------

def _p_teacher_run(seed, n=2000):
    rng = np.random.default_rng(seed)
    w = np.repeat(rng.uniform(-1.0, 1.0, size=n // 40), 40)[:n]
    y = np.zeros(n)
    u = np.zeros(n)
    for k in range(n - 1):
        u[k] = 2.0 * (w[k] - y[k])
        y[k + 1] = y[k] + 0.2 * (u[k] - y[k])
    u[n - 1] = 2.0 * (w[n - 1] - y[n - 1])

    class Run:
        pass

    r = Run()
    r.t = np.arange(n) * 0.1
    r.w, r.y, r.y_meas, r.u, r.d = w, y, y, u, np.zeros(n)
    return r


def _p_teacher_mix(lam, m=4, with_disturbance=False):
    """Sets A and B of one pure-P teacher run each, and the mix ratio."""
    return (imitation_data_from_run([_p_teacher_run(1)], m, with_disturbance),
            imitation_data_from_run([_p_teacher_run(2)], m, with_disturbance), lam)


@pytest.mark.parametrize("sensor", [SensorSpec(noise_std=0.02, quantization=0.01),
                                    SensorSpec(sample_period=0.05)])
def test_replayed_rows_equal_deployed_rows(sensor, monkeypatch):
    """Imitation replay builds exactly the rows the deployed loop fed its
    network, with the recorded controls in the control window."""
    nc = NeuralController(Mlp([9, 8, 1], seed=3), u_min=-2.0, u_max=2.0, memory=4)
    plant = PlantModel(Fopdt(gain=1.0, tau=1.0, dead_time=0.1), u_min=-3.0, u_max=3.0, x0=None)
    rows = []
    stacked_pass = Mlp.stacked_pass

    def spy(self, k, mean, std):
        acts, run = stacked_pass(self, k, mean, std)
        return acts, lambda row: rows.append(np.array(row)) or run(row)

    monkeypatch.setattr(Mlp, "stacked_pass", spy)
    cfg = SimConfig(dt=0.025, horizon=5.0, seed=4)
    traj = simulate(plant, NeuralControlLoop(nc), np.where(cfg.time_grid() >= 0.5, 1.0, 0.0),
                    sensor=sensor, cfg=cfg)
    n = len(traj.t)
    assert len(rows) == n
    x = imitation_data_from_run([traj], 4, with_disturbance=False).x
    assert x.shape == (n - 1, 9)
    assert np.array_equal(x, np.stack(rows[:n - 1]))


def _rows_one_by_one(traj, m, with_disturbance):
    """The imitation rows built one `NeuralController.features` call per step,
    on Python float records, and their targets."""
    n = len(traj.t)
    y_pad = [0.0] * (m - 1) + np.asarray(traj.y_meas, dtype=float).tolist()
    u_pad = [0.0] * m + np.asarray(traj.u, dtype=float).tolist()
    feats = [NeuralController.features(traj.w[k], y_pad[k:k + m], u_pad[k:k + m])
             for k in range(n - 1)]
    targets = [u_pad[m:m + n - 1]]
    if with_disturbance:
        targets.append(np.asarray(traj.d, dtype=float)[1:n])
    return np.array(feats), np.column_stack(targets)


@pytest.mark.parametrize("with_disturbance", [False, True], ids=["u", "u-d"])
@pytest.mark.parametrize("m", [1, 4, 7])
def test_imitation_rows_bit_equal_to_row_by_row_build(m, with_disturbance):
    """The windowed build against one `features` call per step, byte for
    byte, on records of 2 to 300 samples (shorter than the memory too) whose
    values span zeros of both signs and magnitudes from 1e-300 to 1e300."""
    rng = np.random.default_rng([m, with_disturbance])
    for n in (2, 3, m + 1, 300):
        class Run:
            pass

        r = Run()
        r.t = np.arange(n) * 0.1
        r.w, r.y_meas, r.u, r.d = (rng.normal(size=n) * 10.0 ** rng.uniform(-300, 300, size=n)
                                   for _ in range(4))
        r.y_meas[::5], r.u[1::5] = -0.0, 0.0
        ds = imitation_data_from_run([r], m, with_disturbance)
        x, y = _rows_one_by_one(r, m, with_disturbance)
        assert ds.x.shape == (n - 1, 1 + 2 * m) and ds.y.shape == (n - 1, 1 + with_disturbance)
        assert ds.x.tobytes() == x.tobytes() and ds.y.tobytes() == y.tobytes()


@pytest.mark.parametrize("with_disturbance", [False, True], ids=["u", "u-d"])
def test_imitation_rows_of_two_runs_are_each_runs_rows_in_order(with_disturbance):
    """Two runs of different lengths give the first run's rows, then the
    second's, byte for byte as each run's own block."""
    first, second = _p_teacher_run(1, n=320), _p_teacher_run(2, n=80)
    first.d, second.d = np.sin(first.t), np.cos(second.t)
    both = imitation_data_from_run([first, second], 4, with_disturbance)
    blocks = [imitation_data_from_run([r], 4, with_disturbance) for r in (first, second)]
    assert len(blocks[0]) != len(blocks[1])
    assert both.x.tobytes() == np.vstack([b.x for b in blocks]).tobytes()
    assert both.y.tobytes() == np.vstack([b.y for b in blocks]).tobytes()


def test_imitation_clones_pure_p_teacher():
    nc = NeuralController(Mlp([9, 24, 1], seed=0), u_min=-6.0, u_max=6.0, memory=4)
    res = train_imitation(nc, *_p_teacher_mix(0.5),
                          TrainConfig(learning_rate=5e-3, batch_size=128,
                                      max_epochs=1200, patience=400, seed=0), aux_weight=0.0)
    assert res.val_rmse_a < 0.01
    assert res.val_rmse_b < 0.01


def test_lambda_one_draws_only_dataset_a():
    nc = NeuralController(Mlp([9, 8, 1], seed=0), u_min=-6.0, u_max=6.0, memory=4)
    res = train_imitation(nc, *_p_teacher_mix(1.0),
                          TrainConfig(learning_rate=1e-2, batch_size=32, max_epochs=5, seed=3,
                                      patience=10_000),
                          aux_weight=0.0)
    assert res.a_fraction == [1.0] * 5


def test_lambda_half_realized_fraction():
    nc = NeuralController(Mlp([9, 8, 1], seed=0), u_min=-6.0, u_max=6.0, memory=4)
    res = train_imitation(nc, *_p_teacher_mix(0.5),
                          TrainConfig(learning_rate=1e-2, batch_size=64, max_epochs=10, seed=3,
                                      patience=10_000),
                          aux_weight=0.0)
    for frac in res.a_fraction:
        assert frac == pytest.approx(0.5, abs=0.05)


def test_imitation_deterministic_weights():
    def run():
        nc = NeuralController(Mlp([9, 8, 1], seed=5), u_min=-6.0, u_max=6.0, memory=4)
        res = train_imitation(nc, *_p_teacher_mix(0.5),
                              TrainConfig(learning_rate=1e-2, batch_size=64,
                                          max_epochs=15, seed=21, patience=10_000), aux_weight=0.0)
        return res.controller.mlp.params

    assert np.array_equal(run(), run())


@pytest.mark.parametrize("batch, n_batches", [(4096, 1), (1000, 2), (64, 46)],
                         ids=["1-batch", "2-batches", "46-batches"])
def test_imitation_draws_three_times_per_epoch(monkeypatch, batch, n_batches):
    """The A/B mask, the A rows and the B rows: three generator calls per
    epoch, whatever the number of batches in it."""
    default_rng = np.random.default_rng
    calls = []

    class CountingRng:
        def __init__(self, seed):
            self._rng = default_rng(seed)

        def __getattr__(self, name):
            draw = getattr(self._rng, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return draw(*args, **kwargs)
            return counted

    a, b, lam = _p_teacher_mix(0.5)
    n_train = split_contiguous(len(a), 0.25) + split_contiguous(len(b), 0.25)
    assert max(n_train // batch, 1) == n_batches
    nc = NeuralController(Mlp([9, 8, 1], seed=5), u_min=-6.0, u_max=6.0, memory=4)
    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    res = train_imitation(nc, a, b, lam,
                          TrainConfig(learning_rate=1e-2, batch_size=batch, max_epochs=6,
                                      seed=21, patience=10_000), aux_weight=0.0)
    assert len(res.history) == 6
    assert calls == ["random", "integers", "integers"] * 6


# ---------------------------------------------------------------------------
# disturbance-prediction head
# ---------------------------------------------------------------------------

def _disturbance_runs(m=8):
    plant = PlantModel(Fopdt(gain=1.0, tau=1.0, dead_time=0.2), u_min=-4.0, u_max=4.0, x0=None)
    dist = DisturbanceSpec(variant="sinusoid", injection="output", amplitude=0.3, period=2.0)
    pid = PidGains(kp=1.5, ki=1.0, u_min=-4.0, u_max=4.0)
    tr1 = simulate(plant, PidController(pid), 1.0, disturbance=dist,
                   cfg=SimConfig(dt=0.1, horizon=120.0, seed=1))
    tr2 = simulate(plant, PidController(pid), 0.5, disturbance=dist,
                   cfg=SimConfig(dt=0.1, horizon=120.0, seed=2))
    return (imitation_data_from_run([tr1], m, with_disturbance=True),
            imitation_data_from_run([tr2], m, with_disturbance=True), 0.5)


def test_aux_head_predicts_sinusoid_disturbance():
    m = 8
    nc = NeuralController(Mlp([1 + 2 * m, 24, 1], seed=0), u_min=-4.0, u_max=4.0, memory=m,
                          aux=Mlp([24, 1], seed=100))
    a, b, lam = _disturbance_runs(m)
    res = train_imitation(nc, a, b, lam,
                          TrainConfig(learning_rate=5e-3, batch_size=64,
                                      max_epochs=500, patience=500, seed=0),
                          aux_weight=0.1)
    model = res.controller
    nb = len(b)
    k = split_contiguous(nb, 0.25)
    preds = np.array([_aux_output(model, b.x[i]) for i in range(k, nb)])
    rmse = float(np.sqrt(np.mean((preds - b.y[k:, 1]) ** 2)))
    assert rmse < 0.2 * 0.3  # 20% of the disturbance amplitude


def test_zero_aux_weight_leaves_main_task_unchanged():
    m = 4
    # disturbance targets, so that the aux path is exercised
    mix = _p_teacher_mix(0.5, m, with_disturbance=True)
    cfg = TrainConfig(learning_rate=1e-2, batch_size=64, max_epochs=20, seed=4, patience=10_000)

    with_head = NeuralController(Mlp([9, 8, 1], seed=6), u_min=-6.0, u_max=6.0, memory=m,
                                 aux=Mlp([8, 1], seed=50))
    res_head = train_imitation(with_head, *mix, cfg, aux_weight=0.0)

    without = NeuralController(Mlp([9, 8, 1], seed=6), u_min=-6.0, u_max=6.0, memory=m)
    res_plain = train_imitation(without, *mix, cfg, aux_weight=0.0)

    diff = np.abs(res_head.controller.mlp.params - res_plain.controller.mlp.params)
    assert float(np.max(diff)) < 1e-9


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_controller_save_load_round_trip(tmp_path):
    nc = NeuralController(Mlp([9, 6, 1], seed=8), u_min=-2.0, u_max=2.0, memory=4,
                          aux=Mlp([6, 1], seed=9))
    save_model(nc, tmp_path / "ctl.weights")
    back = load_model(tmp_path / "ctl.weights", NeuralController)
    f = np.linspace(-1, 1, 9)
    z_back, z = (c.mlp.stacked_pass(1, c.feat_mean, c.feat_std)[1](f) for c in (back, nc))
    assert z_back == z
    u_back, u = ([loop.step(0.1 * k, 0.7 - 0.05 * k, 0.01) for k in range(5)]
                 for loop in (NeuralControlLoop(back), NeuralControlLoop(nc)))
    assert u_back == u
    assert _aux_output(back, f) == _aux_output(nc, f)


def test_scheduler_save_load_round_trip(tmp_path):
    gs = GainScheduler(Mlp([8, 5, 3], seed=2), bounds=[[0.1, 2.0], [0.0, 1.0], [0.0, 0.3]],
                       memory=4)
    save_model(gs, tmp_path / "sched.weights")
    back = load_model(tmp_path / "sched.weights", GainScheduler)
    f = np.linspace(-1, 1, 8)
    assert _gains(back, f) == _gains(gs, f)
