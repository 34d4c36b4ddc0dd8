import json
from pathlib import Path

import numpy as np
import pytest

from loopbench.cli import main
from loopbench.config import DEFAULTS, resolve_config
from loopbench.errors import ConfigError, ParseError
from loopbench.neuro import (
    GainScheduler, NeuralController, load_controller, load_scheduler, save_controller,
    save_scheduler,
)
from loopbench.nnet import Mlp


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return str(path)


def _read_rows(path):
    return Path(path).read_text().splitlines()


FOPDT_PLANT = {"variant": "fopdt", "gain": 1.0, "tau": 1.0, "dead_time": 0.5,
               "limits": [-3.0, 3.0]}


def _record_cfg():
    return {
        "sim": {"dt": 0.5, "horizon": 200.0, "seed": 11},
        "plant": dict(FOPDT_PLANT),
        "excitation": {"variant": "prbs", "order": 7, "amplitude": 1.0, "bit_period": 1.0,
                       "seed": 2},
    }


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError) as err:
        resolve_config({"plant": {"variant": "fopdt", "bogus": 1}})
    assert err.value.path == "plant.bogus"


def test_unknown_top_level_section_rejected():
    with pytest.raises(ConfigError) as err:
        resolve_config({"unknown_section": {}})
    assert err.value.path == "unknown_section"


def test_defaults_filled():
    cfg = resolve_config({})
    assert cfg["sim"]["dt"] == DEFAULTS["sim"]["dt"]
    assert cfg["safety"]["kind"] == "none"


def test_resolved_config_revalidates():
    cfg = resolve_config({"sim": {"dt": 0.1, "horizon": 5.0, "seed": 3}})
    again = resolve_config(cfg)
    assert again == cfg


@pytest.mark.parametrize("section, key", [("sim", "dt"), ("sim", "horizon"),
                                          ("training", "lambda")])
def test_non_numeric_config_value_exits_2_with_key_path(tmp_path, capsys, section, key):
    cfg_path = _write(tmp_path, "c.json", {**_record_cfg(), section: {key: "x"}})
    assert main(["record", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err


def test_non_numeric_actuator_limit_is_validation_error():
    with pytest.raises(ConfigError) as err:
        resolve_config({"plant": {"limits": [0.0, "1"]}})
    assert err.value.path == "plant.limits"


# ---------------------------------------------------------------------------
# record
# ---------------------------------------------------------------------------

def test_record_row_count(tmp_path):
    cfg_path = _write(tmp_path, "c.json", _record_cfg())
    assert main(["record", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
    rows = _read_rows(tmp_path / "o" / "record.csv")
    assert len(rows) == 1 + 400  # header + horizon/dt samples


def test_record_missing_plant_is_validation_error(tmp_path, capsys):
    cfg = _record_cfg()
    del cfg["plant"]
    cfg_path = _write(tmp_path, "c.json", cfg)
    assert main(["record", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "plant" in capsys.readouterr().err


def test_record_byte_identical_reruns(tmp_path):
    cfg_path = _write(tmp_path, "c.json", _record_cfg())
    main(["record", "--config", cfg_path, "--out", str(tmp_path / "a")])
    main(["record", "--config", cfg_path, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "record.csv").read_bytes() == (tmp_path / "b" / "record.csv").read_bytes()


def test_record_echoes_resolved_config(tmp_path):
    cfg_path = _write(tmp_path, "c.json", _record_cfg())
    main(["record", "--config", cfg_path, "--out", str(tmp_path / "o")])
    echo = json.loads((tmp_path / "o" / "record_config.json").read_text())
    assert echo["sim"]["seed"] == 11
    assert echo["sensor"]["noise_std"] == 0.0  # default materialized
    # feeding the echo back reproduces the run
    echo_path = _write(tmp_path, "echo.json", echo)
    main(["record", "--config", echo_path, "--out", str(tmp_path / "o2")])
    assert (tmp_path / "o" / "record.csv").read_bytes() == (tmp_path / "o2" / "record.csv").read_bytes()


# ---------------------------------------------------------------------------
# fit-surrogate
# ---------------------------------------------------------------------------

def _recorded(tmp_path):
    cfg = _record_cfg()
    cfg["sim"]["horizon"] = 400.0
    cfg["excitation"]["order"] = 9
    cfg["surrogate"] = {"p": 2, "q": 2, "hidden": [32], "epochs": 300, "patience": 100}
    cfg_path = _write(tmp_path, "rec.json", cfg)
    main(["record", "--config", cfg_path, "--out", str(tmp_path / "rec")])
    return cfg, cfg_path, tmp_path / "rec" / "record.csv"


def test_fit_surrogate_report_fields(tmp_path, capsys):
    cfg, cfg_path, data = _recorded(tmp_path)
    assert main(["fit-surrogate", "--config", cfg_path, "--data", str(data),
                 "--out", str(tmp_path / "sur")]) == 0
    out = capsys.readouterr().out
    assert "one_step_rmse" in out and "rollout_rmse" in out
    report = dict(line.split(",", 1) for line in
                  _read_rows(tmp_path / "sur" / "surrogate_report.csv")[1:])
    assert float(report["one_step_rmse"]) < float(report["output_range"])
    assert (tmp_path / "sur" / "surrogate.weights").exists()


def test_fit_surrogate_resamples_nonuniform(tmp_path, capsys):
    cfg, cfg_path, data = _recorded(tmp_path)
    # jitter the grid: drop one interior row so spacing is no longer constant
    rows = _read_rows(data)
    del rows[5]
    bad = tmp_path / "jitter.csv"
    bad.write_text("\n".join(rows) + "\n")
    assert main(["fit-surrogate", "--config", cfg_path, "--data", str(bad),
                 "--out", str(tmp_path / "sur2")]) == 0
    report = dict(line.split(",", 1) for line in
                  _read_rows(tmp_path / "sur2" / "surrogate_report.csv")[1:])
    assert report["resampled"] == "True"


def test_fit_surrogate_corrupt_csv_reports_line(tmp_path, capsys):
    cfg, cfg_path, data = _recorded(tmp_path)
    rows = _read_rows(data)
    rows[3] = rows[3].replace(",", ",oops", 1)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    assert main(["fit-surrogate", "--config", cfg_path, "--data", str(bad),
                 "--out", str(tmp_path / "sur3")]) == 4
    assert "line" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------

def test_tune_ziegler_nichols_via_relay(tmp_path):
    cfg = {
        "sim": {"dt": 0.005, "horizon": 30.0, "seed": 0},
        "plant": dict(FOPDT_PLANT),
        "tuning": {"mode": "rule", "rule": "ziegler-nichols", "kind": "pid"},
    }
    cfg_path = _write(tmp_path, "t.json", cfg)
    assert main(["tune", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
    gains = json.loads((tmp_path / "o" / "gains.json").read_text())
    assert gains["kp"] == pytest.approx(0.6 * 3.81, rel=0.15)


def test_tune_cohen_coon_passthrough_exact(tmp_path):
    cfg = {
        "tuning": {"mode": "rule", "rule": "cohen-coon",
                   "fopdt": {"gain": 1.0, "tau": 1.0, "dead_time": 0.5}},
    }
    cfg_path = _write(tmp_path, "t.json", cfg)
    assert main(["tune", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
    gains = json.loads((tmp_path / "o" / "gains.json").read_text())
    assert gains["kp"] == pytest.approx(35.0 / 12.0, rel=1e-9)
    assert gains["kp"] / gains["ki"] == pytest.approx(17.5 / 17.0, rel=1e-9)  # Ti
    assert gains["kd"] / gains["kp"] == pytest.approx(1.0 / 6.0, rel=1e-9)    # Td


def test_tune_ai_zero_budget_rejected(tmp_path, capsys):
    cfg = {"tuning": {"mode": "ai", "budget": 0}}
    cfg_path = _write(tmp_path, "t.json", cfg)
    assert main(["tune", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "budget" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train-controller
# ---------------------------------------------------------------------------

def _train_cfg():
    return {
        "sim": {"dt": 0.05, "horizon": 40.0, "seed": 5},
        "plant": {"variant": "fopdt", "gain": 1.0, "tau": 1.0, "dead_time": 0.2,
                  "limits": [-4.0, 4.0]},
        "training": {
            "mode": "imitation",
            "teacher": {"gains": {"kp": 2.0, "ki": 1.5, "kd": 0.1}},
            "memory": 4, "hidden": [16], "lambda": 0.5,
            "learning_rate": 0.005, "batch_size": 64, "epochs": 150, "patience": 100,
            "seed": 7, "episodes": {"count": 2, "level": 1.0},
        },
    }


def test_train_controller_unknown_mode_rejected(tmp_path, capsys):
    cfg = _train_cfg()
    cfg["training"]["mode"] = "wizardry"
    cfg_path = _write(tmp_path, "t.json", cfg)
    assert main(["train-controller", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "training.mode" in capsys.readouterr().err


def test_train_controller_p_teacher_rmse_printed(tmp_path, capsys):
    # pure proportional teacher: both held-out RMSEs printed below 0.01
    cfg = _train_cfg()
    cfg["training"]["teacher"] = {"gains": {"kp": 2.0, "ki": 0.0, "kd": 0.0}}
    cfg["training"]["epochs"] = 600
    cfg["training"]["hidden"] = [16]
    cfg_path = _write(tmp_path, "t.json", cfg)
    assert main(["train-controller", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    rmse_a = float(out.split("A=")[1].split()[0])
    rmse_b = float(out.split("B=")[1].split()[0])
    assert rmse_a < 0.01 and rmse_b < 0.01
    meta = json.loads((tmp_path / "o" / "controller.weights.meta.json").read_text())
    assert meta["training"]["lambda"] == 0.5


def test_train_controller_imitation_and_seed_repeat_identical(tmp_path):
    cfg_path = _write(tmp_path, "t.json", _train_cfg())
    assert main(["train-controller", "--config", cfg_path, "--out", str(tmp_path / "a")]) == 0
    assert main(["train-controller", "--config", cfg_path, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "controller.weights").read_bytes()
    b = (tmp_path / "b" / "controller.weights").read_bytes()
    assert a == b
    curve = _read_rows(tmp_path / "a" / "training_curve.csv")
    assert curve[0] == "epoch,train_loss,val_rmse_a,val_rmse_b"
    assert len(curve) > 10


# ---------------------------------------------------------------------------
# simulate (safety wrappers surfaced end to end)
# ---------------------------------------------------------------------------

def test_simulate_blend_delta_bound_in_output(tmp_path):
    cfg = {
        "sim": {"dt": 0.01, "horizon": 10.0, "seed": 11},
        "plant": dict(FOPDT_PLANT),
        "controller": {"kind": "pid", "gains": {"kp": 1.0, "ki": 0.8, "kd": 0.0}},
        "safety": {"kind": "blend", "delta": 0.1,
                   "correction": {"kind": "constant", "value": 9.0}},
        "reference": {"variant": "step", "level": 1.0},
    }
    cfg_path = _write(tmp_path, "s.json", cfg)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
    rows = np.genfromtxt(tmp_path / "o" / "blend.csv", delimiter=",", names=True)
    diffs = np.abs(rows["u"] - rows["u_conv"])
    assert np.all(diffs <= 0.1)
    assert float(np.max(diffs)) == pytest.approx(0.1, abs=1e-12)


def test_simulate_switch_logs_fallback_engagement(tmp_path):
    cfg = {
        "sim": {"dt": 0.01, "horizon": 30.0, "seed": 11},
        "plant": {"variant": "fopdt", "gain": 1.0, "tau": 1.0, "dead_time": 0.5,
                  "limits": [0.0, 3.0]},
        "controller": {"kind": "constant", "value": 3.0},
        "safety": {"kind": "switch", "theta_hi": 0.2, "theta_lo": 0.1, "dwell": 5,
                   "fallback": {"gains": {"kp": 2.28, "ki": 2.67, "kd": 0.49}}},
        "reference": {"variant": "step", "level": 1.0},
    }
    cfg_path = _write(tmp_path, "s.json", cfg)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
    transitions = _read_rows(tmp_path / "o" / "transitions.csv")
    assert any("AI->FALLBACK" in line for line in transitions[1:])


def test_simulate_without_safety_writes_no_safety_files(tmp_path):
    cfg = {
        "sim": {"dt": 0.01, "horizon": 5.0, "seed": 0},
        "plant": dict(FOPDT_PLANT),
        "controller": {"kind": "pid", "gains": {"kp": 1.0, "ki": 0.5, "kd": 0.0}},
        "reference": {"variant": "step", "level": 1.0},
    }
    cfg_path = _write(tmp_path, "s.json", cfg)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
    assert not (tmp_path / "o" / "transitions.csv").exists()
    assert not (tmp_path / "o" / "blend.csv").exists()
    assert (tmp_path / "o" / "plot.csv").exists()
    assert _read_rows(tmp_path / "o" / "plot.csv")[0] == "t,w,y,u"


@pytest.mark.parametrize("safety", [
    {"kind": "none"},
    {"kind": "blend", "delta": 0.1, "correction": {"kind": "constant", "value": 0.05}},
])
def test_simulate_pid_on_multi_output_plant_regulates_output_0(tmp_path, safety):
    # a PID (alone, or as the conventional side of a blend) on a 2-output
    # plant regulates output 0 like every other single-loop controller kind
    cfg = {
        "sim": {"dt": 0.01, "horizon": 20.0, "seed": 0},
        "plant": {"variant": "linear", "a": [[-0.5, 0.5], [0.0, -3.0]], "b": [0.0, 3.0],
                  "c": [[1.0, 0.0], [0.0, 1.0]], "limits": [-5.0, 5.0]},
        "controller": {"kind": "pid", "gains": {"kp": 1.0, "ki": 1.0, "kd": 0.0}},
        "safety": safety,
        "reference": {"variant": "step", "level": 1.0},
    }
    cfg_path = _write(tmp_path, "s.json", cfg)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
    rows = np.genfromtxt(tmp_path / "o" / "plot.csv", delimiter=",", names=True)
    assert rows["y"][-1] == pytest.approx(1.0, abs=0.05)


def test_simulate_diverged_exit_code(tmp_path, capsys):
    cfg = {
        "sim": {"dt": 0.1, "horizon": 50.0, "seed": 0},
        "plant": {"variant": "linear", "a": [[1.0]], "b": [1.0], "c": [[1.0]],
                  "x0": [1.0], "limits": [-1e6, 1e6]},
        "controller": {"kind": "constant", "value": 1e6},
        "reference": {"variant": "step", "level": 0.0},
    }
    cfg_path = _write(tmp_path, "s.json", cfg)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 3
    assert "numerical" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _two_sim_runs(tmp_path):
    base = {
        "sim": {"dt": 0.01, "horizon": 15.0, "seed": 0},
        "plant": dict(FOPDT_PLANT),
        "reference": {"variant": "step", "level": 1.0},
    }
    cfg_a = dict(base, controller={"kind": "pid", "gains": {"kp": 2.0, "ki": 2.0, "kd": 0.3}})
    cfg_b = dict(base, controller={"kind": "pid", "gains": {"kp": 1.0, "ki": 0.8, "kd": 0.0}})
    pa = _write(tmp_path, "a.json", cfg_a)
    pb = _write(tmp_path, "b.json", cfg_b)
    main(["simulate", "--config", pa, "--out", str(tmp_path / "ra")])
    main(["simulate", "--config", pb, "--out", str(tmp_path / "rb")])
    return tmp_path / "ra" / "trajectory.csv", tmp_path / "rb" / "trajectory.csv"


def test_compare_two_runs_sorted_by_iae(tmp_path, capsys):
    a, b = _two_sim_runs(tmp_path)
    assert main(["compare", str(a), str(b), "--out", str(tmp_path / "cmp")]) == 0
    rows = _read_rows(tmp_path / "cmp" / "comparison.csv")
    assert len(rows) == 3
    iae = [float(r.split(",")[6]) for r in rows[1:]]
    assert iae == sorted(iae)


def test_compare_jobs_flag_gives_same_result(tmp_path):
    a, b = _two_sim_runs(tmp_path)
    main(["compare", str(a), str(b), "--out", str(tmp_path / "c1")])
    main(["compare", str(a), str(b), "--jobs", "4", "--out", str(tmp_path / "c2")])
    assert (tmp_path / "c1" / "comparison.csv").read_bytes() == \
        (tmp_path / "c2" / "comparison.csv").read_bytes()


def test_bptt_scheduler_train_then_simulate(tmp_path):
    rec_cfg = {
        "sim": {"dt": 0.25, "horizon": 300.0, "seed": 1},
        "plant": {"variant": "fopdt", "gain": 1.0, "tau": 1.0, "dead_time": 0.25,
                  "limits": [-3.0, 3.0]},
        "excitation": {"variant": "prbs", "order": 8, "amplitude": 1.0, "bit_period": 1.0,
                       "seed": 2},
        "surrogate": {"p": 2, "q": 2, "hidden": [16], "epochs": 150, "patience": 150},
    }
    rec_path = _write(tmp_path, "rec.json", rec_cfg)
    assert main(["record", "--config", rec_path, "--out", str(tmp_path / "rec")]) == 0
    assert main(["fit-surrogate", "--config", rec_path,
                 "--data", str(tmp_path / "rec" / "record.csv"),
                 "--out", str(tmp_path / "sur")]) == 0

    train_cfg = {
        "sim": {"dt": 0.25, "horizon": 40.0, "seed": 1},
        "plant": rec_cfg["plant"],
        "training": {
            "mode": "bptt", "target": "scheduler", "memory": 4, "hidden": [8],
            "horizon": 80, "rho": 0.01, "learning_rate": 0.02, "epochs": 40, "seed": 3,
            "bounds": {"kp": [0.2, 3.0], "ki": [0.05, 2.0], "kd": [0.0, 0.0]},
            "episodes": {"count": 2, "level": 1.0},
        },
    }
    tr_path = _write(tmp_path, "train.json", train_cfg)
    assert main(["train-controller", "--config", tr_path,
                 "--surrogate", str(tmp_path / "sur" / "surrogate.weights"),
                 "--out", str(tmp_path / "sched")]) == 0

    sim_cfg = {
        "sim": {"dt": 0.25, "horizon": 30.0, "seed": 1},
        "plant": rec_cfg["plant"],
        "controller": {"kind": "pid+scheduler",
                       "model_path": str(tmp_path / "sched" / "scheduler.weights")},
        "reference": {"variant": "step", "level": 1.0},
    }
    sim_path = _write(tmp_path, "sim.json", sim_cfg)
    assert main(["simulate", "--config", sim_path, "--out", str(tmp_path / "schedout")]) == 0
    rows = _read_rows(tmp_path / "schedout" / "trajectory.csv")
    y_final = float(rows[-1].split(",")[2])
    assert abs(y_final - 1.0) < 0.1  # scheduled loop tracks the step


def test_compare_incomparable_runs_same_exit_code_and_message_with_jobs(tmp_path, capsys):
    a, _ = _two_sim_runs(tmp_path)
    other = {"sim": {"dt": 0.01, "horizon": 15.0, "seed": 0}, "plant": dict(FOPDT_PLANT),
             "reference": {"variant": "step", "level": 0.5}, "controller": {"kind": "pid"}}
    assert main(["simulate", "--config", _write(tmp_path, "c.json", other),
                 "--out", str(tmp_path / "rc")]) == 0
    c = tmp_path / "rc" / "trajectory.csv"
    capsys.readouterr()
    serial = main(["compare", str(a), str(c), "--out", str(tmp_path / "c1")])
    serial_err = capsys.readouterr().err
    parallel = main(["compare", str(a), str(c), "--jobs", "2", "--out", str(tmp_path / "c2")])
    assert (serial, serial_err) == (parallel, capsys.readouterr().err)
    assert serial == 3 and "different reference or disturbance" in serial_err


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def _saved_controller(tmp_path):
    path = tmp_path / "ctl.weights"
    save_controller(NeuralController(Mlp([9, 4, 1], seed=1), u_min=-3.0, u_max=3.0), path)
    return path


def _simulate_with_model(tmp_path, path, kind="neural"):
    cfg = {"sim": {"dt": 0.1, "horizon": 1.0, "seed": 0}, "plant": dict(FOPDT_PLANT),
           "controller": {"kind": kind, "model_path": str(path)}}
    return main(["simulate", "--config", _write(tmp_path, "sim.json", cfg),
                 "--out", str(tmp_path / "o")])


def test_truncated_weights_file_is_parse_error_with_line(tmp_path, capsys):
    path = _saved_controller(tmp_path)
    lines = path.read_text().splitlines()
    # cut right after the W1 marker on line 10
    path.write_text("\n".join(lines[:10]) + "\n")
    with pytest.raises(ParseError) as err:
        load_controller(path)
    assert err.value.line == 11
    capsys.readouterr()
    assert _simulate_with_model(tmp_path, path) == 4
    assert "line 11" in capsys.readouterr().err


def test_short_weights_row_is_parse_error_with_line(tmp_path):
    path = _saved_controller(tmp_path)
    lines = path.read_text().splitlines()
    lines[3] = " ".join(lines[3].split()[:-1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_controller(path)
    assert err.value.line == 4


@pytest.mark.parametrize("sidecar, line", [
    ('{"kind": "neural-controller",\n "memory": 4,,\n}', 2),  # invalid JSON
    ('{"kind": "narx-surrogate"}', 1),  # another model's sidecar
    ('{"kind": "neural-controller", "memory": 4}', 1),  # missing keys
])
def test_malformed_sidecar_is_parse_error(tmp_path, capsys, sidecar, line):
    path = _saved_controller(tmp_path)
    (tmp_path / "ctl.weights.meta.json").write_text(sidecar)
    with pytest.raises(ParseError) as err:
        load_controller(path)
    assert err.value.line == line
    capsys.readouterr()
    assert _simulate_with_model(tmp_path, path) == 4
    assert "meta.json" in capsys.readouterr().err


# a saved model with a disturbance head on its 4-wide last hidden layer, per
# model kind: (save, load, simulate controller kind)
_AUX_MODELS = {
    "controller": (lambda path: save_controller(
        NeuralController(Mlp([9, 5, 4, 1], seed=1), u_min=-3.0, u_max=3.0,
                         aux=Mlp([4, 1], seed=2)), path), load_controller, "neural"),
    "scheduler": (lambda path: save_scheduler(
        GainScheduler(Mlp([8, 5, 4, 3], seed=1), bounds=[[0.1, 2.0], [0.0, 1.0], [0.0, 0.3]],
                      aux=Mlp([4, 1], seed=2)), path), load_scheduler, "pid+scheduler"),
}


@pytest.mark.parametrize("model", sorted(_AUX_MODELS))
@pytest.mark.parametrize("aux", [
    {"aux_w": [[0.1, 0.2, 0.3, 0.4], [0.5]], "aux_b": [0.0, 0.0]},  # ragged
    {"aux_w": [], "aux_b": []},  # empty
    {"aux_w": [[0.1, 0.2, 0.3]], "aux_b": [0.0]},  # narrower than the last hidden layer
    {"aux_w": [[0.1, 0.2, 0.3, 0.4, 0.5]], "aux_b": [0.0]},  # wider
    {"aux_w": [[0.1, 0.2, 0.3, 0.4]], "aux_b": [0.0, 1.0]},  # bias of the wrong length
    {"aux_w": [[0.1, 0.2, 0.3, 0.4]], "aux_b": 0.0},  # bias not a list
    {"aux_w": [[0.1, 0.2, 0.3, 0.4]]},  # bias missing
    {"aux_w": [[0.1, "x", 0.3, 0.4]], "aux_b": [0.0]},  # non-numeric
], ids=["ragged", "empty", "narrow", "wide", "bias-length", "bias-scalar", "bias-missing",
        "non-numeric"])
def test_malformed_aux_head_is_parse_error(tmp_path, capsys, model, aux):
    save, load, kind = _AUX_MODELS[model]
    path = tmp_path / "model.weights"
    save(path)
    meta_path = tmp_path / "model.weights.meta.json"
    meta = json.loads(meta_path.read_text())
    assert len(meta["aux_w"][0]) == 4
    meta.pop("aux_b")
    meta.update(aux)
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ParseError) as err:
        load(path)
    assert str(meta_path) in str(err.value)
    capsys.readouterr()
    assert _simulate_with_model(tmp_path, path, kind) == 4
    assert "model.weights.meta.json" in capsys.readouterr().err


@pytest.mark.parametrize("model", sorted(_AUX_MODELS))
def test_well_formed_aux_head_still_loads(tmp_path, model):
    save, load, kind = _AUX_MODELS[model]
    path = tmp_path / "model.weights"
    save(path)
    assert load(path).aux.layer_sizes == [4, 1]
    assert _simulate_with_model(tmp_path, path, kind) == 0
