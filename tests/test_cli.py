import importlib
import itertools
import json
import math
import pkgutil
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import loopbench
from loopbench.cli import main
from loopbench.config import DEFAULTS, load_gains_file, resolve_config
from loopbench.dataio import read_timeseries, split_contiguous
from loopbench.errors import ConfigError, DataError, NumericalFailure, ParseError
from loopbench import cli, errors, neuro
from loopbench.neuro import GainScheduler, NeuralController
from loopbench.nnet import Mlp, load_model, save_model
from loopbench.surrogate import NarxModel


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


@pytest.mark.parametrize("leaf, value", [("sim.seed", True), ("sensor.noise_std", True),
                                         ("plant.gain", True), ("controller.gains.kp", False),
                                         ("plant.limits", [-1.0, True])])
def test_boolean_config_value_exits_2_with_key_path(tmp_path, capsys, leaf, value):
    # no setting is a boolean; `float()`/`int()` would read true as 1
    cfg = {"sim": {"dt": 0.1, "horizon": 1.0, "seed": 0}, "plant": dict(FOPDT_PLANT),
           "controller": {"kind": "pid", "gains": {"kp": 1.0}}}
    *sections, key = leaf.split(".")
    block = cfg
    for name in sections:
        block = block.setdefault(name, {})
    block[key] = value
    argv = ["simulate", "--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert f"config error: {leaf}: no setting takes a boolean" \
        in capsys.readouterr().err


def test_integer_beyond_the_float_range_exits_2_with_key_path():
    with pytest.raises(ConfigError) as err:
        resolve_config({"plant": {"gain": 10 ** 400}})
    assert err.value.path == "plant.gain"


@pytest.mark.parametrize("command", ["record", "simulate", "tune", "train-controller"])
def test_negative_seed_override_exits_2_naming_sim_seed(tmp_path, capsys, command):
    """`--seed` replaces `sim.seed` and is range-checked as it is."""
    cfg = {**_record_cfg(), "controller": {"kind": "pid"}, "tuning": {}, "training": {}}
    argv = [command, "--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]
    assert main([*argv, "--seed", "-1"]) == 2
    assert "config error: sim.seed: seed must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("target", ["config", "gains"])
def test_integer_too_long_to_convert_exits_2_naming_the_file(tmp_path, capsys, target):
    """A JSON integer of more than 4,300 digits, which `int` refuses to
    convert from text: `sim.seed` in a config, `kp` in a gains file."""
    big = "1" * 5000
    gains = tmp_path / "gains.json"
    gains.write_text(f'{{"kp": {big if target == "gains" else 1}}}', encoding="utf-8")
    config = Path(_sim_pid_cfg(tmp_path, gains_path=str(gains)))
    path, line = gains, 1
    if target == "config":
        text = config.read_text()
        config.write_text(text.replace('"seed": 0', f'"seed": {big}'))
        path, line = config, text[:text.index('"seed"')].count("\n") + 1
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert f"config error: line {line}: {path}: invalid number: Exceeds the limit (4300 digits)" \
        in capsys.readouterr().err


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


@pytest.mark.parametrize("excitation, message", [
    ({"variant": "prbs", "order": 2}, "PRBS order must be in 3..16"),
    ({"variant": "step_train", "levels": [1.0], "dwell": 0.0}, "dwell must be > 0"),
    ({"variant": "prbs", "bit_period": 0.1}, "bit period must be >= dt"),
    ({"variant": "prbs", "amplitude": 5.0},
     "excitation amplitude 5 exceeds actuator limits (-3.0, 3.0)"),
], ids=["prbs-order", "dwell", "bit-period", "amplitude"])
def test_rejected_excitation_exits_2_naming_the_section(tmp_path, capsys, excitation, message):
    cfg = {**_record_cfg(), "excitation": excitation}
    argv = ["record", "--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: excitation: {message}\n"


@pytest.mark.parametrize("command, path, extra", [
    ("record", "excitation.bit_period", {"excitation": {"variant": "prbs"}}),
    ("record", "excitation.duration", {"excitation": {"variant": "chirp"}}),
    ("simulate", "sensor.sample_period", {"controller": {"kind": "pid"}}),
    ("record", "excitation.dwell", {"excitation": {"variant": "step_train"}}),
    ("simulate", "reference.time", {"controller": {"kind": "pid"}}),
], ids=["bit-period", "chirp-duration", "sample-period", "step-train-dwell", "reference-time"])
def test_duration_past_the_horizon_exits_2_naming_the_key(tmp_path, capsys, command, path, extra):
    """A bit period, chirp duration, sample period, step train dwell or step
    reference time of 5 s on a 1 s run is refused with its key path; one
    equal to the horizon runs."""
    section, key = path.split(".")
    for value, code in ((5.0, 2), (1.0, 0)):
        cfg = _patched({"sim": {"dt": 0.01, "horizon": 1.0}, "plant": dict(FOPDT_PLANT),
                        section: {key: value}}, extra)
        argv = [command, "--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]
        assert main(argv) == code, value
        assert capsys.readouterr().err == ("" if code == 0 else f"config error: {path}: {key} "
                                           "must not exceed sim.horizon = 1.0\n")


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


@pytest.mark.parametrize("val_fraction", [0, -0.5, 1.0, 1.5, math.nan, math.inf])
def test_out_of_range_val_fraction_exits_2_naming_it(tmp_path, capsys, val_fraction):
    """A finite val_fraction outside (0, 1) fails the key check; a NaN or
    Infinity is no JSON number, so the parser names the file and its line."""
    rec_path = _write(tmp_path, "rec.json", _record_cfg())
    assert main(["record", "--config", rec_path, "--out", str(tmp_path / "rec")]) == 0
    cfg_path = _write(tmp_path, "sur.json",
                      {**_record_cfg(), "surrogate": {"val_fraction": val_fraction}})
    data = str(tmp_path / "rec" / "record.csv")
    argv = ["fit-surrogate", "--config", cfg_path, "--data", data, "--out", str(tmp_path / "sur")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    if math.isfinite(val_fraction):
        assert "config error: surrogate: val_fraction" in err
    else:
        text = Path(cfg_path).read_text()
        line = text[:text.index('"val_fraction"')].count("\n") + 1
        token = json.dumps(val_fraction)
        assert err == \
            f"config error: line {line}: {cfg_path}: invalid number: {token} is not finite\n"
    assert not (tmp_path / "sur").exists()


def _fit_surrogate_on_own_record(tmp_path, cfg):
    cfg_path = _write(tmp_path, "c.json", cfg)
    assert main(["record", "--config", cfg_path, "--out", str(tmp_path / "rec")]) == 0
    return main(["fit-surrogate", "--config", cfg_path, "--data",
                 str(tmp_path / "rec" / "record.csv"), "--out", str(tmp_path / "sur")])


def test_diverging_fit_surrogate_prints_one_line(tmp_path, capsys):
    """An overflowing Adam step makes the loss non-finite; the epoch check
    reports it, and numpy raises no warning on the way (which would print to
    stderr outside pytest)."""
    cfg = {"sim": {"dt": 0.01, "horizon": 5.0}, "plant": {"variant": "fopdt"},
           "excitation": {"variant": "prbs", "bit_period": 0.1},
           "surrogate": {"learning_rate": 1e300, "epochs": 5}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _fit_surrogate_on_own_record(tmp_path, cfg) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "numerical failure: non-finite loss (epoch 0)\n"


def test_fit_surrogate_on_a_six_sample_record_exits_4(tmp_path, capsys):
    cfg = {"sim": {"dt": 0.01, "horizon": 0.06}, "plant": {"variant": "fopdt"},
           "excitation": {"variant": "prbs", "bit_period": 0.01}}
    assert _fit_surrogate_on_own_record(tmp_path, cfg) == 4
    assert len(_read_rows(tmp_path / "rec" / "record.csv")) == 1 + 6
    assert capsys.readouterr().err == ("i/o error: the training block of the record has 4 "
                                       "samples; p = 2, q = 2 need at least 6\n")


def test_fit_surrogate_on_short_records_exits_0_or_names_the_short_block(tmp_path, capsys):
    """Records of 2..25 samples for four lag orders and three held-out
    fractions: a fit runs when both blocks hold at least p + q + 2 samples,
    and otherwise exits 4 naming the first short block, its size and that
    minimum."""
    cfg = {"sim": {"dt": 0.01, "horizon": 0.25}, "plant": {"variant": "fopdt"},
           "excitation": {"variant": "prbs", "bit_period": 0.01}}
    main(["record", "--config", _write(tmp_path, "rec.json", cfg), "--out", str(tmp_path)])
    lines = _read_rows(tmp_path / "record.csv")
    assert len(lines) == 1 + 25
    data = tmp_path / "short.csv"
    for n in range(2, 26):
        data.write_text("\n".join(lines[:1 + n]) + "\n", encoding="utf-8")
        for (p, q), val_fraction in itertools.product([(1, 1), (2, 2), (3, 1), (1, 4)],
                                                      [0.1, 0.25, 0.5]):
            cfg["surrogate"] = {"p": p, "q": q, "val_fraction": val_fraction, "hidden": [2],
                                "epochs": 1}
            code = main(["fit-surrogate", "--config", _write(tmp_path, "fit.json", cfg),
                         "--data", str(data), "--out", str(tmp_path / "sur")])
            n_train = split_contiguous(n, val_fraction)
            short = [(block, size) for block, size in (("training", n_train),
                                                       ("held-out", n - n_train))
                     if size < p + q + 2]
            err = capsys.readouterr().err
            if short:
                assert (code, err) == (4, f"i/o error: the {short[0][0]} block of the record "
                                          f"has {short[0][1]} samples; p = {p}, q = {q} need "
                                          f"at least {p + q + 2}\n"), (n, p, q, val_fraction)
            else:
                assert (code, err) == (0, ""), (n, p, q, val_fraction)


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


# (ku / kp, ti / pu, td / pu) of the Ziegler-Nichols table, by controller kind
ZN_TABLE = {"p": (0.5, None, None), "pi": (0.45, 1.0 / 1.2, None), "pid": (0.6, 0.5, 0.125)}


@pytest.mark.parametrize("kind", sorted(ZN_TABLE))
def test_tune_ziegler_nichols_from_a_given_fopdt(tmp_path, kind):
    """The rule's ultimate point comes from `tuning.fopdt`, not from a relay
    run: the ultimate gain read back from kp gives the crossover frequency w
    of |G(jw)| Ku = 1, which satisfies w L + atan(w tau) = pi, and Ti and Td
    are the table's fractions of Pu = 2 pi / w."""
    gain, tau, dead = 2.0, 1.5, 0.4
    cfg = {"tuning": {"mode": "rule", "rule": "ziegler-nichols", "kind": kind,
                      "fopdt": {"gain": gain, "tau": tau, "dead_time": dead}}}
    assert main(["tune", "--config", _write(tmp_path, "t.json", cfg),
                 "--out", str(tmp_path / "o")]) == 0
    gains = json.loads((tmp_path / "o" / "gains.json").read_text())
    kp_of_ku, ti_of_pu, td_of_pu = ZN_TABLE[kind]
    ku = gains["kp"] / kp_of_ku
    w = math.sqrt((ku * gain) ** 2 - 1.0) / tau
    assert w * dead + math.atan(w * tau) == pytest.approx(math.pi, rel=1e-12)
    pu = 2.0 * math.pi / w
    if ti_of_pu is None:
        assert gains["ki"] == 0.0
    else:
        assert gains["kp"] / gains["ki"] == pytest.approx(ti_of_pu * pu, rel=1e-9)
    if td_of_pu is None:
        assert gains["kd"] == 0.0
    else:
        assert gains["kd"] / gains["kp"] == pytest.approx(td_of_pu * pu, rel=1e-9)


def test_tune_ziegler_nichols_from_an_fopdt_without_dead_time_exits_3(tmp_path, capsys):
    cfg = {"tuning": {"mode": "rule", "rule": "ziegler-nichols",
                      "fopdt": {"gain": 1.0, "tau": 1.0, "dead_time": 0}}}
    assert main(["tune", "--config", _write(tmp_path, "t.json", cfg),
                 "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "numerical failure: no phase crossover without dead time\n"


@pytest.mark.parametrize("rule, name", [("cohen-coon", "Cohen-Coon"), ("kappa-tau", "Kappa-Tau")])
def test_tune_step_rule_from_an_fopdt_without_dead_time_exits_3(tmp_path, capsys, rule, name):
    cfg = {"tuning": {"mode": "rule", "rule": rule,
                      "fopdt": {"gain": 1.0, "tau": 1.0, "dead_time": 0}}}
    assert main(["tune", "--config", _write(tmp_path, "t.json", cfg),
                 "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"numerical failure: {name} needs dead time > 0\n"
    assert not (tmp_path / "o").exists()


def test_tune_ai_zero_budget_rejected(tmp_path, capsys):
    cfg = {"tuning": {"mode": "ai", "budget": 0}}
    cfg_path = _write(tmp_path, "t.json", cfg)
    assert main(["tune", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("command, block, message", [
    ("tune", {"tuning": {"mode": "ai"}}, "tuning.mode: AI tuning needs --surrogate <model>"),
    ("train-controller", {"training": {"mode": "bptt"}},
     "training.mode: bptt training needs --surrogate <model>"),
], ids=["tune-ai", "train-bptt"])
def test_surrogate_mode_without_surrogate_exits_2(tmp_path, capsys, command, block, message):
    cfg = {"sim": {"dt": 0.1, "horizon": 1.0, "seed": 0}, **block}
    argv = [command, "--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("plant, sim, rule, message", [
    ({"gain": 0.0}, {"dt": 0.05, "horizon": 20.0}, "cohen-coon",
     "flat response: no identifiable gain"),
    ({"tau": 50.0}, {"dt": 0.05, "horizon": 2.0}, "cohen-coon",
     "no steady final value within the horizon"),
    ({"dead_time": 0.0}, {"dt": 0.1, "horizon": 20.0}, "ziegler-nichols",
     "oscillation at the sampling scale, not a process limit cycle"),
], ids=["step-test-flat", "step-test-not-settled", "relay-no-limit-cycle"])
def test_failed_tuning_experiment_exits_3(tmp_path, capsys, plant, sim, rule, message):
    """A step test on a plant without gain or one too slow for the horizon,
    and a relay on a plant without dead time, exit 3 saying why."""
    cfg = {"sim": {**sim, "seed": 0}, "plant": {**FOPDT_PLANT, **plant},
           "tuning": {"mode": "rule", "rule": rule}}
    assert main(["tune", "--config", _write(tmp_path, "c.json", cfg),
                 "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"numerical failure: {message}\n"


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


@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_train_controller_on_a_one_sample_teacher_run_exits_2(tmp_path, capsys, beta):
    """A teacher run of one sample gives no imitation row (the last sample
    has no next step); the command exits 2 without a traceback and names
    the cause."""
    cfg = _train_cfg()
    cfg["sim"] = {"dt": 0.1, "horizon": 0.1, "seed": 5}
    cfg["training"]["beta"] = beta
    argv = ["train-controller", "--config", _write(tmp_path, "t.json", cfg),
            "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        "config error: training: a teacher run needs at least two samples, got 1\n"


def _bptt_cfg(horizon):
    return {"sim": {"dt": 0.1, "horizon": 1.0, "seed": 0}, "plant": dict(FOPDT_PLANT),
            "training": {"mode": "bptt", "memory": 2, "hidden": [4], "horizon": horizon,
                         "epochs": 1}}


def test_bptt_horizon_above_200_exits_2(tmp_path, capsys):
    argv = ["train-controller", "--config", _write(tmp_path, "c.json", _bptt_cfg(201)),
            "--surrogate", str(_saved_surrogate(tmp_path)), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        "config error: training.horizon: horizon must be an integer in [0, 200]\n"


def test_bptt_horizon_0_trains_one_epoch_of_zero_loss(tmp_path):
    argv = ["train-controller", "--config", _write(tmp_path, "c.json", _bptt_cfg(0)),
            "--surrogate", str(_saved_surrogate(tmp_path)), "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    assert _read_rows(tmp_path / "o" / "training_curve.csv") == ["epoch,loss,skipped", "0,0.0,0"]


def test_bptt_whose_every_rollout_diverges_exits_3(tmp_path, capsys):
    """A surrogate whose output is 1 * 1e308 + 1e308 predicts inf at every
    step, so both rollouts of the first epoch diverge."""
    path = tmp_path / "inf.weights"
    mlp = Mlp([4, 1], init=False)
    mlp.biases[0][:] = 1.0
    save_model(NarxModel(mlp, 2, 2, 0.1, np.zeros(4), np.ones(4), np.full(1, 1e308),
                         np.full(1, 1e308)), path)
    cfg = _bptt_cfg(10)
    cfg["training"]["episodes"] = {"count": 2, "level": 1.0}
    argv = ["train-controller", "--config", _write(tmp_path, "c.json", cfg),
            "--surrogate", str(path), "--out", str(tmp_path / "o")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "numerical failure: 2/2 rollouts diverged in one epoch\n"


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


def test_simulate_fallback_fault_exits_3_naming_the_step(tmp_path, capsys):
    # the AI is out of range at once; the fallback's huge gains saturate at
    # step 0, then its derivative turns the output non-finite at step 1
    cfg = {
        "sim": {"dt": 0.01, "horizon": 1.0, "seed": 0},
        "plant": {"variant": "fopdt", "gain": 10.0, "tau": 1.0, "limits": [-1.0, 1.0]},
        "controller": {"kind": "constant", "value": 5.0},
        "safety": {"kind": "switch",
                   "fallback": {"gains": {"kp": 1e308, "kd": 1e308, "filter_n": 1e6}}},
        "reference": {"variant": "step", "level": 10.0},
    }
    cfg_path = _write(tmp_path, "s.json", cfg)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == \
        "numerical failure: fallback failed: non-finite controller output (step 1)\n"


def test_simulate_out_of_range_ai_hands_over_to_p_only_fallback(tmp_path):
    # without integral action the fallback cannot be synced: a plain handover
    cfg = {
        "sim": {"dt": 0.01, "horizon": 1.0, "seed": 0},
        "plant": {"variant": "fopdt", "gain": 1.0, "tau": 1.0, "limits": [-2.0, 2.0]},
        "controller": {"kind": "constant", "value": 5.0},
        "safety": {"kind": "switch", "fallback": {"gains": {"kp": 1.0}}},
        "reference": {"variant": "step", "level": 1.0},
    }
    cfg_path = _write(tmp_path, "s.json", cfg)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
    assert _read_rows(tmp_path / "o" / "transitions.csv") == \
        ["step,time,direction,cause", "0,0.0,AI->FALLBACK,out-of-range"]
    rows = np.genfromtxt(tmp_path / "o" / "trajectory.csv", delimiter=",", names=True)
    assert np.array_equal(rows["u"], 1.0 * (rows["w"] - rows["y"]))  # the P law from step 0


def test_simulate_overflowing_neural_ai_falls_back_quietly(tmp_path, capsys):
    # finite output weights of 1e308 overflow the output layer: the switch
    # catches the non-finite command, and numpy warns about nothing
    nc = NeuralController(Mlp([9, 4, 1], seed=1), u_min=-3.0, u_max=3.0, memory=4)
    nc.mlp.weights[-1][...] = 1e308
    save_model(nc, tmp_path / "big.weights")
    cfg = {
        "sim": {"dt": 0.01, "horizon": 1.0, "seed": 0},
        "plant": {"variant": "fopdt", "gain": 1.0, "tau": 1.0, "limits": [-3.0, 3.0]},
        "controller": {"kind": "neural", "model_path": str(tmp_path / "big.weights")},
        "safety": {"kind": "switch", "fallback": {"gains": {"kp": 1.0, "ki": 1.0}}},
        "reference": {"variant": "step", "level": 1.0},
    }
    cfg_path = _write(tmp_path, "s.json", cfg)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    assert _read_rows(tmp_path / "o" / "transitions.csv") == \
        ["step,time,direction,cause", "2,0.02,AI->FALLBACK,nonfinite"]


def test_simulate_blend_with_neural_correction_keeps_delta_bound(tmp_path):
    save_model(NeuralController(Mlp([9, 4, 1], seed=1), u_min=-3.0, u_max=3.0, memory=4),
               tmp_path / "corr.weights")
    cfg = {
        "sim": {"dt": 0.01, "horizon": 5.0, "seed": 0},
        "plant": dict(FOPDT_PLANT),
        "controller": {"kind": "pid", "gains": {"kp": 1.0, "ki": 0.8}},
        "safety": {"kind": "blend", "delta": 0.05,
                   "correction": {"kind": "neural", "model_path": str(tmp_path / "corr.weights")}},
        "reference": {"variant": "step", "level": 1.0},
    }
    cfg_path = _write(tmp_path, "s.json", cfg)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
    rows = np.genfromtxt(tmp_path / "o" / "blend.csv", delimiter=",", names=True)
    diffs = np.abs(rows["u"] - rows["u_conv"])
    assert np.all(diffs <= 0.05)
    assert np.any(diffs > 0.0)  # the network does correct the command


def test_simulate_sinusoid_disturbance_column(tmp_path):
    cfg = {
        "sim": {"dt": 0.01, "horizon": 3.0, "seed": 0},
        "plant": dict(FOPDT_PLANT),
        "controller": {"kind": "pid", "gains": {"kp": 1.0, "ki": 0.5}},
        "disturbance": {"variant": "sinusoid", "amplitude": 0.3, "period": 0.7},
        "reference": {"variant": "step", "level": 1.0},
    }
    cfg_path = _write(tmp_path, "s.json", cfg)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
    traj = read_timeseries(tmp_path / "o" / "trajectory.csv")
    assert np.array_equal(traj.d, 0.3 * np.sin(2.0 * math.pi * traj.t / 0.7))
    assert np.ptp(traj.d) > 0.5


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

@pytest.mark.parametrize("band", ["nan", "inf", "0", "-1"])
def test_compare_band_must_be_finite_and_positive(tmp_path, capsys, band):
    """argparse rejects the band before any file is read; an accepted band
    would go on to the missing file and exit 4."""
    with pytest.raises(SystemExit) as exc:
        main(["compare", str(tmp_path / "a.csv"), "--band", band, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"argument --band: must be a finite number > 0, got {band!r}" \
        in capsys.readouterr().err


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


def test_no_subcommand_accepts_jobs(capsys):
    """Every command runs in one process on one thread: argparse rejects --jobs."""
    for argv in (["record", "--config", "c.json"], ["fit-surrogate", "--config", "c.json",
                 "--data", "d.csv"], ["tune", "--config", "c.json"],
                 ["train-controller", "--config", "c.json"], ["simulate", "--config", "c.json"],
                 ["compare", "a.csv"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", "o", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_unseeded_commands_reject_seed(capsys):
    """Only the commands that draw from `sim.seed` take `--seed`: argparse
    rejects it on fit-surrogate (its seed is `surrogate.seed`) and compare."""
    for argv in (["fit-surrogate", "--config", "c.json", "--data", "d.csv"], ["compare", "a.csv"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", "o", "--seed", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


def test_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


def test_main_runs_the_command_bound_at_call_time(tmp_path, monkeypatch):
    """The cached parser holds no command function: a stub bound to
    `cli.cmd_simulate` after a successful call is what the next call runs."""
    cfg_path = _write(tmp_path, "rec.json", _record_cfg())
    assert main(["record", "--config", cfg_path, "--out", str(tmp_path / "rec")]) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_simulate", lambda args: calls.append(args) or 17)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sim")]) == 17
    assert [(a.command, a.config) for a in calls] == [("simulate", cfg_path)]
    assert not (tmp_path / "sim").exists()


def test_usage_error_is_the_same_before_and_after_successful_calls(tmp_path, capsys):
    """A parser that has served successful calls rejects an argument with the
    same exit code and the same stderr bytes as a freshly built one."""
    cli._build_parser.cache_clear()
    cfg_path = _write(tmp_path, "rec.json", _record_cfg())
    bad = ["fit-surrogate", "--config", cfg_path, "--data", str(tmp_path / "rec" / "record.csv"),
           "--out", str(tmp_path / "sur"), "--seed", "1"]

    def usage_error():
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        return capsys.readouterr().err

    before = usage_error()
    assert main(["record", "--config", cfg_path, "--out", str(tmp_path / "rec")]) == 0
    assert main(["compare", str(tmp_path / "rec" / "record.csv"),
                 "--out", str(tmp_path / "cmp")]) == 0
    capsys.readouterr()
    assert usage_error() == before
    assert "unrecognized arguments: --seed 1" in before


def test_compare_incomparable_runs_exit_code_and_message(tmp_path, capsys):
    a, _ = _two_sim_runs(tmp_path)
    other = {"sim": {"dt": 0.01, "horizon": 15.0, "seed": 0}, "plant": dict(FOPDT_PLANT),
             "reference": {"variant": "step", "level": 0.5}, "controller": {"kind": "pid"}}
    assert main(["simulate", "--config", _write(tmp_path, "c.json", other),
                 "--out", str(tmp_path / "rc")]) == 0
    c = tmp_path / "rc" / "trajectory.csv"
    capsys.readouterr()
    assert main(["compare", str(a), str(c), "--out", str(tmp_path / "c1")]) == 4
    assert capsys.readouterr().err == \
        f"i/o error: entry {str(c)!r} has a different reference or disturbance\n"


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def _saved_controller(tmp_path):
    path = tmp_path / "ctl.weights"
    save_model(NeuralController(Mlp([9, 4, 1], seed=1), u_min=-3.0, u_max=3.0, memory=4), path)
    return path


def _simulate_with_model(tmp_path, path, kind="neural"):
    cfg = {"sim": {"dt": 0.1, "horizon": 1.0, "seed": 0}, "plant": dict(FOPDT_PLANT),
           "controller": {"kind": kind, "model_path": str(path)}}
    return main(["simulate", "--config", _write(tmp_path, "sim.json", cfg),
                 "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("block, message", [
    ({"controller": {"kind": "neural"}},
     "controller.model_path: neural controller needs model_path"),
    ({"controller": {"kind": "pid+scheduler"}},
     "controller.model_path: pid+scheduler controller needs model_path"),
    ({"controller": {"kind": "pid"}, "safety": {"kind": "blend", "delta": 0.1, "correction": {"kind": "neural"}}},
     "safety.correction.model_path: neural correction needs model_path"),
    ({"controller": {"kind": "pid"}, "reference": {"variant": "profile"}},
     "reference.path: profile reference needs a path"),
], ids=["neural", "pid+scheduler", "neural-correction", "profile-reference"])
def test_simulate_without_a_needed_path_exits_2_naming_it(tmp_path, capsys, block, message):
    cfg = {"sim": {"dt": 0.1, "horizon": 1.0, "seed": 0}, "plant": dict(FOPDT_PLANT), **block}
    argv = ["simulate", "--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_simulate_model_flag_loads_the_file_and_echoes_it(tmp_path):
    """`--model` replaces `controller.model_path`: the run equals one whose
    config names the file, and the echoed config holds the flag's path."""
    path = str(_saved_controller(tmp_path))
    assert _simulate_with_model(tmp_path, path) == 0
    want = (tmp_path / "o" / "trajectory.csv").read_bytes()
    cfg = {"sim": {"dt": 0.1, "horizon": 1.0, "seed": 0}, "plant": dict(FOPDT_PLANT),
           "controller": {"kind": "neural", "model_path": str(tmp_path / "missing.weights")}}
    out = tmp_path / "flag"
    assert main(["simulate", "--config", _write(tmp_path, "flag.json", cfg),
                 "--model", path, "--out", str(out)]) == 0
    assert (out / "trajectory.csv").read_bytes() == want
    echo = json.loads((out / "simulate_config.json").read_text())
    assert echo["controller"]["model_path"] == path


def test_truncated_weights_file_is_parse_error_with_line(tmp_path, capsys):
    path = _saved_controller(tmp_path)
    lines = path.read_text().splitlines()
    # cut right after the W1 marker on line 10
    path.write_text("\n".join(lines[:10]) + "\n")
    with pytest.raises(ParseError) as err:
        load_model(path, NeuralController)
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
        load_model(path, NeuralController)
    assert err.value.line == 4


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_weight_is_parse_error_with_line(tmp_path, capsys, cell):
    """A weights row that parses as floats but holds a non-finite number."""
    path = _saved_controller(tmp_path)
    lines = path.read_text().splitlines()
    lines[5] = " ".join([*lines[5].split()[:-1], cell])  # the last cell of W0's third row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_model(path, NeuralController)
    assert err.value.line == 6
    capsys.readouterr()
    assert _simulate_with_model(tmp_path, path) == 4
    assert f"i/o error: line 6: {path}: non-finite value {cell!r}" in capsys.readouterr().err


@pytest.mark.parametrize("sidecar, line", [
    ('{"kind": "neural-controller",\n "memory": 4,,\n}', 2),  # invalid JSON
    ('{"kind": "narx-surrogate"}', 1),  # another model's sidecar
    ('{"kind": "neural-controller", "memory": 4}', 1),  # missing keys
])
def test_malformed_sidecar_is_parse_error(tmp_path, capsys, sidecar, line):
    path = _saved_controller(tmp_path)
    (tmp_path / "ctl.weights.meta.json").write_text(sidecar)
    with pytest.raises(ParseError) as err:
        load_model(path, NeuralController)
    assert err.value.line == line
    capsys.readouterr()
    assert _simulate_with_model(tmp_path, path) == 4
    assert "meta.json" in capsys.readouterr().err


# a saved model with a disturbance head on its 4-wide last hidden layer, per
# model kind: (save, load, simulate controller kind)
_AUX_MODELS = {
    "controller": (lambda path: save_model(
        NeuralController(Mlp([9, 5, 4, 1], seed=1), u_min=-3.0, u_max=3.0,
                         aux=Mlp([4, 1], seed=2), memory=4), path),
                   lambda path: load_model(path, NeuralController), "neural"),
}

# disturbance heads a 4-wide last hidden layer rejects
_MALFORMED_AUX = {
    "ragged": {"aux_w": [[0.1, 0.2, 0.3, 0.4], [0.5]], "aux_b": [0.0, 0.0]},
    "empty": {"aux_w": [], "aux_b": []},
    "narrow": {"aux_w": [[0.1, 0.2, 0.3]], "aux_b": [0.0]},
    "wide": {"aux_w": [[0.1, 0.2, 0.3, 0.4, 0.5]], "aux_b": [0.0]},
    "bias-length": {"aux_w": [[0.1, 0.2, 0.3, 0.4]], "aux_b": [0.0, 1.0]},
    "bias-scalar": {"aux_w": [[0.1, 0.2, 0.3, 0.4]], "aux_b": 0.0},
    "bias-missing": {"aux_w": [[0.1, 0.2, 0.3, 0.4]]},
    "non-numeric": {"aux_w": [[0.1, "x", 0.3, 0.4]], "aux_b": [0.0]},
}


@pytest.mark.parametrize("model", sorted(_AUX_MODELS))
@pytest.mark.parametrize("aux", list(_MALFORMED_AUX.values()), ids=list(_MALFORMED_AUX))
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


_AUX_HEADS = {"well-formed": {"aux_w": [[0.1, 0.2, 0.3, 0.4]], "aux_b": [0.0]}, **_MALFORMED_AUX}


@pytest.mark.parametrize("aux", list(_AUX_HEADS.values()), ids=list(_AUX_HEADS))
def test_scheduler_sidecar_ignores_an_aux_head(tmp_path, aux):
    """A gain scheduler has no disturbance head: `aux_w` and `aux_b` in its
    sidecar are unread keys, well-formed or not."""
    path = tmp_path / "model.weights"
    save_model(GainScheduler(Mlp([8, 5, 4, 3], seed=1),
                             bounds=[[0.1, 2.0], [0.0, 1.0], [0.0, 0.3]], memory=4), path)
    meta_path = tmp_path / "model.weights.meta.json"
    plain = meta_path.read_bytes()
    meta_path.write_text(json.dumps({**json.loads(plain), **aux}))
    assert not hasattr(load_model(path, GainScheduler), "aux")
    assert _simulate_with_model(tmp_path, path, "pid+scheduler") == 0
    meta_path.write_bytes(plain)
    save_model(load_model(path, GainScheduler), tmp_path / "again.weights")
    assert (tmp_path / "again.weights.meta.json").read_bytes() == plain


def _saved_scheduler(tmp_path):
    path = tmp_path / "sched.weights"
    save_model(GainScheduler(Mlp([8, 4, 3], seed=1),
                             bounds=[[0.1, 2.0], [0.0, 1.0], [0.0, 0.3]], memory=4), path)
    return path


def _saved_surrogate(tmp_path):
    path = tmp_path / "sur.weights"
    save_model(NarxModel(Mlp([4, 6, 1], seed=3), 2, 2, 0.1,
                         np.zeros(4), np.ones(4), np.zeros(1), np.ones(1)), path)
    return path


def _tune_with_surrogate(tmp_path, path):
    cfg = {"sim": {"dt": 0.1, "horizon": 1.0, "seed": 0}, "plant": dict(FOPDT_PLANT),
           "tuning": {"mode": "ai", "budget": 5}}
    return main(["tune", "--config", _write(tmp_path, "tune.json", cfg),
                 "--surrogate", str(path), "--out", str(tmp_path / "o")])


def _spy_lockstep_passes(monkeypatch, on_pass):
    """Spy on every `_lockstep_costs` call and, within it, on the `run` of
    every `Mlp.stacked_pass` binding (outside it, a `NarxModel` binds its
    own one-row pass): after each pass, `on_pass(k, live, outs)` gets the
    binding's row count, how many of its rows are those of live episodes (an
    episode that has left has its cost, and its row repeats the last live
    row) and its k outputs as floats. Returns the episode lists of the calls
    and the k of each binding."""
    calls, bindings = [], []
    lockstep, stacked_pass = neuro._lockstep_costs, Mlp.stacked_pass

    def spied_lockstep(narx, runs):
        calls.append(runs)
        with monkeypatch.context() as m:
            m.setattr(Mlp, "stacked_pass", spied_pass)
            return lockstep(narx, runs)

    def spied_pass(self, k, mean, std):
        bindings.append(k)
        acts, run = stacked_pass(self, k, mean, std)

        def spy(rows):
            outs = run(rows)
            on_pass(k, sum(not hasattr(ep, "cost") for ep in calls[-1]), outs)
            return outs
        return acts, spy
    monkeypatch.setattr(neuro, "_lockstep_costs", spied_lockstep)
    return calls, bindings


@pytest.mark.parametrize("count", [1, 2, 3])
def test_ai_tune_simulates_every_episode_of_every_trace_row(count, tmp_path, monkeypatch):
    """The benchmark's traced runs check `neuro._episode_cost_on_surrogate`
    calls against tune_trace.csv rows times `episodes.count`, so every
    evaluation creates one episode per reference. The episodes of a start
    simplex or a shrink, and the one, two or three of one evaluation, share
    one stacked surrogate pass per step, through one `Mlp.stacked_pass`
    binding per `_lockstep_costs` call: every evaluation is stacked, a lone
    episode included. The spy counts the live rows of every pass."""
    episodes, passes = [], []
    real = neuro._episode_cost_on_surrogate
    monkeypatch.setattr(neuro, "_episode_cost_on_surrogate",
                        lambda *args: episodes.append(1) or real(*args))
    calls, bindings = _spy_lockstep_passes(monkeypatch, lambda k, live, outs: passes.append(live))
    cfg = {"sim": {"dt": 0.1, "horizon": 1.0, "seed": 0}, "plant": dict(FOPDT_PLANT),
           "tuning": {"mode": "ai", "budget": 7, "episodes": {"count": count, "level": 1.0}}}
    assert main(["tune", "--config", _write(tmp_path, "tune.json", cfg),
                 "--surrogate", str(_saved_surrogate(tmp_path)), "--out", str(tmp_path / "o")]) == 0
    rows = _read_rows(tmp_path / "o" / "tune_trace.csv")[1:]
    assert len(rows) == 7 and all(math.isfinite(float(r.split(",")[1])) for r in rows)
    assert len(episodes) == len(rows) * count
    # episodes of 12 samples (two leading zeros, then 10 at the level): 11 steps
    # per stacked call; the first is the start simplex's four points
    assert len(passes) % 11 == 0 and passes[:11] == [4 * count] * 11
    assert all(k % count == 0 for k in passes)
    # one binding per stacked call, not one per step, sized to its episodes
    assert bindings == [len(runs) for runs in calls] == passes[::11]
    # every evaluation's episodes run in a stacked call
    assert sum(bindings) // count == len(rows)


def test_ai_tune_whose_every_evaluation_diverges_prints_one_line(tmp_path, capsys):
    """A surrogate that predicts 1e7 at every step sends every episode past the
    divergence bound, so every cost is inf. The search's convergence test then
    takes the spread of inf costs; that raises no numpy warning (which would
    print to stderr outside pytest), and the failure is the only line."""
    path = tmp_path / "sur.weights"
    save_model(NarxModel(Mlp([4, 1], init=False), 2, 2, 0.1, np.zeros(4), np.ones(4),
                         np.full(1, 1e7), np.ones(1)), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _tune_with_surrogate(tmp_path, path) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "numerical failure: every candidate evaluation diverged\n"


def test_ai_tune_with_some_diverging_evaluations_keeps_the_best_finite_point(tmp_path,
                                                                              monkeypatch):
    """A linear surrogate, y(k+1) = 0.5 y(k) + 0.4 u(k), under actuator limits
    too wide to bound it: large gains send the loop past the 1e6 * scale
    bound within the 11 steps of an episode, small ones keep it finite. The
    start simplex's episodes end at different steps, so the lockstep's one
    binding also predicts for fewer live rows than it was bound to. The
    tune succeeds, its trace holds both kinds of cost, and gains.json is the
    point of the least finite cost."""
    net = Mlp([4, 1], init=False)
    net.weights[0][0] = [0.5, 0.0, 0.4, 0.0]
    path = tmp_path / "sur.weights"
    save_model(NarxModel(net, 2, 2, 0.1, np.zeros(4), np.ones(4), np.zeros(1), np.ones(1)), path)
    short = []
    _spy_lockstep_passes(monkeypatch, lambda k, live, outs: short.append(live < k))
    cfg = {"sim": {"dt": 0.1, "horizon": 1.0, "seed": 0},
           "plant": {**FOPDT_PLANT, "limits": [-1e9, 1e9]},
           "tuning": {"mode": "ai", "budget": 10, "episodes": {"count": 3, "level": 1.0}}}
    out = tmp_path / "o"
    assert main(["tune", "--config", _write(tmp_path, "tune.json", cfg),
                 "--surrogate", str(path), "--out", str(out)]) == 0
    costs = [float(r.split(",")[1]) for r in _read_rows(out / "tune_trace.csv")[1:]]
    finite = [c for c in costs if math.isfinite(c)]
    assert len(costs) == 10 and 0 < len(finite) < len(costs)
    assert any(short)
    gains = load_gains_file(out / "gains.json", limits=(-1e9, 1e9))
    narx = load_model(path, NarxModel)
    references = [np.concatenate([np.zeros(2), np.full(10, level)]) for level in (1 / 3, 2 / 3, 1.0)]
    runs = [neuro._episode_cost_on_surrogate(narx, gains, *neuro._episode_reference(ref),
                                             DEFAULTS["tuning"]["rho"]) for ref in references]
    assert float(np.mean(neuro._lockstep_costs(narx, runs))) == min(finite)


def _ai_tune(tmp_path, path, plant, bounds, count, level):
    cfg = {"sim": {"dt": 0.1, "horizon": 1.0, "seed": 0}, "plant": plant,
           "tuning": {"mode": "ai", "budget": 10, "bounds": bounds,
                      "episodes": {"count": count, "level": level}}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["tune", "--config", _write(tmp_path, "tune.json", cfg),
                     "--surrogate", str(path), "--out", str(tmp_path / "o")])
    assert [str(w.message) for w in caught] == []
    return code


def _assert_best_finite_point(tmp_path, path, limits, count, level):
    """tune_trace.csv holds inf and finite costs, and gains.json is a point of
    the least finite cost, its episodes rerun independently."""
    costs = [float(r.split(",")[1]) for r in _read_rows(tmp_path / "o" / "tune_trace.csv")[1:]]
    finite = [c for c in costs if math.isfinite(c)]
    assert len(costs) == 10 and 0 < len(finite) < len(costs)
    gains = load_gains_file(tmp_path / "o" / "gains.json", limits=limits)
    narx = load_model(path, NarxModel)
    references = [np.concatenate([np.zeros(2), np.full(10, level * (i + 1) / count)])
                  for i in range(count)]
    runs = [neuro._episode_cost_on_surrogate(narx, gains, *neuro._episode_reference(ref),
                                             DEFAULTS["tuning"]["rho"]) for ref in references]
    assert float(np.mean(neuro._lockstep_costs(narx, runs))) == min(finite)


def test_ai_tune_with_non_finite_predictions_keeps_the_best_finite_point(tmp_path, capsys,
                                                                        monkeypatch):
    """The linear surrogate above, with its output lag normalized by 1e-305:
    once |y| passes about 1.8e3, far inside the 1e6 divergence bound, the
    normalized lag overflows and the next prediction is inf or nan. Such an
    episode costs inf; numpy's overflow warnings stay quiet, the tune exits 0
    and gains.json is the best finite point."""
    net = Mlp([4, 1], init=False)
    net.weights[0][0] = [0.5e-305, 0.0, 0.4, 0.0]
    std = np.array([1e-305, 1.0, 1.0, 1.0])
    path = tmp_path / "sur.weights"
    save_model(NarxModel(net, 2, 2, 0.1, np.zeros(4), std, np.zeros(1), np.ones(1)), path)
    predictions = []
    # the predictions of the live rows; this surrogate's y_std is 1 and y_mean 0
    _spy_lockstep_passes(monkeypatch, lambda k, live, outs: predictions.extend(outs[:live]))
    plant = {**FOPDT_PLANT, "limits": [-1e9, 1e9]}
    bounds = {"kp": [0.01, 10.0], "ki": [0.0, 2.0], "kd": [0.0, 0.1]}
    assert _ai_tune(tmp_path, path, plant, bounds, count=2, level=1.0) == 0
    assert capsys.readouterr().err == ""
    assert any(not math.isfinite(y) for y in predictions)
    assert all(abs(y) <= 1e6 for y in predictions if math.isfinite(y))
    _assert_best_finite_point(tmp_path, path, (-1e9, 1e9), count=2, level=1.0)


def test_ai_tune_whose_pid_output_turns_non_finite_keeps_the_best_finite_point(tmp_path, capsys,
                                                                              monkeypatch):
    """A surrogate that predicts 1e299 at every step under a reference of 1e300:
    with kp and kd of 1e9 or more, the proportional term overflows to +inf
    and the derivative term to -inf, so the PID output is nan and `pid_step`
    raises ControllerFault; that episode costs inf. Smaller gains keep a
    finite cost, so the tune exits 0 with the best finite point."""
    path = tmp_path / "sur.weights"
    save_model(NarxModel(Mlp([4, 1], init=False), 2, 2, 0.1, np.zeros(4), np.ones(4),
                         np.full(1, 1e299), np.ones(1)), path)
    faults = []
    pid_step = neuro.pid_step

    def recording_pid_step(*args):
        try:
            return pid_step(*args)
        except errors.ControllerFault as exc:
            faults.append(str(exc))
            raise
    monkeypatch.setattr(neuro, "pid_step", recording_pid_step)
    bounds = {"kp": [0.0, 2e9], "ki": [0.0, 1.0], "kd": [0.0, 2e9]}
    assert _ai_tune(tmp_path, path, dict(FOPDT_PLANT), bounds, count=1, level=1e300) == 0
    assert capsys.readouterr().err == ""
    assert faults and set(faults) == {"non-finite controller output"}
    _assert_best_finite_point(tmp_path, path, tuple(FOPDT_PLANT["limits"]), count=1, level=1e300)


# per model kind: (save a valid model file, run the command that loads it)
_MODEL_RUNS = {
    "controller": (_saved_controller, _simulate_with_model),
    "scheduler": (_saved_scheduler,
                  lambda tmp_path, path: _simulate_with_model(tmp_path, path, "pid+scheduler")),
    "surrogate": (_saved_surrogate, _tune_with_surrogate),
}


@pytest.mark.parametrize("model, key, value", [
    ("controller", "memory", 3),  # a 7-feature window on a 9-input net
    ("controller", "memory", "4"),
    ("controller", "feat_mean", [0.0] * 5),
    ("controller", "feat_std", ["x"] * 9),
    ("controller", "u_min", "x"),
    ("controller", "u_min", 5.0),  # above u_max
    ("scheduler", "bounds", [[0.1, 2.0]]),
    ("scheduler", "bounds", [["0.1", "2"], ["0", "1"], ["0", "0.3"]]),
    ("scheduler", "bounds", [[2.0, 0.1], [1.0, 0.0], [0.3, 0.0]]),  # inverted
    ("scheduler", "memory", None),
    ("surrogate", "p", "2"),
    ("surrogate", "x_mean", [0.0]),
    ("surrogate", "y_std", []),
    ("surrogate", "dt", "0.1"),
    ("surrogate", "p", 3),  # p + q = 5 lags on a 4-input net
    ("surrogate", "x_std", [0.0, 1.0, 1.0, 1.0]),
], ids=["memory-size", "memory-str", "feat_mean-size", "feat_std-str", "u_min-str",
        "u_min-above-u_max", "bounds-shape", "bounds-str", "bounds-inverted", "memory-null", "p-str", "x_mean-size",
        "y_std-empty", "dt-str", "p-size", "x_std-zero"])
def test_wrong_sidecar_field_is_parse_error(tmp_path, capsys, model, key, value):
    """A model that runs, with one sidecar field of the wrong type or size,
    is a parse error naming the sidecar: never a traceback or a misload."""
    save, run = _MODEL_RUNS[model]
    path = save(tmp_path)
    assert run(tmp_path, path) == 0
    meta_path = Path(str(path) + ".meta.json")
    meta = json.loads(meta_path.read_text())
    meta[key] = value
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    assert run(tmp_path, path) == 4
    assert str(meta_path) in capsys.readouterr().err



@pytest.mark.parametrize("model, key", [("controller", "feat_mean"), ("controller", "u_max"),
                                        ("scheduler", "bounds"), ("surrogate", "x_std"),
                                        ("surrogate", "dt")])
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_non_finite_sidecar_number_is_parse_error_with_line(tmp_path, capsys, model, key, token):
    """`json.loads` reads NaN and Infinity, and a float beyond the range as
    inf; a model file holding one is a parse error naming the sidecar and
    the number's line, not a numerical failure or a silent load."""
    save, run = _MODEL_RUNS[model]
    path = save(tmp_path)
    meta_path = Path(str(path) + ".meta.json")
    meta = json.loads(meta_path.read_text())
    value = meta[key]
    if isinstance(value, list):
        value[-1] = ["@"] * len(value[-1]) if isinstance(value[-1], list) else "@"
    else:
        meta[key] = "@"
    text = json.dumps(meta, indent=2)
    line = text[:text.index('"@"')].count("\n") + 1
    meta_path.write_text(text.replace('"@"', token))
    capsys.readouterr()
    assert run(tmp_path, path) == 4
    assert f"i/o error: line {line}: {meta_path}: invalid number: {token} is not finite" \
        in capsys.readouterr().err


@pytest.mark.parametrize("model, key", [("controller", "memory"), ("surrogate", "p")])
def test_sidecar_integer_too_long_to_convert_is_parse_error_with_line(tmp_path, capsys,
                                                                      model, key):
    """An integer of more than 4,300 digits, which `json.loads` refuses with
    a plain ValueError, is a parse error of the sidecar (exit 4), not a
    config error of the command's section."""
    save, run = _MODEL_RUNS[model]
    path = save(tmp_path)
    meta_path = Path(str(path) + ".meta.json")
    text = meta_path.read_text()
    line = text[:text.index(f'"{key}": ')].count("\n") + 1
    meta_path.write_text(re.sub(f'"{key}": \\d+', f'"{key}": {"1" * 5000}', text))
    capsys.readouterr()
    assert run(tmp_path, path) == 4
    err = capsys.readouterr().err
    assert f"i/o error: line {line}: {meta_path}: invalid number: Exceeds the limit" in err


# ---------------------------------------------------------------------------
# bytes that are not UTF-8
# ---------------------------------------------------------------------------

def _insert_ff(path, line):
    """Put a 0xff byte at the start of the 1-based `line` of the file."""
    rows = Path(path).read_bytes().split(b"\n")
    rows[line - 1] = b"\xff" + rows[line - 1]
    Path(path).write_bytes(b"\n".join(rows))


GAINS_FILE = {"kp": 1.0, "ki": 0.5, "kd": 0.0, "structure": "pid", "u_min": None,
              "u_max": None, "filter_n": 10.0}


def _sim_pid_cfg(tmp_path, **controller):
    cfg = {"sim": {"dt": 0.1, "horizon": 1.0, "seed": 0}, "plant": dict(FOPDT_PLANT),
           "controller": {"kind": "pid", **controller}}
    return _write(tmp_path, "sim.json", cfg)


@pytest.mark.parametrize("target", ["config", "gains", "csv", "weights", "sidecar"])
def test_non_utf8_byte_is_parse_error_with_path_and_line(tmp_path, capsys, target):
    out = ["--out", str(tmp_path / "o")]
    if target == "config":
        bad = _sim_pid_cfg(tmp_path, gains={"kp": 1.0})
        argv = ["simulate", "--config", bad, *out]
    elif target == "gains":
        bad = _write(tmp_path, "gains.json", GAINS_FILE)
        argv = ["simulate", "--config", _sim_pid_cfg(tmp_path, gains_path=bad), *out]
    elif target == "csv":
        a, bad = _two_sim_runs(tmp_path)
        argv = ["compare", str(a), str(bad), *out]
    else:
        path = _saved_controller(tmp_path)
        bad = str(path) if target == "weights" else f"{path}.meta.json"
        cfg = {"sim": {"dt": 0.1, "horizon": 1.0, "seed": 0}, "plant": dict(FOPDT_PLANT),
               "controller": {"kind": "neural", "model_path": str(path)}}
        argv = ["simulate", "--config", _write(tmp_path, "sim.json", cfg), *out]
    assert main(argv) == 0
    capsys.readouterr()
    _insert_ff(bad, 3)
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert str(bad) in err and "line 3" in err


@pytest.mark.parametrize("target", ["compare", "fit-surrogate", "reference-profile"])
def test_malformed_time_series_error_names_the_file(tmp_path, capsys, target):
    good, other = _two_sim_runs(tmp_path)
    rows = _read_rows(other)
    rows[2] = rows[2].replace(",", ",x", 1)  # a non-numeric cell on line 3
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    out = ["--out", str(tmp_path / "o")]
    if target == "compare":
        argv = ["compare", str(good), str(bad), *out]
    elif target == "fit-surrogate":
        argv = ["fit-surrogate", "--config", _write(tmp_path, "rec.json", _record_cfg()),
                "--data", str(bad), *out]
    else:
        cfg = _sim_pid_cfg(tmp_path, gains={"kp": 1.0})
        cfg_dict = json.loads(Path(cfg).read_text())
        cfg_dict["reference"] = {"variant": "profile", "path": str(bad)}
        argv = ["simulate", "--config", _write(tmp_path, "sim.json", cfg_dict), *out]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert f"line 3: {bad}: non-numeric cell" in err


@pytest.mark.parametrize("target", ["compare", "fit-surrogate"])
@pytest.mark.parametrize("column", ["y", "y2"])
@pytest.mark.parametrize("cell", ["nan", "-inf", "1e999"])
def test_non_finite_time_series_cell_is_parse_error(tmp_path, capsys, target, column, cell):
    cfg = {"sim": {"dt": 0.1, "horizon": 6.0, "seed": 0},
           "plant": {"variant": "linear", "a": [[-0.5, 0.5], [0.0, -3.0]], "b": [0.0, 3.0],
                     "c": [[1.0, 0.0], [0.0, 1.0]], "limits": [-5.0, 5.0]},
           "controller": {"kind": "pid", "gains": {"kp": 1.0, "ki": 0.5}},
           "surrogate": {"p": 2, "q": 1, "hidden": [4], "epochs": 2, "batch_size": 8}}
    cfg_path = _write(tmp_path, "sim.json", cfg)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sim")]) == 0
    good = tmp_path / "sim" / "trajectory.csv"
    rows = [line.split(",") for line in _read_rows(good)]
    assert rows[0] == ["t", "w", "y", "u", "d", "y2"]
    rows[20][rows[0].index(column)] = cell  # line 21
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(",".join(row) for row in rows) + "\n")
    out = ["--out", str(tmp_path / "o")]
    argv = (["compare", str(good), str(bad), *out] if target == "compare"
            else ["fit-surrogate", "--config", cfg_path, "--data", str(bad), *out])
    assert main(argv) == 4
    assert f"line 21: {bad}: non-finite cell {cell!r}" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("sensor", "noise_std", [1.0]), ("sensor", "sample_period", {}),
    ("sensor", "quantization", [0.5]), ("disturbance", "time", [1.0]),
    ("disturbance", "magnitude", None), ("reference", "level", [1.0]),
])
def test_wrong_typed_value_exits_2_with_section_path(tmp_path, capsys, section, key, value):
    cfg = json.loads(Path(_sim_pid_cfg(tmp_path, gains={"kp": 1.0})).read_text())
    cfg[section] = {key: value}
    argv = ["simulate", "--config", _write(tmp_path, "bad.json", cfg), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert f"config error: {section}.{key}: " in capsys.readouterr().err


def _tune_rule_cfg():
    return {"sim": {"dt": 0.05, "horizon": 20.0, "seed": 0}, "plant": dict(FOPDT_PLANT),
            "tuning": {"mode": "rule", "rule": "cohen-coon", "kind": "pi"}}


def _imitation_cfg():
    return {"sim": {"dt": 0.1, "horizon": 2.0, "seed": 0}, "plant": dict(FOPDT_PLANT),
            "training": {"mode": "imitation", "memory": 2, "hidden": [4], "epochs": 2,
                         "batch_size": 8, "episodes": {"count": 1, "level": 1.0}}}


def _patched(cfg, patch):
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            _patched(cfg[key], value)
        else:
            cfg[key] = value
    return cfg


BLEND = {"kind": "blend", "delta": 0.1, "correction": {"kind": "constant", "value": 0.1}}


def _leaf_case(command, patch, path, index, section):
    """A case with a fixed test id, `{command}-patch{index}-{section}`, that
    does not shift when cases are added or removed; a wrong kind, which
    `_merge` rejects with the leaf's path, keeps the section id it was first
    written with."""
    return pytest.param(command, patch, path, id=f"{command}-patch{index}-{section}")


@pytest.mark.parametrize("command, patch, section", [
    _leaf_case("simulate", {"controller": {"gains": {"kp": [1.0]}}}, "controller.gains.kp", 0,
               "controller.gains"),
    _leaf_case("simulate", {"controller": {"gains": {"ki": None}}}, "controller.gains.ki", 1,
               "controller.gains"),
    _leaf_case("simulate", {"safety": {**BLEND, "delta": [0.1]}}, "safety.delta", 2, "safety"),
    ("simulate", {"safety": {**BLEND, "delta": -1}}, "safety"),
    _leaf_case("simulate", {"safety": {**BLEND, "correction": {"value": {}}}},
               "safety.correction.value", 4, "safety"),
    ("simulate", {"sim": {"horizon": 1e-300}}, "sim"),
    ("simulate", {"sim": {"dt": 1e-300}}, "sim"),
    ("simulate", {"disturbance": {"variant": "step", "time": -1}}, "disturbance"),
    ("simulate", {"sensor": {"sample_period": 0}}, "sensor"),
    _leaf_case("tune", {"tuning": {"step_level": [1.0]}}, "tuning.step_level", 9, "tuning"),
    ("tune", {"plant": {"gain": -0.5}}, "tuning"),
    # found by the config fuzz in tests/test_fuzz.py
    ("tune", {"tuning": {"rule": "kappa-tau", "fopdt": {"gain": 0, "tau": 1.0, "dead_time": 0.2}}},
     "tuning"),
    _leaf_case("tune", {"tuning": {"rule": "ziegler-nichols", "kind": [1.0]}}, "tuning.kind", 12,
               "tuning"),
    _leaf_case("simulate", {"controller": {"kind": "cascade"}}, "controller", 16, "controller"),
    _leaf_case("train-controller", {"training": {"hidden": [], "beta": 0.5}}, "training", 17,
               "training"),
    _leaf_case("train-controller", {"training": {"episodes": {"count": 0}}},
               "training.episodes.count", 18, "training"),
])
def test_rejected_value_exits_2_with_section_path(tmp_path, capsys, command, patch, section):
    base = {"tune": _tune_rule_cfg(), "train-controller": _imitation_cfg()}.get(command) or \
        json.loads(Path(_sim_pid_cfg(tmp_path, gains={"kp": 1.0})).read_text())
    argv = [command, "--config", _write(tmp_path, "ok.json", base), "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    argv[2] = _write(tmp_path, "bad.json", _patched(base, patch))
    assert main(argv) == 2
    assert f"config error: {section}: " in capsys.readouterr().err



def _episode_case(tmp_path, mode):
    """(command, config, extra arguments, section) of a run that reads
    `{section}.episodes`: an AI tune, a BPTT or an imitation training."""
    surrogate = ["--surrogate", str(_saved_surrogate(tmp_path))]
    sim = {"sim": {"dt": 0.1, "horizon": 1.0, "seed": 0}, "plant": dict(FOPDT_PLANT)}
    return {
        "tune-ai": ("tune", {**sim, "tuning": {"mode": "ai", "budget": 5}}, surrogate, "tuning"),
        "bptt": ("train-controller", {**sim, "training": {"mode": "bptt", "memory": 2, "hidden": [4],
                                                          "horizon": 5, "epochs": 1}},
                 surrogate, "training"),
        "imitation": ("train-controller", _imitation_cfg(), [], "training"),
    }[mode]


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("mode", ["tune-ai", "bptt", "imitation"])
def test_nonfinite_episode_level_exits_2_with_key(tmp_path, capsys, mode, level):
    """A reference level that is not finite is a config error naming the file
    and the level's line, not a numerical failure after a whole search or
    training run."""
    command, base, extra, section = _episode_case(tmp_path, mode)
    argv = [command, "--config", _write(tmp_path, "ok.json", base), "--out", str(tmp_path / "o"),
            *extra]
    assert main(argv) == 0
    base[section]["episodes"] = {"count": 1, "level": level}
    argv[2] = _write(tmp_path, "bad.json", base)
    text = Path(argv[2]).read_text()
    line = text[:text.index('"level"')].count("\n") + 1
    capsys.readouterr()
    assert main(argv) == 2
    assert f"config error: line {line}: {argv[2]}: invalid number: {json.dumps(level)} is not " \
        "finite" in capsys.readouterr().err


@pytest.mark.parametrize("count", [0, -1])
@pytest.mark.parametrize("mode", ["tune-ai", "bptt", "imitation"])
def test_episode_count_below_one_exits_2_with_key(tmp_path, capsys, mode, count):
    """An episode count below one is a config error naming its key, and the
    command writes nothing: not a BPTT run that trains on no reference and
    saves an untrained model (exit 0, loss nan), nor numpy's message from an
    imitation dataset of no runs, nor a tune error naming only the section."""
    command, base, extra, section = _episode_case(tmp_path, mode)
    base[section]["episodes"] = {"count": count, "level": 1.0}
    out = tmp_path / "o"
    assert main([command, "--config", _write(tmp_path, "bad.json", base), "--out", str(out),
                 *extra]) == 2
    assert capsys.readouterr().err == \
        f"config error: {section}.episodes.count: count must be an integer >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("mode, key", [("fit-surrogate", "surrogate.epochs"),
                                       ("bptt", "training.epochs"),
                                       ("imitation", "training.epochs"),
                                       ("tune-ai", "tuning.restarts")])
def test_epochs_or_restarts_below_one_exit_2_with_key(tmp_path, capsys, mode, key, value):
    """An epoch or restart count below one is a config error naming its key,
    and the command writes nothing: not an untrained surrogate or imitation
    controller (exit 0), nor a BPTT run that fails on its empty loss history
    after it has saved its model, nor a tune that runs one restart and
    echoes the bad count."""
    _assert_refused_with_key(tmp_path, capsys, mode, key, value,
                             f"{key.rsplit('.', 1)[1]} must be an integer >= 1")


def _assert_refused_with_key(tmp_path, capsys, mode, key, value, message):
    """A `mode` run (a `fit-surrogate` or an `_episode_case`) whose config
    sets `key` to `value` exits 2 with `config error: <key>: <message>` and
    makes no `--out` directory."""
    if mode == "fit-surrogate":
        record = _write(tmp_path, "rec.json", _record_cfg())
        assert main(["record", "--config", record, "--out", str(tmp_path / "rec")]) == 0
        command, base = "fit-surrogate", _record_cfg()
        extra = ["--data", str(tmp_path / "rec" / "record.csv")]
    else:
        command, base, extra, _ = _episode_case(tmp_path, mode)
    section, leaf = key.split(".")
    base.setdefault(section, {})[leaf] = value
    out = tmp_path / "o"
    capsys.readouterr()
    assert main([command, "--config", _write(tmp_path, "bad.json", base), "--out", str(out),
                 *extra]) == 2
    assert capsys.readouterr().err == f"config error: {key}: {message}\n"
    assert not out.exists()


AT_LEAST_ONE = "must be an integer >= 1"
X0 = "x0 must be null or three numbers [kp, ki, kd]"


@pytest.mark.parametrize("mode, key, value, message", [
    ("tune-ai", "tuning.budget", 0, "budget " + AT_LEAST_ONE),
    ("tune-ai", "tuning.budget", -2, "budget " + AT_LEAST_ONE),
    ("tune-ai", "tuning.x0", [], X0),
    ("tune-ai", "tuning.x0", [1.0, 0.5], X0),
    ("tune-ai", "tuning.x0", [1.0, 0.5, 0.0, 0.1], X0),
    ("imitation", "training.batch_size", 0, "batch_size " + AT_LEAST_ONE),
    ("bptt", "training.batch_size", -1, "batch_size " + AT_LEAST_ONE),
    ("fit-surrogate", "surrogate.batch_size", 0, "batch_size " + AT_LEAST_ONE),
    ("imitation", "training.memory", 0, "memory " + AT_LEAST_ONE),
    ("bptt", "training.memory", -1, "memory " + AT_LEAST_ONE),
    ("bptt", "training.horizon", -1, "horizon must be an integer in [0, 200]"),
    ("bptt", "training.horizon", 201, "horizon must be an integer in [0, 200]"),
    ("imitation", "training.horizon", -5, "horizon must be an integer in [0, 200]"),
])
def test_out_of_range_config_value_exits_2_with_key(tmp_path, capsys, mode, key, value, message):
    """A budget, batch size or memory below one, a rollout horizon outside
    [0, 200] and an `x0` that is not three gains are config errors naming
    their key, found before the command makes `--out`: not numpy's message
    naming only the section (`negative dimensions are not allowed`,
    `operands could not be broadcast`), nor a check of the built object
    after an empty `--out` was made."""
    _assert_refused_with_key(tmp_path, capsys, mode, key, value, message)


@pytest.mark.parametrize("mode", ["tune-ai", "bptt"])
def test_missing_surrogate_file_exits_4_and_makes_no_out(tmp_path, capsys, mode):
    """`tune` and `train-controller` make `--out` only when they have
    something to write, so a run refused after the config is read leaves no
    empty directory."""
    command, base, _, _ = _episode_case(tmp_path, mode)
    out = tmp_path / "o"
    assert main([command, "--config", _write(tmp_path, "c.json", base), "--out", str(out),
                 "--surrogate", str(tmp_path / "absent.weights")]) == 4
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert not out.exists()


@pytest.mark.parametrize("command, leaf, token", [
    ("record", "excitation.amplitude", "-Infinity"),
    ("tune", "tuning.fopdt.gain", "NaN"),
    ("tune", "tuning.fopdt.tau", "NaN"),
    ("tune", "tuning.fopdt.dead_time", "NaN"),
    ("train-controller", "training.lambda", "1e999"),
    ("simulate", "controller.gains.kp", "Infinity"),
    ("simulate", "plant.gain", "NaN"),
    ("simulate", "plant.tau", "1e999"),
])
def test_non_finite_config_number_exits_2_naming_the_file_and_line(tmp_path, capsys, command,
                                                                    leaf, token):
    """JSON has no NaN or Infinity (RFC 8259), and 1e999 is beyond the float
    range: a config holding one is a config error naming the file and the
    number's line, and the command does not run. A PID with kp Infinity
    would otherwise report a saturated run, a NaN plant gain a numerical
    failure at step 0."""
    base = {
        "record": _record_cfg,
        "tune": lambda: _patched(_tune_rule_cfg(), {"tuning": {"fopdt": {
            "gain": 1.0, "tau": 1.0, "dead_time": 0.2}}}),
        "train-controller": _imitation_cfg,
        "simulate": lambda: json.loads(
            Path(_sim_pid_cfg(tmp_path, gains={"kp": 1.0})).read_text()),
    }[command]()
    argv = [command, "--config", _write(tmp_path, "ok.json", base), "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    *sections, key = leaf.split(".")
    block = base
    for name in sections:
        block = block.setdefault(name, {})
    block[key] = "@"
    text = json.dumps(base, indent=1)
    line = text[:text.index('"@"')].count("\n") + 1
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"@"', token), encoding="utf-8")
    argv[2:5] = [str(bad), "--out", str(tmp_path / "bad")]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        f"config error: line {line}: {bad}: invalid number: {token} is not finite\n"
    assert not (tmp_path / "bad").exists()


# ---------------------------------------------------------------------------
# gains files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key, value", [("kp", True), ("kp", "1.5"), ("kq", 0.5)])
def test_gains_file_value_of_a_wrong_kind_exits_2_naming_file_and_key(tmp_path, capsys, key,
                                                                      value):
    path = _write(tmp_path, "gains.json", {**GAINS_FILE, key: value})
    argv = ["simulate", "--config", _sim_pid_cfg(tmp_path, gains_path=path),
            "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert f"config error: {path}.{key}: " in capsys.readouterr().err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_gains_file_number_exits_2_naming_the_file_and_line(tmp_path, capsys, token):
    """A gains file follows the config's number rule: with kp Infinity the
    run used to exit 0 and report a saturated loop."""
    path = _write(tmp_path, "gains.json", {**GAINS_FILE, "kp": "@"})
    text = Path(path).read_text()
    line = text[:text.index('"@"')].count("\n") + 1
    Path(path).write_text(text.replace('"@"', token))
    argv = ["simulate", "--config", _sim_pid_cfg(tmp_path, gains_path=path),
            "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        f"config error: line {line}: {path}: invalid number: {token} is not finite\n"


def test_gains_file_follows_the_rule_of_an_inline_gains_block(tmp_path):
    """Missing keys take their defaults, as in an inline block."""
    gains = {"kp": 2.0, "ki": 1.0}
    path = _write(tmp_path, "gains.json", gains)
    for name, controller in (("file", {"gains_path": path}), ("inline", {"gains": gains})):
        argv = ["simulate", "--config", _sim_pid_cfg(tmp_path, **controller),
                "--out", str(tmp_path / name)]
        assert main(argv) == 0
    assert (tmp_path / "file" / "trajectory.csv").read_bytes() == \
        (tmp_path / "inline" / "trajectory.csv").read_bytes()


# ---------------------------------------------------------------------------
# integral numbers written as JSON integers
# ---------------------------------------------------------------------------

def _as_integers(value):
    """`value` with every integral float written as an int."""
    if isinstance(value, dict):
        return {key: _as_integers(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_as_integers(item) for item in value]
    return int(value) if isinstance(value, float) and value.is_integer() else value


EQ_GAINS = {"kp": 2.0, "ki": 1.0, "kd": 0.0, "u_min": -2.0, "u_max": 2.0, "filter_n": 10.0}
EQ_SIM = {"sim": {"dt": 0.1, "horizon": 6.0, "seed": 3},
          "sensor": {"noise_std": 0.0, "sample_period": 1.0, "quantization": 0.0},
          "disturbance": {"variant": "step", "time": 3.0, "magnitude": 1.0},
          "reference": {"variant": "step", "level": 1.0, "time": 1.0, "baseline": 0.0}}
EQ_PLANTS = {
    "fopdt": {"variant": "fopdt", "gain": 2.0, "tau": 1.0, "dead_time": 1.0,
              "limits": [-3.0, 3.0]},
    "second_order": {"variant": "second_order", "gain": 1.0, "omega_n": 2.0, "zeta": 1.0,
                     "x0": [0.0, 1.0], "limits": [-3.0, 3.0]},
    "tank": {"variant": "tank", "area": 2.0, "outflow_coeff": 1.0, "x0": [1.0],
             "limits": [0.0, 3.0]},
    "linear": {"variant": "linear", "a": [[0.0, 1.0], [-2.0, -3.0]], "b": [0.0, 1.0],
               "c": [[2.0, 0.0]], "limits": [-3.0, 3.0]},
}
EQ_TRAIN = {"memory": 2, "hidden": [4], "learning_rate": 0.01, "batch_size": 8, "epochs": 2,
            "patience": 2, "seed": 7, "episodes": {"count": 2, "level": 1.0}}
EQ_TUNE = {"sim": {"dt": 0.05, "horizon": 20.0, "seed": 0}, "plant": EQ_PLANTS["fopdt"]}


def _equivalence_case(name, tmp_path):
    """(command, config with integral numbers written as floats, extra arguments)."""
    surrogate = ["--surrogate", str(_saved_surrogate(tmp_path))]
    fopdt = {**EQ_SIM, "plant": EQ_PLANTS["fopdt"]}
    record = {**fopdt, "excitation": {"variant": "prbs", "order": 5, "amplitude": 1.0,
                                      "bit_period": 1.0, "seed": 2}}
    if name == "fit-surrogate":
        assert main(["record", "--config", _write(tmp_path, "rec.json", record),
                     "--out", str(tmp_path / "rec")]) == 0
    cases = {
        "record-prbs": ("record", record, []),
        "record-steps": ("record", {**fopdt, "excitation": {
            "variant": "step_train", "levels": [0.0, 1.0, -2.0], "dwell": 2.0}}, []),
        "fit-surrogate": ("fit-surrogate", {**fopdt, "surrogate": {
            "p": 2, "q": 1, "hidden": [4], "learning_rate": 0.01, "batch_size": 8,
            "epochs": 3, "patience": 3, "seed": 0}},
            ["--data", str(tmp_path / "rec" / "record.csv")]),
        "tune-relay": ("tune", {**EQ_TUNE, "tuning": {
            "mode": "rule", "rule": "ziegler-nichols", "relay_amplitude": 1.0}}, []),
        "tune-step": ("tune", {**EQ_TUNE, "tuning": {
            "mode": "rule", "rule": "cohen-coon", "kind": "pi", "step_level": 2.0}}, []),
        "tune-fopdt": ("tune", {**EQ_TUNE, "tuning": {
            "mode": "rule", "rule": "kappa-tau", "fopdt": {"gain": 2.0, "tau": 3.0,
                                                           "dead_time": 1.0}}}, []),
        "tune-ai": ("tune", {**EQ_TUNE, "tuning": {
            "mode": "ai", "budget": 6, "rho": 0.0, "restarts": 1, "x0": [1.0, 1.0, 0.0],
            "bounds": {"kp": [0.0, 2.0], "ki": [0.0, 2.0], "kd": [0.0, 1.0]},
            "episodes": {"count": 2, "level": 1.0}}}, surrogate),
        "train-imitation": ("train-controller", {**fopdt, "training": {
            **EQ_TRAIN, "mode": "imitation", "teacher": {"gains": EQ_GAINS}, "lambda": 1.0,
            "beta": 1.0}}, []),
        "train-bptt": ("train-controller", {**fopdt, "training": {
            **EQ_TRAIN, "mode": "bptt", "horizon": 4, "rho": 0.0}}, surrogate),
        "train-scheduler": ("train-controller", {**fopdt, "training": {
            **EQ_TRAIN, "mode": "bptt", "target": "scheduler", "horizon": 4, "rho": 1.0,
            "bounds": {"kp": [0.0, 2.0], "ki": [0.0, 1.0], "kd": [0.0, 0.0]}}}, surrogate),
        "simulate-switch": ("simulate", {**fopdt, "controller": {"kind": "constant", "value": 1.0},
                                         "safety": {"kind": "switch", "theta_hi": 1.0,
                                                    "theta_lo": 0.0, "dwell": 2, "agree_tol": 1.0,
                                                    "fallback": {"gains": EQ_GAINS}}}, []),
        "simulate-blend": ("simulate", {**fopdt, "controller": {"kind": "pid", "gains": EQ_GAINS},
                                        "safety": {"kind": "blend", "delta": 1.0, "correction": {
                                            "kind": "constant", "value": 1.0}}}, []),
        "simulate-cascade": ("simulate", {**EQ_SIM, "plant": {**EQ_PLANTS["linear"], "c": [
            [1.0, 0.0], [0.0, 1.0]]}, "controller": {
            "kind": "cascade", "outer": EQ_GAINS, "inner": EQ_GAINS, "outer_channel": 0,
            "inner_channel": 1}}, []),
    }
    for plant in EQ_PLANTS:
        cases[f"simulate-{plant}"] = ("simulate", {
            **EQ_SIM, "plant": EQ_PLANTS[plant], "controller": {"kind": "pid", "gains": EQ_GAINS}},
            [])
    return cases[name]


@pytest.mark.parametrize("name", [
    "record-prbs", "record-steps", "fit-surrogate", "tune-relay", "tune-step", "tune-fopdt",
    "tune-ai", "train-imitation", "train-bptt", "train-scheduler", "simulate-switch",
    "simulate-blend", "simulate-cascade", *(f"simulate-{plant}" for plant in EQ_PLANTS)])
def test_integral_numbers_as_json_integers_give_the_same_bytes(tmp_path, name):
    """Every number leaf is stored as a float, so a config whose integral
    numbers are written as JSON integers writes the same files, its config
    echo included, as one that writes them as floats."""
    command, cfg, extra = _equivalence_case(name, tmp_path)
    as_integers = _as_integers(cfg)
    assert json.dumps(as_integers) != json.dumps(cfg)
    outputs = []
    for label, raw in (("floats", cfg), ("ints", as_integers)):
        out = tmp_path / label
        argv = [command, "--config", _write(tmp_path, f"{label}.json", raw), "--out", str(out),
                *extra]
        assert main(argv) == 0, label
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    floats, ints = outputs
    echo = f"{command}_config.json"
    assert sorted(floats) == sorted(ints)
    for file in floats:
        assert file == echo or floats[file] == ints[file], file
    assert floats[echo] == ints[echo]


# ---------------------------------------------------------------------------
# one place decides a leaf's kind
# ---------------------------------------------------------------------------

# a `float(`/`int(` call on a subscript, such as `float(cfg["sim"]["dt"])`
LEAF_CAST = re.compile(r"\b(float|int)\(\s*\w+\[")


def test_leaf_cast_pattern_finds_a_cast_of_a_subscript():
    for line in ('float(sim["dt"])', "int( t['budget'])", 'x = int(block["seed"]) + 1'):
        assert LEAF_CAST.search(line), line
    for line in ("float(value)", "int(round(x / dt))", "float(np.interp(t, a, b))",
                 "np.array(p['a'], dtype=float)"):
        assert not LEAF_CAST.search(line), line


def test_no_builder_casts_a_config_leaf():
    """`config._merge` types every leaf; the builders read the values as they are."""
    src = Path(loopbench.__file__).parent
    hits = [f"{name}:{i}: {line.strip()}" for name in ("config.py", "cli.py")
            for i, line in enumerate((src / name).read_text(encoding="utf-8").splitlines(), 1)
            if LEAF_CAST.search(line)]
    assert hits == [], "a config leaf has its kind from `config._merge`; do not cast it"


# ---------------------------------------------------------------------------
# error kinds: one exit code and one stderr prefix each
# ---------------------------------------------------------------------------

KINDS = {ConfigError: (2, "config error"), NumericalFailure: (3, "numerical failure"),
         DataError: (4, "i/o error"), OSError: (4, "i/o error")}


def _public_exception_classes(module):
    return [obj for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__ and not name.startswith("_")]


def test_every_public_exception_class_is_of_exactly_one_kind():
    """`cli.main` gives each kind its exit code: a class of no kind would end
    in a traceback, and a class of two kinds would have two codes."""
    modules = [importlib.import_module(f"loopbench.{info.name}")
               for info in pkgutil.iter_modules(loopbench.__path__)]
    classes = [cls for module in modules for cls in _public_exception_classes(module)]
    assert {ConfigError, NumericalFailure, DataError} <= set(classes)
    kinds = (ConfigError, NumericalFailure, DataError)
    assert [cls.__name__ for cls in classes
            if sum(issubclass(cls, kind) for kind in kinds) != 1] == []


# the fields of the classes whose constructors take more than a message
FIELDS = {"ConfigError": ("training.mode",), "SimulationDiverged": (7,), "ParseError": (3,)}


@pytest.mark.parametrize("cls", [*_public_exception_classes(errors), FileNotFoundError],
                         ids=lambda cls: cls.__name__)
def test_each_error_class_exits_with_its_kinds_code_and_prefix(tmp_path, capsys, monkeypatch,
                                                              cls):
    exc = cls("scripted fault", *FIELDS.get(cls.__name__, ()))

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_compare", fail)
    code, prefix = next(v for kind, v in KINDS.items() if issubclass(cls, kind))
    assert main(["compare", "a.csv", "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == f"{prefix}: {exc}\n"
