"""Seeded fuzzing of model files, configs and time-series files.

Each mutant of a saved surrogate, controller or scheduler (weights file or
sidecar, cut, edited or given a byte that is not UTF-8), each config with
one leaf set to a junk value or given a 0xff byte, and each mutant of a
trajectory CSV (cut, a junk cell, a dropped column, a permuted header,
swapped or deleted rows, a 0xff byte) goes through the commands that read it.
Whatever the mutation, the command ends in an exit code of the CLI contract
(0 ok, 2 config, 3 numerical, 4 I/O) and never in a traceback; a boolean
config leaf exits 2, and a 0xff byte or a non-finite cell as the only fault
exits 4, as does a model file whose only fault is one non-finite number.
A number or integer leaf set to a numeric string, an integer leaf
set to a float and a list leaf set to a string each exit 2 with the leaf's
key path; any number set to NaN, Infinity, -Infinity or 1e999 exits 2 with
the config's path and the number's line. Layer sizes
and horizons stay small so that no mutant asks for a large allocation or a
long run.
"""

import csv
import json
import math
from functools import reduce
from operator import getitem

import numpy as np
import pytest

from loopbench.cli import main
from loopbench.config import resolve_config
from loopbench.dataio import TimeSeries, read_timeseries, write_timeseries
from loopbench.neuro import GainScheduler, NeuralController
from loopbench.nnet import Mlp, save_model
from loopbench.surrogate import NarxModel

PLANT = {"variant": "fopdt", "gain": 1.0, "tau": 1.0, "dead_time": 0.5, "limits": [-3.0, 3.0]}
SIM = {"dt": 0.1, "horizon": 1.0, "seed": 0}
KINDS = ("narx-surrogate", "neural-controller", "gain-scheduler")
MODELS = ("surrogate", "controller", "scheduler")
N_MUTANTS = 120


def _models():
    rng = np.random.default_rng(0)
    return {
        "surrogate": NarxModel(Mlp([4, 6, 1], seed=1), 2, 2, 0.1, rng.normal(size=4),
                               rng.uniform(0.5, 2.0, size=4), np.zeros(1), np.ones(1)),
        "controller": NeuralController(Mlp([5, 6, 4, 1], seed=2), -3.0, 3.0, 2,
                                       rng.normal(size=5), rng.uniform(0.5, 2.0, size=5),
                                       aux=Mlp([4, 1], seed=3)),
        "scheduler": GainScheduler(Mlp([4, 6, 3], seed=4), [[0.1, 2.0], [0.0, 1.0], [0.0, 0.3]],
                                   2, rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)),
    }


def _commands(path):
    """Per model: the commands that load the file at `path`, as (config,
    arguments before --config)."""
    def sim_cfg(kind):
        return {"sim": SIM, "plant": PLANT, "controller": {"kind": kind, "model_path": str(path)}}

    return {
        "surrogate": [
            ({"sim": SIM, "plant": PLANT, "tuning": {"mode": "ai", "budget": 4}},
             ["tune", "--surrogate", str(path)]),
            ({"sim": SIM, "plant": PLANT,
              "training": {"mode": "bptt", "memory": 2, "hidden": [4], "horizon": 4,
                           "epochs": 1, "episodes": {"count": 1, "level": 1.0}}},
             ["train-controller", "--surrogate", str(path)]),
        ],
        "controller": [(sim_cfg("neural"), ["simulate"])],
        "scheduler": [(sim_cfg("pid+scheduler"), ["simulate"])],
    }


def _mutate_weights(rng, lines):
    """Truncate at a random line, or make a random numeric row ragged."""
    if rng.random() < 0.5:
        return lines[:int(rng.integers(0, len(lines)))], "truncated weights"
    rows = [i for i, line in enumerate(lines) if line[:1] in "-0123456789"]
    i = int(rng.choice(rows))
    values = lines[i].split()
    lines = list(lines)
    lines[i] = " ".join(values[:-1] if rng.random() < 0.5 else values + values[:1])
    return lines, f"ragged weights line {i + 1}"


def _mutate_sidecar(rng, meta, text):
    """Truncate at a random line, drop a key, swap the kind, set a key to a
    junk value, make a matrix row ragged, or zero one vector entry."""
    key = str(rng.choice(sorted(meta)))
    meta = dict(meta)
    op = int(rng.integers(0, 6))
    if op == 0:
        lines = text.splitlines()
        return "\n".join(lines[:int(rng.integers(0, len(lines)))]), "truncated sidecar"
    if op == 1:
        del meta[key]
        return json.dumps(meta), f"dropped {key}"
    if op == 2:
        meta["kind"] = str(rng.choice([k for k in KINDS if k != meta["kind"]]))
        return json.dumps(meta), f"kind {meta['kind']}"
    if op == 3:
        junk = ["x", None, [], [[1.0, 2.0], [3.0]], [[0.5]], math.nan][int(rng.integers(0, 6))]
        meta[key] = junk
        return json.dumps(meta), f"{key} = {junk!r}"
    lists = [k for k in sorted(meta) if isinstance(meta[k], list) and meta[k]]
    key = str(rng.choice(lists))
    value = json.loads(json.dumps(meta[key]))
    row = int(rng.integers(0, len(value)))
    if op == 4 and isinstance(value[row], list):
        value[row] = value[row][:-1]
        meta[key] = value
        return json.dumps(meta), f"ragged {key} row {row}"
    if isinstance(value[row], list):
        value[row][0] = 0.0
    else:
        value[row] = 0.0
    meta[key] = value
    return json.dumps(meta), f"zeroed {key} row {row}"


N_NON_FINITE_MUTANTS = 24


def _number_paths(value, path=()):
    """Key and index paths of every number in a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return [path] if isinstance(value, (int, float)) and not isinstance(value, bool) else []
    return [p for key, v in items for p in _number_paths(v, (*path, key))]


def _non_finite_mutant(rng, lines, meta):
    """One number of the weights file or the sidecar made non-finite, the
    files otherwise intact: (weights lines, sidecar text, what)."""
    if rng.random() < 0.5:
        rows = [i for i, line in enumerate(lines) if line[:1] in "-0123456789"]
        i = int(rng.choice(rows))
        values = lines[i].split()
        j = int(rng.integers(0, len(values)))
        values[j] = str(rng.choice(["nan", "inf", "-inf", "1e999"]))
        lines = [*lines[:i], " ".join(values), *lines[i + 1:]]
        return lines, json.dumps(meta), f"weights line {i + 1} cell {j} = {values[j]}"
    paths = _number_paths(meta)
    path = paths[int(rng.integers(0, len(paths)))]
    token = str(rng.choice(["NaN", "Infinity", "-Infinity", "1e999"]))
    mutant = json.loads(json.dumps(meta))
    reduce(getitem, path[:-1], mutant)[path[-1]] = "@"
    return lines, json.dumps(mutant).replace('"@"', token), f"sidecar {list(path)} = {token}"


def _insert_ff(rng, text):
    """Insert a 0xff byte, which no UTF-8 text holds, at a random offset."""
    data = text.encode()
    at = int(rng.integers(0, len(data) + 1))
    return data[:at] + b"\xff" + data[at:], f"0xff at byte {at}"


@pytest.mark.parametrize("model", MODELS)
def test_mutated_model_files_keep_the_exit_code_contract(tmp_path, capsys, model):
    rng = np.random.default_rng(MODELS.index(model))
    good = tmp_path / "good.weights"
    save_model(_models()[model], good, extras={"mode": "fuzz"})
    lines = good.read_text().splitlines()
    sidecar = (tmp_path / "good.weights.meta.json").read_text()
    meta = json.loads(sidecar)

    codes = set()
    for i in range(N_MUTANTS):
        path = tmp_path / f"m{i}.weights"
        meta_path = tmp_path / f"m{i}.weights.meta.json"
        files = {path: "\n".join(lines) + "\n", meta_path: sidecar}
        draw = rng.random()
        if draw < 0.3:
            weights_lines, what = _mutate_weights(rng, lines)
            files[path] = "\n".join(weights_lines) + "\n"
        elif draw < 0.4:
            target = (path, meta_path)[int(rng.integers(0, 2))]
            files[target], what = _insert_ff(rng, files[target])
        else:
            files[meta_path], what = _mutate_sidecar(rng, meta, sidecar)
        for target, content in files.items():
            target.write_bytes(content if isinstance(content, bytes) else content.encode())
        for cfg, argv in _commands(path)[model]:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            try:
                code = main([*argv, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
            except Exception as exc:  # a traceback is the failure this test looks for
                pytest.fail(f"mutant {i} ({what}) through {argv[0]} raised {exc!r}")
            assert code in (0, 2, 3, 4), f"mutant {i} ({what}) through {argv[0]} exited {code}"
            codes.add(code)
        capsys.readouterr()
    assert 4 in codes

    path, meta_path = tmp_path / "nf.weights", tmp_path / "nf.weights.meta.json"
    for i in range(N_NON_FINITE_MUTANTS):
        weights_lines, text, what = _non_finite_mutant(rng, lines, meta)
        path.write_text("\n".join(weights_lines) + "\n")
        meta_path.write_text(text)
        for cfg, argv in _commands(path)[model]:
            cfg_path.write_text(json.dumps(cfg))
            code = main([*argv, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code == 4, f"non-finite mutant {i} ({what}) through {argv[0]} exited {code}"
            assert "non-finite value" in err if what.startswith("weights") else "is not finite" in err


# --- configs ---

JUNK = ("x", None, [], {}, True, -1, 0, math.nan, [1.0], [[1, 2]], -0.5, 1e-300)
READS = {"record": ("sim", "plant", "sensor", "disturbance", "excitation"),
         "simulate": ("sim", "plant", "sensor", "disturbance", "reference", "controller", "safety"),
         "tune": ("sim", "plant", "tuning"),
         "fit-surrogate": ("sim", "surrogate"),
         "train-controller": ("sim", "plant", "sensor", "disturbance", "training")}
N_CONFIG_MUTANTS = 150
N_CONFIG_FF_MUTANTS = 5
GAINS = {"kp": 1.2, "ki": 0.8, "kd": 0.05}
LINEAR2 = {"variant": "linear", "a": [[-0.5, 0.5], [0.0, -3.0]], "b": [0.0, 3.0],
           "c": [[1.0, 0.0], [0.0, 1.0]], "limits": [-5.0, 5.0]}


def _config_bases(tmp_path):
    """(name, command, config, extra arguments): between them they read every
    leaf of the sections of every command but `compare`."""
    profile = tmp_path / "profile.csv"
    t = np.arange(11) * 0.1
    write_timeseries(TimeSeries(t, np.where(t > 0.3, 1.0, 0.0), *np.zeros((3, 11)), extra=None),
                     profile)
    record = tmp_path / "record.csv"
    t = np.arange(60) * 0.1
    u = np.sign(np.sin(0.7 * t))
    y = np.zeros(60)
    for k in range(59):
        y[k + 1] = 0.9 * y[k] + 0.1 * u[k]
    write_timeseries(TimeSeries(t, np.zeros(60), y, u, np.zeros(60), extra=None), record)
    surrogate = tmp_path / "sur.weights"
    save_model(_models()["surrogate"], surrogate)
    tune = {"sim": {"dt": 0.05, "horizon": 20.0, "seed": 0}, "plant": PLANT}
    sim = {"sim": SIM, "plant": PLANT,
           "sensor": {"noise_std": 0.01, "sample_period": 0.2, "quantization": 0.001},
           "disturbance": {"variant": "step", "time": 0.5, "magnitude": 0.2}}
    switch = {"kind": "switch", "dwell": 2, "agree_tol": 0.5, "fallback": {"gains": GAINS}}
    blend = {"kind": "blend", "delta": 0.2, "correction": {"kind": "constant", "value": 0.1}}
    train = {"memory": 2, "hidden": [4], "epochs": 1, "patience": 2,
             "episodes": {"count": 1, "level": 1.0}}
    return [
        ("record-prbs", "record", {**sim, "excitation": {"variant": "prbs", "order": 4,
                                                         "bit_period": 0.2}}, []),
        ("record-steps", "record", {**sim, "excitation": {"variant": "step_train", "dwell": 0.3,
                                                          "levels": [0.0, 1.0, -0.5]}}, []),
        ("record-chirp", "record", {**sim, "excitation": {"variant": "chirp", "duration": 0.8}},
         []),
        ("simulate-switch", "simulate", {**sim, "controller": {"kind": "constant", "value": 0.4},
                                         "safety": switch}, []),
        ("simulate-blend", "simulate", {**sim, "controller": {"kind": "pid", "gains": GAINS},
                                        "safety": blend,
                                        "reference": {"variant": "profile", "path": str(profile)}},
         []),
        ("simulate-cascade", "simulate", {**sim, "plant": LINEAR2, "controller": {
            "kind": "cascade", "outer": GAINS, "inner": GAINS}}, []),
        ("tune-relay", "tune", {**tune, "tuning": {"mode": "rule", "relay_amplitude": 1.0}}, []),
        ("tune-step", "tune", {**tune, "tuning": {"mode": "rule", "rule": "cohen-coon"}}, []),
        ("tune-fopdt", "tune", {**tune, "tuning": {
            "mode": "rule", "rule": "kappa-tau",
            "fopdt": {"gain": 1.0, "tau": 1.0, "dead_time": 0.2}}}, []),
        ("tune-ai", "tune", {**tune, "tuning": {"mode": "ai", "budget": 4, "restarts": 1,
                                               "x0": [1.0, 0.5, 0.0]}},
         ["--surrogate", str(surrogate)]),
        ("fit-surrogate", "fit-surrogate", {**sim, "surrogate": {
            "p": 2, "q": 1, "hidden": [4], "epochs": 2, "patience": 2, "batch_size": 8}},
         ["--data", str(record)]),
        ("train-imitation", "train-controller", {**sim, "training": {
            **train, "mode": "imitation", "beta": 0.5, "epochs": 2, "batch_size": 8}}, []),
        ("train-bptt", "train-controller", {**sim, "training": {
            **train, "mode": "bptt", "horizon": 4}}, ["--surrogate", str(surrogate)]),
        ("train-scheduler", "train-controller", {**sim, "training": {
            **train, "mode": "bptt", "target": "scheduler", "horizon": 4}},
         ["--surrogate", str(surrogate)]),
    ]


@pytest.mark.parametrize("seed", [[], ["--seed", "7"]], ids=["config-seed", "seed-7"])
@pytest.mark.parametrize("base", range(14))
def test_config_echo_reruns_the_run(tmp_path, base, seed):
    """The config echo is a fixed point: run from it, with no `--seed`, a
    command writes every output file byte for byte as the run that wrote
    it, the echo included. fit-surrogate takes no `--seed` and exits 2."""
    name, command, raw, extra = _config_bases(tmp_path)[base]
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    first, again = tmp_path / "first", tmp_path / "again"
    argv = [command, "--config", str(tmp_path / "cfg.json"), "--out", str(first), *seed, *extra]
    if seed and command == "fit-surrogate":
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return
    assert main(argv) == 0, name
    echo = first / f"{command}_config.json"
    assert main([command, "--config", str(echo), "--out", str(again), *extra]) == 0, name
    files = sorted(path.name for path in first.iterdir())
    assert files == sorted(path.name for path in again.iterdir())
    for file in files:
        assert (first / file).read_bytes() == (again / file).read_bytes(), f"{name}: {file}"


def _csv_rows(path) -> list:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _simulate_bases(tmp_path):
    """The `simulate` bases, plus a copy of the switch base that hands back:
    over 20 s its constant AI command, 0.8, is the fallback's steady command
    under the 0.2 input disturbance, so the two agree once the loop settles."""
    bases = [base for base in _config_bases(tmp_path) if base[1] == "simulate"]
    name, command, raw, extra = next(b for b in bases if b[0] == "simulate-switch")
    recovers = {**raw, "sim": {**raw["sim"], "horizon": 20.0},
                "controller": {"kind": "constant", "value": 0.8}}
    return bases + [("simulate-switch-recovers", command, recovers, extra)]


@pytest.mark.parametrize("seed", [[], ["--seed", "7"]], ids=["config-seed", "seed-7"])
def test_simulate_outputs_keep_the_safety_invariants(tmp_path, seed):
    """The run-time assurance invariants of a Simplex architecture (Sha,
    IEEE Software 18(4), 2001) on every `simulate` base: each `u` in
    trajectory.csv lies within the plant limits, each blend.csv row keeps
    |u - u_conv| <= delta, transitions.csv starts with AI->FALLBACK and
    alternates direction, and each `recovered` row comes at least `dwell`
    steps after the handover before it."""
    bases = _simulate_bases(tmp_path)
    kinds = {raw.get("safety", {}).get("kind") for _, _, raw, _ in bases}
    assert kinds == {None, "switch", "blend"}
    recoveries = 0
    for name, command, raw, extra in bases:
        out = tmp_path / name
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        argv = [command, "--config", str(tmp_path / "cfg.json"), "--out", str(out), *seed, *extra]
        assert main(argv) == 0, name
        lo, hi = raw["plant"]["limits"]
        u = read_timeseries(out / "trajectory.csv").u
        assert np.all((lo <= u) & (u <= hi)), name
        safety = raw.get("safety", {})
        if safety.get("kind") == "blend":
            rows = _csv_rows(out / "blend.csv")
            assert len(rows) == len(u), name
            assert all(abs(float(r["u"]) - float(r["u_conv"])) <= safety["delta"] for r in rows)
        if safety.get("kind") == "switch":
            rows = _csv_rows(out / "transitions.csv")
            directions = [r["direction"] for r in rows]
            assert directions[:1] == ["AI->FALLBACK"], name
            assert all(a != b for a, b in zip(directions, directions[1:])), name
            for before, row in zip(rows, rows[1:]):
                if row["cause"] == "recovered":
                    assert int(row["step"]) - int(before["step"]) >= safety["dwell"], name
                    recoveries += 1
    assert recoveries >= 1


def test_compare_reproduces_metrics_on_an_ideal_sensor(tmp_path):
    """On an ideal-sensor copy of each `simulate` base, the measured output is
    the true output, so `compare` on the run's trajectory.csv writes the row
    of its metrics.csv, every field but the label."""
    for name, command, raw, extra in _simulate_bases(tmp_path):
        ideal = {**raw, "sensor": {"noise_std": 0.0, "sample_period": None, "quantization": 0.0}}
        (tmp_path / "cfg.json").write_text(json.dumps(ideal))
        run, table = tmp_path / name, tmp_path / f"{name}-compare"
        assert main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(run),
                     *extra]) == 0, name
        assert main(["compare", str(run / "trajectory.csv"), "--out", str(table)]) == 0, name
        want, got = _csv_rows(run / "metrics.csv"), _csv_rows(table / "comparison.csv")
        assert len(want) == len(got) == 1, name
        assert [{k: v for k, v in r.items() if k != "label"} for r in got] == \
            [{k: v for k, v in r.items() if k != "label"} for r in want], name


def _leaves(block, sections, path=()):
    """Key paths of every leaf under `sections` of a resolved config."""
    for key, value in block.items():
        if path or key in sections:
            if isinstance(value, dict) and value:
                yield from _leaves(value, sections, (*path, key))
            else:
                yield (*path, key)


@pytest.mark.parametrize("base", range(14))
def test_mutated_configs_keep_the_exit_code_contract(tmp_path, capsys, base):
    name, command, raw, extra = _config_bases(tmp_path)[base]
    cfg = resolve_config(raw)
    argv = [command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"),
            *extra]
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(argv) == 0, f"{name} base config"
    leaves = sorted(_leaves(cfg, READS[command]))
    rng = np.random.default_rng(100 + base)
    for i in range(N_CONFIG_MUTANTS):
        leaf = leaves[int(rng.integers(0, len(leaves)))]
        value = JUNK[int(rng.integers(0, len(JUNK)))]
        mutant = json.loads(json.dumps(cfg))
        block = mutant
        for key in leaf[:-1]:
            block = block[key]
        block[leaf[-1]] = value
        (tmp_path / "cfg.json").write_text(json.dumps(mutant))
        what = f"{name} mutant {i}: {'.'.join(leaf)} = {value!r}"
        try:
            code = main(argv)
        except Exception as exc:  # a traceback is the failure this test looks for
            pytest.fail(f"{what} raised {exc!r}")
        assert code in (0, 2, 3, 4), f"{what} exited {code}"
        assert value is not True or code == 2, f"{what} exited {code}"
        capsys.readouterr()
    text = json.dumps(cfg)
    for i in range(N_CONFIG_FF_MUTANTS):
        data, what = _insert_ff(rng, text)
        (tmp_path / "cfg.json").write_bytes(data)
        try:
            code = main(argv)
        except Exception as exc:
            pytest.fail(f"{name} {what} raised {exc!r}")
        assert code == 4, f"{name} {what} exited {code}"
        capsys.readouterr()


# a numeric string for every number and integer leaf, a float for every
# integer leaf and a string for every list leaf
WRONG_KINDS = {float: ("1", " 2e0 "), int: ("1", " 2e0 ", 7.0, 7.9), list: ("01",)}


@pytest.mark.parametrize("base", range(14))
def test_leaf_of_a_wrong_kind_exits_2_with_its_key_path(tmp_path, capsys, base):
    name, command, raw, extra = _config_bases(tmp_path)[base]
    cfg = resolve_config(raw)
    argv = [command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"),
            *extra]
    kinds = set()
    for leaf in sorted(_leaves(cfg, READS[command])):
        *parents, key = leaf
        kind = type(reduce(getitem, leaf, cfg))
        for value in WRONG_KINDS.get(kind, ()):
            mutant = json.loads(json.dumps(cfg))
            reduce(getitem, parents, mutant)[key] = value
            (tmp_path / "cfg.json").write_text(json.dumps(mutant))
            what = f"{name}: {'.'.join(leaf)} = {value!r}"
            assert main(argv) == 2, what
            assert f"config error: {'.'.join(leaf)}: " in capsys.readouterr().err, what
            kinds.add(kind)
    assert kinds == set(WRONG_KINDS)


NON_FINITE_TOKENS = ("NaN", "Infinity", "-Infinity", "1e999")


@pytest.mark.parametrize("base", range(14))
def test_non_finite_number_exits_2_with_the_file_and_line(tmp_path, capsys, base):
    """JSON has no NaN or Infinity, and 1e999 is beyond the float range: any
    of them in any number the command reads, list items included, exits 2
    naming the config and the number's line, and nothing runs."""
    name, command, raw, extra = _config_bases(tmp_path)[base]
    cfg = resolve_config(raw)
    path = tmp_path / "cfg.json"
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out"), *extra]
    numbers = [leaf for section in READS[command]
               for leaf in _number_paths(cfg[section], (section,))]
    for leaf in numbers:
        mutant = json.loads(json.dumps(cfg))
        reduce(getitem, leaf[:-1], mutant)[leaf[-1]] = "@"
        text = json.dumps(mutant, indent=1)
        line = text[:text.index('"@"')].count("\n") + 1
        for token in NON_FINITE_TOKENS:
            path.write_text(text.replace('"@"', token))
            what = f"{name}: {list(leaf)} = {token}"
            assert main(argv) == 2, what
            assert capsys.readouterr().err == \
                f"config error: line {line}: {path}: invalid number: {token} is not finite\n", what
    assert numbers and not (tmp_path / "out").exists()


# --- time-series files ---

N_CSV_MUTANTS = 150
NON_FINITE = ("nan", "inf", "-inf", "1e999")
CELL_JUNK = ("x", "", " ", *NON_FINITE, "--1", "1,5", "0x10", "1_0", "1e-400")


def _mutate_csv(rng, lines):
    """Truncate at a random byte, put junk in a cell, drop a column, permute
    the header, swap or delete rows, or insert a 0xff byte. Returns the bytes,
    what was done, and whether the only fault is a non-finite cell."""
    text = "\n".join(lines) + "\n"
    op = int(rng.integers(0, 7))
    if op == 0:
        at = int(rng.integers(0, len(text)))
        return text[:at].encode(), f"truncated at byte {at}", False
    if op == 6:
        return *_insert_ff(rng, text), False
    rows = [line.split(",") for line in lines]
    if op == 1:
        i, j = int(rng.integers(1, len(rows))), int(rng.integers(0, len(rows[0])))
        rows[i][j] = str(rng.choice(CELL_JUNK))
        what = f"cell ({i + 1}, {j + 1}) = {rows[i][j]!r}"
        if rows[i][j] in NON_FINITE:
            return ("\n".join(",".join(row) for row in rows) + "\n").encode(), what, True
    elif op == 2:
        j = int(rng.integers(0, len(rows[0])))
        upto = len(rows) if rng.random() < 0.5 else int(rng.integers(1, len(rows)))
        rows = [row[:j] + row[j + 1:] if i < upto else row for i, row in enumerate(rows)]
        what = f"dropped column {j + 1} from the first {upto} lines"
    elif op == 3:
        rows[0] = [str(name) for name in rng.permutation(rows[0])]
        what = f"header {','.join(rows[0])}"
    elif op == 4:
        i, k = (int(v) for v in rng.integers(1, len(rows), size=2))
        rows[i], rows[k] = rows[k], rows[i]
        what = f"swapped lines {i + 1} and {k + 1}"
    else:
        i = int(rng.integers(1, len(rows)))
        del rows[i]
        what = f"deleted line {i + 1}"
    return ("\n".join(",".join(row) for row in rows) + "\n").encode(), what, False


def test_mutated_time_series_keep_the_exit_code_contract(tmp_path, capsys):
    """Mutants of a `simulate` trajectory (2-output plant, so with a y2
    column) through `compare` beside the good file and through
    `fit-surrogate`."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sim": {"dt": 0.1, "horizon": 6.0, "seed": 0}, "plant": LINEAR2,
        "sensor": {"noise_std": 0.01},
        "controller": {"kind": "cascade", "outer": GAINS, "inner": GAINS},
        "surrogate": {"p": 2, "q": 1, "hidden": [4], "epochs": 2, "patience": 2,
                      "batch_size": 8}}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
    good = tmp_path / "good.csv"
    good.write_bytes((tmp_path / "sim" / "trajectory.csv").read_bytes())
    lines = good.read_text().splitlines()
    assert lines[0] == "t,w,y,u,d,y2"
    mutant = tmp_path / "mutant.csv"
    runs = (["compare", str(good), str(mutant)],
            ["fit-surrogate", "--config", str(cfg), "--data", str(mutant)])
    rng = np.random.default_rng(7)
    codes = set()
    non_finite = 0
    for i in range(-1, N_CSV_MUTANTS):
        data, what, only_non_finite = (_mutate_csv(rng, lines) if i >= 0
                                       else (good.read_bytes(), "unmutated", False))
        non_finite += only_non_finite
        mutant.write_bytes(data)
        for argv in runs:
            try:
                code = main([*argv, "--out", str(tmp_path / "out")])
            except Exception as exc:  # a traceback is the failure this test looks for
                pytest.fail(f"mutant {i} ({what}) through {argv[0]} raised {exc!r}")
            assert code in (0, 2, 3, 4), f"mutant {i} ({what}) through {argv[0]} exited {code}"
            assert i >= 0 or code == 0, f"the unmutated file through {argv[0]} exited {code}"
            assert code == 4 or not only_non_finite, f"mutant {i} ({what}) through {argv[0]} " \
                f"exited {code}"
            codes.add(code)
        capsys.readouterr()
    assert {0, 4} <= codes and non_finite > 0
