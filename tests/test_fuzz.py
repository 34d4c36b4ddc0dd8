"""Seeded fuzzing of model files.

Each mutant of a saved surrogate, controller or scheduler (weights file or
sidecar, cut, edited or given a byte that is not UTF-8) goes through the
command that loads it. Whatever the mutation, the command ends in an exit
code of the CLI contract (0 ok, 2 config, 3 numerical, 4 I/O) and never in
a traceback. Layer sizes stay small so that no mutant asks for a large
allocation.
"""

import json
import math

import numpy as np
import pytest

from loopbench.cli import main
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
                                   2, rng.normal(size=4), rng.uniform(0.5, 2.0, size=4),
                                   aux=Mlp([6, 1], seed=5)),
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
