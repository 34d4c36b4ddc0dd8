"""Smoke test of the benchmark harness itself, at the smallest run length.

    python3 perfbench/smoke.py

Checks, in about a minute on two cores:

* the tracer wraps every binding of a function (``pid_step`` in both ``pid``
  and ``neuro``), counts a tiny simulation exactly, keeps self time within
  span time, and uninstalls cleanly;
* the pass checker counts a non-zero exit and a changed output digest as
  failed calls;
* a per-layer metric whose function the package lacks is reported absent,
  not 0, and its independent check is a named skip;
* a ``--seconds 0`` run of ``closed_loop`` in each mode is correct and
  reports exactly the metric names that ``BENCHMARK.json`` declares;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's files,
  the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import EMPTY, Tracer  # noqa: E402


def check_tracer() -> None:
    from loopbench import neuro, pid, simcore
    from loopbench.pid import PidController, PidGains
    from loopbench.simcore import Fopdt, PlantModel, SimConfig

    original = pid.pid_step
    tracer = Tracer()
    tracer.install()
    try:
        assert pid.pid_step is neuro.pid_step is not original, "pid_step not wrapped everywhere"
        plant = PlantModel(Fopdt(gain=1.0, tau=1.0, dead_time=0.1), u_min=-2.0, u_max=2.0)
        simcore.simulate(plant, PidController(PidGains(kp=1.0, ki=0.5)), 1.0,
                         cfg=SimConfig(dt=0.01, horizon=0.5))
        st = tracer.stats
        assert st["simcore.rk4_step"]["calls"] == 50, st["simcore.rk4_step"]
        assert st["pid.pid_step"]["calls"] == 50, st["pid.pid_step"]
        assert st["simcore.simulate"]["steps"] == 50, st["simcore.simulate"]
        for name, s in st.items():
            assert 0.0 <= s["self_s"] <= s["total_s"] + 1e-9, (name, s)
    finally:
        tracer.uninstall()
    assert pid.pid_step is original and neuro.pid_step is original, "uninstall left wrappers"


def check_pass_checker() -> None:
    ok = {"name": "a", "out": "run/a", "code": 0, "digest": "x"}
    passes = [("p0", [ok]), ("p1", [dict(ok, digest="y")]),
              ("p2", [dict(ok, code=3, error="numerical failure")]), ("p3", [ok])]
    failures: list[str] = []
    assert run.check_passes(passes, failures) == 4
    assert len(failures) == 2, failures


def check_absent_function() -> None:
    span = dict(EMPTY, calls=1, total_s=1.0, self_s=1.0)
    call = {"out": "a", "cmd": "simulate", "sim_steps": 1, "episodes": 0, "seconds": 1.0,
            "cal": 0.005, "facts": {"adam": 0}}
    traced = [{"focus": [call], "side": [], "spans": {"simcore.rk4_step": span,
                                                     "simcore.simulate": dict(span, steps=1)}}]
    main = {"traced": traced * 2, "iterations": traced,
            "traced_names": ["simcore.rk4_step", "simcore.simulate"]}
    metrics, absent = run.per_layer(main)
    assert "nnet.train.self_s" in absent and "nnet.train.self_s" not in metrics, absent
    assert metrics["simcore.rk4_step.calls"][0] == 1, metrics
    failures: list[str] = []
    skipped = run.trace_checks(main, failures)
    assert not failures and any(s.startswith("nnet.Adam.step.calls") for s in skipped), skipped


def check_runs() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        full = run.benchmark("closed_loop", seed=0, seconds=0.0, trace=trace)
        assert full["correct"] and full["failed"] == 0, full["failures"]
        want = {m["name"]: m["unit"] for m in declared[key]}
        got = {k: v["unit"] for k, v in full["metrics"].items()}
        assert got == want, (sorted(set(got) ^ set(want)), trace)


def check_bare_directory() -> None:
    bare = run.STATE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "training",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    for check in (check_tracer, check_pass_checker, check_absent_function,
                  check_bare_directory, check_runs):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
