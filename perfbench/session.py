"""One workload process: set-up, then the timed (and optionally traced) iterations.

Started by ``run.py`` with the BLAS thread variables already pinned. Writes
one JSON record with every CLI call it made (command, seconds, exit code,
output digest, facts read back from the outputs) and, for a traced run, the
aggregated spans of each traced iteration.

    python3 perfbench/session.py --workload closed_loop --seed 1 --seconds 10 \
        --trace 0 --role main --workdir .perfbench/work/x --result out.json
"""

from __future__ import annotations

from time import perf_counter

from clock import calibrate

CAL_START = calibrate()  # the loop's time just before set-up starts
T_START = perf_counter()  # set-up time includes importing numpy and loopbench

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import loopbench  # noqa: E402
from loopbench import cli  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

if not Path(loopbench.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"loopbench imported from {loopbench.__file__}, not from {SRC}")

_VAL_RMSE = re.compile(r"val rmse A=(\S+) B=(\S+) ")


def tree_digest(out: Path) -> str:
    """sha256 over every output file of one call: relative path and bytes."""
    h = hashlib.sha256()
    for p in sorted(q for q in out.rglob("*") if q.is_file()):
        h.update(p.relative_to(out).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def facts_of(op: workloads.Op, stdout: str) -> tuple[dict, list[str]]:
    """Counts and quality figures read back from the outputs, plus failed checks."""
    out = Path(op.out)
    facts: dict = {}
    problems: list[str] = []
    if op.adam is not None:
        kind = op.adam["kind"]
        if kind == "fit":
            report = {r["key"]: r["value"] for r in _csv_rows(out / "surrogate_report.csv")}
            n_train = int(report["n_train"])
            facts["adam"] = op.adam["epochs"] * math.ceil(n_train / op.adam["batch_size"])
            facts["rollout_rmse"] = float(report["rollout_rmse"])
        elif kind == "imitation":
            facts["adam"] = len(_csv_rows(out / "training_curve.csv")) * op.adam["batches"]
            m = _VAL_RMSE.search(stdout)
            facts["val_rmse"] = 0.5 * (float(m.group(1)) + float(m.group(2)))
        else:
            curve = _csv_rows(out / "training_curve.csv")
            facts["adam"] = sum(op.adam["count"] - int(r["skipped"]) for r in curve)
    if op.episodes:
        facts["tune_rows"] = len(_csv_rows(out / "tune_trace.csv"))
    if op.cmd == "simulate":
        iae = float(_csv_rows(out / "metrics.csv")[0]["iae"])
        facts["iae"] = iae
        if not math.isfinite(iae):
            problems.append("non-finite IAE")
        if (out / "transitions.csv").exists():
            facts["transitions"] = len(_csv_rows(out / "transitions.csv"))
        if (out / "blend.csv").exists():
            delta = json.loads((out / "simulate_config.json").read_text())["safety"]["delta"]
            worst = max(abs(float(r["u"]) - float(r["u_conv"]))
                        for r in _csv_rows(out / "blend.csv"))
            if worst > delta:
                problems.append(f"blend correction {worst!r} exceeds delta {delta!r}")
    if op.cmd == "compare":
        n_in = sum(1 for a in op.argv if a.endswith(".csv"))
        if len(_csv_rows(out / "comparison.csv")) != n_in:
            problems.append("comparison table lost rows")
    return facts, problems


def run_op(op: workloads.Op) -> dict:
    """Send one command through cli.main into a fresh output directory and time
    it; the caller waits for it."""
    shutil.rmtree(op.out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(op.argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed call, not a harness crash
        code = -1
        stderr.write(f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - start
    rec = {"out": op.out, "cmd": op.cmd, "code": code, "seconds": seconds,
           "sim_steps": op.sim_steps, "iae": op.iae, "quality": op.quality,
           "episodes": op.episodes}
    if code != 0:
        rec["error"] = stderr.getvalue().strip()[-500:]
        return rec
    rec["digest"] = tree_digest(Path(op.out))
    try:
        rec["facts"], problems = facts_of(op, stdout.getvalue())
    except (OSError, KeyError, ValueError, IndexError, AttributeError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    if problems:
        rec["error"] = "; ".join(problems)
    return rec


def calibrated(ops: list) -> list:
    """Run calls in order with the calibration loop before, between and after
    them; each record gets the mean loop time of its two neighbours."""
    recs = []
    cal = calibrate()
    for op in ops:
        rec = run_op(op)
        after = calibrate()
        rec["cal"] = 0.5 * (cal + after)
        cal = after
        recs.append(rec)
    return recs


def iteration(plan: workloads.Plan, tracer: Tracer | None = None) -> dict:
    """One timed iteration, then the side calls; traced when a tracer is given."""
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        it = {"focus": calibrated(plan.focus), "side": calibrated(plan.side)}
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        it["spans"] = tracer.stats
    return it


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "main"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    result_path = Path(args.result).resolve()
    work = Path(args.workdir).resolve()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)  # every CLI path is relative to this directory

    plan = workloads.plan(args.workload, args.seed)
    setup = [run_op(op) for op in plan.setup]
    setup_s = perf_counter() - T_START
    record = {"setup_s": setup_s, "setup_cal": 0.5 * (CAL_START + calibrate()),
              "setup": setup, "env": environment()}

    if args.role == "main":
        iterations, traced = [], []
        tracer = Tracer() if args.trace else None
        start = perf_counter()
        while (len(iterations) < 2 or len(traced) < 2 * args.trace
               or perf_counter() - start < args.seconds):
            if tracer is not None:
                # each traced iteration is followed by an untraced one, its
                # neighbour in time for the tracing overhead
                traced.append(iteration(plan, tracer))
            iterations.append(iteration(plan))
        record["iterations"] = iterations
        if tracer is not None:
            record["traced"] = traced
            record["traced_names"] = sorted(tracer.names)
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    os.chdir(HERE.parent)
    shutil.rmtree(work, ignore_errors=True)
    result_path.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
