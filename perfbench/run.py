"""loopbench benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each workload process is a fresh
``session.py`` interpreter with the BLAS thread variables pinned to 1; this
file imports neither numpy nor loopbench. ``--trace 0`` makes five set-up
samples (two set-up-only processes, the measured process, two more) and
reports the end-to-end metrics; ``--trace 1`` makes one process that
alternates traced and untraced iterations and reports the per-layer
metrics. The last line of standard output is the result object; the
environment block, output digest, absent metrics and skipped checks are
printed before it, and the full record is written to
``.perfbench/results/``. README.md defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from clock import reference_seconds
from tracer import COUNTERS, EMPTY
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

COMMANDS = ("record", "fit-surrogate", "tune", "train-controller", "simulate", "compare")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5  # set-up processes per --trace 0 run, the measured one included


def deadline_s(seconds: float) -> float:
    """Time allowed for one invocation: set-ups plus the timed loop, which may
    overrun --seconds by one iteration, plus the traced iterations."""
    return 60.0 + 3.0 * seconds


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _metric_name(cmd: str) -> str:
    return cmd.replace("-", "_") + "_s"


def run_session(workload, seed, seconds, trace, role, deadline) -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    tag = f"{workload}-{seed}-{os.getpid()}"
    result = STATE / f"{tag}-{role}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--role", role, "--workdir", str(STATE / "work" / tag), "--result", str(result)]
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise HarnessError("out of time before the workload process started")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise HarnessError(f"workload process exceeded the deadline: {exc}") from exc
    if proc.returncode != 0 or not result.exists():
        raise HarnessError(f"workload process exited {proc.returncode}: {proc.stderr[-2000:]}")
    record = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    return record


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_passes(passes: list, failures: list) -> int:
    """Mark failed calls: non-zero exit, failed output check, or bytes that differ
    from the first run of the same call. Returns the number of calls made."""
    attempted = 0
    reference = {}
    for label, recs in passes:
        for rec in recs:
            attempted += 1
            key = rec["out"]
            if rec["code"] != 0 or "error" in rec:
                failures.append(f"{label}/{key}: exit {rec['code']}: {rec.get('error', '')}")
                continue
            first = reference.setdefault(key, rec["digest"])
            if rec["digest"] != first:
                failures.append(f"{label}/{key}: output bytes differ from the first run")
    return attempted


def combined_digest(recs) -> str:
    h = hashlib.sha256()
    for rec in recs:
        h.update(f"{rec['out']}:{rec.get('digest')}\n".encode())
    return h.hexdigest()


def _calls(it: dict) -> list:
    return it["focus"] + it["side"]


def call_times(iterations: list) -> dict:
    """Each call's time: the median over the iterations of its reference seconds
    (clock.py), which cancel the shared machine's slow spells."""
    samples: dict = {}
    for it in iterations:
        for rec in _calls(it):
            samples.setdefault(rec["out"], []).append(reference_seconds(rec["seconds"],
                                                                        rec["cal"]))
    return {out: statistics.median(v) for out, v in samples.items()}


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------

def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


def end_to_end(setups: list, main: dict) -> dict:
    """End-to-end metrics. A call's time is given by ``call_times``; a command's
    time is the summed time of its calls in one iteration."""
    t = call_times(main["iterations"])
    first = main["iterations"][0]
    calls = _calls(first)

    def secs(pred):
        return sum(t[r["out"]] for r in calls if pred(r))

    m = {"setup_s": (statistics.median(reference_seconds(s["setup_s"], s["setup_cal"])
                                       for s in setups), "s"),
         "wall_s": (sum(t[r["out"]] for r in first["focus"]), "s"),
         "peak_rss_mb": (main["peak_rss_mb"], "MB")}
    for cmd in COMMANDS:
        m[_metric_name(cmd)] = (secs(lambda r, c=cmd: r["cmd"] == c), "s")
    sims = [r for r in calls if r["cmd"] == "simulate"]
    m["sim_steps_per_s"] = (sum(r["sim_steps"] for r in sims) / m["simulate_s"][0], "1/s")
    adam = sum(r["facts"].get("adam", 0) for r in calls)
    m["adam_steps_per_s"] = (adam / (m["fit_surrogate_s"][0] + m["train_controller_s"][0]),
                             "1/s")
    ai = lambda r: r["episodes"] > 0  # noqa: E731
    m["tune_evals_per_s"] = (sum(r["facts"]["tune_rows"] for r in calls if ai(r)) / secs(ai),
                             "1/s")
    m["iae"] = (_mean(r["facts"]["iae"] for r in sims if r["iae"]), "y.s")
    quality = [r["facts"] for r in calls if r["quality"]]
    m["imitation_val_rmse"] = (_mean(f["val_rmse"] for f in quality if "val_rmse" in f), "y")
    m["surrogate_rollout_rmse"] = (_mean(f["rollout_rmse"] for f in quality
                                         if "rollout_rmse" in f), "y")
    return m


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

PER_CALL = ("simcore.rk4_step", "pid.pid_step", "pid.cascade_step", "nnet.Mlp.forward",
            "nnet.Adam.step", "surrogate.NarxModel.predict_one", "neuro.bptt_loss_and_grad",
            "neuro.NeuralControlLoop.step", "neuro.ScheduledPidController.step",
            "safety.SupervisedController.step", "safety.BlendedController.step")
CALLS = PER_CALL + ("simcore.simulate", "nnet.Mlp.forward_cached", "nnet.Mlp.backward",
                    "surrogate.narx_rollout", "metrics.compute_step_metrics",
                    "config.load_config")
SELF = ("simcore.simulate", "simcore.rk4_step", "pid.pid_step", "tuning.relay_experiment",
        "tuning.run_step_test", "tuning.identify_fopdt_step", "nnet.Mlp.forward_cached",
        "nnet.Mlp.backward", "nnet.train", "nnet.save_weights", "nnet.load_weights",
        "surrogate.fit_surrogate", "surrogate.narx_rollout", "neuro.imitation_data_from_run",
        "neuro.train_imitation", "neuro.train_bptt", "neuro.tune_static_ai",
        "metrics.compute_step_metrics", "metrics.compare", "dataio.write_timeseries",
        "dataio.read_timeseries", "config.load_config",
        *(f"cli.cmd_{c.replace('-', '_')}" for c in COMMANDS))
ROWS = ("nnet.Mlp.forward", "nnet.Mlp.forward_cached", "dataio.write_timeseries",
        "dataio.read_timeseries")


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(main: dict) -> tuple[dict, dict]:
    """Per-layer metrics, and the metrics left out with the reason why.

    A metric whose function the package no longer has is absent, not 0, so
    that removing a function never reads as a gain.
    """
    traced = main["traced"]
    present = set(main["traced_names"])
    m, absent = {}, {}

    # each traced iteration's times in reference seconds, by the median
    # calibration loop time of its calls
    cals = [statistics.median(r["cal"] for r in _calls(t)) for t in traced]

    def stat(name, key):
        """Counters repeat exactly (trace_checks); times are the median over
        the traced iterations, in reference seconds."""
        vals = [t["spans"].get(name, EMPTY)[key] for t in traced]
        if key in COUNTERS:
            return vals[0]
        return statistics.median(reference_seconds(v, c) for v, c in zip(vals, cals))

    def put(metric, name, unit, value):
        if name in present:
            m[metric] = (value(), unit)
        else:
            absent[metric] = f"loopbench has no {name} to trace"

    for name in CALLS:
        put(f"{name}.calls", name, "count", lambda n=name: stat(n, "calls"))
    for name in SELF:
        put(f"{name}.self_s", name, "s", lambda n=name: stat(n, "self_s"))
    for name in PER_CALL:
        put(f"{name}.us_per_call", name, "us",
            lambda n=name: 1e6 * _ratio(stat(n, "total_s"), stat(n, "calls")))
    for name in ROWS:
        put(f"{name}.rows", name, "count", lambda n=name: stat(n, "rows"))
    for name in ("dataio.write_timeseries", "dataio.read_timeseries"):
        put(f"{name}.rows_per_s", name, "1/s",
            lambda n=name: _ratio(stat(n, "rows"), stat(n, "self_s")))
    sim = "simcore.simulate"
    put(f"{sim}.us_per_step", sim, "us",
        lambda: 1e6 * _ratio(stat(sim, "total_s"), stat(sim, "steps")))
    put("neuro.train_imitation.epochs", "neuro.train_imitation", "count",
        lambda: stat("neuro.train_imitation", "epochs"))
    put("neuro.train_bptt.skipped_ratio", "neuro.train_bptt", "ratio",
        lambda: _ratio(stat("neuro.train_bptt", "skipped"), stat("neuro.train_bptt", "attempted")))
    put("neuro.tune_static_ai.finite_eval_ratio", "neuro.tune_static_ai", "ratio",
        lambda: _ratio(stat("neuro.tune_static_ai", "finite"),
                       stat("neuro.tune_static_ai", "evals")))
    m["safety.transitions"] = (sum(r.get("facts", {}).get("transitions", 0)
                                   for r in _calls(traced[0])), "count")
    traced_focus = [{"focus": t["focus"], "side": []} for t in traced]
    plain_focus = [{"focus": t["focus"], "side": []} for t in main["iterations"]]
    m["trace.overhead_s"] = (sum(call_times(traced_focus).values())
                             - sum(call_times(plain_focus).values()), "s")
    return m, absent


def trace_checks(main: dict, failures: list) -> list:
    """Counts repeat exactly across the traced iterations and match counts taken
    independently from the configs and the output files. Returns the checks
    skipped because the package no longer has the function they count."""
    traced = main["traced"]
    first = traced[0]["spans"]
    for i, t in enumerate(traced[1:], 1):
        for name in sorted(set(first) | set(t["spans"])):
            ca = {k: first.get(name, EMPTY)[k] for k in COUNTERS}
            cb = {k: t["spans"].get(name, EMPTY)[k] for k in COUNTERS}
            if ca != cb:
                failures.append(f"trace: {name} counts differ in traced iteration {i}: "
                                f"{ca} {cb}")
    calls = _calls(traced[0])
    steps = sum(r["sim_steps"] for r in calls)
    ai = [r for r in calls if r["episodes"]]
    expected = {
        "simcore.rk4_step.calls": steps,
        "simcore.simulate.steps": steps,
        "nnet.Adam.step.calls": sum(r["facts"].get("adam", 0) for r in calls),
        "neuro._episode_cost_on_surrogate.calls": sum(r["facts"]["tune_rows"] * r["episodes"]
                                                      for r in ai),
        "neuro.tune_static_ai.evals": sum(r["facts"]["tune_rows"] for r in ai),
    }
    skipped = []
    for check, want in expected.items():
        name, key = check.rsplit(".", 1)
        if name not in main["traced_names"]:
            skipped.append(f"{check}: loopbench has no {name} to trace")
            continue
        got = first.get(name, EMPTY)[key]
        if got != want:
            failures.append(f"trace: {check} = {got}, independent count {want}")
    return skipped


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def benchmark(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not (ROOT / "src" / "loopbench" / "__init__.py").is_file():
        raise HarnessError(f"no loopbench sources under {ROOT / 'src'}")
    deadline = monotonic() + deadline_s(seconds)
    STATE.mkdir(exist_ok=True)

    def session(role):
        return run_session(workload, seed, seconds, trace, role, deadline)

    if trace:
        main = session("main")
        setups = [main]
    else:
        # set-up-only processes before and after the measured one, so the
        # set-up samples spread over the run
        before = [session("setup") for _ in range(SETUP_SAMPLES // 2)]
        main = session("main")
        setups = before + [main] + [session("setup")
                                    for _ in range(SETUP_SAMPLES - 1 - len(before))]
    passes = [(f"setup{i}", s["setup"]) for i, s in enumerate(setups)]
    passes += [(f"iteration{i}", _calls(it)) for i, it in enumerate(main["iterations"])]
    passes += [(f"traced{i}", _calls(it)) for i, it in enumerate(main.get("traced", []))]
    failures: list[str] = []
    attempted = check_passes(passes, failures)
    failed_calls = len(failures)
    metrics, absent, skipped = {}, {}, []
    if not failures:
        if trace:
            metrics, absent = per_layer(main)
            skipped = trace_checks(main, failures)
        else:
            metrics = end_to_end(setups, main)

    env = dict(main["env"])
    env.update({"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                "blas_threads": {k: "1" for k in THREAD_VARS}, "seed": seed,
                "workload": workload, "seconds": seconds, "trace": trace})
    times: dict = {}
    for it in main["iterations"]:
        for rec in _calls(it):
            times.setdefault(rec["out"], []).append([rec["seconds"], rec["cal"]])
    return {
        "correct": not failures, "attempted": attempted, "failed": failed_calls,
        "error_rate": failed_calls / attempted, "failures": failures[:50], "env": env,
        "digest": combined_digest(main["setup"] + _calls(main["iterations"][0])),
        "iterations": len(main["iterations"]), "absent": absent, "skipped_checks": skipped,
        "setup_samples": [[s["setup_s"], s["setup_cal"]] for s in setups],
        "call_samples": times,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        full = benchmark(args.workload, args.seed, args.seconds, args.trace)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    out = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({k: full[k] for k in ("env", "digest", "error_rate", "failures",
                                           "iterations", "absent", "skipped_checks")}))
    print(json.dumps({k: full[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
