"""Span tracing installed from outside the package, one span per call.

Every public module-level function of each layer module is wrapped, on
every module that binds it (``pid_step`` is bound in both ``pid`` and
``neuro``; ``simulate`` in ``simcore``, ``tuning``, ``cli`` and the package
itself), plus a fixed list of methods whose per-call cost the benchmark
reports. A span's self time is its duration minus the durations of the
wrapped spans it called. Spans are aggregated in memory per name.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
from time import perf_counter

LAYERS = ("simcore", "pid", "tuning", "nnet", "surrogate", "neuro", "safety", "metrics",
          "dataio", "config", "cli")

METHODS = {
    "nnet": ("Mlp.forward", "Mlp.forward_cached", "Mlp.backward", "Adam.step"),
    "surrogate": ("NarxModel.predict_one",),
    "neuro": ("NeuralControlLoop.step", "ScheduledPidController.step"),
    "safety": ("SupervisedController.step", "BlendedController.step"),
}

# private functions wrapped only so a count can be checked independently
PRIVATE = {"neuro": ("_episode_cost_on_surrogate",)}

# both imitation entry points report under one name
ALIASES = {"neuro.train_imitation_multitask": "neuro.train_imitation"}

# the aggregate of a span name before its first call; the integer entries
# are counters, which must repeat exactly from one traced iteration to the next
EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rows": 0, "steps": 0, "epochs": 0,
         "attempted": 0, "skipped": 0, "evals": 0, "finite": 0}
COUNTERS = tuple(k for k, v in EMPTY.items() if isinstance(v, int))


def _rows(x) -> int:
    ndim = getattr(x, "ndim", None)
    if ndim is None:
        return 1
    return 1 if ndim < 2 else len(x)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _extra_forward(st, args, kwargs, result):
    st["rows"] += _rows(_arg(args, kwargs, 1, "x"))


def _extra_write(st, args, kwargs, result):
    st["rows"] += len(_arg(args, kwargs, 0, "series"))


def _extra_read(st, args, kwargs, result):
    st["rows"] += len(result)


def _extra_simulate(st, args, kwargs, result):
    st["steps"] += len(result)


def _extra_imitation(st, args, kwargs, result):
    st["epochs"] += len(result.history)


def _extra_bptt(st, args, kwargs, result):
    refs = _arg(args, kwargs, 2, "references")
    st["attempted"] += len(result.skipped) * len(refs)
    st["skipped"] += sum(result.skipped)


def _extra_tune(st, args, kwargs, result):
    st["evals"] += len(result.trace)
    st["finite"] += sum(1 for _, c in result.trace if math.isfinite(c))


EXTRAS = {
    "nnet.Mlp.forward": _extra_forward,
    "nnet.Mlp.forward_cached": _extra_forward,
    "dataio.write_timeseries": _extra_write,
    "dataio.read_timeseries": _extra_read,
    "simcore.simulate": _extra_simulate,
    "neuro.train_imitation": _extra_imitation,
    "neuro.train_bptt": _extra_bptt,
    "neuro.tune_static_ai": _extra_tune,
}


class Tracer:
    """Aggregated spans: calls, total and self seconds, plus per-name counters."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []
        self.names: set[str] = set()  # every span name installed

    def reset(self) -> None:
        self.stats = {}

    def _stat(self, name: str) -> dict:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = dict(EMPTY)
        return st

    def wrap(self, name: str, fn):
        name = ALIASES.get(name, name)
        self.names.add(name)
        extra = EXTRAS.get(name)
        stack = self._stack

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                st = self._stat(name)
                st["calls"] += 1
                st["total_s"] += dur
                st["self_s"] += dur - frame[0]
            if extra is not None:
                extra(self._stat(name), args, kwargs, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def install(self, package: str = "loopbench") -> None:
        """Wrap every target on every module of the package that binds it."""
        modules = {short: importlib.import_module(f"{package}.{short}") for short in LAYERS}
        targets: dict[int, tuple[str, object]] = {}
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not name.startswith("_") or name in PRIVATE.get(short, ()))):
                    targets[id(obj)] = (f"{short}.{name}", obj)
            for qual in METHODS.get(short, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self.wrap(f"{short}.{qual}", vars(cls)[meth]))
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()
