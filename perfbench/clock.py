"""Calibrated time: call durations corrected for the speed of a shared machine.

On a shared VM the same work runs up to about 2x slower for seconds at a
time while other tenants load the host (README.md, "Time on a shared
machine"). The benchmark
therefore times a fixed pure-Python loop before and after every CLI call and
reports each call in *reference seconds*: its measured seconds times
(``CAL_REF_S`` / the mean of the two loop times around it) **
``CAL_EXPONENT``. A code change moves reference seconds in the same
proportion as wall seconds, while a slow spell of the machine, which slows
the loop by a factor f and loopbench's calls by about f ** 1.5, cancels.

This module imports nothing but the standard library, so ``session.py``
can calibrate before it imports numpy.
"""

from __future__ import annotations

from time import perf_counter

CAL_LOOPS = 60_000
# the loop's time that defines a reference second: about its median on the
# 2-vCPU Xeon VM the benchmark was written on (3.5-6 ms there)
CAL_REF_S = 0.005
# a slow spell slows the calls more than the loop, which stays in the L1
# cache: over 4 700 samples the exponent that minimised the run-to-run
# spread of call times was 1.25-1.5 (1 left about 1.3x the spread)
CAL_EXPONENT = 1.5


def calibrate() -> float:
    """Seconds that a fixed float-accumulating loop takes right now."""
    start = perf_counter()
    acc = 0.0
    for i in range(CAL_LOOPS):
        acc += i * 0.5
    return perf_counter() - start


def reference_seconds(seconds: float, cal: float) -> float:
    """``seconds`` measured while the loop took ``cal`` seconds, in reference seconds."""
    return seconds * (CAL_REF_S / cal) ** CAL_EXPONENT
