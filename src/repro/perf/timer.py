"""Measurement primitives: best-of-N timing and machine calibration.

Wall-clock microbenchmarks are noisy; two choices keep the numbers
stable enough to gate CI on:

* **best-of-N** — the minimum over ``repeats`` runs estimates the cost
  with the least scheduler/GC interference (the standard ``timeit``
  argument: noise is strictly additive).
* **calibration** — a fixed pure-Python workload timed on the same
  interpreter gives a machine-speed proxy, so reports from different
  hosts compare on *normalized* time (see
  :func:`repro.perf.suite.compare_reports`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["BenchTiming", "bench", "calibrate"]


@dataclass(frozen=True)
class BenchTiming:
    """Timing summary of one benchmark.

    ``best_s`` is the minimum wall time over all measured repeats (the
    number comparisons use); ``mean_s`` the arithmetic mean, kept for
    noise diagnostics.
    """

    best_s: float
    mean_s: float
    repeats: int


def bench(
    fn: Callable[[], Any], *, repeats: int = 5, warmup: int = 1
) -> BenchTiming:
    """Time ``fn()`` best-of-``repeats`` after ``warmup`` discarded runs."""
    if repeats < 1:
        raise ValueError(f"need at least one repeat, got {repeats}")
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return BenchTiming(
        best_s=min(times), mean_s=sum(times) / len(times), repeats=repeats
    )


def calibrate() -> float:
    """Seconds for a fixed pure-Python workload (machine-speed proxy).

    The workload, 100,000 loops, mixes integer arithmetic with
    tuple/list allocation and heap churn, mirroring the simulator event
    loop's interpreter profile — on shared hosts, allocator-heavy code
    slows down under co-tenant memory pressure that a pure-integer spin
    never sees.  Best of three, so a background blip does not skew the
    normalization.
    """
    import heapq

    def spin() -> float:
        heap: list = []
        push, pop = heapq.heappush, heapq.heappop
        acc = 0
        when = 0.0
        for i in range(100_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            push(heap, (when + (acc & 7), i, (i, acc)))
            if len(heap) > 64:
                when = pop(heap)[0] + 0.5
        return when

    return bench(spin, repeats=3, warmup=1).best_s
