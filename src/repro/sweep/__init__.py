"""Parallel sweep execution with deterministic result caching.

The paper's figures replay large grids of independent
``(machine, distribution, algorithm, s, L, seed)`` points through the
discrete-event simulator.  Since every run is a pure function of its
configuration, this subsystem makes grid replay cheap:

* :class:`~repro.sweep.spec.SweepPoint` — one run as plain data;
* :class:`~repro.sweep.spec.SweepSpec` — a cartesian grid of points;
* :class:`~repro.sweep.cache.ResultCache` — content-addressed on-disk
  memoization of results, safe to share between concurrent runs;
* :class:`~repro.sweep.executor.SweepExecutor` — process-pool fan-out
  with serial fallback and per-sweep progress counters.

The measurement primitives (:mod:`repro.bench.runner`) route every
experiment's measurements through an executor; see ``--jobs`` /
``--cache-dir`` / ``--no-cache`` on ``python -m repro report``,
``python -m repro sweep`` and ``python -m repro``.
"""

from __future__ import annotations

from repro.sweep.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.sweep.executor import SweepExecutor, evaluate_point, resolve_jobs
from repro.sweep.spec import SweepPoint, SweepSpec

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "SweepExecutor",
    "SweepPoint",
    "SweepSpec",
    "evaluate_point",
    "resolve_jobs",
]
