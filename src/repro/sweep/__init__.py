"""Parallel sweep execution with deterministic result caching.

The paper's figures replay large grids of independent
``(machine, distribution, algorithm, s, L, seed)`` points through the
discrete-event simulator.  Since every run is a pure function of its
configuration, this subsystem makes grid replay cheap:

* :class:`~repro.sweep.spec.SweepPoint` — one run as plain data;
* :class:`~repro.sweep.spec.SweepSpec` — a cartesian grid of points;
* :class:`~repro.sweep.cache.ResultCache` — content-addressed on-disk
  memoization of results;
* :class:`~repro.sweep.executor.SweepExecutor` — process-pool fan-out
  with serial fallback and per-sweep progress counters;
* :mod:`repro.sweep.distributed` — grids sharded across worker
  *processes* (local or on other hosts) that coordinate only through
  the shared cache directory plus an on-disk lease queue, with work
  stealing and crash-safe resumption.

The measurement primitives (:mod:`repro.bench.runner`) route every
experiment's measurements through an executor; see ``--jobs`` /
``--cache-dir`` / ``--no-cache`` on ``python -m repro report`` and
``python -m repro``, and ``python -m repro sweep --shards/--worker`` for
sharded grids.
"""

from __future__ import annotations

from repro.sweep.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.sweep.distributed import (
    DistributedSweepResult,
    WorkQueue,
    run_sharded,
    run_worker,
)
from repro.sweep.executor import SweepExecutor, evaluate_point, resolve_jobs
from repro.sweep.spec import SweepPoint, SweepSpec

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DistributedSweepResult",
    "ResultCache",
    "SweepExecutor",
    "SweepPoint",
    "SweepSpec",
    "WorkQueue",
    "evaluate_point",
    "resolve_jobs",
    "run_sharded",
    "run_worker",
]
