"""Parallel, memoizing evaluation of sweep points.

The executor exploits the one property everything in this repo is built
on: a simulated run is a **pure function** of its configuration
(deterministic tie-breaking in the engine, seeded rank mappings).  That
makes four transformations of the serial sweep loop safe:

* **fan-out** — points evaluate in worker processes via
  :class:`concurrent.futures.ProcessPoolExecutor`;
* **memoization** — results round-trip through the on-disk
  :class:`~repro.sweep.cache.ResultCache` keyed by the point's content
  hash;
* **deduplication** — identical points inside one batch are evaluated
  once;
* **plan-affinity batching** — points that lower to the same fast-path
  plan (same machine, algorithm, source placement) ship to workers as
  one :func:`evaluate_point_batch` call, so each worker's plan cache
  (:mod:`repro.fastpath.plancache`) builds the schedule once and
  replays it for every remaining point in the batch.

All four are exercised against each other by the differential tests
(``tests/test_sweep_differential.py``): serial, parallel, cold-cache and
warm-cache evaluations of the same grid must agree bit-for-bit.

Worker count resolution: explicit ``jobs`` argument, else the
``REPRO_SWEEP_JOBS`` environment variable, else 1.  ``jobs=1`` never
touches :mod:`multiprocessing` — the serial fallback runs the identical
evaluation function in-process.
"""

from __future__ import annotations

import functools
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.runner import ENGINES, BroadcastResult, run_broadcast
from repro.errors import ConfigurationError
from repro.metrics.progress import SweepReport
from repro.simulator.trace import Tracer
from repro.sweep.cache import ResultCache
from repro.sweep.spec import SweepPoint

__all__ = [
    "SweepExecutor",
    "evaluate_point",
    "evaluate_point_batch",
    "plan_affinity_batches",
    "resolve_jobs",
]

#: Environment variable overriding the default worker count.
JOBS_ENV_VAR = "REPRO_SWEEP_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: argument > ``$REPRO_SWEEP_JOBS`` > 1.

    An unusable *explicit* argument (zero or negative) raises
    :class:`~repro.errors.ConfigurationError` — the caller asked for an
    impossible worker count, and silently clamping ``jobs=0`` to serial
    hides the bug that produced it.  An unusable *environment* value
    (not an integer, or below 1) falls back to serial — but loudly, with
    a :class:`RuntimeWarning` naming the bad value, so a typo'd
    ``REPRO_SWEEP_JOBS=abc`` in a CI config does not silently run a
    sweep 16x slower than intended.  (The environment is configuration,
    not code: a warning keeps a shared shell profile from breaking every
    run, while an explicit bad argument is a programming error.)
    """
    if jobs is not None:
        jobs = int(jobs)
        if jobs < 1:
            raise ConfigurationError(
                f"jobs must be >= 1, got {jobs}; pass jobs=None to defer "
                f"to ${JOBS_ENV_VAR}"
            )
        return jobs
    raw = os.environ.get(JOBS_ENV_VAR, "")
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring {JOBS_ENV_VAR}={raw!r}: not an integer; "
            "running serial (jobs=1)",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1
    if jobs < 1:
        warnings.warn(
            f"ignoring {JOBS_ENV_VAR}={raw!r}: worker count must be "
            ">= 1; running serial (jobs=1)",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1
    return jobs


def evaluate_point(
    payload: Dict[str, Any], engine: str = "auto", observe: bool = False
) -> Tuple[Dict[str, Any], float, Optional[Dict[str, Any]]]:
    """Evaluate one point: ``(result_dict, seconds, observation)``.

    Module-level (picklable) so it serves as the process-pool task; the
    serial path calls the very same function, which is what guarantees
    ``jobs=1`` and ``jobs=N`` take identical code paths through problem
    reconstruction and simulation.

    ``engine`` selects the simulation engine (see
    :func:`~repro.core.runner.run_broadcast`).  It rides alongside the
    payload — never inside it — because engine choice cannot change a
    result bit, so cache entries stay engine-agnostic.

    ``observation`` is ``None`` unless ``observe`` is set.  Then the run
    is traced with a full :class:`~repro.simulator.trace.Tracer` and
    digested through :func:`repro.obs.summary.summarize_trace`.  Both
    engines record the same trace, so the summary does not depend on
    the engine either.  Trace records never influence simulated time,
    so the result dict is byte-identical with and without ``observe``
    — which is what lets an observed sweep share cache entries with an
    unobserved one (the differential tests pin this).
    """
    point = SweepPoint.from_payload(payload)
    start = time.perf_counter()
    problem = point.build_problem()
    tracer = Tracer() if observe else None
    result = run_broadcast(
        problem,
        point.algorithm,
        seed=point.seed,
        contention=point.contention,
        faults=point.faults,
        recover=point.recover,
        tracer=tracer,
        engine=engine,
    )
    seconds = time.perf_counter() - start
    observation = None
    if tracer is not None:
        from repro.obs.summary import summarize_trace  # local: keep workers lean

        observation = {
            "algorithm": point.algorithm,
            "distribution": point.distribution,
            "machine": point.machine,
            "summary": summarize_trace(tracer, topology=problem.machine.topology),
        }
    return result.to_dict(), seconds, observation


def evaluate_point_batch(
    payloads: Sequence[Dict[str, Any]],
    engine: str = "auto",
    observe: bool = False,
) -> List[Tuple[Dict[str, Any], float, Optional[Dict[str, Any]]]]:
    """Evaluate several point payloads in one worker call.

    The batched task the executor ships to pool workers: evaluating
    many points per process call lets the fast path's plan cache
    (:mod:`repro.fastpath.plancache`) amortize schedule build +
    lowering across points that share a machine/algorithm/placement —
    the executor groups payloads accordingly (see
    :meth:`SweepExecutor.run`) — and cuts per-point pickling overhead.
    Observed and unobserved sweeps ship the same batches, so turning
    ``observe`` on never changes which points share a worker.  Each
    point still evaluates through :func:`evaluate_point`, so results
    are bit-identical to unbatched evaluation.
    """
    return [evaluate_point(payload, engine, observe) for payload in payloads]


class SweepExecutor:
    """Evaluates batches of sweep points, optionally in parallel and cached.

    ``python -m repro report`` builds one executor from its flags and
    evaluates every selected experiment's points in one :meth:`run`.

    Parameters
    ----------
    jobs:
        Worker-process count; ``None`` defers to ``$REPRO_SWEEP_JOBS``
        (default 1 = serial, in-process).
    cache:
        A :class:`ResultCache`, or ``None`` to disable memoization
        entirely — no reads *and* no writes (the ``--no-cache`` CLI
        contract).
    observe:
        Trace every computed point and attach a per-point observation
        summary (see :func:`repro.obs.summary.summarize_trace`).
        Observation is **cache-key neutral**: summaries are stored
        beside cache entries (``<key>.obs.json``), never inside them, so
        observed and unobserved sweeps share results bit-for-bit.  A
        cache hit whose entry predates observability yields ``None`` in
        :attr:`last_observations` — the result is served from cache
        unchanged rather than recomputed.
    engine:
        Simulation engine for computed points (``"auto"`` | ``"event"``
        | ``"fast"``, see :func:`~repro.core.runner.run_broadcast`).
        Engine choice is **cache-key neutral**: results are bit-identical
        across engines, so sweeps with different engines share cache
        entries.  Observed points run on this engine too: both engines
        record the same trace, so observation summaries are equal
        across engines as well.

    Attributes
    ----------
    last_report:
        :class:`~repro.metrics.progress.SweepReport` of the most recent
        :meth:`run` call.
    last_observations:
        With ``observe=True``: per-point observation dicts of the most
        recent :meth:`run`, aligned with its input order (``None`` for
        unobserved cache hits).  ``None`` when observation is off.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        observe: bool = False,
        engine: str = "auto",
    ) -> None:
        if engine not in ENGINES:
            raise ConfigurationError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.observe = observe
        self.engine = engine
        self.last_report: Optional[SweepReport] = None
        self.last_observations: Optional[List[Optional[Dict[str, Any]]]] = None

    def run(self, points: Sequence[SweepPoint]) -> List[BroadcastResult]:
        """Evaluate ``points``; returns results aligned with the input order.

        Cache hits are served from disk, duplicates within the batch are
        computed once, and the remainder fans out over the process pool
        (or runs in-process for ``jobs=1`` / single-point batches).
        Worker exceptions (verification failures, algorithm/machine
        mismatches) propagate to the caller unchanged in kind.
        """
        wall_start = time.perf_counter()
        report = SweepReport(total=len(points), jobs=self.jobs)
        quarantines_before = (
            self.cache.quarantines if self.cache is not None else 0
        )
        result_dicts: List[Optional[Dict[str, Any]]] = [None] * len(points)
        observations: List[Optional[Dict[str, Any]]] = [None] * len(points)
        first_index_by_key: Dict[str, int] = {}
        duplicate_of: Dict[int, int] = {}
        todo: List[int] = []
        for i, point in enumerate(points):
            key = point.key()
            if key in first_index_by_key:
                duplicate_of[i] = first_index_by_key[key]
                continue
            first_index_by_key[key] = i
            hit = self.cache.load(point) if self.cache is not None else None
            if hit is not None:
                result_dicts[i], original_s = hit
                report.cached += 1
                report.saved_s += original_s
                if self.observe:
                    observations[i] = self.cache.load_sibling(point, "obs")
            else:
                todo.append(i)

        if todo:
            batches = plan_affinity_batches(points, todo, self.jobs)
            payload_lists = [
                [points[i].payload() for i in batch] for batch in batches
            ]
            # functools.partial stays picklable for the process pool;
            # the engine rides as an argument, never in the payload,
            # keeping cache keys engine-free.
            evaluate = functools.partial(
                evaluate_point_batch, engine=self.engine, observe=self.observe
            )
            if self.jobs > 1 and len(batches) > 1:
                workers = min(self.jobs, len(batches))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    evaluated = list(pool.map(evaluate, payload_lists))
            else:
                evaluated = [evaluate(plist) for plist in payload_lists]
            for batch, items in zip(batches, evaluated):
                for i, item in zip(batch, items):
                    result_dict, seconds, observation = item
                    observations[i] = observation
                    if observation is not None and self.cache is not None:
                        self.cache.store_sibling(points[i], "obs", observation)
                    self._record(points[i], i, result_dict, seconds,
                                 result_dicts, report)

        for i, j in duplicate_of.items():
            result_dicts[i] = result_dicts[j]
            observations[i] = observations[j]

        report.wall_s = time.perf_counter() - wall_start
        if self.cache is not None:
            # Quarantines the cache performed while serving this batch
            # belong to this batch's report.
            report.quarantines = self.cache.quarantines - quarantines_before
        self.last_report = report
        if self.observe:
            self.last_observations = observations
        return [BroadcastResult.from_dict(d) for d in result_dicts]

    def _record(
        self,
        point: SweepPoint,
        index: int,
        result_dict: Dict[str, Any],
        seconds: float,
        result_dicts: List[Optional[Dict[str, Any]]],
        report: SweepReport,
    ) -> None:
        """Book one computed result: slot, counters, cache write."""
        result_dicts[index] = result_dict
        report.computed += 1
        report.busy_s += seconds
        if self.cache is not None:
            self.cache.store(point, result_dict, seconds)


def plan_affinity_batches(
    points: Sequence[SweepPoint], todo: Sequence[int], jobs: int
) -> List[List[int]]:
    """Partition ``todo`` indices into worker batches by plan affinity.

    Points sharing (machine, algorithm, source placement, faults,
    recover) lower to the same fast-path plan, so keeping them in
    one worker call lets that process's plan cache serve every
    point after the first from a warm entry — a sweep varying only
    message length or seed builds each schedule **once per worker**
    instead of once per point.  Groups keep first-appearance order.

    With ``jobs > 1`` each group is split into chunks of at most
    ``ceil(len(todo) / (jobs * 4))`` points so one huge group cannot
    serialize the pool — the 4x oversubscription keeps workers load-
    balanced while leaving chunks big enough to amortize the plan.
    """
    groups: Dict[Tuple[Any, ...], List[int]] = {}
    for i in todo:
        point = points[i]
        affinity = (
            point.machine,
            point.algorithm,
            point.sources,
            point.faults,
            point.recover,
        )
        groups.setdefault(affinity, []).append(i)
    if jobs <= 1:
        return list(groups.values())
    chunk = max(1, -(-len(todo) // (jobs * 4)))
    batches: List[List[int]] = []
    for indices in groups.values():
        for lo in range(0, len(indices), chunk):
            batches.append(indices[lo:lo + chunk])
    return batches
