"""Amortized lowering: an in-process cache of lowered plans.

Sweeps evaluate thousands of points that differ only in message length,
repetition seed, or contention flag — but share the *schedule-
determining* subset of the point: machine spec, algorithm, and source
placement.  The schedule build + validation + lowering for such points
is identical work, so this module caches it per worker process:

* a :class:`PlanCache` maps ``(machine, algorithm, sources)`` to a
  lowered, validated :class:`~repro.fastpath.lowering.FastPlan` — with
  the report fields its schedule fixes, counted once at lowering — plus
  everything the runner needs around it (per-seed link-path bindings,
  per-size-table rebinds);
* :func:`evaluate_problem` is the runner's fast-path entry: resolve the
  cache, bind the point's sizes and seed, replay through the kernel,
  and return the run's :class:`~repro.core.runner.BroadcastResult`;
  :func:`observe_problem` does the same and also digests the replay's
  event log into the run's observation summary.

**Size discipline.**  A plan's structure is usually size-independent
(whole messages move; byte counts are sums over message sets), and
then one cached structure serves every message length via
:meth:`FastPlan.rebind_sizes` — bit-identical to fresh lowering.  Two
guards keep this safe: algorithms whose *round structure* depends on
sizes declare it (:meth:`BroadcastAlgorithm.schedule_depends_on_sizes`
— the pipelined MPI_AllGather segments by length, and Auto_Predict
picks its candidate by the predicted times at these sizes), and the
lowering itself probes reusability per plan
(:attr:`FastPlan.size_reusable`).  Either guard failing keys the entry
by the full size signature instead.

The machine part of the key is its canonical spec, which names every
parameter that differs from the family's defaults, so parameter
variants never share a plan.  A hand-built machine without a spec (a
test topology) is keyed by the :class:`~repro.machines.Machine` object
itself: its own runs share plans, and no other machine's do.

The cache is engine-invisible: hits and misses produce bit-identical
results (the differential tests replay warm-cache points
against the event engine), and cache state never leaks into result
bytes or sweep cache keys.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.fastpath.evaluator import (
    PlanBinding,
    bind_plan,
    evaluate_plan,
    record_trace,
    summarize_replay,
)
from repro.fastpath.lowering import FastPlan, lower_schedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.algorithms.base import BroadcastAlgorithm
    from repro.core.problem import BroadcastProblem
    from repro.core.runner import BroadcastResult
    from repro.simulator.trace import Tracer

__all__ = [
    "PlanCache",
    "evaluate_problem",
    "observe_problem",
    "clear",
]

#: Lowered-plan entries kept per process (LRU).
PLAN_CAPACITY = 64
#: Size-table rebinds kept per entry (LRU).
BINDING_CAPACITY = 32
#: Link-path bindings kept per entry (LRU; one covers all seeds on
#: machines with seed-independent rank placement).
PATH_CAPACITY = 8


class _PlanEntry:
    """One cached lowering with its per-run binding caches."""

    __slots__ = (
        "plan",
        "algorithm_label",
        "built_sig",
        "size_bindings",
        "path_bindings",
    )

    def __init__(
        self, plan: FastPlan, algorithm_label: str, built_sig: Tuple[int, ...]
    ) -> None:
        self.plan = plan
        self.algorithm_label = algorithm_label
        self.built_sig = built_sig
        self.size_bindings: "OrderedDict[Tuple[int, ...], FastPlan]" = (
            OrderedDict()
        )
        self.path_bindings: "OrderedDict[int, PlanBinding]" = OrderedDict()

    def plan_for(self, sig: Tuple[int, ...], problem: "BroadcastProblem") -> FastPlan:
        """The plan bound to ``problem``'s size table (LRU-cached)."""
        if sig == self.built_sig:
            return self.plan
        plan = self.size_bindings.get(sig)
        if plan is None:
            plan = self.plan.rebind_sizes(problem)
            self.size_bindings[sig] = plan
            if len(self.size_bindings) > BINDING_CAPACITY:
                self.size_bindings.popitem(last=False)
        else:
            self.size_bindings.move_to_end(sig)
        return plan

    def binding_for(self, machine, seed: int) -> PlanBinding:
        """Link paths under ``seed``'s rank mapping (LRU-cached).

        Paths depend only on the plan *structure* and the mapping, so
        one binding serves every size rebind of this entry; machines
        with seed-independent placement collapse all seeds onto one.
        """
        bkey = 0 if machine.topology_stable_ranks else seed
        binding = self.path_bindings.get(bkey)
        if binding is None:
            binding = bind_plan(self.plan, machine, seed)
            self.path_bindings[bkey] = binding
            if len(self.path_bindings) > PATH_CAPACITY:
                self.path_bindings.popitem(last=False)
        else:
            self.path_bindings.move_to_end(bkey)
        return binding


class PlanCache:
    """LRU cache of lowered plans, keyed by schedule-determining data."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[tuple, _PlanEntry]" = OrderedDict()

    def get(self, key: tuple) -> Optional[_PlanEntry]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: tuple, entry: _PlanEntry) -> None:
        self._entries[key] = entry
        if len(self._entries) > PLAN_CAPACITY:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()


#: The per-process cache instance (worker processes each get their own).
_CACHE = PlanCache()


def clear() -> None:
    """Reset the process-wide cache (tests and cold-path benchmarks)."""
    _CACHE.clear()


def _size_sig(problem: "BroadcastProblem") -> Tuple[int, ...]:
    """The per-source byte table as a tuple (sources are sorted)."""
    size_of = problem.size_of
    return tuple(size_of(r) for r in problem.sources)


def _replay(
    problem: "BroadcastProblem",
    algorithm: "BroadcastAlgorithm",
    seed: int,
    contention: bool,
    log: Optional[List[tuple]],
) -> Tuple["BroadcastResult", FastPlan, PlanBinding]:
    """Replay ``(problem, algorithm)`` through its cache entry.

    Builds the entry on a miss, binds its plan to ``problem``'s sizes
    and ``seed``'s rank mapping, and replays it with ``log`` (see
    :func:`~repro.fastpath.evaluator.evaluate_plan`).  Returns the
    result with the bound plan and binding, which read the log.
    """
    from repro.core.runner import BroadcastResult  # local: avoid cycle

    machine = problem.machine
    sig = _size_sig(problem)
    # The algorithm object, not its name: registry algorithms are
    # singletons, and a configured instance (an AutoPredict portfolio)
    # must not share another instance's plans.
    key_base = (machine.spec or machine, algorithm, problem.sources)
    sized_structure = algorithm.schedule_depends_on_sizes(problem)
    entry = None
    if not sized_structure:
        entry = _CACHE.get(key_base + ("any",))
    if entry is None:
        entry = _CACHE.get(key_base + ("sized", sig))

    verdict = "hit" if entry is not None else "miss"
    if entry is None:
        schedule = algorithm.build_schedule(problem)
        schedule.validate()
        plan = lower_schedule(schedule)
        entry = _PlanEntry(plan, schedule.algorithm or algorithm.name, sig)
        if plan.size_reusable and not sized_structure:
            _CACHE.put(key_base + ("any",), entry)
        else:
            _CACHE.put(key_base + ("sized", sig), entry)

    plan = entry.plan_for(sig, problem)
    binding = entry.binding_for(machine, seed)
    fast = evaluate_plan(
        plan, machine, seed=seed, contention=contention, binding=binding,
        log=log,
    )
    result = BroadcastResult(
        algorithm=entry.algorithm_label,
        problem=problem,
        elapsed_us=fast.elapsed_us,
        metrics=fast.metrics,
        num_rounds=plan.num_rounds,
        num_transfers=plan.num_sends,
        link_utilization=fast.link_utilization,
        debug={"engine": "fast", "plan_cache": verdict},
    )
    return result, plan, binding


def evaluate_problem(
    problem: "BroadcastProblem",
    algorithm: "BroadcastAlgorithm",
    *,
    seed: int = 0,
    contention: bool = True,
    tracer: Optional["Tracer"] = None,
) -> "BroadcastResult":
    """Build-or-reuse the lowering for ``(problem, algorithm)`` and replay.

    The fast-path equivalent of the runner's build → validate →
    simulate pipeline, with the first two stages amortized across every
    point that shares this problem's machine, algorithm and source
    placement.  A ``tracer`` receives the event engine's trace records
    for the replay (see :func:`~repro.fastpath.evaluator.record_trace`).
    The result's ``debug`` names the engine and the plan-cache verdict
    (``hit`` | ``miss``).  Raises exactly what the un-cached pipeline
    would: ``AlgorithmError`` or ``VerificationError`` from
    build/validate, ``DeadlockError`` from the replay (before any record
    is stored).
    """
    log: Optional[List[tuple]] = None if tracer is None else []
    result, plan, binding = _replay(problem, algorithm, seed, contention, log)
    if log is not None:
        record_trace(log, plan, binding, tracer)
    return result


def observe_problem(
    problem: "BroadcastProblem",
    algorithm: "BroadcastAlgorithm",
    *,
    seed: int,
    contention: bool,
) -> Tuple["BroadcastResult", Dict[str, Any]]:
    """:func:`evaluate_problem` plus the run's observation summary.

    The summary is what :func:`~repro.obs.summary.summarize_trace` gives
    for the records a full tracer would hold, read straight from the
    replay's event log by
    :func:`~repro.fastpath.evaluator.summarize_replay`: no trace record
    is built.
    """
    log: List[tuple] = []
    result, plan, binding = _replay(problem, algorithm, seed, contention, log)
    return result, summarize_replay(
        log, plan, binding, problem.machine.topology
    )
