"""One-call driver: schedule → simulated run → verified result."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Tuple, Union

from repro.core.executor import ScheduleExecutor
from repro.core.problem import BroadcastProblem
from repro.core.schedule import Schedule
from repro.errors import (
    ConfigurationError,
    UnsupportedFastPathError,
    VerificationError,
)
from repro.faults import FaultSchedule
from repro.metrics.report import MetricsReport
from repro.simulator.trace import Tracer

__all__ = ["BroadcastResult", "run_broadcast", "ENGINES"]

#: Valid ``run_broadcast(engine=...)`` values.
ENGINES = ("auto", "event", "fast")


@dataclass(frozen=True)
class BroadcastResult:
    """Outcome of one s-to-p broadcast run.

    ``elapsed_us`` is the virtual completion time of the slowest rank —
    the quantity the paper plots.  ``metrics`` carries the Figure-2
    parameters measured during the run.  ``problem`` may be ``None`` on
    results deserialized from a cache entry lacking a problem descriptor.
    """

    algorithm: str
    problem: Optional[BroadcastProblem]
    elapsed_us: float
    metrics: MetricsReport
    num_rounds: int
    num_transfers: int
    link_utilization: float
    #: Resolved descriptions of the injected faults (empty = clean run).
    faults_active: Tuple[str, ...] = ()
    #: Fraction of (rank, source message) deliveries achieved — 1.0 on a
    #: clean run; < 1.0 when injected faults made delivery impossible
    #: for some ranks (the run is then reported, not raised).
    delivery: float = 1.0
    #: Recovery verdict: ``None`` when no recovery pass ran (clean run,
    #: or ``recover=False``); otherwise whether every delivery the
    #: surviving machine could still achieve was in fact achieved.
    recovered: Optional[bool] = None
    #: Communication rounds of the recovery protocol (0 = nothing to do).
    recovery_rounds: int = 0
    #: Virtual time the recovery pass took, on top of ``elapsed_us``.
    recovery_time_us: float = 0.0
    #: Execution diagnostics: which engine ran and the fast path's
    #: plan-cache verdict.  Diagnostic only — excluded from equality,
    #: serialization (:meth:`to_dict`) and therefore the sweep cache:
    #: the engines are bit-identical, so execution provenance must
    #: never split results.
    debug: Dict[str, Any] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def elapsed_ms(self) -> float:
        """Completion time in milliseconds (the paper's usual unit)."""
        return self.elapsed_us / 1000.0

    @property
    def complete(self) -> bool:
        """Whether every rank received every source message."""
        return self.delivery >= 1.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible rendering that round-trips via :meth:`from_dict`.

        All numeric fields survive a :func:`json.dumps` cycle bit-exactly
        (Python's float repr is shortest-round-trip), which is what lets
        the sweep cache treat stored results as interchangeable with
        freshly computed ones.  The problem is embedded as a spec
        descriptor when its machine has a
        :attr:`~repro.machines.machine.Machine.spec` (every factory-built
        machine, parameter variants included); hand-built machines
        serialize without one and deserialize with ``problem=None``.
        """
        data: Dict[str, Any] = {
            "algorithm": self.algorithm,
            "elapsed_us": self.elapsed_us,
            "num_rounds": self.num_rounds,
            "num_transfers": self.num_transfers,
            "link_utilization": self.link_utilization,
            "metrics": self.metrics.to_json_dict(),
        }
        if self.faults_active:
            # Only fault-injected runs carry these keys, so the JSON of
            # every clean run — and with it the golden fixtures and any
            # cached entry — is byte-identical to the pre-faults format.
            data["faults_active"] = list(self.faults_active)
            data["delivery"] = self.delivery
        if self.recovered is not None:
            # Same discipline one level up: only runs that actually took
            # a recovery pass carry the recovery keys, so fault-injected
            # results from before the recovery layer keep their JSON.
            data["recovered"] = self.recovered
            data["recovery_rounds"] = self.recovery_rounds
            data["recovery_time_us"] = self.recovery_time_us
        problem = self.problem
        if problem is not None and problem.machine.spec is not None:
            data["problem"] = {
                "machine": problem.machine.spec,
                "sources": list(problem.sources),
                "message_size": problem.message_size,
                "sizes": (
                    {str(rank): problem.size_of(rank) for rank in problem.sources}
                    if problem.sizes is not None
                    else None
                ),
            }
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BroadcastResult":
        """Rebuild a result serialized by :meth:`to_dict`.

        The problem is rebuilt from the embedded descriptor; a result
        of a machine without a spec comes back without one.
        """
        problem = None
        if data.get("problem") is not None:
            from repro.machines import machine_from_spec  # local: avoid cycle

            desc = data["problem"]
            sizes = desc.get("sizes")
            problem = BroadcastProblem(
                machine=machine_from_spec(desc["machine"]),
                sources=tuple(desc["sources"]),
                message_size=desc["message_size"],
                sizes={int(r): int(v) for r, v in sizes.items()} if sizes else None,
            )
        return cls(
            algorithm=data["algorithm"],
            problem=problem,
            elapsed_us=float(data["elapsed_us"]),
            metrics=MetricsReport.from_json_dict(data["metrics"]),
            num_rounds=int(data["num_rounds"]),
            num_transfers=int(data["num_transfers"]),
            link_utilization=float(data["link_utilization"]),
            faults_active=tuple(data.get("faults_active", ())),
            delivery=float(data.get("delivery", 1.0)),
            recovered=data.get("recovered"),
            recovery_rounds=int(data.get("recovery_rounds", 0)),
            recovery_time_us=float(data.get("recovery_time_us", 0.0)),
        )


def run_broadcast(
    problem: BroadcastProblem,
    algorithm: Union[str, "BroadcastAlgorithm"],  # noqa: F821
    *,
    seed: int = 0,
    contention: bool = True,
    tracer: Optional[Tracer] = None,
    faults: Union[None, str, Iterable, FaultSchedule] = None,
    recover: bool = False,
    engine: str = "auto",
) -> BroadcastResult:
    """Run ``algorithm`` on ``problem`` and return timing plus metrics.

    The schedule is always validated (causality and delivery, see
    :meth:`~repro.core.schedule.Schedule.validate`) before it runs; a
    clean event-engine run also checks every rank's *simulated*
    holdings, which checks the message layer rather than the schedule.

    Parameters
    ----------
    problem:
        The s-to-p instance (machine, sources, sizes).
    algorithm:
        A :class:`~repro.core.algorithms.base.BroadcastAlgorithm`
        instance or a registry name (see
        :func:`repro.core.algorithms.get_algorithm`).
    seed:
        Run seed; feeds the machine's rank mapping (T3D placement) and
        the fault schedule's seeded degradations.
    contention:
        Pass ``False`` to disable link contention (ablation).
    tracer:
        Optional :class:`~repro.simulator.trace.Tracer` that receives the
        run's trace records (spans, ``xfer``, ``send``, ``recv``).  Both
        engines record the same records in the same order, and tracing
        never changes the result.
    faults:
        Optional fault injection: a spec string (see the grammar in
        EXPERIMENTS.md), clause iterable, or
        :class:`~repro.faults.FaultSchedule`.  A faulty run operates in
        degraded mode: instead of raising on a fault-induced hang or a
        missing message, the result reports ``faults_active`` and the
        achieved ``delivery`` fraction.
    recover:
        Run the :mod:`~repro.core.recovery` protocol after a faulty
        primary run: surviving ranks gossip delivery bitmaps over the
        surviving topology and re-serve missing messages over reliable,
        fault-detoured transport.  The result's ``delivery`` then
        reflects the post-recovery state, and ``recovered`` /
        ``recovery_rounds`` / ``recovery_time_us`` report the protocol's
        verdict and cost.  Ignored without ``faults`` (nothing to
        recover; the result stays byte-identical to a clean run).
    engine:
        Simulation engine selection: ``"auto"`` (default) replays runs
        on the vectorized :mod:`repro.fastpath`, traced or not, and
        falls back to the generator event engine whenever faults or
        recovery are requested; ``"event"`` forces the event engine;
        ``"fast"`` forces the fast path and raises
        :class:`~repro.errors.UnsupportedFastPathError` on runs it
        cannot model.  Both engines produce bit-identical results, so
        the choice never changes what a run returns — only how fast.
    """
    from repro.core.algorithms import get_algorithm  # local: avoid cycle

    if engine not in ENGINES:
        raise ConfigurationError(
            f"engine must be one of {ENGINES}, got {engine!r}"
        )
    if isinstance(algorithm, str):
        algorithm = get_algorithm(algorithm)
    fault_schedule = FaultSchedule.coerce(faults)
    blockers = []
    if fault_schedule is not None:
        blockers.append("faults")
    if recover:
        blockers.append("recovery")
    if engine == "fast" and blockers:
        raise UnsupportedFastPathError(
            f"engine='fast' does not support {', '.join(blockers)}; "
            "use engine='auto' or engine='event'"
        )
    if engine == "fast" or (engine == "auto" and not blockers):
        import repro.fastpath as fastpath  # local: avoid cycle

        # Schedule build, validation, lowering and the delivery check
        # all live behind the plan cache — points sharing (machine,
        # algorithm, sources) amortize them (see repro.fastpath.plancache).
        return fastpath.evaluate_problem(
            problem,
            algorithm,
            seed=seed,
            contention=contention,
            tracer=tracer,
        )
    schedule: Schedule = algorithm.build_schedule(problem)
    schedule.validate()
    executor = ScheduleExecutor(schedule)
    result = problem.machine.run(
        executor.program,
        seed=seed,
        contention=contention,
        tracer=tracer,
        faults=fault_schedule,
        allow_partial=fault_schedule is not None,
    )
    expected = problem.source_set
    delivery = 1.0
    recovered: Optional[bool] = None
    recovery_rounds = 0
    recovery_time_us = 0.0
    if fault_schedule is not None:
        holdings: Iterable[Optional[frozenset]] = [
            frozenset(held) if held is not None else None
            for held in executor.holdings
        ]
        if recover:
            from repro.core.recovery import run_recovery  # local: avoid cycle

            outcome = run_recovery(
                problem,
                list(holdings),
                fault_schedule,
                seed=seed,
                contention=contention,
                tracer=tracer,
            )
            holdings = outcome.holdings
            recovered = outcome.recovered
            recovery_rounds = outcome.rounds
            recovery_time_us = outcome.time_us
        total = problem.p * len(expected)
        achieved = sum(
            len(expected & held) if held is not None else 0
            for held in holdings
        )
        delivery = achieved / total if total else 1.0
    else:
        # Safety check of the message layer, not of the schedule
        # (validate() proved the schedule delivers): every rank's
        # *simulated* holdings must be the full source set.
        for rank, held in enumerate(result.returns):
            if held != expected:
                missing = sorted(expected - held)
                raise VerificationError(
                    f"{algorithm.name}: rank {rank} finished without "
                    f"messages {missing[:8]} (simulated delivery check)"
                )
    return BroadcastResult(
        algorithm=schedule.algorithm or algorithm.name,
        problem=problem,
        elapsed_us=result.elapsed_us,
        metrics=result.metrics,
        num_rounds=schedule.num_rounds,
        num_transfers=schedule.num_transfers,
        link_utilization=result.link_utilization,
        faults_active=result.faults_active,
        delivery=delivery,
        recovered=recovered,
        recovery_rounds=recovery_rounds,
        recovery_time_us=recovery_time_us,
        debug={"engine": "event"},
    )
