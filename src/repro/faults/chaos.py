"""Chaos harness: seeded random fault schedules vs. stated invariants.

Property-based robustness testing for the fault-injection and recovery
layers: generate random :class:`~repro.faults.FaultSchedule`\\ s from a
seed, sweep them across algorithm × distribution combinations, and
assert the invariants the rest of the package promises:

1. **No crash, no hang** — a fault-injected ``run_broadcast`` (which
   runs with ``allow_partial``) returns a result; it never raises and
   never deadlocks the host.
2. **Sane accounting** — ``delivery`` lies in ``[0, 1]`` with and
   without recovery.
3. **Monotone recovery** — ``recover=True`` never delivers *less* than
   the plain faulty run, and its ``recovered`` flag is reported.
4. **Full recovery when physically possible** — with recovery enabled,
   a schedule with no node faults whose surviving topology stays
   connected reaches ``delivery == 1.0`` (every rank is alive and
   reachable, so nothing is unrecoverable).
5. **Achievability** — when recovery runs, ``recovered`` is ``True``
   unless some message was lost with every holder (the protocol
   completes everything the surviving machine can still do).
6. **Determinism** — re-running a trial reproduces the result
   bit-identically (checked on the first trial of every batch).

A failing trial is *shrunk* before reporting: faults are removed one at
a time (ddmin-style, to a fixpoint) while the violation persists, so
the reported schedule is a minimal reproduction.  Every trial is
addressable by ``(seed, index)`` — ``--trial K`` replays exactly one.

``--orchestrator`` points the same methodology at the **distributed
sweep coordinator** (:mod:`repro.sweep.distributed`) instead of the
simulated machine: seeded schedules of worker *kills* (``kill:W@T``)
and *stalls* (``stall:W@T+D``, SIGSTOP then SIGCONT) are injected into
a sharded sweep mid-flight, and the invariants assert that the lease
protocol delivers — the sweep completes, results stay bit-identical to
a serial run, every unit lands a done marker, and a warm re-run
recomputes nothing.

``--io`` turns the same methodology on the **storage layer**
(:mod:`repro.reliability`): seeded plans from the IO-fault grammar
(``torn:write@K`` / ``err:ENOSPC@K`` / ``crash@K`` / ``stall:read@K+D``)
are injected into a sweep worker's filesystem calls, and the invariants
assert that the reliability layer delivers — the queue stays
recoverable, corrupt cache entries are quarantined and recomputed
(never served), and the recovered sweep is bit-identical to serial.

CLI::

    python -m repro chaos --trials 25 --seed 7
    python -m repro chaos --trials 1 --seed 7 --trial 13   # replay
    python -m repro chaos --orchestrator --trials 5 --seed 7
    python -m repro chaos --io --trials 25 --seed 7
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shlex
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.spec import (
    DegradeFault,
    Fault,
    FaultSchedule,
    LinkFault,
    NodeFault,
)

__all__ = [
    "ChaosTrial",
    "IOTrial",
    "OrchestratorFault",
    "OrchestratorTrial",
    "Violation",
    "generate_io_trial",
    "generate_orchestrator_trial",
    "parse_orchestrator_spec",
    "run_io_trial",
    "run_io_trials",
    "run_orchestrator_trial",
    "run_orchestrator_trials",
    "run_trial",
    "run_trials",
    "shrink",
    "main",
]

#: Default trial axes: mesh algorithms that cover the three schedule
#: families (linear, grid two-phase, partitioned) and the distributions
#: the paper leans on.
DEFAULT_ALGORITHMS = ("Br_Lin", "Br_xy_source", "Br_xy_dim", "2-Step")
DEFAULT_DISTRIBUTIONS = ("E", "Dr", "Sq")
#: Degradations stay within the reliable transport's budget headroom.
_MAX_DEGRADE_FACTOR = 8.0


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with the (shrunk) schedule reproducing it."""

    trial: int
    invariant: str
    detail: str
    schedule: str
    shrunk_schedule: str
    algorithm: str
    distribution: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "trial": self.trial,
            "invariant": self.invariant,
            "detail": self.detail,
            "schedule": self.schedule,
            "shrunk_schedule": self.shrunk_schedule,
            "algorithm": self.algorithm,
            "distribution": self.distribution,
        }


@dataclass(frozen=True)
class ChaosTrial:
    """One generated trial: run parameters plus the fault schedule."""

    index: int
    machine: str
    algorithm: str
    distribution: str
    s: int
    message_size: int
    schedule: FaultSchedule
    seed: int = 0

    def describe(self) -> str:
        return (
            f"trial {self.index}: {self.algorithm} x {self.distribution} "
            f"s={self.s} L={self.message_size} on {self.machine} "
            f"faults='{self.schedule.canonical()}'"
        )


def _random_schedule(rng: random.Random, machine) -> FaultSchedule:
    """Draw 1–4 random faults against ``machine``'s topology."""
    topology = machine.topology
    faults: List[Fault] = []
    for _ in range(rng.randint(1, 4)):
        at_us = float(rng.choice((0, 0, rng.randint(1, 300))))
        kind = rng.random()
        if kind < 0.55:
            node = rng.randrange(topology.num_nodes)
            neighbors = sorted(topology.neighbors(node))
            faults.append(LinkFault(node, rng.choice(neighbors), at_us))
        elif kind < 0.8:
            faults.append(NodeFault(rng.randrange(topology.num_nodes), at_us))
        else:
            fraction = rng.choice((0.1, 0.25, 0.5))
            factor = float(rng.choice((2, 4, _MAX_DEGRADE_FACTOR)))
            faults.append(DegradeFault(fraction, factor, at_us))
    return FaultSchedule(tuple(faults))


def generate_trial(
    base_seed: int,
    index: int,
    *,
    machine_spec: str = "paragon:4x4",
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    distributions: Sequence[str] = DEFAULT_DISTRIBUTIONS,
    message_size: int = 1024,
) -> ChaosTrial:
    """The deterministic trial at ``(base_seed, index)``.

    String-seeded (hash-randomisation independent), so a trial is
    replayable on any host from its seed and index alone.
    """
    from repro.machines import machine_from_spec  # local: avoid cycle

    machine = machine_from_spec(machine_spec)
    rng = random.Random(f"chaos#{base_seed}#{index}")
    return ChaosTrial(
        index=index,
        machine=machine_spec,
        algorithm=rng.choice(list(algorithms)),
        distribution=rng.choice(list(distributions)),
        s=rng.randint(2, max(2, min(8, machine.p // 2))),
        message_size=message_size,
        schedule=_random_schedule(rng, machine),
        seed=base_seed,
    )


def _fingerprint(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _is_connected_no_node_faults(
    schedule: FaultSchedule, machine, seed: int
) -> bool:
    """No node faults and the end-state topology is one component."""
    from repro.core.recovery import (  # local: avoid cycle
        _shifted_to_zero,
        _surviving_components,
    )

    if any(isinstance(f, NodeFault) for f in schedule.faults):
        return False
    injector = _shifted_to_zero(schedule).bind(machine.topology, seed)
    components, dead = _surviving_components(
        injector, machine.build_mapping(seed)
    )
    return not dead and len(components) == 1


def _check_invariants(
    trial: ChaosTrial, schedule: FaultSchedule, *, determinism: bool = False
) -> Optional[Tuple[str, str]]:
    """Run ``trial`` with ``schedule``; return ``(invariant, detail)`` on
    the first breach, ``None`` when all invariants hold."""
    import repro  # local: avoid cycle
    from repro.core import BroadcastProblem, run_broadcast
    from repro.machines import machine_from_spec

    machine = machine_from_spec(trial.machine)
    try:
        sources = repro.get_distribution(trial.distribution).generate(
            machine, trial.s
        )
        problem = BroadcastProblem(machine, sources, trial.message_size)
        plain = run_broadcast(
            problem, trial.algorithm, seed=trial.seed, faults=schedule
        )
        recovering = run_broadcast(
            problem,
            trial.algorithm,
            seed=trial.seed,
            faults=schedule,
            recover=True,
        )
    except Exception as exc:  # noqa: BLE001 - any escape is the violation
        return ("no-crash", f"{type(exc).__name__}: {exc}")
    for label, result in (("plain", plain), ("recover", recovering)):
        if not 0.0 <= result.delivery <= 1.0:
            return (
                "delivery-range",
                f"{label} delivery {result.delivery} outside [0, 1]",
            )
    if recovering.delivery < plain.delivery - 1e-12:
        return (
            "monotone-recovery",
            f"recovery lowered delivery {plain.delivery:.6f} -> "
            f"{recovering.delivery:.6f}",
        )
    if recovering.recovered is None:
        return ("recovery-reported", "recover=True reported recovered=None")
    if _is_connected_no_node_faults(schedule, machine, trial.seed):
        if recovering.delivery < 1.0:
            return (
                "full-recovery",
                "connected link/degrade-only schedule but delivery "
                f"{recovering.delivery:.6f} < 1.0",
            )
        if not recovering.recovered:
            return (
                "full-recovery",
                "connected link/degrade-only schedule but recovered=False",
            )
    if determinism:
        replay = run_broadcast(
            problem,
            trial.algorithm,
            seed=trial.seed,
            faults=schedule,
            recover=True,
        )
        if _fingerprint(replay) != _fingerprint(recovering):
            return ("determinism", "re-run produced a different result")
    return None


def shrink(
    trial: ChaosTrial, failure: Tuple[str, str]
) -> Tuple[FaultSchedule, Tuple[str, str]]:
    """Minimise ``trial.schedule`` while the same invariant still breaks.

    Greedy single-fault removal to a fixpoint: drop any fault whose
    removal preserves a violation of the *same* invariant.  Linear in
    faults² runs — cheap, since generated schedules hold at most four.
    """
    schedule = trial.schedule
    invariant = failure[0]
    detail = failure[1]
    changed = True
    while changed and len(schedule.faults) > 1:
        changed = False
        for drop in range(len(schedule.faults)):
            candidate = FaultSchedule(
                schedule.faults[:drop] + schedule.faults[drop + 1 :]
            )
            result = _check_invariants(trial, candidate)
            if result is not None and result[0] == invariant:
                schedule = candidate
                detail = result[1]
                changed = True
                break
    return schedule, (invariant, detail)


def run_trial(trial: ChaosTrial, *, determinism: bool = False) -> Optional[Violation]:
    """Execute one trial; returns a (shrunk) violation or ``None``."""
    failure = _check_invariants(trial, trial.schedule, determinism=determinism)
    if failure is None:
        return None
    shrunk, (invariant, detail) = shrink(trial, failure)
    return Violation(
        trial=trial.index,
        invariant=invariant,
        detail=detail,
        schedule=trial.schedule.canonical(),
        shrunk_schedule=shrunk.canonical(),
        algorithm=trial.algorithm,
        distribution=trial.distribution,
    )


# -- orchestrator chaos: kill/stall sweep workers mid-flight ---------------

@dataclass(frozen=True)
class OrchestratorFault:
    """One worker-process fault: ``kill:W@T`` or ``stall:W@T+D``.

    ``worker`` indexes the coordinator's spawned shard processes;
    ``at_s`` is seconds after spawn; ``duration_s`` (stalls only) is how
    long the worker sits under SIGSTOP before SIGCONT.  The grammar
    mirrors the simulator's fault specs: ``;``-separated, canonical
    spelling, addressable from a seed.
    """

    kind: str  # "kill" | "stall"
    worker: int
    at_s: float
    duration_s: float = 0.0

    def canonical(self) -> str:
        if self.kind == "kill":
            return f"kill:{self.worker}@{self.at_s:g}"
        return f"stall:{self.worker}@{self.at_s:g}+{self.duration_s:g}"


def parse_orchestrator_spec(spec: str) -> Tuple[OrchestratorFault, ...]:
    """Parse a ``;``-separated orchestrator fault spec.

    >>> [f.canonical() for f in parse_orchestrator_spec(
    ...     "kill:1@0.2; stall:0@0.1+1.5")]
    ['kill:1@0.2', 'stall:0@0.1+1.5']
    """
    faults: List[OrchestratorFault] = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            kind, rest = part.split(":", 1)
            worker_text, when = rest.split("@", 1)
            if kind == "kill":
                faults.append(
                    OrchestratorFault("kill", int(worker_text), float(when))
                )
            elif kind == "stall":
                at_text, duration_text = when.split("+", 1)
                faults.append(
                    OrchestratorFault(
                        "stall",
                        int(worker_text),
                        float(at_text),
                        float(duration_text),
                    )
                )
            else:
                raise ValueError(kind)
        except ValueError as exc:
            raise ValueError(
                f"bad orchestrator fault {part!r} (expected kill:W@T or "
                f"stall:W@T+D): {exc}"
            ) from None
    return tuple(faults)


@dataclass(frozen=True)
class OrchestratorTrial:
    """One orchestrator-chaos trial: a sharded sweep plus worker faults."""

    index: int
    shards: int
    faults: Tuple[OrchestratorFault, ...]
    lease_ttl_s: float
    seed: int

    def describe(self) -> str:
        spec = "; ".join(f.canonical() for f in self.faults)
        return (
            f"trial {self.index}: {self.shards} shard(s), "
            f"ttl={self.lease_ttl_s:g}s, faults='{spec}'"
        )


def generate_orchestrator_trial(base_seed: int, index: int) -> OrchestratorTrial:
    """The deterministic orchestrator trial at ``(base_seed, index)``.

    Stall durations deliberately exceed the lease TTL, so a stalled
    worker's leases *expire and get stolen* while it is stopped — the
    exact straggler scenario work stealing exists for — and the worker
    then wakes up to discover it lost them (the abandoned-unit path).
    """
    rng = random.Random(f"chaos-orchestrator#{base_seed}#{index}")
    lease_ttl_s = 0.6
    faults: List[OrchestratorFault] = []
    shards = 2
    for _ in range(rng.randint(1, 2)):
        worker = rng.randrange(shards)
        at_s = round(rng.uniform(0.05, 0.5), 3)
        if rng.random() < 0.5:
            faults.append(OrchestratorFault("kill", worker, at_s))
        else:
            duration_s = round(rng.uniform(1.2, 2.0), 3)
            faults.append(OrchestratorFault("stall", worker, at_s, duration_s))
    return OrchestratorTrial(
        index=index,
        shards=shards,
        faults=tuple(faults),
        lease_ttl_s=lease_ttl_s,
        seed=base_seed,
    )


#: Grid every orchestrator trial sweeps: small enough to finish in
#: seconds, wide enough for several plan-affinity units per shard.
_ORCHESTRATOR_GRID = dict(
    machines=("paragon:4x4",),
    distributions=("E", "R"),
    s_values=(2, 4),
    message_sizes=(256,),
    algorithms=("Br_Lin", "2-Step"),
    seeds=(0,),
)


def _inject_worker_faults(
    faults: Sequence[OrchestratorFault], pids: List[int]
):
    """A ``worker_hook`` that arms kill/stall timers against worker pids.

    Returns the timer list (daemon threads; SIGCONT timers always fire,
    so a stalled worker is never leaked in the stopped state).
    """
    import signal
    import threading

    def _signal(pid: int, signum: int) -> None:
        try:
            os.kill(pid, signum)
        except (ProcessLookupError, PermissionError):
            pass  # worker already exited; the fault becomes a no-op

    def hook(procs) -> None:
        pids.extend(proc.pid for proc in procs)
        timers = []
        for fault in faults:
            if fault.worker >= len(procs):
                continue
            pid = procs[fault.worker].pid
            if fault.kind == "kill":
                timers.append(
                    threading.Timer(fault.at_s, _signal, (pid, signal.SIGKILL))
                )
            else:
                timers.append(
                    threading.Timer(fault.at_s, _signal, (pid, signal.SIGSTOP))
                )
                timers.append(
                    threading.Timer(
                        fault.at_s + fault.duration_s,
                        _signal,
                        (pid, signal.SIGCONT),
                    )
                )
        for timer in timers:
            timer.daemon = True
            timer.start()

    return hook


def run_orchestrator_trial(trial: OrchestratorTrial) -> Optional[Violation]:
    """Run one sharded sweep under worker faults; check the invariants.

    1. **Completion** — ``run_sharded`` returns despite kills/stalls
       (leases expire, survivors or the coordinator steal the work).
    2. **Bit-identity** — results equal a serial ``SweepExecutor`` run.
    3. **Full accounting** — every unit carries a done marker and no
       unit recorded a point-evaluation error.
    4. **Durable resume** — a warm re-run over the same cache computes
       nothing.
    """
    import shutil
    import signal
    import tempfile

    from repro.sweep import ResultCache, SweepExecutor, SweepSpec
    from repro.sweep.distributed import WorkQueue, run_sharded

    spec_text = "; ".join(f.canonical() for f in trial.faults)

    def violation(invariant: str, detail: str) -> Violation:
        return Violation(
            trial=trial.index,
            invariant=invariant,
            detail=detail,
            schedule=spec_text,
            shrunk_schedule=spec_text,
            algorithm="<sweep-coordinator>",
            distribution="-",
        )

    points = SweepSpec(**_ORCHESTRATOR_GRID).points()
    serial = [
        json.dumps(r.to_dict(), sort_keys=True)
        for r in SweepExecutor(jobs=1).run(points)
    ]
    workdir = tempfile.mkdtemp(prefix="repro-chaos-orch-")
    pids: List[int] = []
    try:
        cache = ResultCache(os.path.join(workdir, "cache"))
        outcome = run_sharded(
            points,
            shards=trial.shards,
            cache=cache,
            run_dir=os.path.join(workdir, "run"),
            lease_ttl_s=trial.lease_ttl_s,
            worker_hook=_inject_worker_faults(trial.faults, pids),
        )
        sharded = [
            json.dumps(r.to_dict(), sort_keys=True) for r in outcome.results
        ]
        if sharded != serial:
            mismatches = sum(1 for a, b in zip(serial, sharded) if a != b)
            return violation(
                "bit-identity",
                f"{mismatches}/{len(points)} point(s) differ from serial",
            )
        queue = WorkQueue.open(outcome.run_dir)
        missing = queue.pending_units()
        if missing:
            return violation(
                "full-accounting", f"unit(s) {missing} have no done marker"
            )
        errors = queue.errors()
        if errors:
            return violation(
                "full-accounting",
                f"{len(errors)} point evaluation error(s): "
                f"{errors[0]['error']}",
            )
        rerun = run_sharded(
            points,
            shards=trial.shards,
            cache=cache,
            run_dir=os.path.join(workdir, "rerun"),
            lease_ttl_s=trial.lease_ttl_s,
        )
        if rerun.report.computed != 0:
            return violation(
                "durable-resume",
                f"warm re-run recomputed {rerun.report.computed} point(s)",
            )
    except Exception as exc:  # noqa: BLE001 - any escape is the violation
        return violation("completion", f"{type(exc).__name__}: {exc}")
    finally:
        for pid in pids:  # never leak a stopped/stray worker
            for signum in (signal.SIGCONT, signal.SIGKILL):
                try:
                    os.kill(pid, signum)
                except (ProcessLookupError, PermissionError):
                    pass
        shutil.rmtree(workdir, ignore_errors=True)
    return None


# -- storage chaos: tear/fail/crash the worker's filesystem calls ----------

#: Grid every IO trial sweeps — the crash harness's tiny grid: four
#: points in two plan-affinity units, finishing in well under a second.
_IO_GRID = dict(
    machines=("paragon:4x4",),
    distributions=("E",),
    s_values=(2, 4),
    message_sizes=(256,),
    algorithms=("Br_Lin", "2-Step"),
    seeds=(0,),
)

#: Fault indices are drawn below this bound — roughly the IO-op count
#: of one clean drain of the ``_IO_GRID`` queue, so most faults land
#: inside the run (one past the end is a legal no-op, like a simulated
#: fault scheduled after the broadcast completes).
_IO_INDEX_BOUND = 36


@dataclass(frozen=True)
class IOTrial:
    """One storage-chaos trial: a seeded IO-fault plan vs. one worker."""

    index: int
    plan_spec: str
    seed: int

    def describe(self) -> str:
        return f"trial {self.index}: io faults '{self.plan_spec}'"


def generate_io_trial(base_seed: int, index: int) -> IOTrial:
    """The deterministic storage trial at ``(base_seed, index)``.

    Draws 1–3 faults from the IO grammar (:mod:`repro.reliability`):
    crashes and torn writes dominate (they are the crash-consistency
    hazards), injected errnos cover the transient table's common cases,
    and stalls stay at 10 ms so a 25-trial batch finishes in seconds.
    """
    rng = random.Random(f"chaos-io#{base_seed}#{index}")
    clauses: List[str] = []
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(_IO_INDEX_BOUND)
        kind = rng.random()
        if kind < 0.35:
            clauses.append(f"crash@{at}")
        elif kind < 0.60:
            clauses.append(f"torn:write@{at}")
        elif kind < 0.90:
            clauses.append(f"err:{rng.choice(('ENOSPC', 'EIO', 'EAGAIN'))}@{at}")
        else:
            clauses.append(f"stall:{rng.choice(('read', 'write'))}@{at}+0.01")
    return IOTrial(index=index, plan_spec=";".join(clauses), seed=base_seed)


def run_io_trial(trial: IOTrial) -> Optional[Violation]:
    """Drive one worker under an IO-fault plan; check the invariants.

    1. **Recoverability** — after the faulty attempts (crashes and
       exhausted retries are expected), a clean same-owner worker drains
       the queue: every unit lands a done marker.
    2. **Bit-identity** — results collected from the surviving cache
       equal a serial ``SweepExecutor`` run (corrupt entries are
       quarantined and recomputed, never served).
    3. **No residual corruption** — after collection touched every
       point, an offline ``verify_all`` scan finds nothing left to
       quarantine (everything torn was already caught and rewritten).
    """
    import shutil
    import tempfile

    from repro.errors import ReproError
    from repro.reliability.iofaults import FaultyIO, SimulatedCrash
    from repro.sweep import ResultCache, SweepExecutor, SweepSpec
    from repro.sweep.distributed import (
        WorkQueue,
        _collect,
        _plan_units,
        run_worker,
    )

    def violation(invariant: str, detail: str) -> Violation:
        return Violation(
            trial=trial.index,
            invariant=invariant,
            detail=detail,
            schedule=trial.plan_spec,
            shrunk_schedule=trial.plan_spec,
            algorithm="<storage-worker>",
            distribution="-",
        )

    points = SweepSpec(**_IO_GRID).points()
    serial = [
        json.dumps(r.to_dict(), sort_keys=True)
        for r in SweepExecutor(jobs=1).run(points)
    ]
    workdir = tempfile.mkdtemp(prefix="repro-chaos-io-")
    try:
        cache = ResultCache(os.path.join(workdir, "cache"))
        run_dir = os.path.join(workdir, "run")
        payloads, units = _plan_units(points, 2)
        # Generous TTL: recovery is a same-owner restart (which may
        # always retake its own lease), not an expiry race.
        WorkQueue.create(
            run_dir, payloads, units, cache_dir=cache.root, lease_ttl_s=60.0
        )
        io = FaultyIO(trial.plan_spec)
        # One shared FaultyIO across attempts: its op counter keeps
        # advancing, so each crash in the plan fires at most once and
        # the attempt loop is bounded by the fault count.
        for _ in range(len(io.plan.faults) + 1):
            try:
                run_worker(run_dir, "chaos-io-worker", io=io)
                break
            except (SimulatedCrash, OSError, ReproError):
                continue
        # Clean recovery pass: the restarted worker on a healthy disk.
        run_worker(run_dir, "chaos-io-worker")
        queue = WorkQueue.open(run_dir)
        missing = queue.pending_units()
        if missing:
            return violation(
                "recoverability", f"unit(s) {missing} have no done marker"
            )
        results, _ = _collect(queue, points, cache, observe=False)
        collected = [
            json.dumps(r.to_dict(), sort_keys=True) for r in results
        ]
        if collected != serial:
            mismatches = sum(1 for a, b in zip(serial, collected) if a != b)
            return violation(
                "bit-identity",
                f"{mismatches}/{len(points)} point(s) differ from serial",
            )
        audit = cache.verify_all()
        if audit.quarantined_now:
            return violation(
                "no-residual-corruption",
                f"verify_all quarantined {audit.quarantined_now} entr(ies) "
                "that collection should already have caught",
            )
    except Exception as exc:  # noqa: BLE001 - any escape is the violation
        return violation("recoverability", f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return None


@dataclass
class ChaosReport:
    """Outcome of a chaos batch (JSON-serialisable for CI artifacts)."""

    seed: int
    trials: int
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
        }


def _run_batch(
    generate: Callable[[int, int], Any],
    run: Callable[[Any, bool], Optional[Violation]],
    trials: int,
    seed: int,
    only: Optional[int],
    verbose: bool,
) -> ChaosReport:
    """The one batch loop of every chaos mode.

    ``generate(seed, index)`` draws a trial and ``run(trial, first)``
    returns its violation; ``first`` marks the batch's first trial.
    """
    report = ChaosReport(seed=seed, trials=trials)
    indices = [only] if only is not None else list(range(trials))
    for index in indices:
        trial = generate(seed, index)
        violation = run(trial, index == indices[0])
        if verbose:
            status = "FAIL" if violation is not None else "ok"
            print(f"  [{status:4s}] {trial.describe()}")
        if violation is not None:
            report.violations.append(violation)
    return report


def run_trials(
    trials: int,
    seed: int,
    *,
    machine_spec: str = "paragon:4x4",
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    distributions: Sequence[str] = DEFAULT_DISTRIBUTIONS,
    message_size: int = 1024,
    only: Optional[int] = None,
    verbose: bool = True,
) -> ChaosReport:
    """Run a batch of seeded trials; collect (shrunk) violations."""

    def generate(seed: int, index: int) -> ChaosTrial:
        return generate_trial(
            seed,
            index,
            machine_spec=machine_spec,
            algorithms=algorithms,
            distributions=distributions,
            message_size=message_size,
        )

    def run(trial: ChaosTrial, first: bool) -> Optional[Violation]:
        # The determinism invariant re-runs the batch's first trial.
        return run_trial(trial, determinism=first)

    return _run_batch(generate, run, trials, seed, only, verbose)


def run_io_trials(
    trials: int, seed: int, *, only: Optional[int] = None, verbose: bool = True
) -> ChaosReport:
    """Seeded batch of storage-chaos trials (the ``--io`` mode)."""
    return _run_batch(
        generate_io_trial,
        lambda trial, _first: run_io_trial(trial),
        trials, seed, only, verbose,
    )


def run_orchestrator_trials(
    trials: int, seed: int, *, only: Optional[int] = None, verbose: bool = True
) -> ChaosReport:
    """Seeded batch of orchestrator trials (the ``--orchestrator`` mode)."""
    return _run_batch(
        generate_orchestrator_trial,
        lambda trial, _first: run_orchestrator_trial(trial),
        trials, seed, only, verbose,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Random fault schedules vs. the package's invariants.",
    )
    parser.add_argument("--trials", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--machine", default="paragon:4x4")
    parser.add_argument(
        "--algorithms",
        default=",".join(DEFAULT_ALGORITHMS),
        help="comma-separated algorithm pool",
    )
    parser.add_argument(
        "--dists",
        default=",".join(DEFAULT_DISTRIBUTIONS),
        help="comma-separated distribution pool",
    )
    parser.add_argument("--L", type=int, default=1024, help="message bytes")
    parser.add_argument(
        "--trial",
        type=int,
        default=None,
        metavar="K",
        help="replay exactly one trial index from this seed",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write a JSON report (shrunk schedules included) here",
    )
    parser.add_argument(
        "--orchestrator",
        action="store_true",
        help=(
            "target the distributed sweep coordinator instead of the "
            "simulated machine: kill/stall shard workers mid-sweep"
        ),
    )
    parser.add_argument(
        "--io",
        action="store_true",
        help=(
            "target the storage layer instead of the simulated machine: "
            "tear, fail, stall, and crash the sweep worker's filesystem "
            "calls (grammar: torn:write@K, err:ENOSPC@K, crash@K, "
            "stall:read@K+D)"
        ),
    )
    args = parser.parse_args(argv)

    mode = "io" if args.io else "orchestrator" if args.orchestrator else ""
    flag = f" --{mode}" if mode else ""
    pools = ""
    if not mode:
        # The machine-mode pools shape every trial: a replay needs each
        # one that the batch ran off its default.
        for dest in ("machine", "algorithms", "dists", "L"):
            value = getattr(args, dest)
            if value != parser.get_default(dest):
                pools += f" --{dest} {shlex.quote(str(value))}"
    if mode:
        print(f"chaos ({mode}): {args.trials} trial(s), seed {args.seed}")
    else:
        print(
            f"chaos: {args.trials} trial(s), seed {args.seed}, "
            f"machine {args.machine}"
        )
    if args.io:
        report = run_io_trials(args.trials, args.seed, only=args.trial)
    elif args.orchestrator:
        report = run_orchestrator_trials(args.trials, args.seed, only=args.trial)
    else:
        report = run_trials(
            args.trials,
            args.seed,
            machine_spec=args.machine,
            algorithms=tuple(a for a in args.algorithms.split(",") if a),
            distributions=tuple(d for d in args.dists.split(",") if d),
            message_size=args.L,
            only=args.trial,
        )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"report written to {args.report}")
    if report.ok:
        print(f"all invariants held over {report.trials} trial(s)")
        return 0
    for violation in report.violations:
        print()
        print(f"VIOLATION [{violation.invariant}] in trial {violation.trial}:")
        print(f"  {violation.detail}")
        print(f"  schedule: {violation.schedule}")
        print(f"  shrunk:   {violation.shrunk_schedule}")
        print(
            f"  replay:   python -m repro chaos{flag} --trials 1 "
            f"--seed {report.seed} --trial {violation.trial}{pools}"
        )
    print(f"\n{len(report.violations)} violation(s)")
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
