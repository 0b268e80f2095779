"""The pinned microbenchmark suite and report comparison.

Seven tiers, mirroring the simulator's layering:

* ``route/…`` — raw :meth:`Topology.route_links` link-path lookups
  (the fabric's per-message work), warm (memoized routes) and cold
  (every route built on a fresh topology, as on a cold sweep job's
  new machines);
* ``schedule/…`` — the stages a plan-cache miss pays before the
  replay: ``build_schedule``, ``validate`` and ``lower_schedule`` of
  one point, nothing cached, for each of the ``run/…`` algorithms;
* ``pingpong/…`` — isend/recv round-trips through the full engine +
  communicator stack on a tiny mesh;
* ``run/…`` — whole ``run_broadcast`` points (schedule build,
  validation, simulation, verification) at the paper's operating
  points: PersAlltoAll / Br_xy_source / MPI_AllGather on the 8×8 and
  16×16 Paragon.  These run with the default engine (``auto``), so
  they measure the fast path on clean runs;
* ``fastpath/…`` — explicit ``engine="fast"`` points and a Figure-3
  style sweep, each also timing the event engine once so the report
  records the engine speedup alongside the absolute number;
* ``traced/…`` — an observed point: a fully traced ``run_broadcast``
  then :func:`~repro.obs.summary.summarize_trace`, what an observed
  sweep pays per computed point, with the untraced run and the summary
  alone timed beside it;
* ``cache/warm-read`` — a warm result cache read back: every stored
  entry of a small grid opened, verified and checked against its point.

``quick=True`` (the CI smoke mode) drops the 16×16 points; the
remaining benchmarks run with workloads identical to full mode, so
their names form a strict subset with comparable numbers, and
:func:`compare_reports` checks the intersection — a quick run gates
directly against a full-mode baseline.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.problem import BroadcastProblem
from repro.core.runner import run_broadcast
from repro.machines import machine_from_spec
from repro.network import Mesh2D, Topology, Torus3D
from repro.perf.timer import BenchTiming, bench, calibrate

__all__ = [
    "SCHEMA",
    "BenchResult",
    "Comparison",
    "compare_reports",
    "load_report",
    "run_suite",
    "write_report",
]

#: Report schema identifier (bump on incompatible layout changes).
SCHEMA = "repro-perf/1"

#: Default tolerance: fail on >25 % normalized wall-clock regression.
DEFAULT_TOLERANCE = 0.25


@dataclass(frozen=True)
class BenchResult:
    """One benchmark's measurement."""

    name: str
    wall_s: float
    mean_s: float
    repeats: int
    events_per_s: Optional[float] = None
    #: Machine-speed proxy measured *around this benchmark* (see
    #: :func:`run_suite`) — per-benchmark normalization tracks load
    #: drift within a suite run that one report-level number cannot.
    calibration_s: Optional[float] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "wall_s": self.wall_s,
            "mean_s": self.mean_s,
            "repeats": self.repeats,
        }
        if self.events_per_s is not None:
            data["events_per_s"] = self.events_per_s
        if self.calibration_s is not None:
            data["calibration_s"] = self.calibration_s
        if self.extra:
            data["extra"] = self.extra
        return data


# -- benchmark bodies ------------------------------------------------------

def _timed(name: str, timing: BenchTiming, **fields: Any) -> BenchResult:
    """The :class:`BenchResult` of ``timing``, with more ``fields``."""
    return BenchResult(name=name, wall_s=timing.best_s, mean_s=timing.mean_s,
                       repeats=timing.repeats, **fields)


def _problem(spec: str, s: int, message_size: int) -> BroadcastProblem:
    """``s`` sources at ranks ``0..s-1`` of machine ``spec``."""
    return BroadcastProblem(machine=machine_from_spec(spec),
                            sources=tuple(range(s)), message_size=message_size)


def _bench_route_lookup(lookups: int, repeats: int) -> BenchResult:
    """Warm link-path lookups on the 16×16 mesh, deterministic pair list."""
    import random

    machine = machine_from_spec("paragon:16x16")
    topo = machine.topology
    rng = random.Random(0xC0FFEE)
    n = topo.num_nodes
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(lookups)]
    # route_links serves memoized tuples: the fabric's per-send lookup.
    route = topo.route_links

    def body() -> None:
        for src, dst in pairs:
            route(src, dst)

    timing = bench(body, repeats=repeats, warmup=1)
    return _timed(
        "route/paragon:16x16/lookups", timing,
        extra={"lookups": lookups, "lookups_per_s": lookups / timing.best_s},
    )


def _bench_route_build(
    spec: str, make: Callable[[], Topology], lookups: int, repeats: int
) -> BenchResult:
    """Cold link-path builds: a fixed pair list on a fresh topology.

    What a cold sweep job pays on each new machine, where every route
    is built once, joined from the topology's memoized legs.  The fresh
    topologies, one per run, are built before timing starts; each run
    takes the next.
    """
    import random

    fresh = [make() for _ in range(repeats + 1)]  # + the warmup run
    rng = random.Random(0xC0FFEE)
    n = fresh[0].num_nodes
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(lookups)]
    topologies = iter(fresh)

    def body() -> None:
        route = next(topologies).route_links
        for src, dst in pairs:
            route(src, dst)

    timing = bench(body, repeats=repeats, warmup=1)
    return _timed(
        f"route/{spec}/build", timing,
        extra={"lookups": lookups, "lookups_per_s": lookups / timing.best_s},
    )


def _bench_schedule(
    algorithm: str, spec: str, s: int, message_size: int, repeats: int
) -> BenchResult:
    """Build, validate and lower one point's schedule, nothing cached:
    what a plan-cache miss pays before the replay."""
    from repro.core.algorithms import get_algorithm
    from repro.fastpath.lowering import lower_schedule

    problem = _problem(spec, s, message_size)
    build = get_algorithm(algorithm).build_schedule

    def body() -> None:
        schedule = build(problem)
        schedule.validate()
        lower_schedule(schedule)

    timing = bench(body, repeats=repeats, warmup=1)
    sends = build(problem).num_transfers
    return _timed(
        f"schedule/{algorithm}/{spec}/s={s}/L={message_size}", timing,
        extra={"sends": sends, "sends_per_s": sends / timing.best_s},
    )


def _pingpong_program(iterations: int, nbytes: int) -> Callable:
    def program(comm):
        if comm.rank == 0:
            for i in range(iterations):
                yield from comm.send(1, None, nbytes, tag=0)
                yield from comm.recv(source=1, tag=1)
        elif comm.rank == 1:
            for i in range(iterations):
                yield from comm.recv(source=0, tag=0)
                yield from comm.send(0, None, nbytes, tag=1)

    return program


def _bench_pingpong(iterations: int, repeats: int) -> BenchResult:
    """isend/recv round-trips between two ranks of a 2×2 mesh."""
    machine = machine_from_spec("paragon:2x2")
    program = _pingpong_program(iterations, nbytes=64)

    def body() -> None:
        machine.run(program)

    timing = bench(body, repeats=repeats, warmup=1)
    result = machine.run(program)
    events = getattr(result, "events_scheduled", 0)
    return _timed(
        "pingpong/paragon:2x2", timing,
        events_per_s=(events / timing.best_s) if events else None,
        extra={
            "iterations": iterations,
            "roundtrips_per_s": iterations / timing.best_s,
        },
    )


def _bench_point(
    algorithm: str, spec: str, s: int, message_size: int, repeats: int
) -> BenchResult:
    """One full ``run_broadcast`` point, plus engine-only events/sec."""
    from repro.core.algorithms import get_algorithm
    from repro.core.executor import ScheduleExecutor

    problem = _problem(spec, s, message_size)
    machine = problem.machine

    def body() -> None:
        run_broadcast(problem, algorithm)

    timing = bench(body, repeats=repeats, warmup=1)
    # Engine-only view: pre-built schedule, so events/sec isolates the
    # simulation loop from schedule construction and verification.
    schedule = get_algorithm(algorithm).build_schedule(problem)
    executor = ScheduleExecutor(schedule)
    engine_timing = bench(
        lambda: machine.run(executor.program), repeats=max(2, repeats - 1)
    )
    run = machine.run(executor.program)
    events = getattr(run, "events_scheduled", 0)
    return _timed(
        f"run/{algorithm}/{spec}/s={s}/L={message_size}", timing,
        events_per_s=(events / engine_timing.best_s) if events else None,
        extra={
            "engine_s": engine_timing.best_s,
            "events_scheduled": events,
            "elapsed_us": run.elapsed_us,
        },
    )


def _bench_fastpath_point(
    algorithm: str, spec: str, s: int, message_size: int, repeats: int
) -> BenchResult:
    """One ``run_broadcast(engine="fast")`` point, with event-engine ref.

    The gated number (``wall_s``) is the *warm* wall clock — plan cache
    populated, so each run is a kernel replay, the steady state a sweep
    spends its time in.  A cold timing (plan cache cleared per run)
    splits out the amortized lowering cost in ``extra``
    (``lowering_s`` / ``replay_s``).  The event engine is timed with
    fewer repeats — it is only there to record the speedup.
    """
    from repro.fastpath import plancache

    problem = _problem(spec, s, message_size)

    def fast_run() -> None:
        run_broadcast(problem, algorithm, engine="fast")

    def cold_run() -> None:
        plancache.clear()
        fast_run()

    timing = bench(fast_run, repeats=repeats, warmup=1)
    cold_timing = bench(cold_run, repeats=max(2, repeats - 2), warmup=1)
    event_timing = bench(
        lambda: run_broadcast(problem, algorithm, engine="event"),
        repeats=max(2, repeats - 3),
        warmup=0,
    )
    result = run_broadcast(problem, algorithm, engine="fast")
    return _timed(
        f"fastpath/{algorithm}/{spec}/s={s}/L={message_size}", timing,
        extra={
            "event_s": event_timing.best_s,
            "speedup_vs_event": event_timing.best_s / timing.best_s,
            "elapsed_us": result.elapsed_us,
            "transfers_per_s": result.num_transfers / timing.best_s,
            "cold_s": cold_timing.best_s,
            "replay_s": timing.best_s,
            "lowering_s": max(cold_timing.best_s - timing.best_s, 0.0),
        },
    )


def _bench_fastpath_sweep(repeats: int) -> BenchResult:
    """Figure-3 style sweep (10×10 Paragon, E, L=4K) on the fast path.

    As with the point benchmarks, ``wall_s`` is the warm-plan-cache
    sweep (every point a replay of an already-lowered plan) and the
    cold timing in ``extra`` measures the same sweep with the cache
    cleared per pass — their difference is the schedule-build +
    lowering cost the cache amortizes across the sweep.
    """
    from repro.fastpath import plancache
    from repro.sweep import SweepExecutor, SweepSpec

    points = SweepSpec(
        machines=("paragon:10x10",),
        distributions=("E",),
        s_values=(1, 10, 30, 60, 100),
        message_sizes=(4096,),
        algorithms=(
            "Br_Lin",
            "Br_xy_source",
            "2-Step",
            "PersAlltoAll",
            "MPI_AllGather",
        ),
        seeds=(0,),
    ).points()

    def sweep_run() -> None:
        SweepExecutor(jobs=1, cache=None, engine="fast").run(points)

    def cold_run() -> None:
        plancache.clear()
        sweep_run()

    timing = bench(sweep_run, repeats=repeats, warmup=1)
    cold_timing = bench(cold_run, repeats=2, warmup=1)
    event_timing = bench(
        lambda: SweepExecutor(jobs=1, cache=None, engine="event").run(points),
        repeats=2,
        warmup=0,
    )
    return _timed(
        "fastpath/fig3-sweep/paragon:10x10", timing,
        extra={
            "points": len(points),
            "event_s": event_timing.best_s,
            "speedup_vs_event": event_timing.best_s / timing.best_s,
            "points_per_s": len(points) / timing.best_s,
            "cold_s": cold_timing.best_s,
            "replay_s": timing.best_s,
            "lowering_s": max(cold_timing.best_s - timing.best_s, 0.0),
        },
    )


def _bench_traced_point(
    algorithm: str, spec: str, s: int, message_size: int, repeats: int
) -> BenchResult:
    """One observed point: a fully traced run, then its summary.

    ``wall_s`` is the warm (plan cache populated) ``run_broadcast`` with
    a full :class:`~repro.simulator.trace.Tracer` plus
    :func:`~repro.obs.summary.summarize_trace` — on the fast path that
    is the replay, the record rebuild and the summary.  ``extra`` holds
    the same point untraced and the summary alone, so the report
    records what observing a point costs.
    """
    from repro.obs.summary import summarize_trace
    from repro.simulator.trace import Tracer

    problem = _problem(spec, s, message_size)
    topology = problem.machine.topology

    def observed_run() -> None:
        tracer = Tracer()
        run_broadcast(problem, algorithm, tracer=tracer)
        summarize_trace(tracer, topology=topology)

    timing = bench(observed_run, repeats=repeats, warmup=1)
    untraced = bench(
        lambda: run_broadcast(problem, algorithm), repeats=repeats, warmup=1
    )
    tracer = Tracer()
    run_broadcast(problem, algorithm, tracer=tracer)
    summary = bench(
        lambda: summarize_trace(tracer, topology=topology),
        repeats=repeats,
        warmup=0,
    )
    return _timed(
        f"traced/{algorithm}/{spec}/s={s}/L={message_size}", timing,
        extra={
            "records": len(tracer),
            "untraced_s": untraced.best_s,
            "summary_s": summary.best_s,
            "observed_vs_untraced": timing.best_s / untraced.best_s,
        },
    )


def _bench_cache_read(repeats: int) -> BenchResult:
    """Warm cache reads: open, verify and payload-check stored entries.

    What a warm ``report`` page pays per point before it renders: a body
    reads each stored result of a 256-point grid eight times, with the
    key the sweep executor passes (over 50 ms: shorter timings spread
    too far under host load to gate).
    """
    import tempfile

    from repro.sweep import ResultCache, SweepExecutor, SweepSpec

    points = SweepSpec(
        machines=("paragon:4x4", "paragon:8x8"),
        distributions=("E", "R"),
        s_values=(1, 2, 4, 8),
        message_sizes=(256, 1024, 4096, 16384),
        algorithms=("Br_Lin", "Br_xy_source", "2-Step", "MPI_AllGather"),
    ).points()
    keys = [point.key() for point in points]
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        SweepExecutor(jobs=1, cache=cache).run(points)
        reads = list(zip(points, keys)) * 8

        def body() -> None:
            for point, key in reads:
                if cache.load(point, key) is None:
                    raise RuntimeError(f"cache/warm-read: {key} missed")

        timing = bench(body, repeats=repeats, warmup=1)
        stored = sum(cache.path_for(key).stat().st_size for key in keys)
    return _timed(
        "cache/warm-read", timing,
        extra={"entries": len(points), "bytes": stored,
               "reads_per_s": len(reads) / timing.best_s},
    )


# -- suite definition ------------------------------------------------------

_POINT_ALGOS = ("PersAlltoAll", "Br_xy_source", "MPI_AllGather")

#: One ``schedule/…`` point per point algorithm, ~8,000 sends each, so
#: a run takes tens of milliseconds (shorter ones spread too far under
#: host load to gate); the T3D's MPI_AllGather is the pipelined ring.
_SCHEDULE_POINTS = (
    ("PersAlltoAll", "paragon:16x16", 32),
    ("Br_xy_source", "paragon:32x32", 64),
    ("MPI_AllGather", "t3d:128", 64),
)


def _definitions(quick: bool) -> List[Tuple[str, Callable[[], BenchResult]]]:
    """``(name, thunk)`` pairs; quick mode is a strict subset of full.

    Quick mode drops only the expensive 16×16 points — the surviving
    benchmarks keep *identical* workloads (lookup counts, round-trip
    iterations, repeats), so a quick CI run is directly comparable,
    name by name, against a full-mode baseline report.
    """
    repeats = 5
    lookups = 20_000
    builds = 4_000
    # Cold builds take a few milliseconds each, short enough for host
    # jitter to show; more repeats steady their minimum.
    build_repeats = 9
    iterations = 400
    defs: List[Tuple[str, Callable[[], BenchResult]]] = [
        (
            "route/paragon:16x16/lookups",
            lambda: _bench_route_lookup(lookups, repeats),
        ),
        (
            "route/paragon:16x16/build",
            lambda: _bench_route_build(
                "paragon:16x16", lambda: Mesh2D(16, 16), builds, build_repeats
            ),
        ),
        (
            "route/t3d:128/build",
            lambda: _bench_route_build(
                "t3d:128", lambda: Torus3D(*Torus3D.dims_for(128)), builds,
                build_repeats,
            ),
        ),
        (
            "pingpong/paragon:2x2",
            lambda: _bench_pingpong(iterations, repeats),
        ),
    ]
    for algorithm, spec, s in _SCHEDULE_POINTS:
        defs.append((
            f"schedule/{algorithm}/{spec}/s={s}/L=4096",
            lambda a=algorithm, sp=spec, ss=s: _bench_schedule(
                a, sp, ss, 4096, build_repeats
            ),
        ))
    grid = [("paragon:8x8", 16, 4096)]
    if not quick:
        grid.append(("paragon:16x16", 64, 4096))
    for spec, s, size in grid:
        for algorithm in _POINT_ALGOS:
            name = f"run/{algorithm}/{spec}/s={s}/L={size}"
            defs.append(
                (
                    name,
                    lambda a=algorithm, sp=spec, ss=s, sz=size: _bench_point(
                        a, sp, ss, sz, repeats
                    ),
                )
            )
    # Explicit fast-path points: same operating points as run/… but
    # forced to engine="fast" (run/… rides auto, which already takes
    # the fast path — these isolate it and record the engine speedup).
    for spec, s, size in grid:
        name = f"fastpath/PersAlltoAll/{spec}/s={s}/L={size}"
        defs.append(
            (
                name,
                lambda sp=spec, ss=s, sz=size: _bench_fastpath_point(
                    "PersAlltoAll", sp, ss, sz, repeats
                ),
            )
        )
    # One observed point guards the trace path: record rebuild, bulk
    # store and summary.
    defs.append(
        (
            "traced/Br_xy_source/paragon:8x8/s=16/L=4096",
            lambda: _bench_traced_point(
                "Br_xy_source", "paragon:8x8", 16, 4096, repeats
            ),
        )
    )
    defs.append(("cache/warm-read", lambda: _bench_cache_read(repeats)))
    if not quick:
        defs.append(
            ("fastpath/fig3-sweep/paragon:10x10",
             lambda: _bench_fastpath_sweep(3))
        )
    return defs


def run_suite(
    quick: bool = False,
    only: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the suite; returns the report dict (see :data:`SCHEMA`).

    ``only`` filters benchmark names by substring; ``progress`` (when
    given) is called with each benchmark name before it runs.
    """
    from dataclasses import replace

    results: List[BenchResult] = []
    for name, thunk in _definitions(quick):
        if only is not None and only not in name:
            continue
        if progress is not None:
            progress(name)
        # Bracket the benchmark with quick calibrations and keep the
        # faster one: on shared hosts the machine's effective speed
        # drifts minute to minute, so the proxy must be measured at
        # the same instant as the number it will normalize.
        cal_before = calibrate()
        result = thunk()
        cal_after = calibrate()
        results.append(
            replace(result, calibration_s=min(cal_before, cal_after))
        )
    return {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "quick": quick,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "calibration_s": calibrate(),
        "benchmarks": [r.to_dict() for r in results],
    }


def write_report(report: Dict[str, Any], path: "Path | str") -> Path:
    """Write ``report`` as pretty-printed JSON; returns the path."""
    out = Path(path)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return out


def load_report(path: "Path | str") -> Dict[str, Any]:
    """Load a report, checking the schema marker."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: not a {SCHEMA} report (schema={data.get('schema')!r})"
        )
    return data


# -- comparison ------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonRow:
    """One benchmark compared across two reports.

    ``ratio`` is calibration-normalized current/baseline wall-clock:
    1.0 = unchanged, < 1 faster, > 1 slower.  ``speedup`` is its
    inverse (the number humans quote).
    """

    name: str
    baseline_s: float
    current_s: float
    ratio: float
    regressed: bool

    @property
    def speedup(self) -> float:
        return 1.0 / self.ratio if self.ratio > 0 else float("inf")


@dataclass(frozen=True)
class Comparison:
    """Result of :func:`compare_reports`."""

    rows: Tuple[ComparisonRow, ...]
    tolerance: float
    calibration_ratio: float

    @property
    def regressions(self) -> Tuple[ComparisonRow, ...]:
        return tuple(r for r in self.rows if r.regressed)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def format_table(self) -> str:
        width = max((len(r.name) for r in self.rows), default=4)
        lines = [
            f"{'benchmark':<{width}}  {'baseline':>10}  {'current':>10}  "
            f"{'speedup':>8}  status",
            "-" * (width + 44),
        ]
        for r in self.rows:
            status = "REGRESSED" if r.regressed else "ok"
            lines.append(
                f"{r.name:<{width}}  {r.baseline_s:>9.4f}s  "
                f"{r.current_s:>9.4f}s  {r.speedup:>7.2f}x  {status}"
            )
        lines.append(
            f"(calibration ratio current/baseline = "
            f"{self.calibration_ratio:.3f}; tolerance {self.tolerance:.0%})"
        )
        return "\n".join(lines)


def compare_reports(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Comparison:
    """Compare two reports over their common benchmark names.

    Wall times are calibration-normalized before the ratio is formed,
    so a slower machine cancels out and only *relative* simulator cost
    moves the needle.  Per-benchmark calibrations (measured around each
    benchmark) are preferred when both reports carry them — they track
    load drift *within* a run; the report-level calibration is the
    fallback for older reports.  A row regresses when its normalized
    ratio exceeds ``1 + tolerance``.
    """
    cal_cur = float(current.get("calibration_s") or 0.0)
    cal_base = float(baseline.get("calibration_s") or 0.0)
    cal_ratio = (cal_cur / cal_base) if cal_cur > 0 and cal_base > 0 else 1.0
    base_by_name = {b["name"]: b for b in baseline.get("benchmarks", [])}
    rows = []
    for bench_dict in current.get("benchmarks", []):
        base = base_by_name.get(bench_dict["name"])
        if base is None:
            continue
        cur_s = float(bench_dict["wall_s"])
        base_s = float(base["wall_s"])
        row_cal_cur = float(bench_dict.get("calibration_s") or 0.0)
        row_cal_base = float(base.get("calibration_s") or 0.0)
        if row_cal_cur > 0 and row_cal_base > 0:
            row_ratio = row_cal_cur / row_cal_base
        else:
            row_ratio = cal_ratio
        ratio = (cur_s / row_ratio) / base_s if base_s > 0 else float("inf")
        rows.append(
            ComparisonRow(
                name=bench_dict["name"],
                baseline_s=base_s,
                current_s=cur_s,
                ratio=ratio,
                regressed=ratio > 1.0 + tolerance,
            )
        )
    return Comparison(
        rows=tuple(rows), tolerance=tolerance, calibration_ratio=cal_ratio
    )
