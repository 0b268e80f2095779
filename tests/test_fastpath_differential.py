"""Differential tests: the fast path bisimulates the event engine.

The fast path (:mod:`repro.fastpath`) promises *bit-identical* results
to the generator event engine — same virtual times, same metric
counters, same link utilization, down to the last float bit.  These
tests exercise that promise three ways:

* a seeded randomized grid over (machine, algorithm, distribution,
  source count, message length, seed, contention) comparing the two
  engines' canonical JSON byte-for-byte — including exception parity
  for combinations an algorithm rejects — and holding both against the
  contention-free model (:mod:`repro.core.predict`), which shares no
  code with them: equal to it where it claims exactness, never below
  it anywhere else;
* sweep-level agreement: serial and ``jobs=4`` executors forced to
  ``event``, ``fast`` and ``auto`` all produce the same results;
* cache-key neutrality: entries written by an event-engine sweep are
  served verbatim to a fast-engine sweep (and vice versa);
* traced replays: with a tracer attached, the fast path records the
  event engine's trace — equal ``(time, kind, fields)`` record lists and
  ``truncated`` flags under full, kind-filtered and size-limited
  tracers — and still returns the same result bytes.
"""

from __future__ import annotations

import json
import random

import pytest

import repro
from repro.core.predict import predict_broadcast_time
from repro.core.problem import BroadcastProblem
from repro.core.runner import run_broadcast
from repro.errors import ReproError
from repro.machines import machine_from_spec, paragon
from repro.machines.paragon import PARAGON_PARAMS
from repro.simulator.trace import Tracer
from repro.summation import left_sum
from repro.sweep import ResultCache, SweepExecutor, SweepSpec
from tests.conftest import model_is_exact

#: Pools the seeded sampler draws from.  Machines cover wormhole meshes,
#: a store-and-forward mesh, wormhole tori and the hypercube extension;
#: algorithms include mesh-only families (exception parity on t3d).
MACHINES = (
    "paragon:4x4",
    "paragon:8x8",
    "t3d:16",
    "t3d:32",
    "hypercube:16",
    "paragon:4x4+switching=store_and_forward",
)
DISTRIBUTIONS = ("E", "R", "Sq", "Dr", "C", "Rnd", "B")
ALGORITHMS = (
    "Br_Lin",
    "Br_Ring",
    "Br_xy_source",
    "Br_xy_dim",
    "2-Step",
    "PersAlltoAll",
    "MPI_AllGather",
    "MPI_Alltoall",
    "Naive_Independent",
    "Part_Lin",
    "Repos_Lin",
)


def _blob(result) -> str:
    """Canonical JSON rendering — the byte-identity yardstick."""
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


def _sample_points(n: int = 28, seed: int = 20260807):
    """Deterministic random grid sample; resamples invalid placements."""
    rng = random.Random(seed)
    points = []
    attempts = 0
    while len(points) < n and attempts < 40 * n:
        attempts += 1
        spec = rng.choice(MACHINES)
        machine = machine_from_spec(spec)
        dist = rng.choice(DISTRIBUTIONS)
        s = rng.randint(1, machine.p)
        try:
            sources = tuple(repro.get_distribution(dist).generate(machine, s))
        except ReproError:
            continue  # distribution rejects this s on this machine
        points.append(
            (
                spec,
                dist,
                rng.choice(ALGORITHMS),
                sources,
                rng.choice((64, 512, 1024, 4096)),
                rng.randint(0, 3),
                rng.random() < 0.25,  # contention on at ~1 in 4 points
            )
        )
    assert len(points) == n, "sampler failed to fill the grid"
    return points


_POINTS = _sample_points()
_IDS = [
    f"{spec}-{alg}-{dist}-s{len(sources)}-L{L}-seed{seed}"
    + ("-nocont" if not contention else "")
    for spec, dist, alg, sources, L, seed, contention in _POINTS
]


@pytest.mark.parametrize(
    "spec,dist,alg,sources,L,seed,contention", _POINTS, ids=_IDS
)
def test_fast_engine_matches_event_engine(
    spec, dist, alg, sources, L, seed, contention
):
    problem = BroadcastProblem(
        machine=machine_from_spec(spec), sources=sources, message_size=L
    )
    try:
        event = run_broadcast(
            problem, alg, seed=seed, contention=contention, engine="event"
        )
    except ReproError as exc:
        # Exception parity: whatever the event engine rejects, the fast
        # path must reject with the same exception class.
        with pytest.raises(type(exc)):
            run_broadcast(
                problem, alg, seed=seed, contention=contention, engine="fast"
            )
        return
    fast = run_broadcast(
        problem, alg, seed=seed, contention=contention, engine="fast"
    )
    assert _blob(fast) == _blob(event)
    predicted = predict_broadcast_time(problem, alg, seed=seed)
    if not contention and model_is_exact(problem):
        assert event.elapsed_us == pytest.approx(predicted, rel=1e-12, abs=0.0)
    else:
        assert event.elapsed_us >= predicted * (1 - 1e-12)


#: Tracer shapes the traced differential runs under: full capture, a
#: kind filter (the report heatmap's) and a limit that truncates.
TRACERS = {
    "full": lambda: Tracer(),
    "xfer-only": lambda: Tracer(kinds=("xfer",)),
    "limit50": lambda: Tracer(limit=50),
}


def _assert_traced_engines_agree(problem, alg, seed, contention, make_tracer):
    """Fast and event engine: equal records, truncation and result bytes."""
    event_tracer = make_tracer()
    try:
        event = run_broadcast(
            problem, alg, seed=seed, contention=contention, engine="event",
            tracer=event_tracer,
        )
    except ReproError as exc:
        with pytest.raises(type(exc)):
            run_broadcast(
                problem, alg, seed=seed, contention=contention,
                engine="fast", tracer=make_tracer(),
            )
        return
    fast_tracer = make_tracer()
    fast = run_broadcast(
        problem, alg, seed=seed, contention=contention, engine="fast",
        tracer=fast_tracer,
    )
    assert [(r.time, r.kind, r.fields) for r in fast_tracer] == [
        (r.time, r.kind, r.fields) for r in event_tracer
    ]
    assert fast_tracer.truncated == event_tracer.truncated
    assert _blob(fast) == _blob(event)


@pytest.mark.parametrize("tracer", sorted(TRACERS))
@pytest.mark.parametrize(
    "spec,dist,alg,sources,L,seed,contention", _POINTS, ids=_IDS
)
def test_traced_fast_engine_matches_event_engine(
    spec, dist, alg, sources, L, seed, contention, tracer
):
    problem = BroadcastProblem(
        machine=machine_from_spec(spec), sources=sources, message_size=L
    )
    _assert_traced_engines_agree(problem, alg, seed, contention, TRACERS[tracer])


@pytest.mark.parametrize("contention", [True, False], ids=["cont", "nocont"])
@pytest.mark.parametrize("alg", ["Br_Lin", "2-Step", "PersAlltoAll"])
def test_traced_store_and_forward_matches_event_engine(alg, contention):
    """The per-hop reservation chain traces identically (ad-hoc machine)."""
    machine = paragon(
        4, 4, params=PARAGON_PARAMS.with_overrides(switching="store_and_forward")
    )
    problem = BroadcastProblem(machine, (0, 5, 10, 15), message_size=1024)
    _assert_traced_engines_agree(problem, alg, 1, contention, TRACERS["full"])


@pytest.mark.parametrize(
    "kinds", [("span_begin",), ("span_end",), ("send", "recv")]
)
def test_partial_kind_filters_match_event_engine(kinds):
    """The fast path builds only the kinds the filter keeps, one by one."""
    problem = BroadcastProblem(
        machine_from_spec("paragon:4x4"), (0, 5, 10), message_size=512
    )
    _assert_traced_engines_agree(
        problem, "2-Step", 0, True, lambda: Tracer(kinds=kinds)
    )


#: Overhead-free parameter sets: sends issue at once (no overhead
#: timeout), and without receive overhead or copy cost a matched
#: receive completes at the instant it matches.
ZERO_OVERHEADS = {
    "send": {"t_send_overhead": 0.0},
    "recv": {"t_recv_overhead": 0.0, "t_mem_byte": 0.0},
    "both": {"t_send_overhead": 0.0, "t_recv_overhead": 0.0, "t_mem_byte": 0.0},
}


@pytest.mark.parametrize("contention", [True, False], ids=["cont", "nocont"])
@pytest.mark.parametrize("alg", ["Br_Lin", "PersAlltoAll", "Naive_Independent"])
@pytest.mark.parametrize("overheads", sorted(ZERO_OVERHEADS))
def test_zero_overhead_replay_matches_event_engine(overheads, alg, contention):
    """The kernel's zero-overhead branches trace and time as the engine."""
    machine = paragon(
        4, 4, params=PARAGON_PARAMS.with_overrides(**ZERO_OVERHEADS[overheads])
    )
    problem = BroadcastProblem(
        machine, (0, 5, 10, 15), message_size=1024,
        sizes={0: 64, 5: 4096, 10: 1024, 15: 16384},
    )
    _assert_traced_engines_agree(problem, alg, 1, contention, TRACERS["full"])


def test_warm_plan_cache_replay_matches_event_engine():
    """Cold lowering and warm cache-hit replays are equally bit-identical.

    The first runnable grid points each execute three times: event
    engine, fast with a cleared plan cache (a miss that lowers the
    schedule), and fast again (a hit replaying the cached plan).  All
    three must serialize byte-for-byte the same — the plan cache is an
    amortization, never an approximation.
    """
    from repro.fastpath import plancache

    plancache.clear()
    checked = 0
    for spec, dist, alg, sources, L, seed, contention in _POINTS:
        if checked >= 8:
            break
        problem = BroadcastProblem(
            machine=machine_from_spec(spec), sources=sources, message_size=L
        )
        try:
            event = run_broadcast(
                problem, alg, seed=seed, contention=contention, engine="event"
            )
        except ReproError:
            continue  # exception parity is covered by the grid test
        cold = run_broadcast(
            problem, alg, seed=seed, contention=contention, engine="fast"
        )
        warm = run_broadcast(
            problem, alg, seed=seed, contention=contention, engine="fast"
        )
        assert warm.debug["plan_cache"] == "hit"
        assert _blob(cold) == _blob(event)
        assert _blob(warm) == _blob(event)
        checked += 1
    assert checked == 8, "sampler starved the warm-replay check"


def test_fast_engine_matches_event_on_nonuniform_sizes():
    """Per-source byte tables flow through the fast path unchanged."""
    machine = machine_from_spec("paragon:4x4")
    sources = (0, 3, 7, 12)
    problem = BroadcastProblem(
        machine=machine,
        sources=sources,
        message_size=1024,
        sizes={0: 256, 3: 4096, 7: 64, 12: 1024},
    )
    event = run_broadcast(problem, "PersAlltoAll", seed=1, engine="event")
    fast = run_broadcast(problem, "PersAlltoAll", seed=1, engine="fast")
    assert _blob(fast) == _blob(event)


#: Naive_Independent sends twice between one pair of ranks in a round
#: whenever two roots' trees share an edge in one stage.  With
#: per-source sizes and contention off the smaller message can arrive
#: first, so a receiver's copy cost sums in match order, not op order.
COPY_ORDER_CASE = (
    "paragon:4x4",
    (0, 1, 4, 5, 8, 12, 14, 15),
    {0: 16384, 1: 64, 4: 16384, 5: 64, 8: 4096, 12: 64, 14: 64, 15: 16384},
    0,
)
#: Seeds of variants whose op-order total also differs in the last bit
#: under the compensated float sum() of Python 3.12+, where the case
#: above sums to the same total in either order.
COPY_ORDER_VARIANTS = (42, 78, 137, 161, 165)


def _copy_order_point(variant: int):
    """A seeded Naive_Independent point with 64 B / 16 KiB sources."""
    rng = random.Random(variant)
    spec = rng.choice(("paragon:4x4", "paragon:8x8", "t3d:16"))
    machine = machine_from_spec(spec)
    sources = tuple(sorted(rng.sample(range(machine.p), rng.randint(6, machine.p))))
    sizes = {src: rng.choice((64, 16384)) for src in sources}
    return spec, sources, sizes, rng.randint(0, 3)


def _copy_per_rank(schedule, receives):
    """Per-rank copy cost of ``(rank, nbytes, round)`` receives, in order."""
    params = schedule.problem.machine.params
    per_rank = [0.0] * schedule.problem.p
    for rank, nbytes, rnd in receives:
        per_rank[rank] += params.copy_cost(
            nbytes, collective=schedule.round_collective[rnd]
        )
    return per_rank


@pytest.mark.parametrize(
    "spec,sources,sizes,seed",
    [COPY_ORDER_CASE] + [_copy_order_point(v) for v in COPY_ORDER_VARIANTS],
    ids=["paragon:4x4-case"] + [f"v{v}" for v in COPY_ORDER_VARIANTS],
)
def test_copy_cost_follows_match_order(spec, sources, sizes, seed):
    """Copy cost sums in the order receives match, as on the engine."""
    problem = BroadcastProblem(
        machine=machine_from_spec(spec),
        sources=sources,
        message_size=1024,
        sizes=sizes,
    )
    tracer = Tracer(kinds=("recv",))
    event = run_broadcast(
        problem, "Naive_Independent", seed=seed, contention=False,
        engine="event", tracer=tracer,
    )
    schedule = repro.get_algorithm("Naive_Independent").build_schedule(problem)
    in_match_order = _copy_per_rank(schedule, [
        (r.fields["rank"], r.fields["nbytes"], r.fields["tag"]) for r in tracer
    ])
    in_op_order = _copy_per_rank(schedule, [
        (dst, problem.nbytes(msgset), rnd)
        for dst, msgset, rnd in zip(
            schedule.send_dst, schedule.send_msgset, schedule.send_round
        )
    ])
    # The engine sums in match order, and the case is sensitive to it.
    assert left_sum(in_match_order) == event.metrics.total_copy_time
    assert in_op_order != in_match_order
    fast = run_broadcast(
        problem, "Naive_Independent", seed=seed, contention=False,
        engine="fast",
    )
    assert _blob(fast) == _blob(event)


#: Sweep-level grid: both machine families, four algorithms, two seeds.
SWEEP_GRID = SweepSpec(
    machines=("paragon:4x4", "t3d:16"),
    distributions=("E", "R"),
    s_values=(4,),
    message_sizes=(256,),
    algorithms=("Br_Lin", "2-Step", "PersAlltoAll", "MPI_AllGather"),
    seeds=(0, 1),
)


@pytest.fixture(scope="module")
def sweep_points():
    return SWEEP_GRID.points()


@pytest.fixture(scope="module")
def event_serial_blobs(sweep_points):
    executor = SweepExecutor(jobs=1, engine="event")
    return [_blob(r) for r in executor.run(sweep_points)]


@pytest.mark.parametrize("engine", ["auto", "fast"])
@pytest.mark.parametrize("jobs", [1, 4])
def test_sweep_engine_and_jobs_agree(
    sweep_points, event_serial_blobs, engine, jobs
):
    """Serial/parallel x engine: every combination is byte-identical."""
    executor = SweepExecutor(jobs=jobs, engine=engine)
    got = [_blob(r) for r in executor.run(sweep_points)]
    assert got == event_serial_blobs
    assert executor.last_report.computed == len(sweep_points)


def test_cache_entries_shared_across_engines(
    sweep_points, event_serial_blobs, tmp_path
):
    """Engine choice is cache-key neutral: entries are interchangeable."""
    writer = SweepExecutor(jobs=1, cache=ResultCache(tmp_path), engine="event")
    assert [_blob(r) for r in writer.run(sweep_points)] == event_serial_blobs
    assert writer.last_report.computed == len(sweep_points)

    reader = SweepExecutor(jobs=1, cache=ResultCache(tmp_path), engine="fast")
    assert [_blob(r) for r in reader.run(sweep_points)] == event_serial_blobs
    assert reader.last_report.cached == len(sweep_points)
    assert reader.last_report.computed == 0
