"""Observed fast-path points are summarized from the replay log, exactly.

:func:`repro.fastpath.evaluator.summarize_replay` digests the replay
kernel's event log straight into the ``repro-obs/1`` summary, without
building a :class:`~repro.simulator.trace.TraceRecord`.  It must give
what the records path gives: ``json.dumps`` of its summary (key order
and float bits included) equals ``tests/summary_reference.py``'s
summary of the event engine's records, on

* the trace-golden points;
* every registered algorithm on a Paragon mesh and a T3D torus;
* the traced half of the randomized differential grid;
* a log whose span slices start at the same instant and close in
  another order, where the phase totals depend on the close order.

It builds no record at all, falls back to the records path (truncation
included) when a full tracer could not keep the whole trace, and
observed sweeps write the same ``<key>.obs.json`` siblings on both
engines and as the records path did: ``tests/golden/observation_golden.json``
holds the sha256 of each sibling's body (code fingerprint masked)
recorded when every observed point was summarized from records.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

import repro.fastpath.evaluator as evaluator
from repro.core.algorithms import get_algorithm, list_algorithms
from repro.core.problem import BroadcastProblem
from repro.core.runner import observe_broadcast, run_broadcast
from repro.errors import ReproError
from repro.fastpath import bind_plan, lower_schedule
from repro.fastpath.kernel import LOG_BEGIN, LOG_END
from repro.machines import machine_from_spec
from repro.obs.summary import summarize_trace
from repro.simulator.trace import TraceRecord, Tracer
from repro.sweep import ResultCache, SweepExecutor, SweepSpec
from repro.sweep.executor import evaluate_point
from repro.sweep.spec import SweepPoint, code_fingerprint
from tests import summary_reference as reference
from tests.test_fastpath_differential import _IDS, _POINTS
from tests.test_obs import GOLDEN

OBS_GOLDEN_PATH = Path(__file__).parent / "golden" / "observation_golden.json"


def _blob(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


def _assert_log_summary_matches(problem, algorithm, seed=0, contention=True):
    """The fast path's log summary equals the reference's, byte for byte.

    The reference digests the event engine's records of the same run;
    the results must agree too.  Whatever the event engine rejects, the
    observed fast path rejects with the same exception class.
    """
    tracer = Tracer()
    try:
        event = run_broadcast(
            problem, algorithm, seed=seed, contention=contention,
            tracer=tracer, engine="event",
        )
    except ReproError as exc:
        with pytest.raises(type(exc)):
            observe_broadcast(
                problem, algorithm, seed=seed, contention=contention,
                engine="fast",
            )
        return False
    fast, summary = observe_broadcast(
        problem, algorithm, seed=seed, contention=contention, engine="fast"
    )
    assert fast.debug["engine"] == "fast"
    assert _blob(fast) == _blob(event)
    want = reference.summarize_trace(tracer, topology=problem.machine.topology)
    assert json.dumps(summary) == json.dumps(want)
    return True


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_points_summarize_from_the_log(key):
    spec, algorithm, s_part, l_part, seed_part = key.split("|")
    problem = BroadcastProblem(
        machine=machine_from_spec(spec),
        sources=tuple(range(int(s_part.split("=")[1]))),
        message_size=int(l_part.split("=")[1]),
    )
    assert _assert_log_summary_matches(
        problem, algorithm, seed=int(seed_part.split("=")[1])
    )


@pytest.mark.parametrize("algorithm", list_algorithms())
def test_every_algorithm_summarizes_from_the_log(algorithm):
    """Each algorithm, on a mesh and a torus it runs on, at two source
    counts and a T3D seed whose placement is not the identity."""
    ran = 0
    for spec, seed in (("paragon:6x5", 0), ("t3d:32", 3)):
        machine = machine_from_spec(spec)
        for s in (1, 7):
            problem = BroadcastProblem(
                machine=machine,
                sources=tuple(range(0, machine.p, machine.p // s))[:s],
                message_size=1024,
            )
            ran += _assert_log_summary_matches(problem, algorithm, seed=seed)
    assert ran, f"{algorithm} ran on no machine"


@pytest.mark.parametrize(
    "spec,dist,alg,sources,L,seed,contention", _POINTS, ids=_IDS
)
def test_differential_grid_summarizes_from_the_log(
    spec, dist, alg, sources, L, seed, contention
):
    problem = BroadcastProblem(
        machine=machine_from_spec(spec), sources=sources, message_size=L
    )
    _assert_log_summary_matches(problem, alg, seed=seed, contention=contention)


def test_tied_span_starts_sum_in_close_order():
    """Slices that start together are summed in the order they closed.

    Three round-0 slices start at t = 0; ranks 1 and 2 close at 1.0,
    rank 0 at 1e16.  In close order the phase total is
    ``1.0 + 1.0 + 1e16``; in begin order ``1e16 + 1.0 + 1.0`` would
    round both ones away.
    """
    problem = BroadcastProblem(
        machine=machine_from_spec("paragon:4x4"), sources=(0, 5),
        message_size=256,
    )
    plan = lower_schedule(get_algorithm("Br_Lin").build_schedule(problem))
    binding = bind_plan(plan, problem.machine, 0)
    rounds = plan.num_rounds
    log = [(LOG_BEGIN, rank * rounds, 0.0, 0.0, 0.0) for rank in range(3)]
    log += [
        (LOG_END, 1 * rounds, 1.0, 0.0, 0.0),
        (LOG_END, 2 * rounds, 1.0, 0.0, 0.0),
        (LOG_END, 0 * rounds, 1e16, 0.0, 0.0),
    ]
    topology = problem.machine.topology
    summary = evaluator.summarize_replay(log, plan, binding, topology)
    (phase,) = summary["phases"].values()
    assert phase["total_us"] == 1.0 + 1.0 + 1e16 != 1e16 + 1.0 + 1.0
    tracer = Tracer()
    evaluator.record_trace(log, plan, binding, tracer)
    assert json.dumps(summary) == json.dumps(
        reference.summarize_trace(tracer, topology=topology)
    )


def _payload(algorithm="Br_xy_source"):
    return SweepPoint(
        machine="paragon:8x8", sources=tuple(range(0, 64, 4)),
        message_size=1024, algorithm=algorithm,
    ).payload()


def test_observed_fast_point_builds_no_trace_record(monkeypatch):
    built = []
    real_init = TraceRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(TraceRecord, "__init__", counting_init)
    for engine in ("auto", "fast"):
        _, _, observation = evaluate_point(_payload(), engine, observe=True)
        assert observation["summary"]["kinds"]["xfer"] > 0
    assert built == []
    # The counter sees the records path: the same point traced.
    point = SweepPoint.from_payload(_payload())
    run_broadcast(point.build_problem(), point.algorithm, tracer=Tracer())
    assert len(built) == sum(observation["summary"]["kinds"].values())


def test_trace_past_the_limit_summarizes_the_kept_records(monkeypatch):
    """A run whose records a full tracer could not all keep is summarized
    from the records it does keep, ``truncated`` included, exactly as
    the records path summarizes them.  The limit is lowered instead of
    running a million-record point."""
    point = SweepPoint.from_payload(_payload("2-Step"))
    problem = point.build_problem()
    full = Tracer()
    run_broadcast(problem, point.algorithm, tracer=full, engine="event")
    records = len(full)
    for limit, truncated in ((records, False), (records - 1, True), (50, True)):
        monkeypatch.setattr(
            evaluator, "Tracer", functools.partial(Tracer, limit=limit)
        )
        _, summary = observe_broadcast(problem, point.algorithm, engine="fast")
        kept = Tracer(limit=limit)
        run_broadcast(problem, point.algorithm, tracer=kept, engine="event")
        assert kept.truncated is truncated
        assert summary["truncated"] is truncated
        assert json.dumps(summary) == json.dumps(
            reference.summarize_trace(kept, topology=problem.machine.topology)
        )
        assert json.dumps(summary) == json.dumps(
            summarize_trace(kept, topology=problem.machine.topology)
        )


#: The observed grids whose siblings the golden pins: both machine
#: families, every distribution kind's extremes, two seeds on the T3D.
OBS_GRIDS = (
    SweepSpec(
        machines=("paragon:6x5",),
        distributions=("E", "R"),
        s_values=(3, 8),
        message_sizes=(1024,),
        algorithms=("Br_Lin", "Br_xy_source", "Br_xy_dim", "2-Step",
                    "PersAlltoAll", "Repos_xy_source", "Part_xy_source"),
    ),
    SweepSpec(
        machines=("t3d:32",),
        distributions=("E", "R"),
        s_values=(3, 8),
        message_sizes=(1024,),
        algorithms=("Br_Lin", "MPI_AllGather", "MPI_Alltoall", "Br_Ring"),
        seeds=(0, 2),
    ),
)


def _sibling_digest(path: Path) -> str:
    """sha256 of a sibling's body with the code fingerprint masked."""
    _, _, body = path.read_text().partition("\n")
    return hashlib.sha256(
        body.replace(code_fingerprint(), "<code>").encode()
    ).hexdigest()


def _point_id(point: SweepPoint) -> str:
    payload = point.payload()
    del payload["code"]
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_observed_sweeps_write_the_recorded_siblings(tmp_path):
    points = [point for grid in OBS_GRIDS for point in grid.points()]
    digests = {}
    for engine in ("fast", "event"):
        cache = tmp_path / engine
        SweepExecutor(observe=True, engine=engine,
                      cache=ResultCache(cache)).run(points)
        digests[engine] = {
            _point_id(point): _sibling_digest(
                next(cache.rglob(f"{point.key()}.obs.json"))
            )
            for point in points
        }
    assert digests["fast"] == digests["event"]
    assert digests["fast"] == json.loads(OBS_GOLDEN_PATH.read_text())
