"""The one-pass trace summary equals the multi-pass reference, byte for byte.

:func:`repro.obs.summary.summarize_trace` walks a trace's records once
(kind counts, each wire link's reserved time, the span records) and
pairs spans by a frozenset of their fields.  ``tests/summary_reference.py``
keeps the multi-pass summary it replaced.  ``json.dumps`` of the two
must be equal, which pins key order and every float bit, on:

* the trace-golden points, traced on the event engine and the fast path;
* a faulted run with recovery (recovery spans, ``xfer_lost``);
* traces truncated by ``Tracer(limit=50)`` and filtered by
  ``Tracer(kinds=("xfer",))``;
* seeded synthetic traces with nested and interleaved spans, tied begin
  times, zero-length and negative-zero intervals and unmatched ends.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.problem import BroadcastProblem
from repro.core.runner import run_broadcast
from repro.machines import machine_from_spec
from repro.obs.summary import phase_stats, span_intervals, summarize_trace
from repro.simulator.trace import SPAN_BEGIN, SPAN_END, Tracer
from tests import summary_reference as reference
from tests.test_obs import GOLDEN, _run_point

#: Tracer shapes of the real traces: full capture, a limit that
#: truncates, and the report heatmap's kind filter.
TRACERS = {
    "full": lambda: Tracer(),
    "limit50": lambda: Tracer(limit=50),
    "xfer-only": lambda: Tracer(kinds=("xfer",)),
}


def _assert_matches_reference(tracer, topology):
    """Summary, intervals and phase table equal the reference's as JSON.

    Both read a snapshot of the records: a faulted run's abandoned
    processes can still add ``span_end`` records to the live tracer
    when the collector finalizes them.
    """
    snapshot = Tracer()
    snapshot.extend(list(tracer.records))
    snapshot.truncated = tracer.truncated
    tracer = snapshot
    for topo in (topology, None):
        new = summarize_trace(tracer, topology=topo)
        old = reference.summarize_trace(tracer, topology=topo)
        assert json.dumps(new) == json.dumps(old)
    intervals = span_intervals(tracer.records)
    assert json.dumps(intervals) == json.dumps(
        reference.span_intervals(tracer.records)
    )
    assert json.dumps(phase_stats(intervals)) == json.dumps(
        reference.phase_stats(intervals)
    )


@pytest.mark.parametrize("shape", sorted(TRACERS))
@pytest.mark.parametrize("engine", ["event", "fast"])
@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_traces_match_reference(key, engine, shape):
    tracer = TRACERS[shape]()
    machine, _ = _run_point(key, tracer=tracer, engine=engine)
    assert tracer.truncated is (shape == "limit50")
    _assert_matches_reference(tracer, machine.topology)


def test_faulted_recovered_run_matches_reference():
    machine = machine_from_spec("paragon:4x4")
    problem = BroadcastProblem(
        machine=machine, sources=(0, 5), message_size=512
    )
    tracer = Tracer()
    result = run_broadcast(
        problem, "Br_Lin", tracer=tracer, faults="node:5", recover=True
    )
    assert result.recovery_rounds
    summary = summarize_trace(tracer, topology=machine.topology)
    assert summary["lost_transfers"] > 0
    assert {"recovery-gossip", "recovery-serve"} <= set(summary["phases"])
    _assert_matches_reference(tracer, machine.topology)


def _synthetic_trace(seed, topology):
    """Random records of every kind, spans opened and closed out of order."""
    rng = random.Random(seed)
    tracer = Tracer()
    open_spans = []
    time = 0.0
    for _ in range(600):
        time += rng.choice([0.0, 0.0, 0.5, 1.25, 3.0 / 7.0])
        if rng.random() < 0.02:  # a clock restart, as recovery does
            time = rng.choice([0.0, time / 2.0])
        roll = rng.random()
        if roll < 0.25:
            fields = {
                "name": rng.choice(["a", "b", "recovery-gossip"]),
                "rank": rng.randrange(3),
            }
            if rng.random() < 0.5:
                fields["round"] = rng.randrange(2)
            tracer.record(time, SPAN_BEGIN, fields)
            open_spans.append(fields)
        elif roll < 0.45:
            if open_spans and rng.random() < 0.9:
                fields = open_spans.pop(rng.randrange(len(open_spans)))
            else:  # an end no begin opened
                fields = {"name": "stray", "rank": rng.randrange(3)}
            items = list(fields.items())
            rng.shuffle(items)
            tracer.record(time, SPAN_END, dict(items))
        elif roll < 0.8:
            start = time + rng.choice([0.0, 0.1, 2.5])
            finish = start + rng.choice([0.0, 0.3, 1.0 / 3.0, 7.5])
            if rng.random() < 0.05:
                start, finish = 0.0, -0.0
            hops = rng.randrange(1, 5)
            links = tuple(rng.randrange(topology.num_links) for _ in range(hops))
            tracer.record(time, "xfer", {
                "src": 0, "dst": 1, "nbytes": 8, "links": links,
                "start": start, "finish": finish,
            })
        else:
            kind = rng.choice(["send", "recv", "xfer_lost"])
            tracer.record(time, kind, {"src": rng.randrange(3)})
    return tracer


@pytest.mark.parametrize("seed", range(8))
def test_synthetic_traces_match_reference(seed):
    topology = machine_from_spec("paragon:4x4").topology
    tracer = _synthetic_trace(seed, topology)
    assert any(r.kind == SPAN_END for r in tracer.records)
    _assert_matches_reference(tracer, topology)


def test_signed_zeros_match_reference():
    """Ties between ``0.0`` and ``-0.0`` resolve as in the reference.

    A ``-0.0`` reservation sums onto ``0.0``; a phase's max, first and
    last keep the earlier of two equal values.
    """
    tracer = Tracer()
    tracer.record(0.0, "xfer", {"links": (3,), "start": 0.0, "finish": -0.0})
    spans = [("a", 0.0, 0.0), ("a", 0.0, -0.0), ("b", 0.0, 1.0), ("b", -0.0, 1.0)]
    for rank, (name, begin, end) in enumerate(spans):
        tracer.record(begin, SPAN_BEGIN, {"name": name, "rank": rank})
        tracer.record(end, SPAN_END, {"name": name, "rank": rank})
    summary = summarize_trace(tracer)
    (entry,) = summary["hottest_links"]
    assert json.dumps(entry["busy_us"]) == "0.0"
    a, b = summary["phases"]["a"], summary["phases"]["b"]
    assert json.dumps([a["max_us"], a["last_us"], b["first_us"]]) == (
        "[0.0, 0.0, 0.0]"
    )
    _assert_matches_reference(tracer, None)


def test_record_fields_are_not_mutated():
    """Summaries read records; the records stay as the run left them."""
    tracer = Tracer()
    tracer.record(0.0, SPAN_BEGIN, {"name": "a", "rank": 0})
    tracer.record(2.0, SPAN_END, {"rank": 0, "name": "a"})
    before = [(r.time, r.kind, dict(r.fields)) for r in tracer.records]
    summarize_trace(tracer)
    assert [(r.time, r.kind, r.fields) for r in tracer.records] == before
