"""The observability layer: spans, Chrome export, link stats, roll-ups.

The load-bearing guarantees tested here:

* spans pair back into intervals and nest correctly in the exported
  Chrome JSON (begin/end discipline per rank track);
* observability is **free when off** — a traced run returns the exact
  same result JSON as an untraced one (pinned per point by the
  ``tests/golden/trace_golden.json`` fixture, alongside the canonical
  trace hash itself, which both the event engine and the fast path
  reproduce);
* truncated traces say so in the export metadata and warn once.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import repro.obs.chrome as chrome_module
from repro.core.problem import BroadcastProblem
from repro.core.runner import run_broadcast
from repro.machines import machine_from_spec
from repro.obs.chrome import (
    LINKS_PID,
    TRACE_SCHEMA,
    canonical_json,
    export_chrome_trace,
    write_chrome_trace,
)
from repro.obs.linkstats import LinkUsage, link_usage, render_link_heatmap
from repro.obs.summary import (
    aggregate_observations,
    phase_stats,
    render_rollup,
    render_sweep_rollup,
    span_intervals,
    summarize_trace,
)
from repro.simulator.engine import Engine
from repro.simulator.trace import NULL_SPAN, TraceRecord, Tracer

GOLDEN_PATH = Path(__file__).parent / "golden" / "trace_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _run_point(key: str, tracer=None, engine="auto"):
    spec, algorithm, s_part, L_part, seed_part = key.split("|")
    s = int(s_part.split("=")[1])
    L = int(L_part.split("=")[1])
    seed = int(seed_part.split("=")[1])
    machine = machine_from_spec(spec)
    problem = BroadcastProblem(
        machine=machine, sources=tuple(range(s)), message_size=L
    )
    return machine, run_broadcast(
        problem, algorithm, seed=seed, tracer=tracer, engine=engine
    )


def _reference_overlaps(series, start, finish, bin_us):
    """Add interval ``[start, finish)``'s per-bin overlap to ``series``."""
    if finish <= start:
        return
    first = int(start / bin_us)
    last = min(int(finish / bin_us), len(series) - 1)
    for b in range(first, last + 1):
        lo = max(start, b * bin_us)
        hi = min(finish, (b + 1) * bin_us)
        if hi > lo:
            series[b] += (hi - lo) / bin_us


def _reference_link_usage(records, *, topology=None):
    """``link_usage`` binning every interval again for each link it holds.

    The reference the per-transfer binning must match bit for bit.
    """
    xfers = [r for r in records if r.kind == "xfer"]
    horizon = max((r.fields["finish"] for r in xfers), default=0.0)
    bins = 60
    bin_us = horizon / bins
    first_wire = 2 * topology.num_nodes if topology is not None else 0
    busy, queue = {}, {}
    for r in xfers:
        for link in r.fields["links"]:
            if link < first_wire:
                continue
            if link not in busy:
                busy[link] = [0.0] * bins
                queue[link] = [0.0] * bins
            _reference_overlaps(busy[link], r.fields["start"],
                                r.fields["finish"], bin_us)
            _reference_overlaps(queue[link], r.time, r.fields["start"],
                                bin_us)
    return LinkUsage(bin_us=bin_us, bins=bins, busy=busy, queue=queue)


def _traced(machine_spec="paragon:4x4", algorithm="Br_Lin", s=4, L=512):
    machine = machine_from_spec(machine_spec)
    problem = BroadcastProblem(
        machine=machine, sources=tuple(range(s)), message_size=L
    )
    tracer = Tracer()
    result = run_broadcast(problem, algorithm, tracer=tracer)
    return machine, tracer, result


class TestEngineSpan:
    def test_null_span_without_tracer(self):
        engine = Engine()
        assert engine.span("anything", rank=3) is NULL_SPAN

    def test_span_records_begin_and_end(self):
        tracer = Tracer()
        engine = Engine(tracer=tracer)
        with engine.span("fold", rank=1, round=2):
            pass
        kinds = [r.kind for r in tracer]
        assert kinds == ["span_begin", "span_end"]
        assert tracer.records[0].fields == {"name": "fold", "rank": 1, "round": 2}
        assert tracer.records[1].fields == tracer.records[0].fields

    def test_kind_filtered_tracer_drops_spans(self):
        tracer = Tracer(kinds=("send", "recv"))
        engine = Engine(tracer=tracer)
        with engine.span("fold"):
            pass
        assert len(tracer) == 0


class TestSpanIntervals:
    def test_pairs_in_begin_order(self):
        records = [
            TraceRecord(0.0, "span_begin", {"name": "a", "rank": 0}),
            TraceRecord(1.0, "span_begin", {"name": "a", "rank": 1}),
            TraceRecord(2.0, "span_end", {"name": "a", "rank": 1}),
            TraceRecord(5.0, "span_end", {"name": "a", "rank": 0}),
        ]
        intervals = span_intervals(records)
        assert [(i["rank"], i["start"], i["end"]) for i in intervals] == [
            (0, 0.0, 5.0),
            (1, 1.0, 2.0),
        ]

    def test_unmatched_begin_yields_no_interval(self):
        records = [TraceRecord(0.0, "span_begin", {"name": "a", "rank": 0})]
        assert span_intervals(records) == []

    def test_pairs_equal_fields_in_any_insertion_order(self):
        """The pairing key is the field set, not the dict's item order."""
        records = [
            TraceRecord(0.0, "span_begin", {"name": "a", "rank": 0, "round": 1}),
            TraceRecord(4.0, "span_end", {"round": 1, "rank": 0, "name": "a"}),
        ]
        assert span_intervals(records) == [
            {"name": "a", "rank": 0, "round": 1, "start": 0.0, "end": 4.0}
        ]

    def test_nested_spans_with_one_key_pair_lifo(self):
        """An end closes the latest open begin of its key."""
        records = [
            TraceRecord(0.0, "span_begin", {"name": "a", "rank": 0}),
            TraceRecord(1.0, "span_begin", {"rank": 0, "name": "a"}),
            TraceRecord(3.0, "span_end", {"name": "a", "rank": 0}),
            TraceRecord(7.0, "span_end", {"rank": 0, "name": "a"}),
        ]
        intervals = span_intervals(records)
        assert [(i["start"], i["end"]) for i in intervals] == [
            (0.0, 7.0),
            (1.0, 3.0),
        ]

    def test_every_round_of_a_run_is_spanned(self):
        machine, tracer, result = _traced()
        intervals = span_intervals(tracer)
        # One span per (rank, round) plan entry, all named by phase.
        assert intervals
        assert all(i["name"] == "halving" for i in intervals)
        assert all(i["end"] >= i["start"] for i in intervals)
        # Spans cover the whole run: the last one ends at the finish.
        assert max(i["end"] for i in intervals) == result.elapsed_us

    def test_phase_stats_aggregation(self):
        machine, tracer, _ = _traced()
        stats = phase_stats(span_intervals(tracer))
        entry = stats["halving"]
        assert entry["count"] > 0
        assert entry["max_us"] <= entry["total_us"]
        assert entry["mean_us"] == pytest.approx(
            entry["total_us"] / entry["count"]
        )


class TestChromeExport:
    def test_schema_and_structure(self):
        machine, tracer, _ = _traced()
        trace = export_chrome_trace(tracer, topology=machine.topology)
        assert trace["otherData"]["schema"] == TRACE_SCHEMA
        assert trace["otherData"]["truncated"] is False
        assert trace["displayTimeUnit"] == "ms"
        assert all("ph" in e and "pid" in e for e in trace["traceEvents"])

    def test_one_process_per_rank_plus_links(self):
        machine, tracer, _ = _traced()
        trace = export_chrome_trace(tracer, topology=machine.topology)
        process_names = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        # Every rank that did anything has a named process track.
        rank_pids = [pid for pid in process_names if pid != LINKS_PID]
        assert rank_pids and all(
            process_names[pid] == f"rank {pid}" for pid in rank_pids
        )
        assert process_names[LINKS_PID] == "links"

    def test_spans_nest_correctly_per_track(self):
        machine, tracer, _ = _traced(algorithm="2-Step", s=6)
        trace = export_chrome_trace(tracer, topology=machine.topology)
        stacks = {}
        for event in trace["traceEvents"]:
            key = (event["pid"], event.get("tid", 0))
            if event["ph"] == "B":
                stacks.setdefault(key, []).append(event["name"])
            elif event["ph"] == "E":
                assert stacks.get(key), f"E without B on {key}"
                assert stacks[key].pop() == event["name"]
        assert all(not stack for stack in stacks.values())

    def test_link_tracks_are_wire_links_only(self):
        machine, tracer, _ = _traced()
        trace = export_chrome_trace(tracer, topology=machine.topology)
        first_wire = 2 * machine.topology.num_nodes
        link_tids = {
            e["tid"]
            for e in trace["traceEvents"]
            if e["pid"] == LINKS_PID and e["ph"] == "X"
        }
        assert link_tids
        assert all(tid >= first_wire for tid in link_tids)

    def test_canonical_json_is_deterministic(self):
        machine, tracer, _ = _traced()
        machine2, tracer2, _ = _traced()
        a = canonical_json(export_chrome_trace(tracer, topology=machine.topology))
        b = canonical_json(
            export_chrome_trace(tracer2, topology=machine2.topology)
        )
        assert a == b

    def test_write_warns_once_on_truncation(self, tmp_path, monkeypatch):
        monkeypatch.setattr(chrome_module, "_truncation_warned", False)
        tracer = Tracer(limit=10)
        engine = Engine(tracer=tracer)
        for i in range(20):
            with engine.span("x", rank=0, round=i):
                pass
        assert tracer.truncated
        with pytest.warns(RuntimeWarning, match="capped"):
            trace = write_chrome_trace(tmp_path / "t.json", tracer)
        assert trace["otherData"]["truncated"] is True
        on_disk = json.loads((tmp_path / "t.json").read_text())
        assert on_disk["otherData"]["truncated"] is True
        # Second export stays silent (warn once per process).
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            write_chrome_trace(tmp_path / "t2.json", tracer)

    def test_recovery_spans_get_their_own_thread(self):
        records = [
            TraceRecord(0.0, "span_begin", {"name": "recovery-gossip", "rank": 0}),
            TraceRecord(1.0, "span_end", {"name": "recovery-gossip", "rank": 0}),
        ]
        tracer = Tracer()
        for r in records:
            tracer.record(r.time, r.kind, r.fields)
        trace = export_chrome_trace(tracer)
        begin = next(e for e in trace["traceEvents"] if e["ph"] == "B")
        assert begin["tid"] == chrome_module.RECOVERY_TID


class TestGoldenTraces:
    """Pin exported traces AND traced-run results by sha256."""

    @pytest.mark.parametrize("engine", ["event", "fast"])
    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_trace_and_result_match_golden(self, key, engine):
        tracer = Tracer()
        machine, result = _run_point(key, tracer=tracer, engine=engine)
        trace = export_chrome_trace(tracer, topology=machine.topology)
        blob = canonical_json(trace)
        expect = GOLDEN[key]
        assert len(trace["traceEvents"]) == expect["events"]
        assert hashlib.sha256(blob.encode()).hexdigest() == expect["trace_sha256"]
        result_blob = json.dumps(
            result.to_dict(), sort_keys=True, separators=(",", ":")
        )
        assert (
            hashlib.sha256(result_blob.encode()).hexdigest()
            == expect["result_sha256"]
        )

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_observability_off_is_byte_identical(self, key):
        """The traced result equals the untraced result, bit for bit."""
        _, traced = _run_point(key, tracer=Tracer())
        _, untraced = _run_point(key, tracer=None)
        a = json.dumps(traced.to_dict(), sort_keys=True, separators=(",", ":"))
        b = json.dumps(untraced.to_dict(), sort_keys=True, separators=(",", ":"))
        assert a == b


class TestLinkStats:
    def test_usage_from_trace(self):
        machine, tracer, _ = _traced()
        usage = link_usage(tracer, topology=machine.topology)
        assert usage.bins == 60
        assert usage.busy  # something moved
        first_wire = 2 * machine.topology.num_nodes
        assert all(link >= first_wire for link in usage.busy)
        # Busy fractions are fractions.
        for series in usage.busy.values():
            assert all(0.0 <= v <= 1.0 + 1e-9 for v in series)

    def test_empty_trace(self):
        usage = link_usage(Tracer())
        assert usage.bins == 0
        assert render_link_heatmap(usage) == "(no traced transfers)"

    def test_heatmap_renders_busiest_rows(self):
        machine, tracer, _ = _traced()
        usage = link_usage(tracer, topology=machine.topology)
        art = render_link_heatmap(usage, topology=machine.topology, k=3)
        lines = art.splitlines()
        assert "link utilization" in lines[0]
        assert len(lines) == 1 + min(3, len(usage.busy))
        assert all("|" in line for line in lines[1:])

    @pytest.mark.parametrize("point", [
        ("paragon:10x10", "wormhole", "Br_Lin", 30, 4096),
        ("paragon:10x10", "store_and_forward", "2-Step", 20, 4096),
        ("t3d:32", "wormhole", "Br_Lin", 12, 2048),
    ], ids=["paragon-wormhole", "paragon-store-and-forward", "t3d"])
    def test_traces_match_the_per_link_reference(self, point):
        spec, switching, algorithm, s, L = point
        machine = machine_from_spec(spec)
        if switching != "wormhole":
            from repro.machines.paragon import PARAGON_PARAMS, paragon

            machine = paragon(10, 10, params=PARAGON_PARAMS.with_overrides(
                switching=switching))
        problem = BroadcastProblem(
            machine=machine, sources=tuple(range(s)), message_size=L
        )
        tracer = Tracer(kinds=("xfer",))
        run_broadcast(problem, algorithm, tracer=tracer)
        usage = link_usage(tracer.records, topology=machine.topology)
        want = _reference_link_usage(tracer.records, topology=machine.topology)
        assert usage.busy and usage == want
        assert list(usage.busy) == list(want.busy)

    @pytest.mark.parametrize("stretch", [1.0, 0.1, 3.7])
    def test_synthetic_transfers_match_the_per_link_reference(self, stretch):
        """Stretching the times moves every edge against the bin grid."""
        def xfer(time, start, finish, links):
            return TraceRecord(stretch * time, "xfer", {
                "links": links, "start": stretch * start,
                "finish": stretch * finish,
            })

        records = [
            xfer(3.0, 3.0, 3.0, (5, 9)),        # zero-length hold and wait
            xfer(1.0, 27.5, 27.5, (9, 12)),     # wait over several bins
            xfer(12.0, 15.0, 40.0, (5, 12)),    # ends at the horizon
            TraceRecord(2.0, "send", {"src": 0}),
            xfer(0.0, 0.0, 7.3, (1, 5, 1)),
            xfer(0.7, 9.9, 30.1, (12,)),
        ]
        usage = link_usage(records)
        want = _reference_link_usage(records)
        assert (usage.bin_us, usage.bins) == (want.bin_us, want.bins)
        assert usage.busy == want.busy and usage.queue == want.queue
        assert list(usage.busy) == [5, 9, 12, 1]

    def test_queue_mode(self):
        usage = LinkUsage(
            bin_us=5.0,
            bins=2,
            busy={3: [1.0, 0.0]},
            queue={3: [4.0, 0.0]},
        )
        art = render_link_heatmap(usage, queue=True)
        assert "queue depth" in art
        # The saturated bin renders with the densest ramp glyph.
        assert "@" in art


class TestSummarize:
    def test_summary_shape_and_roundtrip(self):
        machine, tracer, _ = _traced(algorithm="2-Step", s=6)
        summary = summarize_trace(tracer, topology=machine.topology)
        assert summary["slowest_phase"] in ("gather", "bcast")
        assert set(summary["phases"]) == {"gather", "bcast"}
        assert summary["hottest_links"]
        assert summary["truncated"] is False
        # JSON round-trip (the sweep layer stores this beside the cache).
        assert json.loads(json.dumps(summary)) == summary

    def test_rollup_rendering(self):
        machine, tracer, _ = _traced(algorithm="2-Step", s=6)
        summary = summarize_trace(tracer, topology=machine.topology)
        text = render_rollup(summary)
        assert "<- slowest" in text
        assert "hottest links" in text

    def test_aggregate_observations(self):
        machine, tracer, _ = _traced()
        summary = summarize_trace(tracer, topology=machine.topology)
        obs = {
            "algorithm": "Br_Lin",
            "distribution": "E",
            "machine": "paragon:4x4",
            "summary": summary,
        }
        aggregate = aggregate_observations([obs, None, obs])
        assert aggregate["observed"] == 2
        (group,) = aggregate["groups"]
        assert group["algorithm"] == "Br_Lin"
        assert group["points"] == 2
        assert group["slowest_phase"] == "halving"
        text = render_sweep_rollup(aggregate)
        assert "Br_Lin" in text and "halving" in text

    def test_recovery_spans_are_summarized(self):
        """A run that actually serves missing messages spans recovery."""
        machine = machine_from_spec("paragon:4x4")
        problem = BroadcastProblem(
            machine=machine, sources=(0, 5), message_size=512
        )
        tracer = Tracer()
        result = run_broadcast(
            problem,
            "Br_Lin",
            tracer=tracer,
            faults="node:15",
            recover=True,
        )
        assert result.recovered is not None
        names = {i["name"] for i in span_intervals(tracer)}
        if result.recovery_rounds:
            assert "recovery-gossip" in names or "recovery-serve" in names
