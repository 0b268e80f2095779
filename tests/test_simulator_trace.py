"""Unit tests for the tracer."""

from __future__ import annotations

import gc
import json

import pytest

from repro.core.problem import BroadcastProblem
from repro.core.runner import run_broadcast
from repro.machines import machine_from_spec
from repro.simulator import Engine, TraceRecord, Tracer
from repro.sweep import SweepExecutor, SweepPoint


class TestTracer:
    def test_engine_records_when_attached(self):
        tracer = Tracer()
        engine = Engine(tracer=tracer)
        engine.trace("ping", value=1)
        assert len(tracer) == 1
        record = tracer.records[0]
        assert record.kind == "ping"
        assert record.fields == {"value": 1}

    def test_engine_without_tracer_is_noop(self):
        engine = Engine()
        engine.trace("ping")  # must not raise

    def test_kind_filter(self):
        tracer = Tracer(kinds=("send",))
        engine = Engine(tracer=tracer)
        engine.trace("send", n=1)
        engine.trace("recv", n=2)
        assert [r.kind for r in tracer] == ["send"]

    def test_limit_truncates(self):
        tracer = Tracer(limit=2)
        engine = Engine(tracer=tracer)
        for i in range(5):
            engine.trace("x", i=i)
        assert len(tracer) == 2
        assert tracer.truncated


#: Tracer shapes the bulk store must treat as record() does: full
#: capture, the report heatmap's kind filter, a limit a traced run
#: crosses, and a limit that keeps nothing.
BULK_TRACERS = {
    "full": lambda: Tracer(),
    "xfer-only": lambda: Tracer(kinds=("xfer",)),
    "limit50": lambda: Tracer(limit=50),
    "limit0": lambda: Tracer(limit=0),
}


def _fast_path_records():
    """A fast-path run's full trace: spans, xfer, send and recv records."""
    problem = BroadcastProblem(
        machine=machine_from_spec("paragon:4x4"),
        sources=tuple(range(4)),
        message_size=512,
    )
    tracer = Tracer()
    run_broadcast(problem, "2-Step", tracer=tracer, engine="fast")
    return tracer.records


class TestExtend:
    @pytest.mark.parametrize("cut", [0, 1, 49, 50, 51, None])
    @pytest.mark.parametrize("shape", sorted(BULK_TRACERS))
    def test_leaves_what_record_leaves(self, shape, cut):
        """Bulk-stored batches equal the same records passed one by one.

        The batch is built as the fast path builds it, kinds the filter
        drops left out; it is stored in two calls split at ``cut``, so
        one call may end at the limit and the next cross it.
        """
        records = _fast_path_records()
        assert len({r.kind for r in records}) == 5 and len(records) > 51
        make = BULK_TRACERS[shape]
        bulk = make()
        batch = [r for r in records if bulk.wants(r.kind)]
        bulk.extend(batch[:cut])
        bulk.extend(batch[cut:] if cut is not None else [])
        for source in (records, batch):
            one_by_one = make()
            for r in source:
                one_by_one.record(r.time, r.kind, r.fields)
            assert bulk.records == one_by_one.records
            assert bulk.truncated is one_by_one.truncated

    def test_empty_batch_at_the_limit_does_not_truncate(self):
        tracer = Tracer(limit=0)
        tracer.extend([])
        assert tracer.records == [] and not tracer.truncated

    def test_does_not_filter_again(self):
        """The caller filtered with wants(); the batch is stored as given."""
        tracer = Tracer(kinds=("xfer",))
        stray = TraceRecord(0.0, "send", {"src": 0})
        tracer.extend([stray])
        assert tracer.records == [stray]


class TestSpanExit:
    """A span ends when its block finishes or raises, not when its
    process is closed without finishing."""

    def test_closed_process_records_no_span_end(self):
        tracer = Tracer()
        engine = Engine(tracer=tracer)

        def process():
            with engine.span("phase", rank=0):
                yield

        gen = process()
        next(gen)
        gen.close()  # GeneratorExit inside the span, as the collector does
        assert [r.kind for r in tracer] == ["span_begin"]

    def test_raising_block_still_records_span_end(self):
        tracer = Tracer()
        engine = Engine(tracer=tracer)
        with pytest.raises(ValueError):
            with engine.span("phase", rank=0):
                raise ValueError("boom")
        assert [r.kind for r in tracer] == ["span_begin", "span_end"]

    def test_faulted_observation_does_not_depend_on_the_collector(self):
        """A recovered faulted pass abandons rank processes whose engine
        still holds the run's tracer; whenever the collector closes
        them, the observation must not change."""
        point = SweepPoint(
            machine="paragon:4x4", sources=(0, 5), message_size=512,
            algorithm="Br_Lin", faults="node:5", recover=True,
        )

        def observe():
            executor = SweepExecutor(jobs=1, cache=None, observe=True)
            executor.run([point])
            return json.dumps(executor.last_observations, sort_keys=True)

        first = observe()
        gc.collect()
        second = observe()
        gc.collect()
        third = observe()
        gc.disable()
        try:
            uncollected = observe()
        finally:
            gc.enable()
        assert second == first
        assert third == first
        assert uncollected == first
