"""Unit tests for the tracer."""

from __future__ import annotations

from repro.simulator import Engine, Tracer


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
