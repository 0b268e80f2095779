"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.simulator import Engine


class TestClockAndScheduling:
    def test_time_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_timeout_advances_clock(self):
        engine = Engine()

        def proc():
            yield engine.timeout(5.0)
            return engine.now

        p = engine.process(proc())
        engine.run()
        assert p.value == 5.0
        assert engine.now == 5.0

    def test_zero_delay_timeout_fires_at_now(self):
        engine = Engine()

        def proc():
            yield engine.timeout(0.0)
            return engine.now

        p = engine.process(proc())
        engine.run()
        assert p.value == 0.0

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.timeout(-1.0)

    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        for delay in (3.0, 1.0, 2.0):
            ev = engine.event()
            ev.add_callback(lambda e, d=delay: fired.append(d))
            ev.succeed(delay=delay)
        engine.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_same_time_events_fire_in_scheduling_order(self):
        engine = Engine()
        fired = []
        for tag in range(5):
            ev = engine.event()
            ev.add_callback(lambda e, t=tag: fired.append(t))
            ev.succeed(delay=1.0)
        engine.run()
        assert fired == [0, 1, 2, 3, 4]


class TestProcessLifecycle:
    def test_process_return_value(self):
        engine = Engine()

        def proc():
            yield engine.timeout(1.0)
            return "done"

        p = engine.process(proc())
        engine.run()
        assert p.value == "done"
        assert not p.is_alive

    def test_processes_interleave_deterministically(self):
        engine = Engine()
        log = []

        def worker(name, delay):
            for _ in range(3):
                yield engine.timeout(delay)
                log.append((engine.now, name))

        engine.process(worker("a", 2.0))
        engine.process(worker("b", 3.0))
        engine.run()
        # At t=6.0 both fire; b's timeout was scheduled first (at t=3.0,
        # vs a's at t=4.0), so b wins the deterministic tie-break.
        assert log == [
            (2.0, "a"),
            (3.0, "b"),
            (4.0, "a"),
            (6.0, "b"),
            (6.0, "a"),
            (9.0, "b"),
        ]

    def test_process_waiting_on_another_process(self):
        engine = Engine()

        def child():
            yield engine.timeout(4.0)
            return 42

        def parent():
            value = yield engine.process(child(), name="child")
            return value + 1

        p = engine.process(parent(), name="parent")
        engine.run()
        assert p.value == 43

    def test_yielding_non_event_raises(self):
        engine = Engine()

        def bad():
            yield "not an event"

        engine.process(bad(), name="bad")
        with pytest.raises(SimulationError, match="bad"):
            engine.run()

    def test_immediate_return_process(self):
        engine = Engine()

        def instant():
            return "now"
            yield  # pragma: no cover

        p = engine.process(instant())
        engine.run()
        assert p.value == "now"


class TestDeadlockDetection:
    def test_blocked_process_raises_deadlock(self):
        engine = Engine()

        def stuck():
            yield engine.event()  # never triggered

        engine.process(stuck(), name="stuck-proc")
        with pytest.raises(DeadlockError, match="stuck-proc"):
            engine.run()

    def test_deadlock_reports_all_blocked(self):
        engine = Engine()

        def stuck(name):
            yield engine.event()

        for i in range(3):
            engine.process(stuck(i), name=f"proc{i}")
        with pytest.raises(DeadlockError, match="3 blocked"):
            engine.run()

    def test_completed_processes_do_not_deadlock(self):
        engine = Engine()

        def fine():
            yield engine.timeout(1.0)

        engine.process(fine())
        engine.run()  # no raise

    def test_diagnostic_includes_describe_block(self):
        engine = Engine()

        def stuck():
            yield engine.event()

        proc = engine.process(stuck(), name="rx-loop")
        with pytest.raises(DeadlockError) as excinfo:
            engine.run()
        # the message embeds each process's own self-description
        assert proc.describe_block() in str(excinfo.value)
        assert "rx-loop waiting on" in str(excinfo.value)

    def test_diagnostic_truncates_past_sixteen_blocked(self):
        engine = Engine()

        def stuck():
            yield engine.event()

        for i in range(20):
            engine.process(stuck(), name=f"proc{i:02d}")
        with pytest.raises(DeadlockError) as excinfo:
            engine.run()
        message = str(excinfo.value)
        assert "20 blocked process(es)" in message
        assert "(+4 more)" in message
        # the first 16 are named, the rest folded into the suffix
        assert "proc15" in message
        assert "proc16" not in message

    def test_diagnostic_no_truncation_at_exactly_sixteen(self):
        engine = Engine()

        def stuck():
            yield engine.event()

        for i in range(16):
            engine.process(stuck(), name=f"proc{i:02d}")
        with pytest.raises(DeadlockError) as excinfo:
            engine.run()
        message = str(excinfo.value)
        assert "more)" not in message
        assert all(f"proc{i:02d}" in message for i in range(16))
