"""Unit tests for events: triggering, composition, misuse."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.simulator import AnyOf, Engine
from repro.simulator.events import Condition


class TestEventBasics:
    def test_pending_until_succeed(self):
        engine = Engine()
        ev = engine.event()
        assert not ev.triggered
        ev.succeed("v")
        assert ev.triggered
        assert ev.value == "v"

    def test_value_before_trigger_raises(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.event().value

    def test_double_succeed_raises(self):
        engine = Engine()
        ev = engine.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_callback_after_processed_runs_immediately(self):
        engine = Engine()
        ev = engine.event()
        ev.succeed("x")
        engine.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]

    def test_callbacks_run_in_registration_order(self):
        engine = Engine()
        ev = engine.event()
        order = []
        ev.add_callback(lambda e: order.append(1))
        ev.add_callback(lambda e: order.append(2))
        ev.succeed()
        engine.run()
        assert order == [1, 2]


class TestAnyOf:
    def test_empty_anyof_fires_immediately(self):
        engine = Engine()
        combo = AnyOf(engine, [])
        engine.run()
        assert combo.value == []

    def test_mixed_engines_rejected(self):
        e1, e2 = Engine(), Engine()
        with pytest.raises(SimulationError):
            AnyOf(e1, [e2.event()])

    def test_fires_on_first_child(self):
        engine = Engine()
        events = [engine.event().succeed("slow", delay=5.0),
                  engine.event().succeed("fast", delay=1.0)]
        combo = AnyOf(engine, events)

        def waiter():
            result = yield combo
            return (engine.now, result)

        p = engine.process(waiter())
        engine.run()
        when, (index, value) = p.value
        assert when == 1.0
        assert index == 1
        assert value == "fast"

    def test_later_children_do_not_retrigger(self):
        engine = Engine()
        events = [engine.event().succeed("a", delay=1.0),
                  engine.event().succeed("b", delay=2.0)]
        combo = AnyOf(engine, events)
        engine.run()
        assert combo.value == (0, "a")


class TestConditionContract:
    def test_condition_is_abstract(self):
        engine = Engine()
        cond = Condition(engine, [engine.timeout(1.0)])
        with pytest.raises(NotImplementedError):
            engine.run()
