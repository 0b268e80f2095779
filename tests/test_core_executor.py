"""Unit tests for the schedule executor (timing semantics + delivery)."""

from __future__ import annotations

import pytest

from repro.core.executor import ScheduleExecutor
from repro.core.problem import BroadcastProblem
from repro.core.schedule import Schedule


@pytest.fixture
def problem(line_machine):
    return BroadcastProblem(line_machine, (0, 4), message_size=100)


def run_schedule(problem, schedule, **kw):
    executor = ScheduleExecutor(schedule)
    return problem.machine.run(executor.program, **kw)


class TestDelivery:
    def test_holdings_returned_per_rank(self, problem):
        sched = Schedule(problem, algorithm="t")
        sched.add_round([(0, 1, frozenset({0}))])
        result = run_schedule(problem, sched)
        assert result.returns[1] == frozenset({0, })
        assert result.returns[0] == frozenset({0})
        assert result.returns[4] == frozenset({4})
        assert result.returns[2] == frozenset()

    def test_payload_carries_msgset(self, problem):
        sched = Schedule(problem, algorithm="t")
        sched.add_round(
            [(0, 4, frozenset({0})), (4, 0, frozenset({4}))]
        )
        sched.add_round([(0, 1, frozenset({0, 4}))])
        result = run_schedule(problem, sched)
        assert result.returns[1] == frozenset({0, 4})


class TestDataParallelSynchronization:
    def test_no_global_barrier_between_rounds(self, problem):
        """Ranks uninvolved in round 0 proceed straight to round 1."""
        sched = Schedule(problem, algorithm="t")
        # round 0: a slow large transfer between 0 and 1
        sched.add_round([(0, 1, frozenset({0}), 100_000)])
        # round 1: an unrelated fast transfer between 4 and 5
        sched.add_round([(4, 5, frozenset({4}))])
        result = run_schedule(problem, sched)
        # If there were a global barrier, elapsed would exceed the big
        # transfer (1000us wire) plus the small one; without one, the
        # small transfer finishes long before.
        metrics = result.metrics
        assert metrics.total_messages == 2
        # rank 5 received long before rank 1's copy completed
        assert result.elapsed_us > 1000.0  # the big transfer dominates

    def test_dependency_chains_propagate(self, problem):
        """Round k+1 sends wait for the sender's round-k receive."""
        sched = Schedule(problem, algorithm="t")
        sched.add_round([(0, 2, frozenset({0}), 50_000)])
        sched.add_round([(2, 3, frozenset({0}))])
        result = run_schedule(problem, sched)
        # 2's forward can only start after the 50 KB message arrived
        # (500 us wire) and was copied (1000 us at 0.02/byte).
        assert result.elapsed_us > 1500.0
        assert result.returns[3] == frozenset({0})

    def test_iteration_buckets_follow_rounds(self, problem):
        sched = Schedule(problem, algorithm="t")
        sched.add_round([(0, 1, frozenset({0}))])
        sched.add_round([(4, 5, frozenset({4}))])
        result = run_schedule(problem, sched)
        assert result.metrics.iterations == 2


class TestModes:
    def test_collective_round_charges_fast_tier(self, line_machine):
        fast = line_machine.params.with_overrides(collective_overhead_scale=0.0)
        from repro.machines import Machine

        machine = Machine(line_machine.topology, fast)
        problem = BroadcastProblem(machine, (0,), message_size=100)

        plain = Schedule(problem, algorithm="p")
        plain.add_round([(0, 1, frozenset({0}))])
        for rank in range(1, 8):
            pass
        lib = Schedule(problem, algorithm="l")
        lib.add_round([(0, 1, frozenset({0}))], collective=True)

        t_plain = run_schedule(problem, plain, seed=0).elapsed_us
        t_lib = run_schedule(problem, lib, seed=0).elapsed_us
        # collective tier has zero software overhead here
        assert t_lib < t_plain

    def test_duplicate_src_dst_in_round_delivered_fifo(self, problem):
        sched = Schedule(problem, algorithm="dup")
        sched.add_round(
            [
                (0, 1, frozenset({0})),
                (0, 1, frozenset({0}), 7),
            ]
        )
        result = run_schedule(problem, sched)
        assert result.returns[1] >= frozenset({0})
        assert result.metrics.total_messages == 2
