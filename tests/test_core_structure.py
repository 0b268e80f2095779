"""Unit tests for the structural schedule analyzer."""

from __future__ import annotations

import pytest

from repro.core import BroadcastProblem
from repro.core.algorithms import BrLin, TwoStep
from repro.core.schedule import Schedule
from repro.core.structure import analyze_schedule, estimate_halving_time


class TestAnalyzeSchedule:
    def test_per_round_actives_and_new_holders(self, line_machine):
        problem = BroadcastProblem(line_machine, (0,), message_size=100)
        sched = Schedule(problem, algorithm="hand")
        sched.add_round([(0, 4, frozenset({0}))])
        sched.add_round(
            [(0, 2, frozenset({0})), (4, 6, frozenset({0}))]
        )
        profile = analyze_schedule(sched)
        assert profile.rounds[0].active_ranks == 2
        assert profile.rounds[0].new_holders == 1
        assert profile.rounds[1].active_ranks == 4
        assert profile.rounds[1].new_holders == 2

    def test_bytes_tracked(self, line_machine):
        problem = BroadcastProblem(line_machine, (0, 4), message_size=100)
        sched = Schedule(problem, algorithm="hand")
        sched.add_round(
            [(0, 4, frozenset({0})), (4, 0, frozenset({4}))]
        )
        sched.add_round([(0, 1, frozenset({0, 4}))])
        profile = analyze_schedule(sched)
        assert profile.rounds[0].max_transfer_bytes == 100
        assert profile.rounds[0].total_bytes == 200
        assert profile.rounds[1].max_transfer_bytes == 200

    def test_av_act_proc_matches_mean(self, small_problem):
        sched = BrLin().build_schedule(small_problem)
        profile = analyze_schedule(sched)
        mean = sum(r.active_ranks for r in profile.rounds) / profile.num_rounds
        assert profile.av_act_proc == pytest.approx(mean)

    def test_max_ops_matches_schedule(self, small_problem):
        sched = TwoStep().build_schedule(small_problem)
        profile = analyze_schedule(sched)
        assert profile.max_ops_per_rank == max(
            sched.ops_by_rank().values()
        )

    def test_static_profile_agrees_with_measured_metrics(self, small_problem):
        """The static analyzer and the executor must count identically."""
        from repro.core import run_broadcast

        sched = BrLin().build_schedule(small_problem)
        profile = analyze_schedule(sched)
        result = run_broadcast(small_problem, "Br_Lin")
        assert result.metrics.send_recv_ops == profile.max_ops_per_rank
        assert result.num_transfers == profile.total_transfers

    def test_empty_schedule(self, line_machine):
        problem = BroadcastProblem(line_machine, (0,), message_size=100)
        profile = analyze_schedule(Schedule(problem))
        assert profile.num_rounds == 0
        assert profile.av_act_proc == 0.0


class TestEstimator:
    def test_single_source_cost_scales_with_depth(self):
        t8 = estimate_halving_time(8, (0,))
        t64 = estimate_halving_time(64, (0,))
        assert t64 > t8

    def test_deterministic(self):
        assert estimate_halving_time(32, (1, 9, 17)) == estimate_halving_time(
            32, (1, 9, 17)
        )
