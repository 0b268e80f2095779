"""Unit tests for Algorithm 2-Step."""

from __future__ import annotations

from repro.core import BroadcastProblem, run_broadcast
from repro.core.algorithms import TwoStep
from repro.core.structure import analyze_schedule
from repro.distributions import DISTRIBUTIONS
from tests.schedule_view import all_rounds, round_sends


class TestStructure:
    def test_gather_round_first(self, small_problem):
        sched = TwoStep().build_schedule(small_problem)
        assert sched.round_label[0] == "gather"
        gather = round_sends(sched, 0)
        assert all(t.dst == 0 for t in gather)
        assert {t.src for t in gather} == set(small_problem.sources) - {0}

    def test_gather_carries_individual_messages(self, small_problem):
        sched = TwoStep().build_schedule(small_problem)
        for t in round_sends(sched, 0):
            assert t.msgset == frozenset({t.src})

    def test_bcast_carries_combined_message(self, small_problem):
        sched = TwoStep().build_schedule(small_problem)
        full = frozenset(small_problem.sources)
        for rnd in all_rounds(sched)[1:]:
            for t in rnd:
                assert t.msgset == full

    def test_bcast_sends_p_minus_1_messages(self, small_problem):
        sched = TwoStep().build_schedule(small_problem)
        bcast_transfers = sum(len(r) for r in all_rounds(sched)[1:])
        assert bcast_transfers == small_problem.p - 1

    def test_root_as_source_sends_nothing_in_gather(self, small_paragon):
        problem = BroadcastProblem(small_paragon, (0, 5), message_size=64)
        sched = TwoStep().build_schedule(problem)
        assert len(round_sends(sched, 0)) == 1  # only rank 5 sends

    def test_native_mode_flags(self, small_problem):
        sched = TwoStep().build_schedule(small_problem)
        assert not any(sched.round_collective) and not any(sched.round_mpi)

    def test_validates_everywhere(self, small_paragon, square_paragon, small_t3d):
        for machine in (small_paragon, square_paragon, small_t3d):
            for s in (1, machine.p // 3 + 1, machine.p):
                problem = BroadcastProblem(
                    machine, tuple(range(s)), message_size=64
                )
                TwoStep().build_schedule(problem).validate()


class TestPaperShapes:
    def test_root_congestion_grows_with_s(self, square_paragon):
        """Figure 2: 2-Step's congestion is O(s) — the gather hot spot."""
        congestion = {}
        for s in (10, 40):
            src = DISTRIBUTIONS["E"].generate(square_paragon, s)
            prob = BroadcastProblem(square_paragon, src, message_size=256)
            congestion[s] = run_broadcast(prob, "2-Step").metrics.congestion
        assert congestion[40] >= congestion[10] + 25

    def test_much_slower_than_br_lin_at_moderate_s(self, square_paragon):
        """Figure 3: 2-Step is far off the Br_* curves on the Paragon."""
        src = DISTRIBUTIONS["E"].generate(square_paragon, 30)
        prob = BroadcastProblem(square_paragon, src, message_size=4096)
        t_two = run_broadcast(prob, "2-Step").elapsed_us
        t_lin = run_broadcast(prob, "Br_Lin").elapsed_us
        assert t_two > 2.0 * t_lin

    def test_av_act_proc_near_p_over_log_p(self, square_paragon):
        src = DISTRIBUTIONS["E"].generate(square_paragon, 20)
        prob = BroadcastProblem(square_paragon, src, message_size=256)
        sched = TwoStep().build_schedule(prob)
        profile = analyze_schedule(sched)
        # p/log2(p) ~ 15 for p = 100; allow generous slack
        assert profile.av_act_proc < 40
