"""Unit tests for the NaiveIndependent baseline."""

from __future__ import annotations

import math

from repro.core import BroadcastProblem, run_broadcast
from repro.core.algorithms import NaiveIndependent
from repro.distributions import DISTRIBUTIONS


class TestStructure:
    def test_stage_count_is_ceil_log_p(self, small_problem):
        sched = NaiveIndependent().build_schedule(small_problem)
        assert sched.num_rounds == math.ceil(math.log2(small_problem.p))

    def test_message_count_s_times_p_minus_1(self, small_problem):
        sched = NaiveIndependent().build_schedule(small_problem)
        assert sched.num_transfers == small_problem.s * (small_problem.p - 1)

    def test_no_combining_ever(self, small_problem):
        sched = NaiveIndependent().build_schedule(small_problem)
        assert all(len(msgset) == 1 for msgset in sched.send_msgset)

    def test_validates(self, small_paragon, small_t3d):
        for machine in (small_paragon, small_t3d):
            for s in (1, 3, machine.p):
                problem = BroadcastProblem(
                    machine, tuple(range(s)), message_size=32
                )
                NaiveIndependent().build_schedule(problem).validate()

    def test_single_source_equals_binomial(self, small_paragon):
        problem = BroadcastProblem(small_paragon, (0,), message_size=32)
        sched = NaiveIndependent().build_schedule(problem)
        assert sched.num_transfers == small_paragon.p - 1


class TestPaperClaim:
    def test_uncoordinated_floods_lose_to_br_lin(self, square_paragon):
        """§2: independent broadcasts suffer congestion and message count."""
        src = DISTRIBUTIONS["E"].generate(square_paragon, 30)
        prob = BroadcastProblem(square_paragon, src, message_size=4096)
        t_naive = run_broadcast(prob, "Naive_Independent").elapsed_us
        t_lin = run_broadcast(prob, "Br_Lin").elapsed_us
        assert t_naive > t_lin

    def test_congestion_grows_with_s(self, square_paragon):
        values = {}
        for s in (5, 40):
            src = DISTRIBUTIONS["E"].generate(square_paragon, s)
            prob = BroadcastProblem(square_paragon, src, message_size=512)
            values[s] = run_broadcast(prob, "Naive_Independent").metrics.congestion
        assert values[40] > values[5]
