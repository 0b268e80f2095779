"""Unit tests for the extension algorithms Br_Ring and Auto_Predict."""

from __future__ import annotations

import pytest

from repro.core import BroadcastProblem, run_broadcast
from repro.core.algorithms import AutoPredict, BrRing
from repro.core.predict import predict_broadcast_time
from repro.distributions import DISTRIBUTIONS, RandomDistribution
from repro.errors import AlgorithmError
from repro.machines import paragon, t3d
from tests.schedule_view import all_rounds


class TestBrRing:
    def test_round_count_is_p_minus_1(self, small_problem):
        sched = BrRing().build_schedule(small_problem)
        assert sched.num_rounds == small_problem.p - 1

    def test_each_rank_receives_exactly_s_messages(self, small_problem):
        sched = BrRing().build_schedule(small_problem)
        recv_count = {}
        for dst in sched.send_dst:
            recv_count[dst] = recv_count.get(dst, 0) + 1
        # everyone except ... everyone receives s messages (their own
        # message also travels the full ring back past them minus 1)
        for rank in range(small_problem.p):
            assert recv_count.get(rank, 0) == small_problem.s or (
                recv_count.get(rank, 0) == small_problem.s - 1
            )

    def test_messages_never_combined(self, small_problem):
        sched = BrRing().build_schedule(small_problem)
        assert all(len(msgset) == 1 for msgset in sched.send_msgset)

    def test_bytes_through_each_rank_minimal(self, small_problem):
        """Br_Ring's per-rank received bytes are the minimum s*L (less
        the rank's own message)."""
        result = run_broadcast(small_problem, "Br_Ring")
        s, L, p = small_problem.s, small_problem.message_size, small_problem.p
        total_recv = result.metrics.total_bytes  # bytes sent == received
        assert total_recv <= s * L * p  # never more than s*L per rank

    def test_validates_everywhere(self, small_paragon, small_t3d):
        for machine in (small_paragon, small_t3d):
            for s in (1, 3, machine.p):
                problem = BroadcastProblem(
                    machine, tuple(range(s)), message_size=64
                )
                BrRing().build_schedule(problem).validate()

    def test_single_rank_machine(self):
        machine = paragon(1, 1)
        problem = BroadcastProblem(machine, (0,), message_size=64)
        run_broadcast(problem, "Br_Ring")

    def test_rounds_are_partial_permutations(self, small_problem):
        sched = BrRing().build_schedule(small_problem)
        for rnd in all_rounds(sched):
            srcs = [t.src for t in rnd]
            dsts = [t.dst for t in rnd]
            assert len(set(srcs)) == len(srcs)
            assert len(set(dsts)) == len(dsts)

    def test_loses_to_br_lin_when_overhead_bound(self, square_paragon):
        """O(p) rounds of software overhead sink the ring on the Paragon."""
        src = DISTRIBUTIONS["E"].generate(square_paragon, 30)
        problem = BroadcastProblem(square_paragon, src, message_size=512)
        t_ring = run_broadcast(problem, "Br_Ring").elapsed_us
        t_lin = run_broadcast(problem, "Br_Lin").elapsed_us
        assert t_ring > t_lin


class TestAutoPredict:
    def test_result_names_the_choice(self, square_paragon):
        src = DISTRIBUTIONS["E"].generate(square_paragon, 30)
        problem = BroadcastProblem(square_paragon, src, message_size=4096)
        result = run_broadcast(problem, "Auto_Predict")
        assert result.algorithm.startswith("Auto_Predict[")

    def test_never_worse_than_worst_candidate(self, square_paragon):
        src = DISTRIBUTIONS["Cr"].generate(square_paragon, 40)
        problem = BroadcastProblem(square_paragon, src, message_size=6144)
        t_auto = run_broadcast(problem, "Auto_Predict").elapsed_us
        others = [
            run_broadcast(problem, name).elapsed_us
            for name in ("Br_Lin", "Br_xy_source", "Repos_xy_source")
        ]
        assert t_auto <= max(others) * 1.05

    def test_close_to_best_candidate(self, square_paragon):
        """The prediction-driven pick lands within a modest factor of
        the true best (model error is bounded by contention only)."""
        src = DISTRIBUTIONS["E"].generate(square_paragon, 30)
        problem = BroadcastProblem(square_paragon, src, message_size=4096)
        t_auto = run_broadcast(problem, "Auto_Predict").elapsed_us
        best = min(
            run_broadcast(problem, name).elapsed_us
            for name in ("Br_Lin", "Br_xy_source", "Repos_xy_source", "Br_Ring")
        )
        assert t_auto <= 1.25 * best

    def test_picks_collective_on_t3d(self):
        machine = t3d(64)
        src = DISTRIBUTIONS["E"].generate(machine, 32)
        problem = BroadcastProblem(machine, src, message_size=4096)
        chosen = AutoPredict().build_schedule(problem).algorithm
        assert chosen in (
            "Auto_Predict[MPI_Alltoall]",
            "Auto_Predict[MPI_AllGather]",
        )

    def test_skips_mesh_algorithms_off_mesh(self):
        machine = t3d(32)
        problem = BroadcastProblem(machine, (0, 5), message_size=1024)
        run_broadcast(problem, "Auto_Predict")  # must not raise

    def test_custom_portfolio(self, square_paragon):
        auto = AutoPredict(portfolio=("Br_Ring",))
        src = DISTRIBUTIONS["E"].generate(square_paragon, 10)
        problem = BroadcastProblem(square_paragon, src, message_size=512)
        chosen = auto.build_schedule(problem).algorithm
        assert chosen == "Auto_Predict[Br_Ring]"

    def test_portfolio_skips_unsupported_candidates(self):
        auto = AutoPredict(portfolio=("Br_xy_source", "Br_Lin"))  # mesh-only first
        problem = BroadcastProblem(t3d(32), tuple(range(8)), message_size=1024)
        assert auto.build_schedule(problem).algorithm == "Auto_Predict[Br_Lin]"

    def test_no_supported_candidate_is_an_algorithm_error(self):
        auto = AutoPredict(portfolio=("Br_xy_source",))
        problem = BroadcastProblem(t3d(32), tuple(range(4)), message_size=1024)
        with pytest.raises(AlgorithmError, match="Br_xy_source"):
            auto.build_schedule(problem)

    def test_picks_the_lowest_prediction_first_on_ties(self, square_paragon):
        """The winner is the portfolio's first strict minimum of the model."""
        portfolio = ("Br_Lin", "Br_xy_source", "Repos_xy_source", "Br_Ring")
        auto = AutoPredict(portfolio=portfolio)
        for s, size in ((4, 512), (30, 4096), (80, 16384)):
            src = RandomDistribution(seed=s).generate(square_paragon, s)
            problem = BroadcastProblem(square_paragon, src, message_size=size)
            predicted = [predict_broadcast_time(problem, n) for n in portfolio]
            first_best = portfolio[predicted.index(min(predicted))]
            chosen = auto.build_schedule(problem).algorithm
            assert chosen == f"Auto_Predict[{first_best}]"
        twins = AutoPredict(portfolio=("Br_xy_source", "Br_xy_dim"))
        problem = BroadcastProblem(square_paragon, (0,), message_size=1024)
        assert predict_broadcast_time(problem, "Br_xy_source") == (
            predict_broadcast_time(problem, "Br_xy_dim")
        )
        assert twins.build_schedule(problem).algorithm == (
            "Auto_Predict[Br_xy_source]"
        )

    def test_never_loses_badly_to_a_fixed_candidate(self, square_paragon):
        """Over a mixed workload the predictive pick stays within 10% of
        the best single candidate used for every problem."""
        portfolio = ("Br_Lin", "Br_xy_source")
        workload = [
            BroadcastProblem(
                square_paragon,
                RandomDistribution(seed=i).generate(square_paragon, s),
                message_size=4096,
            )
            for i, s in enumerate((10, 40, 80))
        ]

        def total_us(algorithm):
            return sum(
                run_broadcast(p, algorithm).elapsed_us for p in workload
            )

        fixed = min(total_us(name) for name in portfolio)
        predictive = total_us(AutoPredict(portfolio=portfolio))
        assert predictive <= 1.1 * fixed
