"""Unit tests for Algorithm PersAlltoAll."""

from __future__ import annotations

import pytest

from repro.core import BroadcastProblem, run_broadcast
from repro.core.algorithms import PersAlltoAll
from repro.core.algorithms.pers_alltoall import xor_or_cyclic_partner
from repro.distributions import DISTRIBUTIONS
from repro.errors import CommError
from repro.machines import paragon
from tests.schedule_view import all_rounds


class TestPartnerGeneration:
    def test_xor_for_powers_of_two(self):
        dst, src = xor_or_cyclic_partner(3, 8, 5)
        assert dst == src == 3 ^ 5

    def test_cyclic_for_other_sizes(self):
        dst, src = xor_or_cyclic_partner(2, 10, 3)
        assert dst == 5
        assert src == (2 - 3) % 10

    def test_rounds_form_permutations(self):
        for size in (7, 8, 12):
            for k in range(1, size):
                dsts = [xor_or_cyclic_partner(r, size, k)[0] for r in range(size)]
                assert sorted(dsts) == list(range(size)), (size, k)

    def test_recv_matches_send(self):
        """If i sends to dst, then dst's source partner must be i."""
        for size in (7, 8):
            for k in range(1, size):
                for rank in range(size):
                    dst, _ = xor_or_cyclic_partner(rank, size, k)
                    _, src_of_dst = xor_or_cyclic_partner(dst, size, k)
                    assert src_of_dst == rank

    def test_round_bounds_checked(self):
        with pytest.raises(CommError):
            xor_or_cyclic_partner(0, 8, 0)
        with pytest.raises(CommError):
            xor_or_cyclic_partner(0, 8, 8)


class TestStructure:
    def test_p_minus_1_rounds(self, small_problem):
        sched = PersAlltoAll().build_schedule(small_problem)
        assert sched.num_rounds == small_problem.p - 1

    def test_only_sources_send(self, small_problem):
        sched = PersAlltoAll().build_schedule(small_problem)
        senders = set(sched.send_src)
        assert senders <= set(small_problem.sources)

    def test_messages_never_combined(self, small_problem):
        sched = PersAlltoAll().build_schedule(small_problem)
        for src, msgset in zip(sched.send_src, sched.send_msgset):
            assert msgset == frozenset({src})

    def test_total_message_count(self, small_problem):
        """Each source sends p - 1 original copies."""
        sched = PersAlltoAll().build_schedule(small_problem)
        assert sched.num_transfers == small_problem.s * (small_problem.p - 1)

    def test_each_round_is_a_partial_permutation(self, small_problem):
        sched = PersAlltoAll().build_schedule(small_problem)
        for rnd in all_rounds(sched):
            dsts = [t.dst for t in rnd]
            srcs = [t.src for t in rnd]
            assert len(set(dsts)) == len(dsts)
            assert len(set(srcs)) == len(srcs)

    def test_xor_permutations_on_power_of_two(self):
        machine = paragon(4, 4)
        problem = BroadcastProblem(machine, (3,), message_size=8)
        sched = PersAlltoAll().build_schedule(problem)
        for k, rnd in enumerate(all_rounds(sched), start=1):
            (t,) = rnd
            assert t.dst == 3 ^ k

    def test_cyclic_permutations_otherwise(self, square_paragon):
        problem = BroadcastProblem(square_paragon, (7,), message_size=8)
        sched = PersAlltoAll().build_schedule(problem)
        for k, rnd in enumerate(all_rounds(sched), start=1):
            (t,) = rnd
            assert t.dst == (7 + k) % 100

    def test_validates_for_all_s(self, small_paragon):
        for s in (1, 7, 20):
            problem = BroadcastProblem(
                small_paragon, tuple(range(s)), message_size=8
            )
            PersAlltoAll().build_schedule(problem).validate()


class TestPaperShapes:
    def test_congestion_is_constant(self, square_paragon):
        """Figure 2: O(1) congestion regardless of s."""
        for s in (5, 50):
            src = DISTRIBUTIONS["E"].generate(square_paragon, s)
            prob = BroadcastProblem(square_paragon, src, message_size=128)
            report = run_broadcast(prob, "PersAlltoAll").metrics
            assert report.congestion <= 2

    def test_flat_cost_in_message_size_when_small(self, square_paragon):
        """Figure 4: PersAlltoAll is overhead-bound below ~1K messages."""
        src = DISTRIBUTIONS["Dr"].generate(square_paragon, 30)
        t_small = run_broadcast(
            BroadcastProblem(square_paragon, src, message_size=32),
            "PersAlltoAll",
        ).elapsed_us
        t_1k = run_broadcast(
            BroadcastProblem(square_paragon, src, message_size=1024),
            "PersAlltoAll",
        ).elapsed_us
        assert t_1k < 1.5 * t_small

    def test_diverges_with_machine_size(self):
        """Figure 5: PersAlltoAll is competitive only on small machines —
        its gap to Br_Lin must widen as p grows (s ~ sqrt(p), L = 1K)."""
        ratios = []
        for shape, s in (((2, 2), 2), ((4, 4), 4), ((16, 16), 16)):
            machine = paragon(*shape)
            src = DISTRIBUTIONS["Dr"].generate(machine, s)
            prob = BroadcastProblem(machine, src, message_size=1024)
            t_pers = run_broadcast(prob, "PersAlltoAll").elapsed_us
            t_lin = run_broadcast(prob, "Br_Lin").elapsed_us
            ratios.append(t_pers / t_lin)
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[0] < 1.6  # near parity at p = 4
        assert ratios[2] > 2.5  # far off at p = 256
