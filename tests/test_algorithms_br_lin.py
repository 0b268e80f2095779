"""Unit tests for Algorithm Br_Lin."""

from __future__ import annotations

import math

from repro.core import BroadcastProblem, run_broadcast
from repro.core.algorithms import BrLin
from repro.core.structure import analyze_schedule
from repro.distributions import DISTRIBUTIONS
from tests.schedule_view import round_sends


class TestSchedule:
    def test_round_count_is_ceil_log_p(self, square_paragon):
        problem = BroadcastProblem(square_paragon, (0, 5, 50), message_size=64)
        sched = BrLin().build_schedule(problem)
        assert sched.num_rounds <= math.ceil(math.log2(square_paragon.p))

    def test_validates_on_all_fixture_machines(
        self, small_paragon, square_paragon, small_t3d
    ):
        for machine in (small_paragon, square_paragon, small_t3d):
            for s in (1, 2, machine.p // 2, machine.p):
                problem = BroadcastProblem(
                    machine, tuple(range(s)), message_size=64
                )
                BrLin().build_schedule(problem).validate()

    def test_single_source_is_binomial_broadcast(self, square_paragon):
        problem = BroadcastProblem(square_paragon, (0,), message_size=64)
        sched = BrLin().build_schedule(problem)
        # a 1-to-p broadcast sends exactly p - 1 messages
        assert sched.num_transfers == square_paragon.p - 1

    def test_all_sources_full_exchange(self, small_paragon):
        problem = BroadcastProblem(
            small_paragon, tuple(range(20)), message_size=64
        )
        sched = BrLin().build_schedule(problem)
        profile = analyze_schedule(sched)
        # with every rank a source, every rank is active in round 0
        assert profile.rounds[0].active_ranks == 20

    def test_uses_snake_order_on_mesh(self, small_paragon):
        """Round-0 partners must be snake-linear, not rank-linear."""
        problem = BroadcastProblem(small_paragon, (0,), message_size=64)
        sched = BrLin().build_schedule(problem)
        t = round_sends(sched, 0)[0]
        order = small_paragon.linear_order()
        # 0 sits at snake position 0; partner is snake position 10
        assert t.src == 0
        assert t.dst == order[10]

    def test_supports_non_mesh_machines(self, small_t3d):
        assert BrLin().supports(small_t3d)


class TestDistributionSensitivity:
    """§2/§4: Br_Lin's activity growth depends on source placement."""

    def test_column_distribution_wastes_early_iterations_on_square_pow2(self):
        """On a 16x16 mesh C(16) pairs sources with sources early."""
        from repro.machines import paragon

        machine = paragon(16, 16)
        col = DISTRIBUTIONS["C"].generate(machine, 16)
        ldiag = DISTRIBUTIONS["Dl"].generate(machine, 16)
        prof_col = analyze_schedule(
            BrLin().build_schedule(BroadcastProblem(machine, col, message_size=64))
        )
        prof_diag = analyze_schedule(
            BrLin().build_schedule(BroadcastProblem(machine, ldiag, message_size=64))
        )
        # left diagonal grows holders at least as fast in round 0
        assert prof_diag.rounds[0].new_holders >= prof_col.rounds[0].new_holders

    def test_left_diagonal_is_competitive(self, square_paragon):
        """§4 calls Dl "one of the ideal distributions for Br_Lin": it
        must stay within a modest factor of the best named placement
        (the exact ordering depends on indexing details of the original
        implementation we cannot recover)."""
        times = {}
        for key in ("Dl", "Dr", "C", "R", "E"):
            src = DISTRIBUTIONS[key].generate(square_paragon, 10)
            prob = BroadcastProblem(square_paragon, src, message_size=4096)
            times[key] = run_broadcast(prob, "Br_Lin").elapsed_us
        assert times["Dl"] <= 1.3 * min(times.values())

    def test_power_of_two_s_grows_slower_than_non_power(self):
        """Figure 2: s = 2^l delays activity growth on the equal dist."""
        from repro.machines import paragon

        machine = paragon(16, 16)  # p = 256 = 2^8
        for s_pow, s_odd in ((16, 15),):
            prof = {}
            for s in (s_pow, s_odd):
                src = DISTRIBUTIONS["E"].generate(machine, s)
                sched = BrLin().build_schedule(
                    BroadcastProblem(machine, src, message_size=64)
                )
                prof[s] = analyze_schedule(sched)
            early_pow = sum(r.new_holders for r in prof[s_pow].rounds[:2])
            early_odd = sum(r.new_holders for r in prof[s_odd].rounds[:2])
            assert early_odd >= early_pow


class TestTiming:
    def test_time_scales_roughly_linearly_with_s(self, square_paragon):
        """Figure 3: Br_Lin grows about linearly in the source count."""
        times = []
        for s in (10, 40):
            src = DISTRIBUTIONS["E"].generate(square_paragon, s)
            prob = BroadcastProblem(square_paragon, src, message_size=4096)
            times.append(run_broadcast(prob, "Br_Lin").elapsed_us)
        ratio = times[1] / times[0]
        assert 2.0 < ratio < 6.0  # 4x sources => roughly 4x time

    def test_flat_region_for_tiny_messages(self, square_paragon):
        """Figure 4: below ~512 bytes overheads dominate."""
        src = DISTRIBUTIONS["Dr"].generate(square_paragon, 30)
        t32 = run_broadcast(
            BroadcastProblem(square_paragon, src, message_size=32), "Br_Lin"
        ).elapsed_us
        t512 = run_broadcast(
            BroadcastProblem(square_paragon, src, message_size=512), "Br_Lin"
        ).elapsed_us
        assert t512 < 2.0 * t32
