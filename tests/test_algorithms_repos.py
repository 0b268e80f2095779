"""Unit tests for the repositioning algorithms (§3, §5.2)."""

from __future__ import annotations

import pytest

from repro.core import BroadcastProblem, run_broadcast
from repro.core.algorithms import ReposLin, ReposXYDim, ReposXYSource
from repro.core.algorithms.repos import repositioning_round
from repro.distributions import DISTRIBUTIONS
from repro.machines import paragon
from tests.schedule_view import round_sends


class TestRepositioningRound:
    def test_stable_matching_and_partiality(self, small_paragon):
        problem = BroadcastProblem(small_paragon, (2, 5, 9), message_size=8)
        transfers, holdings = repositioning_round(problem, (2, 7, 11))
        # source 2 already sits on target 2: no transfer for it
        moved = {(src, dst) for src, dst, _msgset in transfers}
        assert moved == {(5, 7), (9, 11)}
        assert holdings[2] == frozenset({2})
        assert holdings[7] == frozenset({5})
        assert holdings[11] == frozenset({9})

    def test_message_identity_preserved(self, small_paragon):
        problem = BroadcastProblem(small_paragon, (0, 1), message_size=8)
        transfers, holdings = repositioning_round(problem, (10, 11))
        assert holdings[10] == frozenset({0})
        assert holdings[11] == frozenset({1})
        for src, _dst, msgset in transfers:
            assert msgset == frozenset({src})

    def test_wrong_target_count_rejected(self, small_paragon):
        problem = BroadcastProblem(small_paragon, (0, 1), message_size=8)
        with pytest.raises(ValueError):
            repositioning_round(problem, (5,))


class TestSchedules:
    @pytest.mark.parametrize("algo_cls", [ReposLin, ReposXYSource, ReposXYDim])
    def test_validate_and_deliver(self, algo_cls, square_paragon):
        for key in ("Cr", "Sq", "E", "B"):
            for s in (5, 30, 75):
                src = DISTRIBUTIONS[key].generate(square_paragon, s)
                problem = BroadcastProblem(square_paragon, src, message_size=64)
                sched = algo_cls().build_schedule(problem)
                sched.validate()

    def test_first_round_is_the_permutation(self, square_paragon):
        src = DISTRIBUTIONS["Sq"].generate(square_paragon, 25)
        problem = BroadcastProblem(square_paragon, src, message_size=64)
        sched = ReposXYSource().build_schedule(problem)
        assert sched.round_label[0] == "reposition"
        # a permutation: distinct sources, distinct targets
        srcs = [t.src for t in round_sends(sched, 0)]
        dsts = [t.dst for t in round_sends(sched, 0)]
        assert len(set(srcs)) == len(srcs)
        assert len(set(dsts)) == len(dsts)

    def test_repos_lin_supported_off_mesh(self, small_t3d):
        problem = BroadcastProblem(small_t3d, (0, 3, 17), message_size=64)
        sched = ReposLin().build_schedule(problem)
        sched.validate()

    def test_repos_xy_rejected_off_mesh(self, small_t3d):
        assert not ReposXYSource().supports(small_t3d)
        assert not ReposXYDim().supports(small_t3d)

    def test_near_ideal_input_needs_few_moves(self):
        """Repositioning an already-ideal row distribution moves little."""
        from repro.core.algorithms.common import GridView
        from repro.core.ideal import ideal_row_sources

        machine = paragon(16, 16)
        ideal = ideal_row_sources(GridView.full_machine(16, 16), 32)
        problem = BroadcastProblem(machine, ideal, message_size=64)
        sched = ReposXYSource().build_schedule(problem)
        assert sched.round_label[0] != "reposition" or len(round_sends(sched, 0)) < 32


class TestPaperShapes:
    def test_repositioning_wins_on_cross(self):
        """Figure 9: large gains for the cross distribution."""
        machine = paragon(16, 16)
        src = DISTRIBUTIONS["Cr"].generate(machine, 75)
        problem = BroadcastProblem(machine, src, message_size=6144)
        t_plain = run_broadcast(problem, "Br_xy_source").elapsed_us
        t_repos = run_broadcast(problem, "Repos_xy_source").elapsed_us
        assert t_repos < 0.85 * t_plain

    def test_repositioning_loses_on_band(self):
        """Figure 9: the band is near-ideal already; repositioning costs."""
        machine = paragon(16, 16)
        src = DISTRIBUTIONS["B"].generate(machine, 75)
        problem = BroadcastProblem(machine, src, message_size=6144)
        t_plain = run_broadcast(problem, "Br_xy_source").elapsed_us
        t_repos = run_broadcast(problem, "Repos_xy_source").elapsed_us
        assert t_repos > t_plain

    def test_gain_shrinks_for_small_messages(self):
        """Figure 10: below ~1K, repositioning rarely pays."""
        machine = paragon(16, 16)
        src = DISTRIBUTIONS["Sq"].generate(machine, 75)

        def gain(L):
            problem = BroadcastProblem(machine, src, message_size=L)
            t_plain = run_broadcast(problem, "Br_xy_source").elapsed_us
            t_repos = run_broadcast(problem, "Repos_xy_source").elapsed_us
            return (t_plain - t_repos) / t_plain

        assert gain(6144) > gain(128)
