"""Unit tests for the partitioning algorithms (§3, §5.2)."""

from __future__ import annotations

import pytest

from repro.core import BroadcastProblem, run_broadcast
from repro.core.algorithms import PartLin, PartXYDim, PartXYSource
from repro.distributions import DISTRIBUTIONS
from repro.machines import paragon


class TestStructure:
    @pytest.mark.parametrize("algo_cls", [PartLin, PartXYSource, PartXYDim])
    def test_validate_and_deliver(self, algo_cls, square_paragon):
        for key in ("E", "Cr", "Sq"):
            for s in (1, 2, 30, 99):
                src = DISTRIBUTIONS[key].generate(square_paragon, s)
                problem = BroadcastProblem(square_paragon, src, message_size=64)
                algo_cls().build_schedule(problem).validate()

    def test_phases_in_order(self, square_paragon):
        src = DISTRIBUTIONS["E"].generate(square_paragon, 20)
        problem = BroadcastProblem(square_paragon, src, message_size=64)
        sched = PartLin().build_schedule(problem)
        labels = [r.label for r in sched.rounds]
        assert labels[0] == "reposition"
        assert labels[-1] == "exchange"
        assert any(lbl.startswith("group-bcast") for lbl in labels)

    def test_exchange_pairs_swap_group_data(self, square_paragon):
        src = DISTRIBUTIONS["E"].generate(square_paragon, 20)
        problem = BroadcastProblem(square_paragon, src, message_size=64)
        sched = PartLin().build_schedule(problem)
        exchange = sched.rounds[-1]
        # every processor participates exactly once in each direction
        srcs = [t.src for t in exchange]
        dsts = [t.dst for t in exchange]
        assert len(set(srcs)) == len(srcs) == square_paragon.p
        assert len(set(dsts)) == len(dsts) == square_paragon.p

    def test_sources_split_proportionally(self, square_paragon):
        src = DISTRIBUTIONS["E"].generate(square_paragon, 30)
        problem = BroadcastProblem(square_paragon, src, message_size=64)
        sched = PartLin().build_schedule(problem)
        exchange = sched.rounds[-1]
        sizes = {len(t.msgset) for t in exchange}
        assert sizes == {15}  # s1 = s2 = 15 on equal halves

    def test_all_sources_in_one_group_still_works(self, square_paragon):
        # a single source: one group gets it, the other gets none
        problem = BroadcastProblem(square_paragon, (0,), message_size=64)
        sched = PartLin().build_schedule(problem)
        sched.validate()

    def test_doubly_odd_mesh_unsupported(self):
        machine = paragon(3, 5)
        assert not PartLin().supports(machine)
        assert not PartXYSource().supports(machine)

    def test_split_respects_larger_dimension(self):
        machine = paragon(4, 8)
        src = DISTRIBUTIONS["E"].generate(machine, 8)
        problem = BroadcastProblem(machine, src, message_size=64)
        sched = PartXYSource().build_schedule(problem)
        exchange = sched.rounds[-1]
        # split along columns: partners differ by 4 columns
        for t in exchange:
            sr, sc = machine.topology.coords(t.src)
            dr, dc = machine.topology.coords(t.dst)
            assert sr == dr and abs(sc - dc) == 4


class TestPaperShapes:
    def test_partitioning_rarely_beats_repositioning(self):
        """§5.2: the final exchange of large messages dominates."""
        machine = paragon(16, 16)
        wins = 0
        trials = 0
        for key in ("Cr", "Sq", "E"):
            for s in (32, 75):
                src = DISTRIBUTIONS[key].generate(machine, s)
                problem = BroadcastProblem(machine, src, message_size=6144)
                t_repos = run_broadcast(problem, "Repos_xy_source").elapsed_us
                t_part = run_broadcast(problem, "Part_xy_source").elapsed_us
                trials += 1
                if t_part < t_repos:
                    wins += 1
        assert wins <= trials // 3  # "hardly ever gives a better performance"
