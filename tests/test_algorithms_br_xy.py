"""Unit tests for Br_xy_source and Br_xy_dim."""

from __future__ import annotations

import pytest

from repro.core import BroadcastProblem, run_broadcast
from repro.core.algorithms import BrXYDim, BrXYSource
from repro.core.algorithms.br_xy import source_line_maxima
from repro.core.algorithms.common import GridView
from repro.core.structure import analyze_schedule
from repro.distributions import DISTRIBUTIONS
from repro.errors import AlgorithmError
from repro.machines import paragon


class TestDimensionChoice:
    def test_source_maxima_counting(self, small_paragon):
        # sources fill row 0 of the 4x5 mesh
        problem = BroadcastProblem(small_paragon, (0, 1, 2, 3, 4), message_size=8)
        view = GridView.full_machine(4, 5)
        max_r, max_c = source_line_maxima(problem, view)
        assert max_r == 5
        assert max_c == 1

    def test_xy_source_picks_columns_first_for_row_distribution(self):
        """max_r >= max_c for a row distribution => columns first."""
        machine = paragon(10, 10)
        src = DISTRIBUTIONS["R"].generate(machine, 30)
        problem = BroadcastProblem(machine, src, message_size=64)
        sched = BrXYSource().build_schedule(problem)
        assert sched.round_label[0].startswith("cols")

    def test_xy_source_picks_rows_first_for_column_distribution(self):
        machine = paragon(10, 10)
        src = DISTRIBUTIONS["C"].generate(machine, 30)
        problem = BroadcastProblem(machine, src, message_size=64)
        sched = BrXYSource().build_schedule(problem)
        assert sched.round_label[0].startswith("rows")

    def test_xy_dim_ignores_sources(self):
        machine = paragon(10, 10)  # r >= c => rows first, always
        for key in ("R", "C"):
            src = DISTRIBUTIONS[key].generate(machine, 30)
            sched = BrXYDim().build_schedule(
                BroadcastProblem(machine, src, message_size=64)
            )
            assert sched.round_label[0].startswith("rows")

    def test_xy_dim_columns_first_on_wide_mesh(self):
        machine = paragon(4, 30)  # r < c => columns first
        src = DISTRIBUTIONS["E"].generate(machine, 8)
        sched = BrXYDim().build_schedule(
            BroadcastProblem(machine, src, message_size=64)
        )
        assert sched.round_label[0].startswith("cols")


class TestScheduleStructure:
    def test_validates_across_shapes_and_distributions(self):
        for shape in ((4, 5), (10, 10), (5, 4), (3, 7)):
            machine = paragon(*shape)
            for key in ("R", "C", "E", "Dr", "Sq"):
                for s in (1, 3, machine.p // 2, machine.p):
                    src = DISTRIBUTIONS[key].generate(machine, s)
                    problem = BroadcastProblem(machine, src, message_size=16)
                    BrXYSource().build_schedule(problem).validate()
                    BrXYDim().build_schedule(problem).validate()

    def test_phase_transfers_stay_within_lines(self):
        """Row-phase messages move within rows; column-phase within columns."""
        machine = paragon(6, 6)
        src = DISTRIBUTIONS["E"].generate(machine, 9)
        problem = BroadcastProblem(machine, src, message_size=16)
        sched = BrXYSource().build_schedule(problem)
        for sender, receiver, rnd in zip(
            sched.send_src, sched.send_dst, sched.send_round
        ):
            sr, sc = machine.topology.coords(sender)
            dr, dc = machine.topology.coords(receiver)
            if sched.round_label[rnd].startswith("rows"):
                assert sr == dr
            else:
                assert sc == dc

    def test_rejected_on_t3d(self, small_t3d):
        problem = BroadcastProblem(small_t3d, (0, 1), message_size=16)
        with pytest.raises(AlgorithmError):
            BrXYSource().build_schedule(problem)
        assert not BrXYDim().supports(small_t3d)


class TestPaperShapes:
    def test_square_block_is_expensive(self):
        """Figure 6: Sq costs the xy algorithms more than row/column."""
        machine = paragon(10, 10)
        times = {}
        for key in ("R", "Sq"):
            src = DISTRIBUTIONS[key].generate(machine, 30)
            prob = BroadcastProblem(machine, src, message_size=2048)
            times[key] = run_broadcast(prob, "Br_xy_source").elapsed_us
        assert times["Sq"] > times["R"]

    def test_xy_dim_suffers_on_row_distribution(self):
        """Figure 6: the wrong first dimension hurts Br_xy_dim on R(s)."""
        machine = paragon(10, 10)
        src = DISTRIBUTIONS["R"].generate(machine, 30)
        prob = BroadcastProblem(machine, src, message_size=2048)
        t_dim = run_broadcast(prob, "Br_xy_dim").elapsed_us
        t_source = run_broadcast(prob, "Br_xy_source").elapsed_us
        assert t_dim > 1.2 * t_source

    def test_row_phase_spreads_row_unions(self):
        machine = paragon(4, 4)
        src = (0, 1, 2, 3)  # the whole first row
        problem = BroadcastProblem(machine, src, message_size=16)
        sched = BrXYSource().build_schedule(problem)
        profile = analyze_schedule(sched)
        assert profile.rounds[-1].active_ranks > 4
