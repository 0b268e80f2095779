"""Unit tests for the bench harness machinery (types, runner)."""

from __future__ import annotations

import pytest

from repro.bench.runner import seed_points, seed_times
from repro.bench.types import Check, FigureResult, Series
from repro.core.problem import BroadcastProblem
from repro.distributions import DISTRIBUTIONS
from repro.errors import ConfigurationError
from repro.machines import t3d
from repro.sweep import SweepExecutor


class TestSeries:
    def test_value_lookup(self):
        series = Series("t", "x", [1, 2, 3], {"a": [10.0, 20.0, 30.0]})
        assert series.value("a", 2) == 20.0

    def test_table_renders_all_cells(self):
        series = Series(
            "my title", "s", [1, 2], {"algo": [1.5, 2.5], "other": [3.0, 4.0]}
        )
        table = series.to_table()
        assert "my title" in table
        assert "1.500" in table and "4.000" in table
        assert "algo" in table and "other" in table

    def test_missing_curve_raises(self):
        series = Series("t", "x", [1], {"a": [1.0]})
        with pytest.raises(KeyError):
            series.value("b", 1)

    def test_long_labels_widen_every_column(self):
        # Golden-free formatting check: a curve name longer than the
        # default width (robustness grows a 17-char condition label)
        # must widen ALL columns instead of fusing into its neighbours.
        series = Series(
            "robustness",
            "condition",
            ["baseline", "node-fail+recover"],
            {"Br_xy_source": [1.0, 5.123], "Br_Lin": [1.0, 4.618]},
        )
        lines = series.to_table().splitlines()
        header, rows = lines[2], lines[3:]
        # Every rendered line is the same length (columns share a width).
        assert len({len(line) for line in [header, *rows]}) == 1
        # Columns are wide enough for the longest label plus separation,
        # so adjacent fields never touch.
        width = max(len("node-fail+recover"), len("Br_xy_source")) + 2
        assert header == (
            f"{'condition':>{width}}{'Br_xy_source':>{width}}{'Br_Lin':>{width}}"
        )
        for line in [header, *rows]:
            assert "  " in line.strip()  # visible gap between columns
        # Cell values line up under their curve names (right-aligned).
        assert rows[1].endswith("4.618")
        assert rows[1].strip().startswith("node-fail+recover")

    def test_short_labels_keep_the_default_width(self):
        series = Series("t", "x", [1, 2], {"a": [1.5, 2.5]})
        lines = series.to_table().splitlines()
        assert all(len(line) == 24 for line in lines[2:])  # 2 cols x 12


class TestCheckAndFigure:
    def test_check_str_pass_fail(self):
        assert str(Check("ok", True)).startswith("[PASS]")
        assert str(Check("bad", False, "why")).startswith("[FAIL]")
        assert "why" in str(Check("bad", False, "why"))

    def test_figure_all_passed(self):
        fig = FigureResult("F", "d")
        fig.checks.append(Check("a", True))
        assert fig.all_passed
        fig.checks.append(Check("b", False))
        assert not fig.all_passed

    def test_report_contains_everything(self):
        fig = FigureResult("Figure X", "stuff")
        fig.series.append(Series("t", "x", [1], {"a": [1.0]}))
        fig.checks.append(Check("criterion", True))
        fig.notes.append("a note")
        report = fig.report()
        assert "Figure X" in report
        assert "criterion" in report
        assert "a note" in report


def _measure(items, contention=True):
    """The paper's per-item times, measured on a fresh serial executor."""
    points = seed_points(items, contention=contention)
    return seed_times(items, SweepExecutor().run(points))


class TestSeedProtocol:
    def test_paragon_single_run(self, square_paragon):
        src = DISTRIBUTIONS["E"].generate(square_paragon, 10)
        problem = BroadcastProblem(square_paragon, src, message_size=512)
        item = (problem, "Br_Lin")
        assert [p.seed for p in seed_points([item])] == [0]
        # Two separate runs: one batch would compute the point once.
        [a] = _measure([item])
        [b] = _measure([item])
        assert a == b  # deterministic, one seed

    def test_t3d_averages_best_seeds(self):
        machine = t3d(32)
        src = DISTRIBUTIONS["E"].generate(machine, 8)
        problem = BroadcastProblem(machine, src, message_size=2048)
        from repro.core import run_broadcast

        assert [p.seed for p in seed_points([(problem, "Br_Lin")])] == [
            0, 1, 2, 3, 4
        ]
        [mean_best] = _measure([(problem, "Br_Lin")])
        singles = sorted(
            run_broadcast(problem, "Br_Lin", seed=s).elapsed_ms
            for s in range(5)
        )
        assert mean_best == pytest.approx(sum(singles[:4]) / 4)

    def test_contention_flag_forwarded(self, square_paragon):
        src = DISTRIBUTIONS["E"].generate(square_paragon, 40)
        problem = BroadcastProblem(square_paragon, src, message_size=16384)
        item = (problem, "Naive_Independent")
        [on] = _measure([item], contention=True)
        [off] = _measure([item], contention=False)
        assert on > off

    def test_hand_built_machine_rejected(self, line_machine):
        problem = BroadcastProblem(line_machine, (0, 3), message_size=64)
        with pytest.raises(ConfigurationError, match="has no spec"):
            seed_points([(problem, "Br_Lin")])
