"""Algorithms Br_xy_source and Br_xy_dim (§2): one dimension at a time.

Both algorithms run the ``Br_Lin`` halving pattern *within each line*
of one mesh dimension, then within each line of the other.  After the
first phase every line that contained a source has broadcast its union
to all its processors; the second phase then broadcasts those unions
across the perpendicular lines, completing the s-to-p broadcast.

They differ only in dimension order:

* ``Br_xy_source`` inspects the distribution: with ``max_r`` the
  maximum number of sources in any row and ``max_c`` in any column, it
  goes **rows first iff max_r < max_c** — the dimension whose lines
  hold fewer sources goes first, so the messages entering the second
  (long-haul) phase are as small as possible.
* ``Br_xy_dim`` ignores the sources and goes **rows first iff r >= c**
  (more, and therefore shorter, lines first).  Figure 6's row
  distribution on a 10x10 mesh shows what this costs when it guesses
  wrong.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, List

from repro.core.algorithms.base import BroadcastAlgorithm, register
from repro.core.algorithms.common import (
    GridView,
    Send,
    halving_rounds,
    initial_holdings_map,
    merge_rounds,
)
from repro.core.problem import BroadcastProblem
from repro.core.schedule import Schedule

__all__ = ["BrXYSource", "BrXYDim", "xy_phase_rounds", "source_line_maxima"]


def xy_phase_rounds(
    lines: List[List[int]], holdings: Dict[int, FrozenSet[int]]
) -> List[List[Send]]:
    """Halving rounds run simultaneously across parallel ``lines``.

    All lines have equal length, so their halving structures have the
    same depth; round *k* of the phase is the union of round *k* of
    every line.  ``holdings`` is advanced in place.
    """
    return merge_rounds([halving_rounds(line, holdings) for line in lines])


def source_line_maxima(view: GridView, holders: AbstractSet[int]) -> tuple:
    """``(max_r, max_c)``: max ``holders`` in any row / any column of ``view``."""
    max_r = max(
        (sum(1 for rank in line if rank in holders) for line in view.row_lines()),
        default=0,
    )
    max_c = max(
        (sum(1 for rank in line if rank in holders) for line in view.col_lines()),
        default=0,
    )
    return max_r, max_c


def build_xy_schedule(
    problem: BroadcastProblem,
    view: GridView,
    rows_first: bool,
    name: str,
    schedule: Schedule | None = None,
    holdings: Dict[int, FrozenSet[int]] | None = None,
) -> Schedule:
    """Two-phase per-dimension schedule over ``view``.

    ``schedule``/``holdings`` allow the repositioning and partitioning
    algorithms to append the xy phases after their own rounds.
    """
    if schedule is None:
        schedule = Schedule(problem, algorithm=name)
    if holdings is None:
        holdings = initial_holdings_map(problem, view.all_ranks())
    first, second = (
        (view.row_lines(), view.col_lines())
        if rows_first
        else (view.col_lines(), view.row_lines())
    )
    first_tag, second_tag = ("rows", "cols") if rows_first else ("cols", "rows")
    with schedule.span(first_tag):
        for idx, sends in enumerate(xy_phase_rounds(first, holdings)):
            schedule.add_round(sends, label=f"{first_tag}-{idx}")
    with schedule.span(second_tag):
        for idx, sends in enumerate(xy_phase_rounds(second, holdings)):
            schedule.add_round(sends, label=f"{second_tag}-{idx}")
    return schedule


@register
class BrXYSource(BroadcastAlgorithm):
    """Dimension order chosen from the source distribution."""

    name = "Br_xy_source"
    requires_mesh = True

    def build_schedule(self, problem: BroadcastProblem) -> Schedule:
        self.check_supported(problem)
        rows, cols = problem.machine.mesh_shape
        view = GridView.full_machine(rows, cols)
        max_r, max_c = source_line_maxima(view, problem.source_set)
        rows_first = max_r < max_c
        return build_xy_schedule(problem, view, rows_first, self.name)


@register
class BrXYDim(BroadcastAlgorithm):
    """Dimension order chosen from the mesh dimensions alone."""

    name = "Br_xy_dim"
    requires_mesh = True

    def build_schedule(self, problem: BroadcastProblem) -> Schedule:
        self.check_supported(problem)
        rows, cols = problem.machine.mesh_shape
        view = GridView.full_machine(rows, cols)
        rows_first = rows >= cols
        return build_xy_schedule(problem, view, rows_first, self.name)
