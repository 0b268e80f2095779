"""Partitioning algorithms (§3): reposition + split + broadcast + exchange.

These exploit the observation that broadcasting ``s/2`` sources on a
``p/2``-processor machine is often less than half the cost of the full
problem.  The machine is split into two equal groups (along its larger
dimension — the partition is independent of the sources, §3); the
repositioning permutation sends ``s1 : s2 = p1 : p2`` sources into
ideal placements inside each group; the two groups broadcast
independently and in parallel; finally every processor exchanges its
accumulated data with an assigned partner in the other group.

That final pairwise exchange moves ``s1·L`` / ``s2·L`` bytes per pair —
on the Paragon it dominates and erases the halved-broadcast gain, which
is §5.2's conclusion ("the partitioning approach hardly ever gives a
better performance than repositioning alone").
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from repro.core.algorithms.base import BroadcastAlgorithm, register
from repro.core.algorithms.br_xy import source_line_maxima, xy_phase_rounds
from repro.core.algorithms.common import (
    GridView,
    Send,
    halving_rounds,
    merge_rounds,
)
from repro.core.algorithms.repos import repositioning_round
from repro.core.ideal import ideal_linear_sources, ideal_row_sources
from repro.core.problem import BroadcastProblem
from repro.core.schedule import Schedule
from repro.errors import AlgorithmError

__all__ = ["PartLin", "PartXYSource", "PartXYDim"]


class _PartBase(BroadcastAlgorithm):
    """Split / reposition / parallel-broadcast / exchange scaffolding."""

    requires_mesh = True

    def supports(self, machine) -> bool:
        if not super().supports(machine):
            return False
        rows, cols = machine.mesh_shape
        return rows % 2 == 0 or cols % 2 == 0

    def _group_targets(self, view: GridView, count: int) -> Tuple[int, ...]:
        """Ideal placement of ``count`` > 0 sources inside one group view."""
        raise NotImplementedError

    def _group_rounds(
        self,
        problem: BroadcastProblem,
        view: GridView,
        holdings: Dict[int, FrozenSet[int]],
    ) -> List[List[Send]]:
        """The broadcast rounds of one group, given post-permutation holdings."""
        raise NotImplementedError

    def build_schedule(self, problem: BroadcastProblem) -> Schedule:
        self.check_supported(problem)
        rows, cols = problem.machine.mesh_shape
        view = GridView.full_machine(rows, cols)
        try:
            g1, g2 = view.split()
        except AlgorithmError as exc:
            raise AlgorithmError(
                f"{self.name}: {exc} (partitioning requires an even "
                "larger dimension for the final pairwise exchange)"
            ) from exc
        p1 = g1.rows * g1.cols
        s = problem.s
        # Proportional source split (p1 == p2, so s1 = round(s/2)),
        # clamped to each group's capacity.
        s1 = min(max(round(s * p1 / problem.p), s - p1), p1, s)
        s2 = s - s1
        targets1 = self._group_targets(g1, s1) if s1 else ()
        targets2 = self._group_targets(g2, s2) if s2 else ()
        schedule = Schedule(problem, algorithm=self.name)
        sends, holdings = repositioning_round(
            problem, tuple(targets1) + tuple(targets2)
        )
        with schedule.span("reposition"):
            schedule.add_round(sends, label="reposition")
        # Parallel, independent broadcasts within the two groups.
        rounds1 = self._group_rounds(problem, g1, holdings)
        rounds2 = self._group_rounds(problem, g2, holdings)
        with schedule.span("group-bcast"):
            for idx, rnd in enumerate(merge_rounds((rounds1, rounds2))):
                schedule.add_round(rnd, label=f"group-bcast-{idx}")
        # Final exchange: the i-th processor of G1 (row-major) pairs
        # with the i-th of G2 and they swap their groups' full data.
        set1 = frozenset().union(
            *(holdings[rank] for rank in g1.all_ranks())
        ) if s1 else frozenset()
        set2 = frozenset().union(
            *(holdings[rank] for rank in g2.all_ranks())
        ) if s2 else frozenset()
        exchange: List[Send] = []
        for rank1, rank2 in zip(g1.all_ranks(), g2.all_ranks()):
            if set1:
                exchange.append((rank1, rank2, set1))
            if set2:
                exchange.append((rank2, rank1, set2))
        with schedule.span("exchange"):
            schedule.add_round(exchange, label="exchange")
        return schedule


@register
class PartLin(_PartBase):
    """Partitioning with ``Br_Lin`` inside each group."""

    name = "Part_Lin"

    def _group_targets(self, view: GridView, count: int) -> Tuple[int, ...]:
        return ideal_linear_sources(view.snake_order(), count)

    def _group_rounds(self, problem, view, holdings):
        return halving_rounds(view.snake_order(), holdings)


class _PartXY(_PartBase):
    """Partitioning with a per-dimension algorithm inside each group."""

    def _rows_first(
        self, view: GridView, holders: FrozenSet[int]
    ) -> bool:
        raise NotImplementedError

    def _group_targets(self, view: GridView, count: int) -> Tuple[int, ...]:
        return ideal_row_sources(view, count)

    def _group_rounds(self, problem, view, holdings):
        # Dimension choice is made on the post-permutation (ideal)
        # distribution inside this group, as the inner algorithm would
        # see it when invoked after the repositioning.
        holders = frozenset(
            rank for rank in view.all_ranks() if holdings[rank]
        )
        first_rows = self._rows_first(view, holders)
        first, second = (
            (view.row_lines(), view.col_lines())
            if first_rows
            else (view.col_lines(), view.row_lines())
        )
        return xy_phase_rounds(first, holdings) + xy_phase_rounds(
            second, holdings
        )


@register
class PartXYSource(_PartXY):
    """Partitioning with ``Br_xy_source`` inside each group."""

    name = "Part_xy_source"

    def _rows_first(self, view: GridView, holders: FrozenSet[int]) -> bool:
        max_r, max_c = source_line_maxima(view, holders)
        return max_r < max_c


@register
class PartXYDim(_PartXY):
    """Partitioning with ``Br_xy_dim`` inside each group."""

    name = "Part_xy_dim"

    def _rows_first(self, view: GridView, holders: FrozenSet[int]) -> bool:
        return view.rows >= view.cols
