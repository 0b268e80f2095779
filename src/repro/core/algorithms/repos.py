"""Repositioning algorithms (§3): permute, then broadcast on an ideal input.

A repositioning algorithm is composed from a non-repositioning
algorithm and an ideal input distribution for it on the given machine:
first a *partial permutation* moves every source's message to its slot
in the ideal distribution (one round of concurrent point-to-point
sends; sources already in place send nothing), then the target
algorithm broadcasts from the ideal distribution.

Following §5.2, the current implementations "do not check whether the
initial distribution is close to an ideal distribution and always
reposition" — quantifying when that loses (the band distribution, large
s, tiny messages) is exactly what Figures 9 and 10 measure.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Sequence, Tuple

from repro.core import ideal
from repro.core.algorithms.base import BroadcastAlgorithm, register
from repro.core.algorithms.br_xy import build_xy_schedule, source_line_maxima
from repro.core.algorithms.common import (
    GridView,
    Send,
    apply_round,
    halving_rounds,
)
from repro.core.problem import BroadcastProblem
from repro.core.schedule import Schedule

__all__ = ["ReposLin", "ReposXYSource", "ReposXYDim", "repositioning_round"]


def repositioning_round(
    problem: BroadcastProblem, targets: Sequence[int]
) -> Tuple[Tuple[Send, ...], Dict[int, FrozenSet[int]]]:
    """The permutation round moving sources onto ``targets``.

    Source *j* (in sorted rank order) moves to target *j* (sorted), a
    stable matching that keeps the permutation partial whenever source
    and target sets overlap.  Returns the sends plus the post-round
    holdings map (target rank → original message ids), which the target
    algorithm's phase builders consume directly — message identity is
    preserved, only position changes.
    """
    sources = problem.sources
    target_list = tuple(sorted(targets))
    if len(target_list) != len(sources):
        raise ValueError(
            f"need {len(sources)} targets, got {len(target_list)}"
        )
    empty: FrozenSet[int] = frozenset()
    holdings: Dict[int, FrozenSet[int]] = {
        rank: empty for rank in range(problem.p)
    }
    sends = []
    for src, dst in zip(sources, target_list):
        if src == dst:
            holdings[dst] = holdings[dst] | frozenset((src,))
        else:
            sends.append((src, dst, frozenset((src,))))
    apply_round(holdings, sends)
    # Original sources keep their own message (sends copy, not move) —
    # but the broadcast phase treats only the targets as holders, so we
    # deliberately do not add them back: this reproduces the paper's
    # model where the moved message *is* the broadcast payload.  The
    # original source receives its message back through the broadcast.
    return tuple(sends), holdings


@register
class ReposLin(BroadcastAlgorithm):
    """Repositioning onto ``Br_Lin``'s ideal linear placement."""

    name = "Repos_Lin"
    requires_mesh = False

    def build_schedule(self, problem: BroadcastProblem) -> Schedule:
        targets = ideal.ideal_linear_sources(problem.machine, problem.s)
        schedule = Schedule(problem, algorithm=self.name)
        sends, holdings = repositioning_round(problem, targets)
        with schedule.span("reposition"):
            schedule.add_round(sends, label="reposition")
        order = problem.machine.linear_order()
        with schedule.span("halving"):
            for idx, rnd in enumerate(halving_rounds(order, holdings)):
                schedule.add_round(rnd, label=f"halving-{idx}")
        return schedule


class _ReposXY(BroadcastAlgorithm):
    """Shared machinery for the xy repositioning algorithms."""

    requires_mesh = True

    def _rows_first(self, problem: BroadcastProblem, view: GridView) -> bool:
        raise NotImplementedError

    def build_schedule(self, problem: BroadcastProblem) -> Schedule:
        self.check_supported(problem)
        rows, cols = problem.machine.mesh_shape
        view = GridView.full_machine(rows, cols)
        targets = ideal.ideal_row_sources(problem.machine, problem.s)
        schedule = Schedule(problem, algorithm=self.name)
        sends, holdings = repositioning_round(problem, targets)
        with schedule.span("reposition"):
            schedule.add_round(sends, label="reposition")
        ideal_problem = problem.replace_sources(targets)
        rows_first = self._rows_first(ideal_problem, view)
        return build_xy_schedule(
            problem, view, rows_first, self.name, schedule, holdings
        )


@register
class ReposXYSource(_ReposXY):
    """Repositioning onto the ideal row distribution, then Br_xy_source."""

    name = "Repos_xy_source"

    def _rows_first(self, problem: BroadcastProblem, view: GridView) -> bool:
        # Dimension choice is made on the *ideal* (post-permutation)
        # distribution, as Br_xy_source would see it.
        max_r, max_c = source_line_maxima(problem, view)
        return max_r < max_c


@register
class ReposXYDim(_ReposXY):
    """Repositioning onto the ideal row distribution, then Br_xy_dim."""

    name = "Repos_xy_dim"

    def _rows_first(self, problem: BroadcastProblem, view: GridView) -> bool:
        rows, cols = problem.machine.mesh_shape
        return rows >= cols
