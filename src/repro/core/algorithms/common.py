"""Shared schedule-building machinery.

The centrepiece is :func:`halving_pairs` — the paper's recursive-halving
communication structure, shared by ``Br_Lin`` (exchange form), the
one-to-all broadcast step of ``2-Step`` (which the paper implements
"with the same communication pattern used in Algorithm Br_Lin"), and
the per-line phases of the ``Br_xy_*`` algorithms.

The structure on ``n`` positions is ``ceil(log2 n)`` iterations.
Iteration 0 splits ``[0, n)`` into a lower half of ``ceil(n/2)``
positions and an upper half of ``floor(n/2)``, pairing lower *i* with
upper *i*; each half then recurses, and all segments at the same depth
run in the same iteration.  For odd segments the unpaired lower-middle
position additionally one-way feeds the upper half's last position, so
both halves collectively hold the segment's full message union — this
is why, on meshes "with an odd number of rows, new sources are
introduced" where power-of-two sizes introduce none (§2).

:func:`halving_rounds` turns pair structure into concrete
``(src, dst, msgset)`` sends, applying the paper's rule: partners
exchange when both hold messages, one-way send when only one does,
stay silent when neither does.  :func:`merge_rounds` runs such round
lists side by side, on disjoint groups of ranks.
"""

from __future__ import annotations

from itertools import chain, zip_longest
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.core.problem import BroadcastProblem
from repro.errors import AlgorithmError

__all__ = [
    "halving_pairs",
    "folding_pairs",
    "halving_rounds",
    "merge_rounds",
    "GridView",
    "initial_holdings_map",
    "apply_round",
]

#: One communication pair: (position_a, position_b, one_way).
#: ``one_way`` pairs only ever move data a -> b (the odd-segment feed).
Pair = Tuple[int, int, bool]

#: One send, as :meth:`~repro.core.schedule.Schedule.add_round` takes
#: it: (source rank, destination rank, message set).
Send = Tuple[int, int, FrozenSet[int]]


def halving_pairs(n: int) -> List[List[Pair]]:
    """The recursive-halving pair structure on positions ``[0, n)``.

    Returns one list of pairs per iteration (``ceil(log2 n)`` of them).
    """
    if n <= 0:
        raise AlgorithmError(f"halving_pairs needs n >= 1, got {n}")
    iterations: List[List[Pair]] = []
    segments: List[Tuple[int, int]] = [(0, n)]  # (lo, size)
    while any(size > 1 for _, size in segments):
        pairs: List[Pair] = []
        next_segments: List[Tuple[int, int]] = []
        for lo, size in segments:
            if size <= 1:
                next_segments.append((lo, size))
                continue
            mid = (size + 1) // 2  # lower-half size (ceil)
            upper = size - mid
            for i in range(upper):
                pairs.append((lo + i, lo + mid + i, False))
            if size % 2 == 1:
                # Unpaired lower-middle feeds the upper half so it also
                # collectively holds every message of the segment.
                pairs.append((lo + mid - 1, lo + size - 1, True))
            next_segments.append((lo, mid))
            next_segments.append((lo + mid, upper))
        iterations.append(pairs)
        segments = next_segments
    return iterations


def folding_pairs(n: int) -> List[List[Pair]]:
    """The recursive-halving structure *reversed*: a combining fold.

    Running :func:`halving_pairs` backwards turns the broadcast tree
    into its mirror-image gather: each iteration one-way moves data
    ``b -> a`` (encoded as ``(pos_b, pos_a, True)``), deepest segments
    first, until position 0 has combined contributions from all ``n``
    positions.  Exactly ``ceil(log2 n)`` iterations, like the forward
    structure — this is the "recovery re-dissemination is just another
    broadcast round" observation applied to the collection side: fold
    to position 0, then broadcast back out with :func:`halving_pairs`.

    By induction on the segment tree: after the fold's first iteration
    (the last halving iteration) every depth-d segment's lower half
    head holds its half's union, and each subsequent iteration merges
    sibling halves one level up, so after all iterations position 0 —
    the root segment's head — holds the union over ``[0, n)``.
    """
    return [
        [(pos_b, pos_a, True) for pos_a, pos_b, _one_way in pairs]
        for pairs in reversed(halving_pairs(n))
    ]


def initial_holdings_map(
    problem: BroadcastProblem, ranks: Sequence[int]
) -> Dict[int, FrozenSet[int]]:
    """Initial per-rank message sets restricted to ``ranks``."""
    empty: FrozenSet[int] = frozenset()
    return {
        rank: frozenset((rank,)) if problem.is_source(rank) else empty
        for rank in ranks
    }


def apply_round(
    holdings: Dict[int, FrozenSet[int]], sends: Sequence[Send]
) -> None:
    """Advance ``holdings`` past one round (snapshot semantics: each
    send carries the set its sender held before the round)."""
    for _src, dst, msgset in sends:
        holdings[dst] = holdings[dst] | msgset


def halving_rounds(
    order: Sequence[int], holdings: Dict[int, FrozenSet[int]]
) -> List[List[Send]]:
    """Concrete send rounds of the halving pattern over ``order``.

    ``order[j]`` is the rank at linear position ``j``; ``holdings`` maps
    each of those ranks to its current message set and is updated in
    place (callers compose phases by chaining calls).

    Exchange rule per pair (a, b): both non-empty → exchange; exactly
    one non-empty → one-way send; both empty → silence.  One-way
    structural pairs only ever move a → b.
    """
    rounds: List[List[Send]] = []
    for pairs in halving_pairs(len(order)):
        sends: List[Send] = []
        for pos_a, pos_b, one_way in pairs:
            rank_a, rank_b = order[pos_a], order[pos_b]
            held_a, held_b = holdings[rank_a], holdings[rank_b]
            if held_a:
                sends.append((rank_a, rank_b, held_a))
            if not one_way and held_b:
                sends.append((rank_b, rank_a, held_b))
        apply_round(holdings, sends)
        rounds.append(sends)
    return rounds


def merge_rounds(per_group: Sequence[List[List[Send]]]) -> List[List[Send]]:
    """Round lists of parallel groups run side by side.

    Round *k* is the union of every group's round *k*, taken in group
    order; a group with fewer rounds drops out once it has run them.
    """
    return [
        list(chain.from_iterable(rounds))
        for rounds in zip_longest(*per_group, fillvalue=())
    ]


class GridView:
    """A rows x cols arrangement of (global) ranks.

    The full machine grid for the plain ``Br_xy_*`` algorithms; a
    submesh for the partitioning algorithms.  Lines (rows/columns of the
    view) are what the per-dimension phases of ``Br_xy_*`` operate on.
    """

    def __init__(self, cells: Sequence[Sequence[int]]) -> None:
        if not cells or not cells[0]:
            raise AlgorithmError("GridView needs at least one cell")
        width = len(cells[0])
        for row in cells:
            if len(row) != width:
                raise AlgorithmError("GridView rows must have equal length")
        self.cells: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(row) for row in cells
        )
        self.rows = len(self.cells)
        self.cols = width

    @classmethod
    def full_machine(cls, rows: int, cols: int) -> "GridView":
        """Row-major view of a whole mesh machine."""
        return cls(
            [[r * cols + c for c in range(cols)] for r in range(rows)]
        )

    def row_lines(self) -> List[List[int]]:
        """The view's rows as rank lists."""
        return [list(row) for row in self.cells]

    def col_lines(self) -> List[List[int]]:
        """The view's columns as rank lists."""
        return [
            [self.cells[r][c] for r in range(self.rows)]
            for c in range(self.cols)
        ]

    def all_ranks(self) -> List[int]:
        """Every rank in the view, row-major."""
        return [rank for row in self.cells for rank in row]

    @property
    def splittable(self) -> bool:
        """Whether an equal two-way split exists (some even dimension)."""
        return self.cols % 2 == 0 or self.rows % 2 == 0

    def split(self) -> Tuple["GridView", "GridView"]:
        """Halve into two equal submeshes.

        Prefers the larger dimension, falls back to the other if the
        larger one is odd; raises when both dimensions are odd (the
        partitioning algorithms need equal halves for their final
        pairwise exchange).
        """
        if not self.splittable:
            raise AlgorithmError(
                f"cannot split {self.rows}x{self.cols} into equal halves: "
                "both dimensions are odd"
            )
        split_cols = (
            self.cols % 2 == 0
            if self.rows % 2
            else (self.cols >= self.rows if self.cols % 2 == 0 else False)
        )
        if split_cols:
            half = self.cols // 2
            left = GridView([row[:half] for row in self.cells])
            right = GridView([row[half:] for row in self.cells])
            return left, right
        half = self.rows // 2
        top = GridView(self.cells[:half])
        bottom = GridView(self.cells[half:])
        return top, bottom

    def snake_order(self) -> List[int]:
        """Boustrophedon order of the view's ranks (linear-array view)."""
        order: List[int] = []
        for r, row in enumerate(self.cells):
            order.extend(row if r % 2 == 0 else reversed(row))
        return order

    def __repr__(self) -> str:
        return f"<GridView {self.rows}x{self.cols}>"
