"""Machine-dimension-aware ideal source distributions (§3, §4).

The repositioning algorithms permute the sources into a distribution
that is *ideal for the target algorithm on the given machine*.  The
paper stresses that ideality depends on the machine's dimensions, not
just the pattern: R(20) on a 10x10 mesh is ideal with rows {0, 6} but
wastes an iteration with the evenly spaced rows {0, 5}, because rows 0
and 5 are halving partners.

Rather than hard-coding per-dimension case analysis, this module
*searches*: :func:`best_line_positions` scores placements with the
LogP-style finish-time estimator and keeps the lowest score.  Where
``C(n, k)`` is at most 20,000 it scans every placement in
lexicographic order and keeps the *first* minimum; past that it scores
structured candidates (evenly spaced with phase shifts, recursive tree
placements with misalignment shifts, bit-reversed orders) and
hill-climbs.  Results are cached; the search is a pure function of
``(n, k)``.

The estimator ties heavily, and the tie rule decides the pick.  For
R(20) on 10x10 the scan over row pairs (n = 10, k = 2) returns rows
{0, 1}, not the paper's {0, 6}: 24 of the 45 pairs tie at the minimum
score, 419.264 — {0, 1}, {0, 4}, {0, 6} and {0, 9} among them — while
the even spacing {0, 5} scores 523.712.  The tie hides real
differences (Br_xy_source on paragon:10x10 takes 2,642.5 µs from rows
{0, 6}, 2,752.0 from {0, 4}).  Every (n, k) the committed experiments
reach takes the exhaustive scan.

Generators provided:

* :func:`ideal_row_sources` — the ideal row distribution used by
  ``Repos_xy_*`` on the machine and ``Part_xy_*`` in each group (full
  rows at searched row positions);
* :func:`ideal_linear_sources` — searched positions on a linear
  (snake) order, used by ``Repos_Lin`` and ``Part_Lin``.

The paper's named ideal for ``Br_Lin`` (§4), the left diagonal, is the
``Dl`` distribution (``DISTRIBUTIONS["Dl"]``).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import List, Sequence, Tuple

from repro.core.structure import estimate_halving_time
from repro.errors import DistributionError

__all__ = [
    "best_line_positions",
    "ideal_row_sources",
    "ideal_linear_sources",
]

#: Exhaustive search bound: enumerate all C(n, k) placements below this.
_EXHAUSTIVE_LIMIT = 20_000


def _tree_positions(n: int, k: int, shift: int) -> Tuple[int, ...]:
    """Recursive halving-tree placement with upper-half misalignment.

    Splits ``k`` sources ceil/floor across the halving segments; the
    upper half's placement is cyclically shifted by ``shift`` so lower
    and upper sources avoid becoming halving partners (the paper's
    {0, 6} versus {0, 5} effect).  Only a structured candidate: lines
    small enough for the exhaustive scan (10 rows among them, where the
    scan picks {0, 1}) never reach it.
    """
    if k <= 0:
        return ()
    if n == 1 or k == n:
        return tuple(range(k))
    mid = (n + 1) // 2
    upper = n - mid
    k_low = min((k + 1) // 2, mid)
    k_up = k - k_low
    if k_up > upper:  # rebalance when the upper half is too small
        k_low += k_up - upper
        k_up = upper
    low = _tree_positions(mid, k_low, shift)
    up = _tree_positions(upper, k_up, shift)
    shifted_up = tuple(sorted((x + shift) % upper for x in up)) if up else ()
    return low + tuple(mid + x for x in shifted_up)


def _bit_reversed_positions(n: int, k: int) -> Tuple[int, ...]:
    """First ``k`` in-range values of the bit-reversed counting order."""
    bits = max(n - 1, 1).bit_length()
    out: List[int] = []
    for v in range(1 << bits):
        r = int(format(v, f"0{bits}b")[::-1], 2)
        if r < n:
            out.append(r)
            if len(out) == k:
                break
    return tuple(sorted(out))


def _candidate_placements(n: int, k: int) -> List[Tuple[int, ...]]:
    """Structured candidate position sets for ``k`` sources on ``n`` slots."""
    candidates = set()
    spacing = max(n // k, 1)
    for offset in range(min(spacing, 4)):
        candidates.add(
            tuple(sorted((offset + (j * n) // k) % n for j in range(k)))
        )
    for shift in range(min(4, n)):
        candidates.add(tuple(sorted(_tree_positions(n, k, shift))))
    candidates.add(_bit_reversed_positions(n, k))
    # Drop malformed candidates defensively (duplicates after mod).
    return [c for c in candidates if len(set(c)) == k]


@lru_cache(maxsize=4096)
def best_line_positions(n: int, k: int) -> Tuple[int, ...]:
    """The best-scoring placement of ``k`` sources on ``n`` line slots.

    Exhaustive for small ``C(n, k)``, keeping the lexicographically
    first of the placements that tie at the minimum score (``(0, 1)``
    for ``(10, 2)``, one of 24 ties); otherwise the best structured
    candidate, refined by a bounded hill-climb for small ``n``.
    """
    if not 1 <= k <= n:
        raise DistributionError(f"need 1 <= k <= n, got k={k}, n={n}")
    if k == n:
        return tuple(range(n))

    def score(positions: Sequence[int]) -> float:
        return estimate_halving_time(n, positions)

    if math.comb(n, k) <= _EXHAUSTIVE_LIMIT:
        best = min(itertools.combinations(range(n), k), key=score)
        return tuple(best)
    best = min(_candidate_placements(n, k), key=score)
    if n <= 64:
        best = _hill_climb(n, k, best, score)
    return tuple(sorted(best))


def _hill_climb(n, k, start, score):
    """Single-swap local improvement, bounded to three improving swaps
    to keep the search cheap."""
    current = set(start)
    best_score = score(tuple(sorted(current)))
    for _ in range(3):
        improved = False
        for src in sorted(current):
            for dst in range(n):
                if dst in current:
                    continue
                trial = tuple(sorted(current - {src} | {dst}))
                trial_score = score(trial)
                if trial_score < best_score - 1e-9:
                    current = set(trial)
                    best_score = trial_score
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    return tuple(sorted(current))


# -- source generators ----------------------------------------------------


def ideal_row_sources(view, s: int) -> Tuple[int, ...]:
    """Ideal row distribution on ``view``: full rows at searched positions.

    ``view`` is a :class:`~repro.core.algorithms.common.GridView`: a
    machine's logical grid, or one partition group.  ``ceil(s / cols)``
    of its rows are chosen by :func:`best_line_positions` over the
    column length (the dimension the second, column phase of
    ``Br_xy_*`` broadcasts along); each chosen row is filled from the
    left, the last one partially.
    """
    _check_s(view.rows * view.cols, s)
    ranks: List[int] = []
    remaining = s
    for row in best_line_positions(view.rows, math.ceil(s / view.cols)):
        take = min(view.cols, remaining)
        ranks.extend(view.cells[row][:take])
        remaining -= take
    return tuple(sorted(ranks))


def ideal_linear_sources(order: Sequence[int], s: int) -> Tuple[int, ...]:
    """Ideal sources for ``Br_Lin``: searched slots on a linear ``order``
    (a machine's :meth:`~repro.machines.machine.Machine.linear_order`, or
    a partition group's snake order)."""
    _check_s(len(order), s)
    positions = best_line_positions(len(order), s)
    return tuple(sorted(order[pos] for pos in positions))


def _check_s(slots: int, s: int) -> None:
    if not 1 <= s <= slots:
        raise DistributionError(f"s must be in [1, {slots}], got {s}")
