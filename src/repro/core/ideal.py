"""Machine-dimension-aware ideal source distributions (§3, §4).

The repositioning algorithms permute the sources into a distribution
that is *ideal for the target algorithm on the given machine*.  The
paper stresses that ideality depends on the machine's dimensions, not
just the pattern: R(20) on a 10x10 mesh is ideal with rows {0, 6} but
wastes an iteration with the evenly spaced rows {0, 5}, because rows 0
and 5 are halving partners.

Rather than hard-coding per-dimension case analysis, this module
*searches*: :func:`best_line_positions` scores a set of structured
candidate placements (evenly spaced with phase shifts, recursive
tree placements with misalignment shifts, bit-reversed orders, and —
for small lines — exhaustive enumeration) with the LogP-style
finish-time estimator and keeps the winner.  Results are cached; the
search is a pure function of ``(n, k)``.

Generators provided:

* :func:`ideal_row_sources` — the ideal row distribution used by
  ``Repos_xy_source`` / ``Repos_xy_dim`` (full rows at searched row
  positions);
* :func:`ideal_linear_sources` — searched positions on the machine's
  linear (snake) order, used by ``Repos_Lin``.

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
from repro.machines.machine import Machine

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
    and upper sources avoid becoming halving partners (the {0, 6}
    versus {0, 5} effect).
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

    Exhaustive for small ``C(n, k)``; otherwise the best structured
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


def _hill_climb(n, k, start, score, max_rounds: int = 3):
    """Single-swap local improvement, bounded to keep the search cheap."""
    current = set(start)
    best_score = score(tuple(sorted(current)))
    for _ in range(max_rounds):
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


# -- machine-level generators --------------------------------------------


def ideal_row_sources(machine: Machine, s: int) -> Tuple[int, ...]:
    """Ideal row distribution: full rows at searched row positions.

    ``ceil(s / c)`` rows are chosen by :func:`best_line_positions` over
    the column length ``r`` (the dimension the second, column phase of
    ``Br_xy_*`` broadcasts along); each chosen row is filled from the
    left, the last one partially.
    """
    rows, cols = machine.logical_grid
    _check_s(machine, s)
    i = math.ceil(s / cols)
    row_positions = best_line_positions(rows, i)
    ranks: List[int] = []
    remaining = s
    for row in row_positions:
        take = min(cols, remaining)
        ranks.extend(row * cols + col for col in range(take))
        remaining -= take
    return tuple(sorted(ranks))


def ideal_linear_sources(machine: Machine, s: int) -> Tuple[int, ...]:
    """Ideal sources for ``Br_Lin``: searched slots on the linear order."""
    _check_s(machine, s)
    order = machine.linear_order()
    positions = best_line_positions(len(order), s)
    return tuple(sorted(order[pos] for pos in positions))


def _check_s(machine: Machine, s: int) -> None:
    if not 1 <= s <= machine.p:
        raise DistributionError(
            f"s must be in [1, {machine.p}], got {s}"
        )
