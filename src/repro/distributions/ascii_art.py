"""ASCII rendering of source placements — our Figure 1.

``render_placement`` draws the logical grid with ``*`` at source cells
and ``.`` elsewhere, exactly the visual of the paper's Figure 1 (used
by the ``distribution_explorer`` example and the Fig-1 bench).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.machines.machine import Machine

__all__ = ["render_placement", "render_grid"]


def render_grid(rows: int, cols: int, sources: Iterable[int]) -> str:
    """Grid picture with ``*`` at each source rank (row-major ranks)."""
    source_set = set(sources)
    lines = []
    for r in range(rows):
        line = " ".join(
            "*" if r * cols + c in source_set else "." for c in range(cols)
        )
        lines.append(line)
    return "\n".join(lines)


def render_placement(
    machine: Machine, sources: Sequence[int], title: str = ""
) -> str:
    """Titled grid picture of a placement on ``machine``'s logical grid."""
    rows, cols = machine.logical_grid
    header = f"{title} ({len(sources)} sources on {rows}x{cols})\n" if title else ""
    return header + render_grid(rows, cols, sources)
