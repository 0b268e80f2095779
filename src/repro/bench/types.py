"""Result containers for the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

__all__ = ["Series", "Check", "FigureResult"]


@dataclass
class Series:
    """One family of curves over a shared x-axis (one paper plot).

    ``curves`` maps a curve label (algorithm or distribution name) to
    one y-value per x.  Values are typically milliseconds; percentage
    plots (Figures 9/10) say so in ``y_label``.
    """

    title: str
    x_label: str
    x_values: Sequence
    curves: Dict[str, List[float]]
    y_label: str = "time (ms)"

    def value(self, curve: str, x) -> float:
        """The y-value of ``curve`` at ``x``."""
        return self.curves[curve][list(self.x_values).index(x)]

    def to_table(self) -> str:
        """Render as an aligned text table (x column + one per curve).

        Values print with three decimals.  Columns are at least 12
        characters wide: the shared width grows to fit the longest
        curve name, x value, or x-axis label (plus two spaces of
        separation), so long condition names such as
        ``node-fail+recover`` stay aligned instead of fusing into their
        neighbours.
        """
        names = list(self.curves)
        labels = [self.x_label, *names, *(str(x) for x in self.x_values)]
        width = max(12, *(len(label) + 2 for label in labels))
        header = f"{self.x_label:>{width}}" + "".join(
            f"{name:>{width}}" for name in names
        )
        lines = [self.title, f"[{self.y_label}]", header]
        for i, x in enumerate(self.x_values):
            cells = "".join(
                f"{self.curves[name][i]:>{width}.3f}"
                for name in names
            )
            lines.append(f"{str(x):>{width}}" + cells)
        return "\n".join(lines)


@dataclass
class Check:
    """One DESIGN.md shape criterion, evaluated against measured data."""

    description: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.description}{tail}"


@dataclass
class FigureResult:
    """The complete reproduction artifact for one figure/table."""

    figure: str
    description: str
    series: List[Series] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        """Whether every shape check held."""
        return all(c.passed for c in self.checks)

    def report(self) -> str:
        """Full text rendering: tables, checks, notes."""
        parts = [f"=== {self.figure}: {self.description} ==="]
        for series in self.series:
            parts.append(series.to_table())
            parts.append("")
        if self.checks:
            parts.append("shape checks:")
            parts.extend(f"  {c}" for c in self.checks)
        if self.notes:
            parts.append("notes:")
            parts.extend(f"  - {n}" for n in self.notes)
        return "\n".join(parts)
