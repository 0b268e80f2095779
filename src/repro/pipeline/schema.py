"""Typed in-memory form of an experiment config.

The loader (:mod:`repro.pipeline.loader`) parses a ``configs/*.toml``
file into these dataclasses; everything downstream — the runner, the
report generator, the docs generator — works from this validated
representation, never from raw TOML.

An experiment is one of two kinds (:attr:`ExperimentConfig.kind`),
told apart by whether the config names a ``builder``:

* ``declarative`` — the series and shape checks are described entirely
  in the config.  The runner expands them into the sweep points of one
  :class:`~repro.bench.runner.Plan`.
* ``builder`` — the config names a Python builder function
  (``"repro.bench.figures:fig01"``) for experiments whose logic is
  irreducibly imperative (ASCII placement art, custom machine
  parameters, seeded non-uniform sizes).  The config still carries the
  documentation prose, whose placeholders read the builder's
  :class:`~repro.bench.types.FigureResult`, so the generated docs cover
  every experiment uniformly.

A declarative experiment's series all have one form
(:class:`SeriesSpec`): completion time, or a percent gain, over one
swept quantity, one curve per algorithm, distribution or source count.
:meth:`SeriesSpec.grid` resolves it into its cells; the runner measures
them and the report samples its representative point from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import CodeType
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Dual",
    "SeriesSpec",
    "CheckSpec",
    "DocSpec",
    "ExperimentConfig",
    "CELL_AXES",
]


@dataclass(frozen=True)
class Dual:
    """A config value with full-grid and quick-grid variants.

    Most axis fields accept either a plain value (same in both modes)
    or a ``{full = ..., quick = ...}`` table; the loader normalizes both
    spellings into a :class:`Dual`.

    >>> Dual(full=[1, 2, 3], quick=[1, 3]).get(quick=True)
    [1, 3]
    >>> Dual(full=[1, 2, 3], quick=None).get(quick=True)
    [1, 2, 3]
    """

    full: Any
    quick: Any = None

    def get(self, quick: bool = False) -> Any:
        """The value for the requested mode (quick falls back to full)."""
        if quick and self.quick is not None:
            return self.quick
        return self.full


#: The cell field each ``cell_axis`` value sets to the series' x value.
CELL_AXES = {"s": "s", "L": "message_size", "dist": "distribution"}


@dataclass(frozen=True)
class SeriesSpec:
    """One measured curve family (one paper plot): an x-axis × curve grid.

    Each cell of the grid is one broadcast problem.  Its ``machine``,
    ``distribution``, ``s`` and ``message_size`` are each a
    :class:`Dual` of a scalar or of a per-x list, or come from
    ``cell_axis`` (the x value itself), from the curve axis, or — the
    distribution — from ``placement``.  The curves are ``algorithms``,
    or ``distributions``/``s_values`` at one fixed ``algorithm``; with
    ``baseline`` and ``variant`` in place of ``algorithm``, a curve
    value is the variant's percent gain over the baseline.
    """

    title: str
    x_label: str
    x_values: Dual
    y_label: str = "time (ms)"
    machine: Optional[Dual] = None
    distribution: Optional[Dual] = None
    s: Optional[Dual] = None
    message_size: Optional[Dual] = None
    cell_axis: Optional[str] = None  # a key of CELL_AXES
    placement: Optional[str] = None
    algorithms: Tuple[str, ...] = ()
    algorithm: Optional[str] = None
    distributions: Tuple[str, ...] = ()
    s_values: Tuple[int, ...] = ()
    baseline: Optional[str] = None
    variant: Optional[str] = None

    def grid(
        self, quick: bool = False
    ) -> Tuple[List[Any], List[str], List[List[Dict[str, Any]]]]:
        """The x values, the curve names and, per x, each curve's cell.

        A cell maps ``machine``, ``distribution``, ``s``,
        ``message_size`` and ``algorithm`` to their values there;
        ``distribution`` is ``None`` under a ``placement`` and
        ``algorithm`` is ``None`` in a gain series.

        >>> spec = SeriesSpec("t", "s", Dual([4, 8]), machine=Dual("t3d:16"),
        ...                   message_size=Dual([64, 32]), cell_axis="s",
        ...                   algorithm="Br_Lin", distributions=("E", "R"))
        >>> xs, names, rows = spec.grid()
        >>> names, [(c["distribution"], c["s"], c["message_size"]) for c in rows[1]]
        (['E', 'R'], [('E', 8, 32), ('R', 8, 32)])
        """
        xs = list(self.x_values.get(quick))
        cells: List[Dict[str, Any]] = [
            {"machine": None, "distribution": None, "s": None,
             "message_size": None, "algorithm": self.algorithm}
            for _ in xs
        ]
        for field in ("machine", "distribution", "s", "message_size"):
            dual = getattr(self, field)
            if dual is None:
                continue
            value = dual.get(quick)
            values = value if isinstance(value, list) else [value] * len(xs)
            for cell, v in zip(cells, values):
                cell[field] = v
        if self.cell_axis is not None:
            for cell, x in zip(cells, xs):
                cell[CELL_AXES[self.cell_axis]] = x
        if self.algorithms:
            field, values = "algorithm", self.algorithms
        elif self.distributions:
            field, values = "distribution", self.distributions
        else:
            field, values = "s", self.s_values
        names = [f"s={v}" if field == "s" else v for v in values]
        rows = [[{**cell, field: v} for v in values] for cell in cells]
        return xs, names, rows


@dataclass(frozen=True)
class CheckSpec:
    """One declarative shape check.

    ``expr`` is a restricted Python expression, compiled once by
    :func:`~repro.pipeline.checks.compile_expr` when the config loads,
    evaluated against series ``series`` of the measured figure
    (helpers: ``at``, ``curve``, ``xs``).  ``detail`` is an optional
    compiled expression (typically an f-string) rendered into the
    check's detail text.  Code does not pickle, so neither does a
    config; only sweep points cross to worker processes.
    """

    description: str
    expr: CodeType
    series: int = 0
    detail: Optional[CodeType] = None


@dataclass(frozen=True)
class DocSpec:
    """The EXPERIMENTS.md prose for one experiment (a build input).

    ``figures``/``text`` experiments carry a ``section`` heading and a
    verbatim markdown ``body``; ``ablations`` rows carry
    ``removed``/``effect`` table cells, ``extensions`` rows a
    ``finding`` cell, and the robustness study a ``section`` plus
    free-form ``body``.  Each measured number in that prose is an
    ``{expr:fmt}`` (or ``{N:expr:fmt}``) placeholder in the check
    language, filled from the full-grid results when the docs render
    (see :mod:`repro.pipeline.docsgen`).  ``deviation``, when given, is a
    check-language expression over series 0 that holds while the
    experiment deviates from the paper: the verdict is ``partial``
    exactly when it holds.
    """

    section: str
    body: str = ""
    #: Ablation/extension summary-table cells (group-specific).
    removed: str = ""
    effect: str = ""
    finding: str = ""
    deviation: Optional[str] = None


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully validated experiment description."""

    id: str
    title: str
    description: str
    path: str = ""
    group: str = "figures"  # figures | text | ablations | extensions | robustness
    builder: Optional[str] = None
    series: Tuple[SeriesSpec, ...] = ()
    checks: Tuple[CheckSpec, ...] = ()
    notes: Tuple[str, ...] = ()
    doc: Optional[DocSpec] = None

    @property
    def kind(self) -> str:
        """``"builder"`` when the config names a builder, else ``"declarative"``."""
        return "builder" if self.builder is not None else "declarative"
