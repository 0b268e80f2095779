"""Typed in-memory form of an experiment config.

The loader (:mod:`repro.pipeline.loader`) parses a ``configs/*.toml``
file into these dataclasses; everything downstream — the runner, the
report generator, the docs generator, ``tools/check_experiments.py`` —
works from this validated representation, never from raw TOML.

Two experiment kinds exist:

* ``declarative`` — the series and shape checks are described entirely
  in the config.  The runner expands them into the sweep points of one
  :class:`~repro.bench.runner.Plan`.
* ``builder`` — the config names a Python builder function
  (``"repro.bench.figures:fig01"``) for experiments whose logic is
  irreducibly imperative (ASCII placement art, custom machine
  parameters, seeded non-uniform sizes).  The config still carries the
  documentation prose and the expected check count, so the generated
  docs and the summary counters cover every experiment uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

__all__ = [
    "Dual",
    "CellSpec",
    "SeriesSpec",
    "CheckSpec",
    "DocSpec",
    "ExperimentConfig",
    "SERIES_KINDS",
    "CHECK_TYPES",
]

#: Recognized series kinds (see docs/PIPELINE.md for the field tables).
SERIES_KINDS = ("sweep", "cells", "dist_curves", "machines_by_s", "percent_gain")

#: Recognized shape-check assertion types.  Anything else is rejected
#: at load time, not mid-run.
CHECK_TYPES = ("expr", "ratio_range")


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


@dataclass(frozen=True)
class CellSpec:
    """One x-axis cell of a ``cells`` series.

    Unset fields inherit the series-level defaults (machine,
    distribution, ``s``, ``L``, placement).
    """

    machine: Optional[str] = None
    dist: Optional[str] = None
    placement: Optional[str] = None
    s: Optional[int] = None
    L: Optional[int] = None


@dataclass(frozen=True)
class SeriesSpec:
    """One measured curve family (one paper plot) of an experiment."""

    kind: str
    title: str
    x_label: str
    y_label: str = "time (ms)"
    machine: Optional[Any] = None  # str, or Dual of per-x list (dist_curves)
    machines: Optional[Dual] = None  # machines_by_s: per-x machine specs
    distribution: Optional[str] = None
    distributions: Tuple[str, ...] = ()
    algorithm: Optional[str] = None
    algorithms: Tuple[str, ...] = ()
    s: Optional[Any] = None  # int, or Dual of per-x list (dist_curves)
    s_values: Optional[Dual] = None
    message_size: Optional[Any] = None  # int, or Dual per-x list
    total_bytes: Optional[int] = None
    contention: bool = True
    placement: Optional[str] = None
    x_values: Optional[Dual] = None
    cell_axis: Optional[str] = None
    cells: Optional[Dual] = None  # Dual of List[CellSpec]
    baseline: Optional[str] = None
    variant: Optional[str] = None
    axis: Optional[str] = None  # percent_gain: "s" | "L"


@dataclass(frozen=True)
class CheckSpec:
    """One declarative shape check.

    ``type = "expr"`` evaluates a restricted Python expression against
    the measured series (helpers: ``at``, ``curve``, ``v``, ``curve_of``,
    ``xs``, ``xs_of`` — see :mod:`repro.pipeline.checks`);
    ``type = "ratio_range"`` asserts ``lo <= at(curve, x_num) /
    at(curve, x_den) <= hi``.  ``detail`` is an optional expression
    (typically an f-string) rendered into the check's detail text.
    """

    type: str
    description: str
    series: int = 0
    expr: Optional[str] = None
    detail: Optional[str] = None
    curve: Optional[str] = None
    x_num: Optional[Any] = None
    x_den: Optional[Any] = None
    lo: Optional[float] = None
    hi: Optional[float] = None


@dataclass(frozen=True)
class DocSpec:
    """The EXPERIMENTS.md prose for one experiment (a build input).

    ``figures``/``text`` experiments carry a ``section`` heading and a
    verbatim markdown ``body`` (which must state the declared
    ``verdict``); ``ablations`` rows carry ``removed``/``effect`` table
    cells, ``extensions`` rows a ``finding`` cell, and the robustness
    study a ``section`` plus free-form ``body``.
    """

    section: str
    verdict: str = "reproduced"
    body: str = ""
    #: Ablation/extension summary-table cells (group-specific).
    removed: str = ""
    effect: str = ""
    finding: str = ""


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully validated experiment description."""

    id: str
    title: str
    description: str
    kind: str  # "declarative" | "builder"
    path: str = ""
    group: str = "figures"  # figures | text | ablations | extensions | robustness
    builder: Optional[str] = None
    expected_checks: Optional[int] = None
    series: Tuple[SeriesSpec, ...] = ()
    checks: Tuple[CheckSpec, ...] = ()
    notes: Tuple[str, ...] = ()
    doc: Optional[DocSpec] = None

    @property
    def num_checks(self) -> int:
        """Declared shape-check count (used by the summary counters)."""
        if self.kind == "builder":
            return int(self.expected_checks or 0)
        return len(self.checks)
