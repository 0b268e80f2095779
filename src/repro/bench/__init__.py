"""Measurement primitives and the imperative experiment builders.

Every experiment of the reproduction is described by one
``configs/*.toml`` file and run by :mod:`repro.pipeline` (``python -m
repro report``).  This package holds what those configs and the
pipeline import:

* :mod:`repro.bench.runner` — :class:`Plan`, the sweep points an
  experiment needs plus the ``finish`` function that turns their
  results into its figure, and the paper's T3D seed protocol
  (:func:`seed_points`, :func:`seed_times`);
* :mod:`repro.bench.types` — the :class:`FigureResult` /
  :class:`Series` / :class:`Check` result records;
* the builders that ``kind = "builder"`` configs name — Figures 1 and 2
  and the §5 varied-lengths study (:mod:`repro.bench.figures`), the
  ablations, the extension studies and the robustness study.  Each
  builder returns a :class:`Plan` and evaluates nothing itself, so the
  result cache, ``--jobs`` and ``--engine`` apply to it as to the
  declarative configs.
"""

from __future__ import annotations

from repro.bench.runner import Plan, seed_points, seed_times
from repro.bench.types import Check, FigureResult, Series

__all__ = [
    "Series",
    "FigureResult",
    "Check",
    "Plan",
    "seed_points",
    "seed_times",
]
