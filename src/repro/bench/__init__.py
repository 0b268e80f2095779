"""Measurement primitives and the imperative experiment builders.

Every experiment of the reproduction is described by one
``configs/*.toml`` file and run by :mod:`repro.pipeline` (``python -m
repro report``).  This package holds what those configs and the
pipeline import:

* :mod:`repro.bench.runner` — :func:`measure_batch`,
  :func:`measure_problem` and :func:`run_batch`, which route every
  measurement through the installed sweep executor
  (:func:`use_executor`), and the paper's T3D seed protocol;
* :mod:`repro.bench.types` — the :class:`FigureResult` /
  :class:`Series` / :class:`Check` result records;
* the builders that ``kind = "builder"`` configs name — Figures 1 and 2
  and the §5 varied-lengths study (:mod:`repro.bench.figures`), the
  ablations, the extension studies and the robustness study.
"""

from __future__ import annotations

from repro.bench.runner import (
    measure_batch,
    measure_problem,
    run_batch,
    use_executor,
)
from repro.bench.types import Check, FigureResult, Series

__all__ = [
    "Series",
    "FigureResult",
    "Check",
    "measure_problem",
    "measure_batch",
    "run_batch",
    "use_executor",
]
