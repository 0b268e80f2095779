"""Measurement primitives and the imperative experiment builders.

Every experiment of the reproduction is described by one
``configs/*.toml`` file and run by :mod:`repro.pipeline` (``python -m
repro report``).  This package holds what those configs and the
pipeline import:

* :mod:`repro.bench.runner` — :func:`measure_batch`, which turns a grid
  of problems into sweep points evaluated by the installed sweep
  executor (:func:`active_executor`, :func:`use_executor`) under the
  paper's T3D seed protocol;
* :mod:`repro.bench.types` — the :class:`FigureResult` /
  :class:`Series` / :class:`Check` result records;
* the builders that ``kind = "builder"`` configs name — Figures 1 and 2
  and the §5 varied-lengths study (:mod:`repro.bench.figures`), the
  ablations, the extension studies and the robustness study.  Each
  builder measures its whole grid in one executor batch (one per
  contention setting), so the result cache, ``--jobs`` and
  ``--engine`` apply to it as to the declarative configs.
"""

from __future__ import annotations

from repro.bench.runner import active_executor, measure_batch, use_executor
from repro.bench.types import Check, FigureResult, Series

__all__ = [
    "Series",
    "FigureResult",
    "Check",
    "measure_batch",
    "active_executor",
    "use_executor",
]
