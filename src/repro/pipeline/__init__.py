"""Declarative experiment pipeline: TOML configs in, paper reports out.

Every experiment of the reproduction — the thirteen figures, the three
§5 text claims, the ablations, the extension studies and the robustness
study — is described by one TOML file under ``configs/``.  A config
names the machines, sweep axes, engine-visible parameters and shape
checks of its experiment; the pipeline

* **loads and validates** it (:mod:`repro.pipeline.loader`) into an
  :class:`~repro.pipeline.schema.ExperimentConfig`, rejecting unknown
  keys, unknown assertion types and malformed axes at load time with
  errors that name the offending file and key;
* **expands** it into the existing sweep machinery —
  :meth:`~repro.pipeline.schema.ExperimentConfig.sweep_specs` yields
  cartesian :class:`~repro.sweep.spec.SweepSpec` grids,
  :func:`~repro.pipeline.runner.experiment_points` the exact
  :class:`~repro.sweep.spec.SweepPoint` list an experiment will
  evaluate (usable to pre-warm the cache via
  :func:`~repro.sweep.distributed.run_sharded`);
* **runs** it (:mod:`repro.pipeline.runner`) through the
  :mod:`repro.bench.runner` measurement primitives, producing a
  :class:`~repro.bench.types.FigureResult` whose quick-grid report text
  is pinned by ``tests/golden/experiments_quick.json``;
* **reports** it (:mod:`repro.pipeline.report`) as one self-contained
  HTML file per experiment — tables, SVG curves, checks, placement art,
  observability roll-ups — plus an index page, and regenerates
  EXPERIMENTS.md and RESULTS.txt as build artifacts
  (:mod:`repro.pipeline.docsgen`).

CLI: ``python -m repro report all`` reproduces the whole paper in one
command (see :mod:`repro.pipeline.cli` and docs/PIPELINE.md).
"""

from __future__ import annotations

from repro.pipeline.loader import (
    DEFAULT_CONFIG_DIR,
    load_config,
    load_config_dir,
)
from repro.pipeline.runner import experiment_points, run_experiment
from repro.pipeline.schema import (
    CheckSpec,
    DocSpec,
    ExperimentConfig,
    SeriesSpec,
)

__all__ = [
    "DEFAULT_CONFIG_DIR",
    "load_config",
    "load_config_dir",
    "run_experiment",
    "experiment_points",
    "ExperimentConfig",
    "SeriesSpec",
    "CheckSpec",
    "DocSpec",
]
