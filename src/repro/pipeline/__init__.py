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
* **plans** it (:func:`~repro.pipeline.runner.plan_experiment`) into a
  :class:`~repro.bench.runner.Plan`: the exact
  :class:`~repro.sweep.spec.SweepPoint` list the experiment evaluates
  (:func:`~repro.pipeline.runner.experiment_points`) and the ``finish``
  function that turns their results into a
  :class:`~repro.bench.types.FigureResult` whose quick-grid report text
  is pinned by ``tests/golden/experiments_quick.json``.  ``report``
  evaluates the points of every selected experiment in one executor
  batch; :func:`~repro.pipeline.runner.run_experiment` runs one plan
  serially;
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
from repro.pipeline.runner import (
    experiment_points,
    plan_experiment,
    run_experiment,
)
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
    "plan_experiment",
    "run_experiment",
    "experiment_points",
    "ExperimentConfig",
    "SeriesSpec",
    "CheckSpec",
    "DocSpec",
]
