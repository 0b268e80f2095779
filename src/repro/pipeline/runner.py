"""Plan a validated config: the sweep points it needs, and its figure.

:func:`plan_experiment` turns a config into a
:class:`~repro.bench.runner.Plan`.  A declarative series is one grid
(:meth:`~repro.pipeline.schema.SeriesSpec.grid`): per x value, one
:class:`~repro.core.problem.BroadcastProblem` per curve, measured with
the curve's algorithm, or with ``baseline`` then ``variant`` in a gain
series.  The plan lists the grid's per-seed points
(:func:`repro.bench.runner.seed_points`) series by series, x-major and
curve-minor; its ``finish`` collates each series from its slice of the
results into curves — times, or ``100 * (t_baseline - t_variant) /
t_baseline`` — evaluates the shape checks and appends the notes.  The
points fix the sweep-cache keys: ``tests/golden/experiment_grids.json``
pins each config's set of points, and
``tests/golden/experiments_quick.json`` (quick grids) and RESULTS.txt
(full grids) pin the rendered report text byte for byte.  ``builder``
configs call the named function, which returns its own plan.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Tuple

from repro.bench.runner import MeasureItem, Plan, seed_points, seed_times
from repro.bench.types import FigureResult, Series
from repro.core.problem import BroadcastProblem
from repro.distributions import DISTRIBUTIONS
from repro.errors import ConfigurationError
from repro.machines import machine_from_spec
from repro.pipeline.checks import evaluate_check
from repro.pipeline.schema import ExperimentConfig, SeriesSpec
from repro.sweep.executor import SweepExecutor
from repro.sweep.spec import SweepPoint

__all__ = ["plan_experiment", "run_experiment", "experiment_points"]

#: times → curves, in the grid order the items were emitted.
Collate = Callable[[List[float]], Dict[str, List[float]]]


def _problem(spec: SeriesSpec, cell: Dict[str, Any]) -> BroadcastProblem:
    """The broadcast problem of one grid cell."""
    machine = machine_from_spec(cell["machine"])
    if spec.placement == "ideal_rows":
        from repro.core.ideal import ideal_row_sources

        sources = ideal_row_sources(machine, cell["s"])
    else:
        sources = DISTRIBUTIONS[cell["distribution"]].generate(
            machine, cell["s"]
        )
    return BroadcastProblem(machine, sources, message_size=cell["message_size"])


def _expand(
    spec: SeriesSpec, quick: bool
) -> Tuple[List[Any], List[MeasureItem], Collate]:
    """The series' x values, measure items and collation."""
    xs, names, rows = spec.grid(quick)
    gain = spec.baseline is not None
    # Curves that differ only in the algorithm share one problem.
    problems: Dict[Tuple[Any, ...], BroadcastProblem] = {}
    items: List[MeasureItem] = []
    for row in rows:
        for cell in row:
            where = (cell["machine"], cell["distribution"], cell["s"],
                     cell["message_size"])
            if where not in problems:
                problems[where] = _problem(spec, cell)
            algorithms = (
                (spec.baseline, spec.variant) if gain else (cell["algorithm"],)
            )
            items.extend((problems[where], a) for a in algorithms)

    def collate(times: List[float]) -> Dict[str, List[float]]:
        curves: Dict[str, List[float]] = {name: [] for name in names}
        it = iter(times)
        for _ in xs:
            for name in names:
                t = next(it)
                curves[name].append(100.0 * (t - next(it)) / t if gain else t)
        return curves

    return xs, items, collate


def plan_experiment(config: ExperimentConfig, quick: bool = False) -> Plan:
    """The sweep points ``config`` needs, and how they become its figure.

    ``builder`` configs return the named builder's plan.  A declarative
    config lists its series' points in series order; ``finish``
    collates each series from its slice of the results, evaluates the
    checks and appends the notes.
    """
    if config.kind == "builder":
        module_name, _, attr = config.builder.partition(":")
        try:
            builder = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError) as exc:
            raise ConfigurationError(
                f"{config.path or config.id}: builder {config.builder!r} "
                f"failed to import: {exc}"
            ) from exc
        return builder(quick)
    series = []
    points: List[SweepPoint] = []
    for spec in config.series:
        xs, items, collate = _expand(spec, quick)
        start = len(points)
        points.extend(seed_points(items))
        series.append((spec, xs, items, collate, start, len(points)))

    def finish(results) -> FigureResult:
        result = FigureResult(config.title, config.description)
        for spec, xs, items, collate, start, end in series:
            result.series.append(
                Series(
                    title=spec.title,
                    x_label=spec.x_label,
                    x_values=xs,
                    curves=collate(seed_times(items, results[start:end])),
                    y_label=spec.y_label,
                )
            )
        where = config.path or config.id
        for i, check in enumerate(config.checks):
            result.checks.append(
                evaluate_check(
                    check, result.series, context=f"{where}: [checks#{i}]"
                )
            )
        result.notes.extend(config.notes)
        return result

    return Plan(points, finish)


def run_experiment(
    config: ExperimentConfig, quick: bool = False
) -> FigureResult:
    """Plan one experiment and finish it on a default, uncached executor.

    For a cache or an engine, run ``plan.finish(executor.run(plan.points))``.
    """
    plan = plan_experiment(config, quick)
    return plan.finish(SweepExecutor().run(plan.points))


def experiment_points(
    config: ExperimentConfig, quick: bool = False
) -> List[SweepPoint]:
    """The points of :func:`plan_experiment`, in evaluation order."""
    return plan_experiment(config, quick).points
