"""Plan a validated config: the sweep points it needs, and its figure.

:func:`plan_experiment` turns a config into a
:class:`~repro.bench.runner.Plan`.  A declarative series expands into a
:class:`~repro.core.problem.BroadcastProblem` grid whose per-seed points
(:func:`repro.bench.runner.seed_points`) the plan lists series by
series; its ``finish`` collates each series from its slice of the
results into curves, evaluates the shape checks and appends the notes.
The grid order is part of the contract: it fixes the sweep-cache keys
and the rendered report text, which
``tests/golden/experiments_quick.json`` (quick grids) and RESULTS.txt
(full grids) pin byte for byte.  ``builder`` configs call the named
function, which returns its own plan.

The five series kinds:

==================  =====================================================
``sweep``           s on the x-axis, one machine/distribution
                    (Figures 3, 7, 13a)
``cells``           per-x overrides of machine/dist/placement/s/L
                    (Figures 4, 5, 6, 13b, §5.2)
``dist_curves``     distributions as curves, x-major/key-minor batch
                    (Figures 11, 12)
``machines_by_s``   machine shapes on x, source counts as curves
                    (Figure 8)
``percent_gain``    % difference of a variant vs a baseline
                    (Figures 9, 10)
==================  =====================================================
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.bench.runner import MeasureItem, Plan, seed_points, seed_times
from repro.bench.types import FigureResult, Series
from repro.core.problem import BroadcastProblem
from repro.distributions import DISTRIBUTIONS
from repro.errors import ConfigurationError
from repro.machines import machine_from_spec
from repro.pipeline.checks import evaluate_check
from repro.pipeline.schema import CellSpec, ExperimentConfig, SeriesSpec
from repro.sweep.executor import SweepExecutor
from repro.sweep.spec import SweepPoint

__all__ = ["plan_experiment", "run_experiment", "experiment_points"]

#: times → curves, in the grid order the items were emitted.
Collate = Callable[[List[float]], Dict[str, List[float]]]


def _per_x(value: Any, quick: bool, xs: Sequence[Any]) -> List[Any]:
    """Resolve a scalar-or-per-x Dual field against the x-axis."""
    resolved = value.get(quick)
    if isinstance(resolved, list):
        return list(resolved)
    return [resolved] * len(xs)


def _grid_collate(
    n_problems: int, algorithms: Sequence[str]
) -> Collate:
    """Problem-major / algorithm-minor collation into one curve per algorithm."""

    def collate(times: List[float]) -> Dict[str, List[float]]:
        curves: Dict[str, List[float]] = {a: [] for a in algorithms}
        it = iter(times)
        for _ in range(n_problems):
            for algorithm in algorithms:
                curves[algorithm].append(next(it))
        return curves

    return collate


def _cells_for(
    spec: SeriesSpec, quick: bool
) -> Tuple[List[Any], List[CellSpec]]:
    """The x-axis values and their (possibly derived) cell overrides."""
    xs = spec.x_values.get(quick)
    if spec.cell_axis is None:
        return xs, list(spec.cells.get(quick))
    if spec.cell_axis == "s":
        return xs, [CellSpec(s=x) for x in xs]
    if spec.cell_axis == "L":
        return xs, [CellSpec(L=x) for x in xs]
    if spec.cell_axis == "dist":
        return xs, [CellSpec(dist=x) for x in xs]
    return xs, [CellSpec(machine=x) for x in xs]


def _cell_problem(spec: SeriesSpec, cell: CellSpec) -> BroadcastProblem:
    """One grid cell resolved against the series-level defaults."""
    machine = machine_from_spec(cell.machine or spec.machine)
    s = cell.s if cell.s is not None else spec.s
    size = cell.L if cell.L is not None else spec.message_size
    placement = cell.placement or spec.placement
    if placement == "ideal_rows":
        from repro.core.ideal import ideal_row_sources

        sources = ideal_row_sources(machine, s)
    else:
        sources = DISTRIBUTIONS[cell.dist or spec.distribution].generate(
            machine, s
        )
    return BroadcastProblem(machine, sources, message_size=size)


def _expand_sweep(
    spec: SeriesSpec, quick: bool
) -> Tuple[List[Any], List[MeasureItem], Collate]:
    machine = machine_from_spec(spec.machine)
    dist = DISTRIBUTIONS[spec.distribution]
    s_values = spec.s_values.get(quick)
    problems = []
    for s in s_values:
        size = (
            spec.total_bytes // s
            if spec.total_bytes is not None
            else spec.message_size
        )
        problems.append(
            BroadcastProblem(
                machine, dist.generate(machine, s), message_size=max(size, 1)
            )
        )
    items = [(p, a) for p in problems for a in spec.algorithms]
    return list(s_values), items, _grid_collate(len(problems), spec.algorithms)


def _expand_cells(
    spec: SeriesSpec, quick: bool
) -> Tuple[List[Any], List[MeasureItem], Collate]:
    xs, cells = _cells_for(spec, quick)
    problems = [_cell_problem(spec, cell) for cell in cells]
    items = [(p, a) for p in problems for a in spec.algorithms]
    return xs, items, _grid_collate(len(problems), spec.algorithms)


def _expand_dist_curves(
    spec: SeriesSpec, quick: bool
) -> Tuple[List[Any], List[MeasureItem], Collate]:
    xs = spec.x_values.get(quick)
    machines = _per_x(spec.machine, quick, xs)
    s_list = (
        [int(x) for x in xs]
        if spec.s is None
        else _per_x(spec.s, quick, xs)
    )
    sizes = _per_x(spec.message_size, quick, xs)
    keys = spec.distributions
    items: List[MeasureItem] = []
    for machine_spec, s, size in zip(machines, s_list, sizes):
        machine = machine_from_spec(machine_spec)
        for key in keys:
            sources = DISTRIBUTIONS[key].generate(machine, s)
            items.append(
                (
                    BroadcastProblem(machine, sources, message_size=size),
                    spec.algorithm,
                )
            )

    def collate(times: List[float]) -> Dict[str, List[float]]:
        curves: Dict[str, List[float]] = {k: [] for k in keys}
        it = iter(times)
        for _ in xs:
            for key in keys:
                curves[key].append(next(it))
        return curves

    return list(xs), items, collate


def _expand_machines_by_s(
    spec: SeriesSpec, quick: bool
) -> Tuple[List[Any], List[MeasureItem], Collate]:
    xs = spec.x_values.get(quick)
    machines = spec.machines.get(quick)
    s_values = spec.s_values.get(quick)
    dist = DISTRIBUTIONS[spec.distribution]
    items: List[MeasureItem] = []
    for machine_spec in machines:
        machine = machine_from_spec(machine_spec)
        for s in s_values:
            sources = dist.generate(machine, s)
            items.append(
                (
                    BroadcastProblem(
                        machine, sources, message_size=spec.message_size
                    ),
                    spec.algorithm,
                )
            )

    def collate(times: List[float]) -> Dict[str, List[float]]:
        curves: Dict[str, List[float]] = {f"s={s}": [] for s in s_values}
        it = iter(times)
        for _ in machines:
            for s in s_values:
                curves[f"s={s}"].append(next(it))
        return curves

    return list(xs), items, collate


def _expand_percent_gain(
    spec: SeriesSpec, quick: bool
) -> Tuple[List[Any], List[MeasureItem], Collate]:
    machine = machine_from_spec(spec.machine)
    xs = spec.x_values.get(quick)
    keys = spec.distributions
    if spec.axis == "s":
        cells = [(key, x, spec.message_size) for key in keys for x in xs]
    else:
        cells = [(key, spec.s, x) for key in keys for x in xs]
    problems = [
        BroadcastProblem(
            machine, DISTRIBUTIONS[key].generate(machine, s), message_size=size
        )
        for key, s, size in cells
    ]
    algorithms = (spec.baseline, spec.variant)
    items = [(p, a) for p in problems for a in algorithms]

    def collate(times: List[float]) -> Dict[str, List[float]]:
        grid = _grid_collate(len(problems), algorithms)(times)
        gains = [
            100.0 * (t_plain - t_variant) / t_plain
            for t_plain, t_variant in zip(
                grid[spec.baseline], grid[spec.variant]
            )
        ]
        return {
            key: gains[i * len(xs) : (i + 1) * len(xs)]
            for i, key in enumerate(keys)
        }

    return list(xs), items, collate


#: Series kind → expander: (spec, quick) → (x values, items, collation).
_EXPANDERS = {
    "sweep": _expand_sweep,
    "cells": _expand_cells,
    "dist_curves": _expand_dist_curves,
    "machines_by_s": _expand_machines_by_s,
    "percent_gain": _expand_percent_gain,
}


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
        xs, items, collate = _EXPANDERS[spec.kind](spec, quick)
        start = len(points)
        points.extend(seed_points(items, contention=spec.contention))
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
