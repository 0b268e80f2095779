"""Execute a validated config through the bench measurement primitives.

A declarative series expands into a
:class:`~repro.core.problem.BroadcastProblem` grid measured by one
:func:`repro.bench.runner.measure_batch` call, then collated into
curves.  The grid order is part of the contract: it fixes the
sweep-cache keys and the rendered report text, which
``tests/golden/experiments_quick.json`` (quick grids) and RESULTS.txt
(full grids) pin byte for byte.  ``builder`` configs call the named
function.

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

from repro.bench.runner import MeasureItem, _seeds_for, measure_batch
from repro.bench.types import FigureResult, Series
from repro.core.problem import BroadcastProblem
from repro.distributions import DISTRIBUTIONS
from repro.errors import ConfigurationError
from repro.machines import machine_from_spec
from repro.pipeline.checks import evaluate_check
from repro.pipeline.schema import CellSpec, ExperimentConfig, SeriesSpec
from repro.sweep.spec import SweepPoint

__all__ = ["run_experiment", "experiment_points"]

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


_EXPANDERS = {
    "sweep": _expand_sweep,
    "cells": _expand_cells,
    "dist_curves": _expand_dist_curves,
    "machines_by_s": _expand_machines_by_s,
    "percent_gain": _expand_percent_gain,
}


def _expand_series(
    spec: SeriesSpec, quick: bool
) -> Tuple[List[Any], List[MeasureItem], Collate]:
    """One series → (x values, measurement items, collation)."""
    return _EXPANDERS[spec.kind](spec, quick)


def _measure_series(spec: SeriesSpec, quick: bool) -> Series:
    xs, items, collate = _expand_series(spec, quick)
    times = measure_batch(items, contention=spec.contention)
    return Series(
        title=spec.title,
        x_label=spec.x_label,
        x_values=xs,
        curves=collate(times),
        y_label=spec.y_label,
    )


def run_experiment(
    config: ExperimentConfig, quick: bool = False
) -> FigureResult:
    """Measure one experiment and evaluate its shape checks.

    Declarative configs expand and measure through
    :func:`repro.bench.runner.measure_batch` (so ``--jobs``, the on-disk
    cache and the engine selection all apply via the installed
    :class:`~repro.sweep.executor.SweepExecutor`); ``builder`` configs
    dispatch to the named builder function.  Either way the return value
    is the familiar :class:`~repro.bench.types.FigureResult`.
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
    result = FigureResult(config.title, config.description)
    for spec in config.series:
        result.series.append(_measure_series(spec, quick))
    where = config.path or config.id
    for i, check in enumerate(config.checks):
        result.checks.append(
            evaluate_check(
                check, result.series, context=f"{where}: [checks#{i}]"
            )
        )
    result.notes.extend(config.notes)
    return result


def experiment_points(
    config: ExperimentConfig, quick: bool = False
) -> List[SweepPoint]:
    """Every :class:`SweepPoint` a declarative experiment will evaluate.

    This is the exact per-seed expansion :func:`measure_batch` performs
    (T3D machines fan out over the paper's seed set, stable-rank
    machines use seed 0), so feeding these points to
    :func:`repro.sweep.distributed.run_sharded` pre-warms precisely the
    cache entries ``python -m repro report`` will hit.  Builder
    experiments measure through their own imperative code and are not
    expressible as a point list; they raise.
    """
    config.require_declarative()
    points: List[SweepPoint] = []
    for spec in config.series:
        _xs, items, _collate = _expand_series(spec, quick)
        for problem, algorithm in items:
            points.extend(
                SweepPoint.from_problem(
                    problem, algorithm, seed=seed, contention=spec.contention
                )
                for seed in _seeds_for(problem.machine)
            )
    return points
