"""The experiment runner: series expansion, builder dispatch, determinism."""

from __future__ import annotations

import importlib
import inspect

import pytest

from repro.bench.runner import Plan
from repro.pipeline.loader import load_config_dir, load_config_text
from repro.pipeline.runner import (
    experiment_points,
    plan_experiment,
    run_experiment,
)

SWEEP = """
[experiment]
id = "demo"
title = "Demo"
description = "a small sweep"

[[series]]
title = "demo sweep"
x_label = "s"
x_values = {{ full = {s_values} }}
cell_axis = "s"
machine = "{machine}"
distribution = "{dist}"
algorithms = {algorithms}
message_size = {message_size}
{extra}
"""


def _sweep(
    machine="paragon:4x4",
    dist="E",
    algorithms=("Br_Lin", "2-Step"),
    s_values=(4, 8),
    message_size=512,
    extra="",
):
    return load_config_text(
        SWEEP.format(
            machine=machine,
            dist=dist,
            algorithms=list(algorithms),
            s_values=list(s_values),
            message_size=message_size,
            extra=extra,
        ).replace("'", '"')
    )


@pytest.fixture(scope="module")
def configs():
    return load_config_dir()


class TestSweepSeries:
    def test_one_curve_per_algorithm_one_value_per_s(self):
        result = run_experiment(_sweep())
        (series,) = result.series
        assert list(series.x_values) == [4, 8]
        assert set(series.curves) == {"Br_Lin", "2-Step"}
        assert all(len(v) == 2 for v in series.curves.values())

    def test_per_x_message_sizes_follow_the_x_values(self):
        config = _sweep(algorithms=("Br_Lin",), message_size=[1024, 512])
        points = experiment_points(config)
        assert [(len(p.sources), p.message_size) for p in points] == [
            (4, 1024), (8, 512),
        ]

    def test_spreading_a_fixed_total_does_not_blow_up_the_time(self):
        config = _sweep(
            machine="paragon:10x10",
            dist="Dr",
            algorithms=("Br_Lin",),
            s_values=(5, 80),
            message_size=[80 * 1024 // 5, 80 * 1024 // 80],
        )
        (series,) = run_experiment(config).series
        few, many = series.curves["Br_Lin"]
        assert many < few * 2


def _grid(body: str):
    """A one-series config on a 4x4 Paragon at L = 512; ``body`` adds the rest."""
    header = SWEEP[: SWEEP.index("[[series]]")]
    return load_config_text(header + f"""
[[series]]
title = "grid"
x_label = "x"
machine = "paragon:4x4"
message_size = 512
{body}
""")


def _curves(config) -> dict:
    (series,) = run_experiment(config).series
    return series.curves


class TestCurveAxes:
    """Distributions or source counts as curves, and gain series."""

    def test_distribution_curves_match_one_curve_per_distribution(self):
        curves = _curves(_grid("""
x_values = [4, 8]
cell_axis = "s"
algorithm = "Br_Lin"
distributions = ["E", "R"]
"""))
        assert list(curves) == ["E", "R"]
        for dist in ("E", "R"):
            alone = _curves(_sweep(dist=dist, algorithms=("Br_Lin",)))
            assert curves[dist] == alone["Br_Lin"]

    def test_source_count_curves_are_named_by_s(self):
        config = _grid("""
x_values = ["a", "b", "c"]
distribution = ["E", "R", "C"]
algorithm = "Br_Lin"
s_values = [2, 4]
""")
        points = experiment_points(config)
        assert [len(p.sources) for p in points] == [2, 4] * 3
        curves = _curves(config)
        assert list(curves) == ["s=2", "s=4"]
        assert all(len(values) == 3 for values in curves.values())

    def test_gain_is_the_variants_percent_gain_over_the_baseline(self):
        gains = _curves(_grid("""
x_values = [4, 8]
cell_axis = "s"
baseline = "Br_xy_source"
variant = "Repos_xy_source"
distributions = ["Cr"]
"""))
        times = _curves(_sweep(
            dist="Cr", algorithms=("Br_xy_source", "Repos_xy_source"),
        ))
        assert gains["Cr"] == [
            100.0 * (t_plain - t_variant) / t_plain
            for t_plain, t_variant in zip(
                times["Br_xy_source"], times["Repos_xy_source"]
            )
        ]


class TestBuilders:
    def test_builders_plan_their_points(self, configs):
        for config in configs.values():
            if config.kind == "builder":
                plan = plan_experiment(config, quick=True)
                assert isinstance(plan, Plan), config.id
        assert experiment_points(configs["fig1"], quick=True) == []
        machines = {
            point.machine
            for point in experiment_points(configs["ablation-mapping"], quick=True)
        }
        assert machines == {"t3d:64", "t3d:64+mapping=identity"}

    def test_every_builder_accepts_the_quick_flag(self, configs):
        for config in configs.values():
            if config.kind != "builder":
                continue
            module_name, _, attr = config.builder.partition(":")
            builder = getattr(importlib.import_module(module_name), attr)
            assert "quick" in inspect.signature(builder).parameters, config.id

    def test_every_bench_builder_is_named_by_a_config(self, configs):
        """``repro.bench`` keeps no experiment that no config runs."""
        named = {c.builder for c in configs.values() if c.kind == "builder"}
        for module_name in (
            "repro.bench.figures",
            "repro.bench.ablations",
            "repro.bench.extensions",
            "repro.bench.robustness",
        ):
            module = importlib.import_module(module_name)
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if fn.__module__ != module_name or name.startswith("_"):
                    continue
                assert f"{module_name}:{name}" in named, name


def test_quick_run_is_reproducible(configs):
    first = run_experiment(configs["fig7"], quick=True)
    second = run_experiment(configs["fig7"], quick=True)
    assert first.series[0].curves == second.series[0].curves
    assert first.report() == second.report()
