"""Tests for the perf-regression harness (``repro.perf``).

These never assert absolute times — CI machines vary wildly — only
report structure, comparison arithmetic (including calibration
normalization), and CLI exit codes.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.perf import (
    bench,
    calibrate,
    compare_reports,
    load_report,
    run_suite,
    write_report,
)
from repro.perf.__main__ import main as perf_main
from repro.perf.suite import SCHEMA, _definitions

BASELINE = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "perf_baseline.json"
)


def _report(benchmarks, calibration_s=1.0, **over):
    data = {
        "schema": SCHEMA,
        "created_unix": 0.0,
        "quick": True,
        "python": "x",
        "implementation": "x",
        "platform": "x",
        "calibration_s": calibration_s,
        "benchmarks": benchmarks,
    }
    data.update(over)
    return data


def _bench_dict(name, wall_s):
    return {"name": name, "wall_s": wall_s, "mean_s": wall_s, "repeats": 1}


class TestTimer:
    def test_bench_returns_best_and_mean(self):
        timing = bench(lambda: sum(range(100)), repeats=3, warmup=1)
        assert timing.repeats == 3
        assert 0 < timing.best_s <= timing.mean_s

    def test_calibrate_positive(self):
        assert calibrate() > 0


class TestSuite:
    def test_quick_names_are_subset_of_full(self):
        quick = {name for name, _ in _definitions(quick=True)}
        full = {name for name, _ in _definitions(quick=False)}
        assert quick < full  # strict subset: full adds the 16x16 points

    def test_run_suite_only_filter_and_schema(self):
        seen = []
        report = run_suite(quick=True, only="route", progress=seen.append)
        assert report["schema"] == SCHEMA
        assert report["calibration_s"] > 0
        names = [b["name"] for b in report["benchmarks"]]
        # Warm lookups, then cold builds on fresh topologies.
        assert names == [
            "route/paragon:16x16/lookups",
            "route/paragon:16x16/build",
            "route/t3d:128/build",
        ]
        assert seen == names
        lookups, *builds = report["benchmarks"]
        assert lookups["wall_s"] > 0
        assert lookups["extra"]["lookups"] == 20_000
        assert [b["extra"]["lookups"] for b in builds] == [4_000, 4_000]

    def test_schedule_benches_run_in_both_modes(self):
        quick = {name for name, _ in _definitions(quick=True)}
        assert {name for name in quick if name.startswith("schedule/")} == {
            "schedule/PersAlltoAll/paragon:16x16/s=32/L=4096",
            "schedule/Br_xy_source/paragon:32x32/s=64/L=4096",
            "schedule/MPI_AllGather/t3d:128/s=64/L=4096",
        }
        report = run_suite(quick=True, only="schedule/MPI_AllGather")
        (bench_dict,) = report["benchmarks"]
        assert bench_dict["wall_s"] > 0
        assert bench_dict["extra"]["sends"] == 8191

    def test_baseline_covers_every_benchmark(self):
        baseline = load_report(BASELINE)
        assert [b["name"] for b in baseline["benchmarks"]] == [
            name for name, _ in _definitions(quick=False)
        ]

    def test_write_and_load_roundtrip(self, tmp_path):
        report = _report([_bench_dict("a", 1.0)])
        path = write_report(report, tmp_path / "r.json")
        assert load_report(path) == report

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/9"}))
        with pytest.raises(ValueError):
            load_report(path)


class TestCompare:
    def test_speedup_and_no_regression(self):
        cmp_ = compare_reports(
            _report([_bench_dict("a", 0.5)]),
            _report([_bench_dict("a", 1.0)]),
        )
        assert cmp_.ok
        (row,) = cmp_.rows
        assert row.ratio == pytest.approx(0.5)
        assert row.speedup == pytest.approx(2.0)
        assert "ok" in cmp_.format_table()

    def test_regression_detected_beyond_tolerance(self):
        cmp_ = compare_reports(
            _report([_bench_dict("a", 1.3)]),
            _report([_bench_dict("a", 1.0)]),
            tolerance=0.25,
        )
        assert not cmp_.ok
        assert cmp_.regressions[0].name == "a"
        assert "REGRESSED" in cmp_.format_table()

    def test_calibration_normalizes_machine_speed(self):
        """2x slower wall on a 2x slower machine is NOT a regression."""
        cmp_ = compare_reports(
            _report([_bench_dict("a", 2.0)], calibration_s=2.0),
            _report([_bench_dict("a", 1.0)], calibration_s=1.0),
        )
        assert cmp_.calibration_ratio == pytest.approx(2.0)
        assert cmp_.rows[0].ratio == pytest.approx(1.0)
        assert cmp_.ok

    def test_per_benchmark_calibration_preferred(self):
        """A bench measured during a local 2x slow phase is normalized
        by its own bracketing calibration, not the report-level one."""
        cur = _bench_dict("a", 2.0)
        cur["calibration_s"] = 2.0
        base = _bench_dict("a", 1.0)
        base["calibration_s"] = 1.0
        cmp_ = compare_reports(
            _report([cur], calibration_s=1.0),
            _report([base], calibration_s=1.0),
        )
        assert cmp_.rows[0].ratio == pytest.approx(1.0)
        assert cmp_.ok

    def test_only_common_names_compared(self):
        cmp_ = compare_reports(
            _report([_bench_dict("a", 1.0), _bench_dict("b", 1.0)]),
            _report([_bench_dict("b", 1.0), _bench_dict("c", 1.0)]),
        )
        assert [r.name for r in cmp_.rows] == ["b"]


class TestCli:
    def test_writes_report(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = perf_main(["--quick", "--only", "lookups", "--out", str(out)])
        assert code == 0
        report = load_report(out)
        assert [b["name"] for b in report["benchmarks"]] == [
            "route/paragon:16x16/lookups"
        ]
        assert "wrote" in capsys.readouterr().out

    def test_compare_missing_baseline_exits_2(self, tmp_path):
        code = perf_main(
            [
                "--quick",
                "--only",
                "lookups",
                "--out",
                str(tmp_path / "b.json"),
                "--compare",
                str(tmp_path / "missing.json"),
            ]
        )
        assert code == 2

    def test_compare_against_own_output_passes(self, tmp_path):
        out = tmp_path / "bench.json"
        baseline = tmp_path / "baseline.json"
        assert (
            perf_main(
                ["--quick", "--only", "lookups", "--out", str(baseline)]
            )
            == 0
        )
        # Generous tolerance: route lookups are fast and this only
        # checks the exit-code plumbing, not machine stability.
        code = perf_main(
            [
                "--quick",
                "--only",
                "lookups",
                "--out",
                str(out),
                "--compare",
                str(baseline),
                "--tolerance",
                "5.0",
            ]
        )
        assert code == 0

    def test_compare_flags_synthetic_regression(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        baseline = tmp_path / "baseline.json"
        assert (
            perf_main(
                ["--quick", "--only", "lookups", "--out", str(out)]
            )
            == 0
        )
        report = load_report(out)
        for bench_dict in report["benchmarks"]:
            bench_dict["wall_s"] /= 100.0  # baseline 100x faster
        write_report(report, baseline)
        code = perf_main(
            [
                "--quick",
                "--only",
                "lookups",
                "--out",
                str(out),
                "--compare",
                str(baseline),
            ]
        )
        assert code == 1
        assert "PERF REGRESSION" in capsys.readouterr().err
