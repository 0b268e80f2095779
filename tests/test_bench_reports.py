"""Regression tests for the bench report-writing machinery.

``benchmarks/conftest.py`` copies every experiment's paper-style table
into ``benchmarks/reports/<id>.<mode>.txt``.  These tests pin the file
naming and the ``mkdir(parents=True)`` behaviour (a fresh checkout has
no ``reports/`` directory — and a redirected REPORTS_DIR may be
arbitrarily deep).
"""

from __future__ import annotations

import json

import pytest

import benchmarks.conftest as bench_conftest
from benchmarks.conftest import REPORTS_DIR, run_config
from repro.pipeline.loader import load_config_dir


class OneShotBenchmark:
    """Minimal stand-in for the pytest-benchmark fixture."""

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
        return fn(*args, **(kwargs or {}))


def test_reports_dir_points_into_benchmarks_tree():
    assert REPORTS_DIR.name == "reports"
    assert REPORTS_DIR.parent.name == "benchmarks"


def test_quick_report_lands_under_the_config_id(monkeypatch, tmp_path, capsys):
    # Nested path that does not exist yet: exercises parents=True.
    target = tmp_path / "deeply" / "nested" / "reports"
    monkeypatch.setattr(bench_conftest, "REPORTS_DIR", target)

    result = run_config(OneShotBenchmark(), "fig1", quick=True)

    report_path = target / "fig1.quick.txt"
    assert report_path.is_file()
    text = report_path.read_text()
    assert text.startswith("=== Figure 1")
    assert text == result.report() + "\n"
    # the table is also echoed to stdout for the pytest -s view
    assert "=== Figure 1" in capsys.readouterr().out


def test_full_mode_uses_full_suffix(monkeypatch, tmp_path):
    target = tmp_path / "reports"
    monkeypatch.setattr(bench_conftest, "REPORTS_DIR", target)
    # fig1 has no quick/full grid split, so full mode is equally cheap.
    run_config(OneShotBenchmark(), "fig1", quick=False)
    assert (target / "fig1.full.txt").is_file()


def test_quick_mode_rejects_a_report_that_drifted_from_its_digest(
    monkeypatch, tmp_path
):
    golden = tmp_path / "experiments_quick.json"
    golden.write_text(json.dumps({"fig1": {"sha256": "0" * 64, "checks": 0}}))
    monkeypatch.setattr(bench_conftest, "GOLDEN_PATH", golden)
    monkeypatch.setattr(bench_conftest, "REPORTS_DIR", tmp_path / "reports")
    with pytest.raises(AssertionError, match="fig1: report drifted"):
        run_config(OneShotBenchmark(), "fig1", quick=True)


def test_every_config_is_a_bench_target():
    from benchmarks import test_experiments

    (mark,) = [
        m for m in test_experiments.test_experiment.pytestmark
        if m.name == "parametrize"
    ]
    assert sorted(mark.args[1]) == sorted(load_config_dir())
