"""Shared machinery for the experiment bench targets.

``test_experiments.py`` makes every ``configs/*.toml`` experiment one
bench target.  :func:`run_config` runs it exactly once under
pytest-benchmark (``pedantic``: the experiment itself already
aggregates seeds the way the paper aggregated runs) through
:func:`repro.pipeline.runner.run_experiment` — the path ``python -m
repro report`` takes — prints the paper-style table, keeps a copy under
``benchmarks/reports/<id>.<mode>.txt`` and asserts the shape checks.
In quick mode the report text must also match its recorded digest in
``tests/golden/experiments_quick.json``.

Set ``REPRO_BENCH_QUICK=1`` to shrink the sweep grids (smoke mode).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

from repro.pipeline import load_config_dir
from repro.pipeline.runner import run_experiment

_ROOT = pathlib.Path(__file__).resolve().parent

#: Durable copies of every experiment report (pytest captures stdout,
#: so the paper-style tables are also written here).
REPORTS_DIR = _ROOT / "reports"

#: sha256 of every experiment's quick-grid report text.
GOLDEN_PATH = _ROOT.parent / "tests" / "golden" / "experiments_quick.json"

#: Quick mode trims sweep grids; full grids are the default, matching
#: the paper's parameter ranges.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Every committed experiment, by id.
CONFIGS = load_config_dir()


def run_config(benchmark, experiment_id: str, quick: bool | None = None):
    """Run one ``configs/*.toml`` experiment under the benchmark fixture."""
    effective_quick = QUICK if quick is None else quick
    result = benchmark.pedantic(
        run_experiment,
        args=(CONFIGS[experiment_id],),
        kwargs={"quick": effective_quick},
        rounds=1,
        iterations=1,
    )
    report = result.report()
    print()
    print(report)
    REPORTS_DIR.mkdir(parents=True, exist_ok=True)
    mode = "quick" if effective_quick else "full"
    (REPORTS_DIR / f"{experiment_id}.{mode}.txt").write_text(report + "\n")
    failed = [str(c) for c in result.checks if not c.passed]
    assert not failed, "shape checks failed:\n" + "\n".join(failed)
    if effective_quick:
        golden = json.loads(GOLDEN_PATH.read_text())[experiment_id]
        digest = hashlib.sha256(report.encode()).hexdigest()
        assert digest == golden["sha256"], f"{experiment_id}: report drifted"
    return result
