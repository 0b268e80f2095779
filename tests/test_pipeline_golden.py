"""Every experiment reproduces its recorded quick-grid report, byte for byte.

``tests/golden/experiments_quick.json`` holds, for each ``configs/*.toml``
experiment, the sha256 of ``run_experiment(config, quick=True).report()``
— every table cell, check verdict and detail string — and its check
count.  The digests were recorded while the declarative configs still
had hand-written twin functions and both rendered identical text, so
they carry that differential forward without the twins.

Tier-1 checks six cheap declarative configs, one per way a series
varies its cells and curves, and every builder config twice: first into
an empty result cache, then again from that cache with both simulation
engines forbidden, which proves that every measurement a builder makes
is a cached sweep point.  The bench
suite (``REPRO_BENCH_QUICK=1 pytest benchmarks``) checks all 25 against
the same file, and ``python -m repro report docs --check`` pins the
full grids through RESULTS.txt.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import repro.fastpath
from repro.machines import Machine
from repro.pipeline.loader import load_config_dir
from repro.pipeline.runner import plan_experiment, run_experiment
from repro.sweep import ResultCache, SweepExecutor

GOLDEN_PATH = Path(__file__).parent / "golden" / "experiments_quick.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
CONFIGS = load_config_dir()

#: The tier-1 declarative subset and what each one stands for.
CHEAP = {
    "fig6": "cell_axis = 'dist', algorithm curves",
    "fig7": "cell_axis = 's' with per-x message sizes",
    "fig8": "per-x machines, s_values curves",
    "fig9": "baseline + variant gain curves",
    "fig11": "distribution curves, per-x machine/s/size and cell_axis = 's'",
    "sec52-conditions": "ideal_rows placement",
}
#: Every builder config.
BUILDERS = [id_ for id_, config in CONFIGS.items() if config.kind == "builder"]


def _quick_digest(config, executor=None) -> str:
    """Digest of the quick report, run on ``executor`` when given."""
    if executor is None:
        result = run_experiment(config, quick=True)
    else:
        plan = plan_experiment(config, quick=True)
        result = plan.finish(executor.run(plan.points))
    failed = [str(c) for c in result.checks if not c.passed]
    assert not failed, "\n".join(failed)
    return hashlib.sha256(result.report().encode()).hexdigest()


def _forbidden(*args, **kwargs):  # pragma: no cover - failure path
    raise AssertionError("a warm builder run must not simulate")


@pytest.mark.parametrize("experiment_id", sorted(CHEAP))
def test_quick_report_matches_golden(experiment_id):
    assert _quick_digest(CONFIGS[experiment_id]) == (
        GOLDEN[experiment_id]["sha256"]
    )


@pytest.mark.parametrize("experiment_id", BUILDERS)
def test_builder_reruns_from_a_warm_cache(experiment_id, tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    config = CONFIGS[experiment_id]
    golden = GOLDEN[experiment_id]["sha256"]
    assert _quick_digest(config, SweepExecutor(cache=cache)) == golden
    monkeypatch.setattr(repro.fastpath, "evaluate_problem", _forbidden)
    monkeypatch.setattr(Machine, "run", _forbidden)
    warm = SweepExecutor(cache=cache)
    assert _quick_digest(config, warm) == golden
    assert warm.last_report.computed == 0


def test_golden_covers_every_config():
    assert sorted(GOLDEN) == sorted(CONFIGS)
    for experiment_id, config in CONFIGS.items():
        assert GOLDEN[experiment_id]["checks"] == config.num_checks, experiment_id
