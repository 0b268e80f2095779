"""Every experiment reproduces its recorded quick-grid report, byte for byte.

``tests/golden/experiments_quick.json`` holds, for each ``configs/*.toml``
experiment, the sha256 of ``run_experiment(config, quick=True).report()``
— every table cell, check verdict and detail string — and its check
count.  The digests were recorded while the declarative configs still
had hand-written twin functions and both rendered identical text, so
they carry that differential forward without the twins.

Tier-1 checks the cheap configs: one per declarative series kind, a
builder from each family, and the builders that drive the replay
kernel's contention-off and store-and-forward branches.  The bench suite (``REPRO_BENCH_QUICK=1
pytest benchmarks``) checks all 25 against the same file, and
``python -m repro report docs --check`` pins the full grids through
RESULTS.txt.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.pipeline.loader import load_config_dir
from repro.pipeline.runner import run_experiment

GOLDEN_PATH = Path(__file__).parent / "golden" / "experiments_quick.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: The tier-1 subset and what each one stands for.
CHEAP = {
    "fig1": "builder (placement art)",
    "fig6": "cells (distribution axis)",
    "fig7": "sweep with total_bytes",
    "fig8": "machines_by_s",
    "fig9": "percent_gain",
    "fig11": "dist_curves",
    "sec52-conditions": "cells (ideal_rows placement)",
    "ablation-ideal-rows": "ablation builder",
    "extension-hypercube": "extension builder",
    "ablation-contention": "kernel replay with contention off",
    "ablation-switching": "kernel replay with store-and-forward links",
    "ablation-combining": "ablation builder (free combining copy)",
    "robustness": "builder on the event engine (faults, recovery)",
    "extension-ring": "extension builder",
    "sec5-varied-lengths": "builder (per-source sizes)",
}


@pytest.fixture(scope="module")
def configs():
    return load_config_dir()


@pytest.mark.parametrize("experiment_id", sorted(CHEAP))
def test_quick_report_matches_golden(configs, experiment_id):
    result = run_experiment(configs[experiment_id], quick=True)
    failed = [str(c) for c in result.checks if not c.passed]
    assert not failed, "\n".join(failed)
    text = result.report()
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN[experiment_id]["sha256"], text


def test_golden_covers_every_config(configs):
    assert sorted(GOLDEN) == sorted(configs)
    for experiment_id, config in configs.items():
        assert GOLDEN[experiment_id]["checks"] == config.num_checks, experiment_id
