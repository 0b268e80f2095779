"""Every committed experiment config is one bench target."""

from __future__ import annotations

import pytest

from benchmarks.conftest import CONFIGS, run_config


@pytest.mark.parametrize("experiment_id", list(CONFIGS))
def test_experiment(benchmark, experiment_id):
    run_config(benchmark, experiment_id)
