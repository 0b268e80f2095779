"""Executor configuration tests: worker-count resolution, observation."""

from __future__ import annotations

import json
import time
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.sweep.cache import ResultCache
from repro.sweep.executor import (
    SweepExecutor,
    evaluate_point,
    evaluate_point_batch,
    resolve_jobs,
)
from repro.sweep.spec import SweepPoint
from tests.cache_entries import split


class TestResolveJobs:
    def test_explicit_argument_wins(self):
        assert resolve_jobs(3) == 3

    def test_default_is_serial(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the default path must be quiet
            assert resolve_jobs(None) == 1

    def test_environment_is_not_read(self, monkeypatch):
        # --jobs is the one way to set the worker count.
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "4")
        assert resolve_jobs(None) == 1

    @pytest.mark.parametrize("bad", [0, -2])
    def test_explicit_bad_argument_raises(self, bad):
        # Regression: an explicit jobs=0 / negative was silently clamped
        # to 1 — a typo in *code* deserves an error, not a fallback.
        with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
            resolve_jobs(bad)


def _point(algorithm="Br_Lin", seed=0):
    return SweepPoint(
        machine="paragon:4x4",
        sources=(0, 1, 2, 3),
        message_size=512,
        algorithm=algorithm,
        seed=seed,
        distribution="R",
    )


def test_wall_time_excludes_the_code_fingerprint(monkeypatch):
    """The once-per-process source hash is not charged to the sweep."""
    from repro.sweep import spec

    real = spec.source_fingerprint

    def slow(root):
        time.sleep(0.5)
        return real(root)

    spec.code_fingerprint.cache_clear()
    monkeypatch.setattr(spec, "source_fingerprint", slow)
    executor = SweepExecutor(jobs=1)
    started = time.perf_counter()
    executor.run([_point()])
    assert time.perf_counter() - started >= 0.5  # the hash did run here
    assert executor.last_report.wall_s < 0.5


class TestObserve:
    """The ``observe=`` axis: summaries attach beside, never inside."""

    def test_observations_attach_per_point(self):
        executor = SweepExecutor(jobs=1, observe=True)
        points = [_point(), _point("2-Step")]
        results = executor.run(points)
        assert len(results) == 2
        obs = executor.last_observations
        assert obs is not None and len(obs) == 2
        assert obs[0]["algorithm"] == "Br_Lin"
        assert obs[0]["distribution"] == "R"
        assert obs[0]["machine"] == "paragon:4x4"
        assert obs[0]["summary"]["slowest_phase"] == "halving"

    def test_observe_off_leaves_no_observations(self):
        executor = SweepExecutor(jobs=1)
        executor.run([_point()])
        assert executor.last_observations is None

    def test_cache_key_neutral(self, tmp_path):
        """Observed and unobserved sweeps share entries bit-for-bit."""
        plain = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "a"))
        observed = SweepExecutor(
            jobs=1, cache=ResultCache(tmp_path / "b"), observe=True
        )
        point = _point()
        plain.run([point])
        observed.run([point])
        # compute_s differs per run, and so does the digest over it;
        # the rest of the bodies must match exactly.
        a, b = (
            json.loads(split(run.cache.path_for(point.key()).read_text())[1])
            for run in (plain, observed)
        )
        assert a.pop("compute_s") > 0 and b.pop("compute_s") > 0
        assert a == b
        # The observation landed in a sibling file, not the entry.
        assert observed.cache.sibling_path(point.key(), "obs").exists()
        assert not plain.cache.sibling_path(point.key(), "obs").exists()

    def test_hit_without_observation_is_served_not_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = _point()
        SweepExecutor(jobs=1, cache=cache).run([point])
        executor = SweepExecutor(jobs=1, cache=cache, observe=True)
        results = executor.run([point])
        assert executor.last_report.cached == 1
        assert executor.last_report.computed == 0
        assert executor.last_observations == [None]
        assert results[0].algorithm == "Br_Lin"

    def test_observation_round_trips_through_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = _point()
        first = SweepExecutor(jobs=1, cache=cache, observe=True)
        first.run([point])
        stored = first.last_observations[0]
        second = SweepExecutor(jobs=1, cache=cache, observe=True)
        second.run([point])
        assert second.last_report.cached == 1
        assert second.last_observations == [stored]

    def test_duplicates_share_observations(self):
        executor = SweepExecutor(jobs=1, observe=True)
        point = _point()
        executor.run([point, point])
        assert executor.last_report.computed == 1
        obs = executor.last_observations
        assert obs[0] is obs[1] and obs[0] is not None

    def test_observed_results_match_unobserved(self):
        """The observe axis never changes what a sweep returns."""
        point = _point("Br_xy_dim")
        (plain,) = SweepExecutor(jobs=1).run([point])
        (observed,) = SweepExecutor(jobs=1, observe=True).run([point])
        assert observed.to_dict() == plain.to_dict()

    def test_evaluate_point_observes_only_when_asked(self):
        """One evaluation function: ``observe`` adds an observation and
        leaves the result dict unchanged."""
        payload = _point("Br_xy_dim").payload()
        plain, _, no_observation = evaluate_point(payload)
        observed, _, observation = evaluate_point(payload, observe=True)
        assert observed == plain
        assert no_observation is None
        assert observation["algorithm"] == "Br_xy_dim"
        assert observation["summary"]["kinds"]["send"] == plain["num_transfers"]
        batch = evaluate_point_batch([payload, payload], observe=True)
        assert [item[0] for item in batch] == [plain, plain]
        assert all(item[2] == observation for item in batch)

    def test_len_excludes_observation_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepExecutor(jobs=1, cache=cache, observe=True).run([_point()])
        assert len(cache) == 1
