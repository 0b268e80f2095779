"""Storage-reliability semantics: quarantine, v1 legacy, audits, CLI.

Sits above the unit layers (``test_reliability_envelope``,
``test_reliability_iofaults``): these tests drive the *integration* of
the envelope and quarantine machinery through :class:`ResultCache`,
the ``--verify-cache`` offline scan, and the reliability accounting
that rides along in :class:`SweepReport`.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.metrics.progress import SweepReport
from repro.reliability import ENTRY_SCHEMA_V2, ReliabilityCounters
from repro.sweep.cache import (
    TMP_MAX_AGE_S,
    TMP_TTL_ENV_VAR,
    ResultCache,
    resolve_tmp_ttl,
)
from repro.sweep.cli import main as sweep_main
from repro.sweep.executor import SweepExecutor
from repro.sweep.spec import SweepPoint


def _point(seed=0):
    return SweepPoint(
        machine="paragon:4x4",
        sources=(0, 1),
        message_size=256,
        algorithm="Br_Lin",
        seed=seed,
        distribution="E",
    )


def _populate(cache, seed=0, observe=False):
    point = _point(seed)
    SweepExecutor(jobs=1, cache=cache, observe=observe).run([point])
    return point


class TestResolveTmpTtl:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(TMP_TTL_ENV_VAR, "30")
        assert resolve_tmp_ttl(5.0) == 5.0

    def test_explicit_zero_is_legal(self):
        # "Reap everything now" — the clear() semantics — is a valid ask
        # from code, even though it is rejected from the environment.
        assert resolve_tmp_ttl(0.0) == 0.0

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_explicit_bad_argument_raises(self, bad):
        with pytest.raises(ConfigurationError, match="tmp_ttl_s"):
            resolve_tmp_ttl(bad)

    def test_env_var_used_when_unset(self, monkeypatch):
        monkeypatch.setenv(TMP_TTL_ENV_VAR, "45")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_tmp_ttl(None) == 45.0

    def test_default_when_neither(self, monkeypatch):
        monkeypatch.delenv(TMP_TTL_ENV_VAR, raising=False)
        assert resolve_tmp_ttl(None) == TMP_MAX_AGE_S

    @pytest.mark.parametrize("bad", ["abc", "0", "-5"])
    def test_bad_env_value_warns_and_falls_back(self, monkeypatch, bad):
        monkeypatch.setenv(TMP_TTL_ENV_VAR, bad)
        with pytest.warns(RuntimeWarning, match=TMP_TTL_ENV_VAR):
            assert resolve_tmp_ttl(None) == TMP_MAX_AGE_S

    def test_cache_threads_the_threshold_through(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TMP_TTL_ENV_VAR, "7.5")
        assert ResultCache(tmp_path).tmp_ttl_s == 7.5
        assert ResultCache(tmp_path, tmp_ttl_s=2.0).tmp_ttl_s == 2.0

    def test_gc_honours_a_short_ttl(self, tmp_path):
        cache = ResultCache(tmp_path, tmp_ttl_s=0.0)
        shard = tmp_path / "ab"
        shard.mkdir(parents=True)
        (shard / "x.json.host.1.0.tmp").write_text("{")
        assert cache.gc_stale_tmp(shard) == 1
        assert not (shard / "x.json.host.1.0.tmp").exists()


class TestQuarantine:
    def test_corrupt_entry_moved_not_deleted(self, tmp_path):
        counters = ReliabilityCounters()
        cache = ResultCache(tmp_path, counters=counters)
        point = _populate(cache)
        path = cache.path_for(point.key())
        path.write_text("{ torn !!!")
        assert cache.load(point) is None  # a defect is a miss...
        assert not path.exists()  # ...and the evidence moved aside
        moved = cache.quarantine_root / path.name
        assert moved.read_text() == "{ torn !!!"
        assert counters.quarantines == 1

    def test_reason_record_names_the_defect(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = _populate(cache)
        cache.path_for(point.key()).write_text("{ torn !!!")
        cache.load(point)
        record = json.loads(
            (cache.quarantine_root / f"{point.key()}.reason.json").read_text()
        )
        assert record["key"] == point.key()
        assert "invalid-json" in record["reason"]
        assert record["files"] == [f"{point.key()}.json"]
        assert record["quarantined_at"] > 0

    def test_obs_sibling_quarantined_with_its_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = _populate(cache, observe=True)
        obs_path = cache.sibling_path(point.key(), "obs")
        assert obs_path.exists()
        cache.path_for(point.key()).write_text("not json")
        cache.load(point)
        assert not obs_path.exists()
        assert (cache.quarantine_root / obs_path.name).exists()

    def test_quarantine_is_invisible_to_entry_globs(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = _populate(cache)
        assert len(cache) == 1
        cache.path_for(point.key()).write_text("junk")
        cache.load(point)
        # The quarantined copy must not count as (or ever be served as)
        # an entry: the quarantine dir name is longer than a shard's.
        assert len(cache) == 0
        assert cache.verify_all().verified == 0

    def test_recompute_repopulates_after_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = _populate(cache)
        cache.path_for(point.key()).write_text("junk")
        executor = SweepExecutor(jobs=1, cache=cache)
        executor.run([point])
        assert executor.last_report.computed == 1  # the miss recomputed
        assert cache.load(point) is not None
        assert executor.last_report.reliability.quarantines == 1


class TestLegacyV1:
    def _write_v1(self, cache, point):
        result, compute_s = cache.load(point)
        body = {
            "point": point.payload(),
            "result": result,
            "compute_s": compute_s,
        }
        cache.path_for(point.key()).write_text(
            json.dumps(body, sort_keys=True)
        )
        return result

    def test_v1_entry_still_readable(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = _populate(cache)
        result = self._write_v1(cache, point)
        loaded = cache.load(point)
        assert loaded is not None and loaded[0] == result

    def test_v1_served_as_a_hit_not_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = _populate(cache)
        self._write_v1(cache, point)
        executor = SweepExecutor(jobs=1, cache=cache)
        executor.run([point])
        assert executor.last_report.cached == 1

    def test_store_rewrites_v1_as_v2(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = _populate(cache)
        result = self._write_v1(cache, point)
        cache.store(point, result, 0.125)
        on_disk = json.loads(cache.path_for(point.key()).read_text())
        assert on_disk["schema"] == ENTRY_SCHEMA_V2


class TestVerifyAll:
    def test_mixed_cache_audit(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = _populate(cache, seed=0)
        legacy = _populate(cache, seed=1)
        corrupt = _populate(cache, seed=2)
        TestLegacyV1()._write_v1(cache, legacy)
        cache.path_for(corrupt.key()).write_text("{ half a write")
        audit = cache.verify_all()
        assert audit.verified == 1
        assert audit.legacy_v1 == 1
        assert audit.quarantined_now == 1
        assert audit.quarantined_total == 1
        assert "1 verified, 1 legacy-v1, 1 newly quarantined" in audit.summary()
        # A second scan finds the damage already swept aside.
        again = cache.verify_all()
        assert again.quarantined_now == 0
        assert again.quarantined_total == 1
        assert cache.load(good) is not None

    def test_empty_cache_is_clean(self, tmp_path):
        audit = ResultCache(tmp_path).verify_all()
        assert (audit.verified, audit.quarantined_now) == (0, 0)


class TestVerifyCacheCli:
    def test_clean_cache_exits_zero(self, tmp_path, capsys):
        cache = ResultCache(tmp_path / "cache")
        _populate(cache)
        code = sweep_main(
            ["--verify-cache", "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        assert "1 verified" in capsys.readouterr().out

    def test_fresh_corruption_exits_nonzero(self, tmp_path, capsys):
        cache = ResultCache(tmp_path / "cache")
        point = _populate(cache)
        cache.path_for(point.key()).write_text("rot")
        code = sweep_main(
            ["--verify-cache", "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 1
        assert "1 newly quarantined" in capsys.readouterr().out
        # The scan moved the rot aside, so a re-scan is calm again.
        assert (
            sweep_main(
                ["--verify-cache", "--cache-dir", str(tmp_path / "cache")]
            )
            == 0
        )

    def test_requires_cache_dir(self):
        with pytest.raises(SystemExit):
            sweep_main(["--verify-cache"])


class TestReportReliability:
    def test_clean_report_bytes_unchanged(self):
        # The "reliability" key appears only when something happened:
        # golden fixtures of clean runs stay byte-identical.
        report = SweepReport(total=4, computed=4, jobs=2)
        assert "reliability" not in report.to_dict()
        assert "reliability" not in report.summary()

    def test_roundtrip_with_counters(self):
        report = SweepReport(total=2, computed=2, jobs=1)
        report.reliability.retries = 3
        report.reliability.steals = 1
        data = report.to_dict()
        assert data["reliability"] == {
            "retries": 3,
            "quarantines": 0,
            "steals": 1,
            "fencing_rejections": 0,
            "corrupt_records": 0,
        }
        back = SweepReport.from_dict(data)
        assert back.reliability == report.reliability
        assert "reliability:" in back.summary()

    def test_merge_accumulates_counters(self):
        a = SweepReport(total=1, computed=1, jobs=1)
        a.reliability.quarantines = 1
        b = SweepReport(total=1, computed=1, jobs=1)
        b.reliability.quarantines = 2
        b.reliability.fencing_rejections = 1
        a.merge(b)
        assert a.reliability.quarantines == 3
        assert a.reliability.fencing_rejections == 1
