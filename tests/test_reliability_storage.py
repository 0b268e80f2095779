"""Storage-reliability semantics: quarantine, audits, CLI.

Sits above the unit layers (``test_reliability_envelope``,
``test_reliability_iofaults``): these tests drive the *integration* of
the envelope and quarantine machinery through :class:`ResultCache`,
the ``--verify-cache`` offline scan, and the reliability accounting
that rides along in :class:`SweepReport`.
"""

from __future__ import annotations

import json

import pytest

from repro.metrics.progress import SweepReport
from repro.reliability import seal_envelope
from repro.sweep.cache import ResultCache
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


class TestQuarantine:
    def test_corrupt_entry_moved_not_deleted(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = _populate(cache)
        path = cache.path_for(point.key())
        path.write_text("{ torn !!!")
        assert cache.load(point) is None  # a defect is a miss...
        assert not path.exists()  # ...and the evidence moved aside
        moved = cache.quarantine_root / path.name
        assert moved.read_text() == "{ torn !!!"
        assert cache.quarantines == 1

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
        assert executor.last_report.quarantines == 1
        assert executor.last_report.summary().endswith(
            " (reliability: quarantines=1)"
        )


def _reseal(mutate):
    def defect(text):
        entry = json.loads(text)
        mutate(entry["body"])
        return json.dumps(seal_envelope(entry["body"]), sort_keys=True)

    return defect


def _unsealed(mutate):
    def defect(text):
        entry = json.loads(text)
        mutate(entry)
        return json.dumps(entry, sort_keys=True)

    return defect


def _flip_elapsed(entry):
    entry["body"]["result"]["elapsed_us"] += 1


def _schema_less(text):
    """The sealed entry's body alone: the plain pre-envelope format."""
    return json.dumps(json.loads(text)["body"], sort_keys=True)


#: ``(reason prefix, defect)`` per kind of damage a stored entry can
#: take; each defect maps the entry's text to its damaged text.
DEFECTS = {
    "invalid-json": ("invalid-json", lambda text: "{ torn !!!"),
    "truncated": ("invalid-json", lambda text: text[: len(text) // 2]),
    "empty": ("invalid-json", lambda text: ""),
    "non-object": ("bad-envelope", lambda text: "[1, 2]"),
    "unknown-schema": (
        "bad-envelope",
        _unsealed(lambda entry: entry.update(schema="repro-cache/99")),
    ),
    "schema-less": ("bad-envelope", _schema_less),
    "flipped-bit": ("checksum-mismatch", _unsealed(_flip_elapsed)),
    "stale-payload": (
        "bad-entry",
        _reseal(lambda body: body["point"].update(seed=999)),
    ),
    "missing-result-field": (
        "bad-entry",
        _reseal(lambda body: body["result"].pop("num_rounds")),
    ),
    "missing-compute_s": ("bad-entry", _reseal(lambda body: body.pop("compute_s"))),
}


class TestQuarantineAccounting:
    """A run reports each quarantine its cache performed, and only those."""

    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_defect_is_quarantined_once_and_reported(self, defect, tmp_path):
        prefix, damage = DEFECTS[defect]
        cache = ResultCache(tmp_path)
        point = _populate(cache)
        path = cache.path_for(point.key())
        path.write_text(damage(path.read_text()))

        executor = SweepExecutor(jobs=1, cache=cache)
        executor.run([point])
        report = executor.last_report
        assert (report.computed, report.quarantines) == (1, 1)
        assert report.summary().endswith(" (reliability: quarantines=1)")
        assert (cache.quarantine_root / path.name).exists()
        record = json.loads(
            (cache.quarantine_root / f"{point.key()}.reason.json").read_text()
        )
        assert record["reason"].startswith(prefix)

        # The recomputed entry is served, and the next run reports no
        # quarantine of its own.
        executor.run([point])
        report = executor.last_report
        assert (report.cached, report.computed, report.quarantines) == (1, 0, 0)
        assert "reliability" not in report.summary()

    def test_quarantines_count_one_per_defective_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        points = [_point(seed) for seed in range(3)]
        SweepExecutor(jobs=1, cache=cache, observe=True).run(points)
        for point in points[:2]:
            cache.path_for(point.key()).write_text("rot")

        executor = SweepExecutor(jobs=1, cache=cache)
        executor.run(points)
        report = executor.last_report
        # Each key counts once, though its obs sibling moved with it.
        assert (report.cached, report.computed, report.quarantines) == (1, 2, 2)
        assert report.summary().endswith(" (reliability: quarantines=2)")
        assert cache.quarantines == 2


class TestSchemaLess:
    """A file without the envelope is quarantined, never served."""

    def _reason(self, cache, point):
        record = cache.quarantine_root / f"{point.key()}.reason.json"
        return json.loads(record.read_text())["reason"]

    def test_load_quarantines_it(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = _populate(cache)
        path = cache.path_for(point.key())
        path.write_text(_schema_less(path.read_text()))
        assert cache.load(point) is None
        assert not path.exists()
        assert (cache.quarantine_root / path.name).exists()
        assert self._reason(cache, point).startswith("bad-envelope")

    def test_load_sibling_quarantines_it_alone(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = _populate(cache, observe=True)
        path = cache.sibling_path(point.key(), "obs")
        path.write_text(_schema_less(path.read_text()))
        assert cache.load_sibling(point, "obs") is None
        assert (cache.quarantine_root / path.name).exists()
        assert self._reason(cache, point).startswith("bad-envelope")
        assert cache.load(point) is not None  # the entry itself is sound

    def test_verify_all_quarantines_it(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = _populate(cache)
        path = cache.path_for(point.key())
        path.write_text(_schema_less(path.read_text()))
        audit = cache.verify_all()
        assert (audit.verified, audit.quarantined_now) == (0, 1)
        assert (cache.quarantine_root / path.name).exists()
        assert self._reason(cache, point).startswith("bad-envelope")


class TestVerifyAll:
    def test_mixed_cache_audit(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = _populate(cache, seed=0)
        plain = _populate(cache, seed=1)
        corrupt = _populate(cache, seed=2)
        path = cache.path_for(plain.key())
        path.write_text(_schema_less(path.read_text()))
        cache.path_for(corrupt.key()).write_text("{ half a write")
        audit = cache.verify_all()
        assert audit.verified == 1
        assert audit.quarantined_now == 2
        assert audit.quarantined_total == 2
        assert audit.summary() == (
            "1 verified, 2 newly quarantined (2 total in quarantine)"
        )
        # A second scan finds the damage already swept aside.
        again = cache.verify_all()
        assert again.quarantined_now == 0
        assert again.quarantined_total == 2
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
        # The reliability suffix appears only when something happened:
        # a clean run's progress line is unchanged.
        report = SweepReport(total=4, computed=4, jobs=2)
        assert "reliability" not in report.summary()

    def test_suffix_follows_the_clean_line(self):
        clean = SweepReport(total=4, computed=3, cached=1, jobs=1)
        hurt = SweepReport(total=4, computed=3, cached=1, jobs=1, quarantines=3)
        assert hurt.summary() == clean.summary() + " (reliability: quarantines=3)"
