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
from repro.sweep.cache import ResultCache
from repro.sweep.cli import main as sweep_main
from repro.sweep.executor import SweepExecutor
from repro.sweep.spec import SweepPoint
from tests.cache_entries import (
    edit_body,
    reseal,
    schema_less,
    sealed,
    split,
    v2_entry,
)


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
        assert cache.load(point, point.key()) is None  # a defect is a miss...
        assert not path.exists()  # ...and the evidence moved aside
        moved = cache.quarantine_root / path.name
        assert moved.read_text() == "{ torn !!!"
        assert cache.quarantines == 1

    def test_reason_record_names_the_defect(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = _populate(cache)
        path = cache.path_for(point.key())
        path.write_text(path.read_text()[:-1])  # a torn write
        cache.load(point, point.key())
        record = json.loads(
            (cache.quarantine_root / f"{point.key()}.reason.json").read_text()
        )
        assert record["key"] == point.key()
        assert record["reason"].startswith("truncated")
        assert record["files"] == [f"{point.key()}.json"]
        assert record["quarantined_at"] > 0

    def test_undecodable_byte_is_quarantined_not_raised(self, tmp_path):
        """A flipped high bit leaves bytes that are not UTF-8."""
        cache = ResultCache(tmp_path)
        point = _populate(cache)
        path = cache.path_for(point.key())
        data = bytearray(path.read_bytes())
        data[data.index(b'"machine":"paragon') + len(b'"machine":"')] ^= 0x80
        path.write_bytes(bytes(data))
        assert cache.load(point, point.key()) is None
        record = json.loads(
            (cache.quarantine_root / f"{point.key()}.reason.json").read_text()
        )
        assert record["reason"].startswith("checksum-mismatch")
        assert (cache.quarantine_root / path.name).read_bytes() == data

    def test_obs_sibling_quarantined_with_its_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = _populate(cache, observe=True)
        obs_path = cache.sibling_path(point.key(), "obs")
        assert obs_path.exists()
        cache.path_for(point.key()).write_text("not json")
        cache.load(point, point.key())
        assert not obs_path.exists()
        assert (cache.quarantine_root / obs_path.name).exists()

    def test_quarantine_is_invisible_to_entry_globs(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = _populate(cache)
        assert len(cache) == 1
        cache.path_for(point.key()).write_text("junk")
        cache.load(point, point.key())
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
        assert cache.load(point, point.key()) is not None
        assert executor.last_report.quarantines == 1
        assert executor.last_report.summary().endswith(
            " (reliability: quarantines=1)"
        )


def _resealed(mutate):
    return lambda text: reseal(text, mutate)


def _torn_header(text):
    """The write stopped inside the header line."""
    return text[: len(split(text)[0]) // 2]


#: ``(reason prefix, defect)`` per kind of damage a stored entry can
#: take; each defect maps the entry's text to its damaged text.
DEFECTS = {
    "foreign-text": ("bad-envelope", lambda text: "{ torn !!!"),
    "torn-header": ("truncated", _torn_header),
    "truncated": ("truncated", lambda text: text[: len(text) // 2]),
    "empty": ("truncated", lambda text: ""),
    "non-object": ("bad-envelope", lambda text: sealed("[1,2]")),
    "unknown-schema": (
        "bad-envelope",
        lambda text: text.replace("repro-cache/3", "repro-cache/99", 1),
    ),
    "v2-entry": ("bad-envelope", v2_entry),
    "schema-less": ("bad-envelope", schema_less),
    "flipped-bit": (
        "checksum-mismatch",
        lambda text: edit_body(text, lambda body: body.replace(
            '"elapsed_us":', '"elapsed_us":1', 1)),
    ),
    "extra-whitespace": (
        "checksum-mismatch",
        lambda text: edit_body(text, lambda body: body.replace(",", ", ", 1)),
    ),
    "stale-payload": (
        "bad-entry",
        _resealed(lambda body: body["point"].update(seed=999)),
    ),
    "missing-result-field": (
        "bad-entry",
        _resealed(lambda body: body["result"].pop("num_rounds")),
    ),
    "missing-compute_s": (
        "bad-entry", _resealed(lambda body: body.pop("compute_s"))
    ),
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


#: The formats before ``repro-cache/3``, each mapping a stored entry's
#: text to that entry in the old format.
RETIRED = {"v2-entry": v2_entry, "schema-less": schema_less}


@pytest.mark.parametrize("retire", sorted(RETIRED))
class TestRetiredFormats:
    """An entry in an older format is quarantined, never served."""

    def _reason(self, cache, point):
        record = cache.quarantine_root / f"{point.key()}.reason.json"
        return json.loads(record.read_text())["reason"]

    def test_load_quarantines_it(self, retire, tmp_path):
        cache = ResultCache(tmp_path)
        point = _populate(cache)
        path = cache.path_for(point.key())
        path.write_text(RETIRED[retire](path.read_text()))
        assert cache.load(point, point.key()) is None
        assert not path.exists()
        assert (cache.quarantine_root / path.name).exists()
        assert self._reason(cache, point).startswith("bad-envelope")

    def test_load_sibling_quarantines_it_alone(self, retire, tmp_path):
        cache = ResultCache(tmp_path)
        point = _populate(cache, observe=True)
        path = cache.sibling_path(point.key(), "obs")
        path.write_text(RETIRED[retire](path.read_text()))
        assert cache.load_sibling(point, point.key(), "obs") is None
        assert (cache.quarantine_root / path.name).exists()
        assert self._reason(cache, point).startswith("bad-envelope")
        assert cache.load(point, point.key()) is not None  # the entry itself is sound

    def test_verify_all_quarantines_it(self, retire, tmp_path):
        cache = ResultCache(tmp_path)
        point = _populate(cache)
        path = cache.path_for(point.key())
        path.write_text(RETIRED[retire](path.read_text()))
        audit = cache.verify_all()
        assert (audit.verified, audit.quarantined_now) == (0, 1)
        assert (cache.quarantine_root / path.name).exists()
        assert self._reason(cache, point).startswith("bad-envelope")


class TestVerifyAll:
    def test_mixed_cache_audit(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = _populate(cache, seed=0)
        retired = _populate(cache, seed=1)
        corrupt = _populate(cache, seed=2)
        path = cache.path_for(retired.key())
        path.write_text(v2_entry(path.read_text()))
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
        assert cache.load(good, good.key()) is not None

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
