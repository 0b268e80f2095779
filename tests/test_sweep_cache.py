"""Cache-correctness tests: keys, corruption handling, and bypass."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import pathlib
import time

import pytest

from repro.pipeline.cli import build_executor
from repro.reliability.envelope import seal_envelope
from repro.sweep import ResultCache, SweepExecutor, SweepPoint, SweepSpec
from repro.sweep.cache import TMP_MAX_AGE_S


def rewrite_body(path, mutate):
    """Unwrap a v2 entry, mutate its body, and re-seal it (valid sha256).

    Keeps these defect tests pointed at the *field-validation* layer:
    mutating the body without re-sealing would trip the checksum first
    and never reach the semantic checks.
    """
    body = json.loads(path.read_text())["body"]
    mutate(body)
    path.write_text(json.dumps(seal_envelope(body), sort_keys=True))

POINT = SweepPoint(
    machine="paragon:4x4",
    sources=(0, 5, 9),
    message_size=512,
    algorithm="Br_Lin",
    seed=0,
    contention=True,
    distribution="R",
)


class TestCacheKey:
    """Every axis of a point must participate in its cache key."""

    def test_identical_points_share_a_key(self):
        clone = dataclasses.replace(POINT)
        assert clone.key() == POINT.key()

    def test_every_axis_changes_the_key(self):
        variants = {
            "machine": dataclasses.replace(POINT, machine="t3d:16"),
            "sources": dataclasses.replace(POINT, sources=(0, 5, 10)),
            "message_size": dataclasses.replace(POINT, message_size=1024),
            "algorithm": dataclasses.replace(POINT, algorithm="2-Step"),
            "seed": dataclasses.replace(POINT, seed=1),
            "contention": dataclasses.replace(POINT, contention=False),
            "sizes": dataclasses.replace(POINT, sizes=((5, 64),)),
            "distribution": dataclasses.replace(POINT, distribution="E"),
        }
        keys = {axis: pt.key() for axis, pt in variants.items()}
        keys["<base>"] = POINT.key()
        assert len(set(keys.values())) == len(keys), keys

    def test_changed_axis_misses_a_warm_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache)
        executor.run([POINT])
        for changed in (
            dataclasses.replace(POINT, contention=False),
            dataclasses.replace(POINT, message_size=1024),
            dataclasses.replace(POINT, seed=7),
        ):
            executor.run([changed])
            assert executor.last_report.cached == 0
            assert executor.last_report.computed == 1
        # the original still hits
        executor.run([POINT])
        assert executor.last_report.cached == 1


class TestCodeFingerprint:
    """Keys name the code: any source edit re-keys every point."""

    def test_edited_tree_rekeys_every_point(self, tmp_path, monkeypatch):
        import shutil

        import repro
        from repro.pipeline.loader import load_config_dir
        from repro.pipeline.runner import experiment_points
        from repro.sweep import spec

        tree = tmp_path / "repro"
        shutil.copytree(
            pathlib.Path(repro.__file__).parent, tree,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        assert spec.source_fingerprint(tree) == spec.code_fingerprint()
        params = tree / "machines" / "params.py"
        params.write_text(params.read_text() + "\n# recalibrated\n")
        edited = spec.source_fingerprint(tree)
        assert edited != spec.code_fingerprint()

        points = {
            point
            for config in load_config_dir().values()
            if config.kind == "declarative"
            for point in experiment_points(config, quick=True)
        }
        before = {point.key() for point in points}
        monkeypatch.setattr(spec, "code_fingerprint", lambda: edited)
        after = {point.key() for point in points}
        assert len(after) == len(before) == len(points)
        assert not before & after


class TestCacheDefense:
    def baseline(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache)
        result = executor.run([POINT])[0]
        return cache, executor, result

    def test_corrupted_entry_recomputed(self, tmp_path):
        cache, executor, good = self.baseline(tmp_path)
        path = cache.path_for(POINT.key())
        path.write_text("{ not json !!!")
        again = executor.run([POINT])[0]
        assert executor.last_report.computed == 1
        assert again.elapsed_us == good.elapsed_us
        # the bad entry was replaced by a fresh, loadable one
        assert cache.load(POINT) is not None

    def test_truncated_entry_recomputed(self, tmp_path):
        cache, executor, good = self.baseline(tmp_path)
        path = cache.path_for(POINT.key())
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        again = executor.run([POINT])[0]
        assert executor.last_report.computed == 1
        assert again.elapsed_us == good.elapsed_us

    def test_missing_result_field_recomputed(self, tmp_path):
        cache, executor, good = self.baseline(tmp_path)
        path = cache.path_for(POINT.key())
        rewrite_body(path, lambda body: body["result"].pop("elapsed_us"))
        again = executor.run([POINT])[0]
        assert executor.last_report.computed == 1
        assert again.elapsed_us == good.elapsed_us

    def test_missing_compute_s_recomputed(self, tmp_path):
        # Regression: a missing compute_s used to be served as 0.0,
        # silently zeroing the entry's contribution to saved-time
        # accounting.  Absence is a format defect: quarantine + recompute.
        cache, executor, good = self.baseline(tmp_path)
        path = cache.path_for(POINT.key())
        rewrite_body(path, lambda body: body.pop("compute_s"))
        assert cache.load(POINT) is None
        assert not path.exists()  # quarantined, not left to trip again
        assert (cache.quarantine_root / path.name).exists()
        again = executor.run([POINT])[0]
        assert executor.last_report.computed == 1
        assert again.elapsed_us == good.elapsed_us
        # the rewritten entry carries a real compute_s again
        hit = cache.load(POINT)
        assert hit is not None and hit[1] > 0.0

    def test_stale_payload_recomputed(self, tmp_path):
        # An entry whose stored identity disagrees with the point (e.g.
        # written by a different format version) must not be served.
        cache, executor, _ = self.baseline(tmp_path)
        path = cache.path_for(POINT.key())
        rewrite_body(path, lambda body: body["point"].update(seed=999))
        assert cache.load(POINT) is None
        assert not path.exists()  # quarantined, not left to trip again


class TestCacheHygiene:
    """Temp-file GC and sibling-observation lifecycle."""

    def _warm_observed(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache, observe=True)
        executor.run([POINT])
        return cache

    def test_defective_entry_discards_obs_sibling(self, tmp_path):
        # Regression: load() deleted a defective result entry but left
        # its <key>.obs.json sibling orphaned forever — the pair shares
        # one lifecycle.
        cache = self._warm_observed(tmp_path)
        obs_path = cache.sibling_path(POINT.key(), "obs")
        assert obs_path.exists()
        cache.path_for(POINT.key()).write_text("{ not json !!!")
        assert cache.load(POINT) is None
        assert not obs_path.exists()

    def test_stale_tmp_collected_on_store(self, tmp_path):
        cache = ResultCache(tmp_path)
        shard_dir = cache.path_for(POINT.key()).parent
        shard_dir.mkdir(parents=True, exist_ok=True)
        stale = shard_dir / "deadbeef.json.otherhost.12345.0.tmp"
        stale.write_text("{}")
        old = 10_000.0
        os.utime(stale, (old, old))
        fresh = shard_dir / "deadbeef.json.otherhost.12345.1.tmp"
        fresh.write_text("{}")  # young: may belong to a live writer
        cache.store(POINT, {"elapsed_us": 1}, compute_s=0.1)
        assert not stale.exists()
        assert fresh.exists()

    def test_gc_honours_an_explicit_max_age(self, tmp_path):
        cache = ResultCache(tmp_path)
        shard_dir = tmp_path / "ab"
        shard_dir.mkdir()
        now = time.time()
        ages = {"old": 100.0, "young": 10.0}
        for name, age in ages.items():
            temp = shard_dir / f"{name}.json.h.1.0.tmp"
            temp.write_text("{}")
            os.utime(temp, (now - age, now - age))
        # Both are younger than the default TMP_MAX_AGE_S.
        assert cache.gc_stale_tmp(shard_dir) == 0
        assert cache.gc_stale_tmp(shard_dir, max_age_s=50.0) == 1
        assert [p.name for p in shard_dir.iterdir()] == ["young.json.h.1.0.tmp"]

    def test_gc_without_a_directory_sweeps_every_shard(self, tmp_path):
        cache = ResultCache(tmp_path)
        old = time.time() - 2 * TMP_MAX_AGE_S
        for shard in ("00", "ff"):
            (tmp_path / shard).mkdir()
            temp = tmp_path / shard / "x.json.h.1.0.tmp"
            temp.write_text("{}")
            os.utime(temp, (old, old))
        assert cache.gc_stale_tmp() == 2
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_tmp_names_unique_per_write(self, tmp_path, monkeypatch):
        # pid-only suffixes collide across hosts; names must also carry
        # a hostname token and a per-process counter.
        from repro.sweep import cache as cache_mod

        seen = []
        real_replace = os.replace

        def spy(src, dst):
            seen.append(pathlib.Path(src).name)
            return real_replace(src, dst)

        monkeypatch.setattr(cache_mod.os, "replace", spy)
        cache = ResultCache(tmp_path)
        cache.store(POINT, {"elapsed_us": 1}, compute_s=0.1)
        cache.store(POINT, {"elapsed_us": 1}, compute_s=0.1)
        assert len(seen) == len(set(seen)) == 2
        for name in seen:
            assert cache_mod._HOST_TOKEN in name
            assert f".{os.getpid()}." in name
            assert name.endswith(".tmp")


class TestHeatmapSibling:
    """A ``<key>.heatmap.json`` sibling lives by the observation's rules."""

    TEXT = "link 0->1  |@@##..|\n"

    def _warm(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepExecutor(cache=cache, observe=True).run([POINT])
        cache.store_sibling(POINT, "heatmap", self.TEXT)
        return cache

    def test_verify_all_and_len_ignore_siblings(self, tmp_path):
        cache = self._warm(tmp_path)
        assert len(list(tmp_path.glob("??/*.json"))) == 3
        assert len(cache) == 1
        audit = cache.verify_all()
        assert (audit.verified, audit.quarantined_now) == (1, 0)
        # Not scanned either: a garbled sibling is left for its reader.
        cache.sibling_path(POINT.key(), "heatmap").write_text("{ torn")
        audit = cache.verify_all()
        assert (audit.verified, audit.quarantined_now) == (1, 0)
        assert len(cache) == 1

    def test_corrupt_sibling_is_quarantined_alone(self, tmp_path):
        cache = self._warm(tmp_path)
        path = cache.sibling_path(POINT.key(), "heatmap")
        path.write_text(path.read_text()[:-9])
        assert cache.load_sibling(POINT, "heatmap") is None
        assert not path.exists()
        assert (cache.quarantine_root / path.name).exists()
        record = json.loads(
            (cache.quarantine_root / f"{POINT.key()}.reason.json").read_text()
        )
        assert record["files"] == [path.name]
        # The entry and the other sibling stay, and a store repairs it.
        assert cache.load(POINT) is not None
        assert cache.load_sibling(POINT, "obs") is not None
        cache.store_sibling(POINT, "heatmap", self.TEXT)
        assert cache.load_sibling(POINT, "heatmap") == self.TEXT

    def test_wrong_kind_of_value_is_a_defect(self, tmp_path):
        cache = self._warm(tmp_path)
        path = cache.sibling_path(POINT.key(), "heatmap")
        rewrite_body(path, lambda body: body.update(heatmap={"not": "text"}))
        assert cache.load_sibling(POINT, "heatmap") is None
        assert (cache.quarantine_root / path.name).exists()

    def test_entry_quarantine_moves_its_siblings(self, tmp_path):
        cache = self._warm(tmp_path)
        cache.path_for(POINT.key()).write_text("{ torn")
        assert cache.load(POINT) is None
        record = json.loads(
            (cache.quarantine_root / f"{POINT.key()}.reason.json").read_text()
        )
        names = [cache.path_for(POINT.key()).name] + [
            cache.sibling_path(POINT.key(), kind).name
            for kind in ("obs", "heatmap")
        ]
        assert record["files"] == names
        assert sorted(p.name for p in cache.quarantine_root.iterdir()) == sorted(
            names + [f"{POINT.key()}.reason.json"]
        )
        assert not list(tmp_path.glob("??/*.json"))

    def test_sibling_without_an_entry_is_served(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_sibling(POINT, "heatmap", self.TEXT)
        assert len(cache) == 0
        assert cache.load(POINT) is None
        assert cache.load_sibling(POINT, "heatmap") == self.TEXT


class TestCacheBypass:
    def test_cacheless_executor_writes_nothing(self, tmp_path):
        SweepExecutor(cache=None).run([POINT])
        assert list(tmp_path.iterdir()) == []

    def test_no_cache_flag_disables_reads_and_writes(self, tmp_path):
        warm = ResultCache(tmp_path)
        SweepExecutor(cache=warm).run([POINT])
        assert len(warm) == 1

        bypass = build_executor(jobs=None, cache_dir=str(tmp_path), no_cache=True)
        assert bypass.cache is None
        bypass.run([POINT])
        # recomputed despite a warm entry sitting right there
        assert bypass.last_report.cached == 0
        assert bypass.last_report.computed == 1

    def test_build_executor_honours_cache_dir(self, tmp_path):
        executor = build_executor(jobs=2, cache_dir=str(tmp_path), no_cache=False)
        assert executor.jobs == 2
        assert isinstance(executor.cache, ResultCache)
        assert executor.cache.root == tmp_path

    def test_build_executor_passes_observe_and_engine(self):
        executor = build_executor(
            jobs=None, cache_dir=None, no_cache=False, observe=True, engine="event"
        )
        assert executor.observe is True
        assert executor.engine == "event"
        assert executor.cache is None


class TestDeduplication:
    def test_duplicates_computed_once(self, tmp_path):
        executor = SweepExecutor(cache=ResultCache(tmp_path))
        results = executor.run([POINT, POINT, POINT])
        assert executor.last_report.computed == 1
        assert executor.last_report.total == 3
        assert len({r.elapsed_us for r in results}) == 1


@pytest.fixture(scope="module")
def points():
    return SweepSpec(
        machines=("paragon:8x8",),
        distributions=("E",),
        s_values=(4,),
        message_sizes=(512,),
        algorithms=("Br_Lin",),
        seeds=(0,),
    ).points()


def _store_race(cache_dir, key_payload, result_dict, rounds):
    """Spawn target: hammer one cache key with stores."""
    from repro.sweep import ResultCache
    from repro.sweep.spec import SweepPoint

    cache = ResultCache(cache_dir)
    point = SweepPoint.from_payload(key_payload)
    for _ in range(rounds):
        cache.store(point, result_dict, compute_s=0.01)


class TestConcurrentWriters:
    """Concurrent runs pointed at one ``--cache-dir`` share its entries."""

    def test_two_processes_storing_one_key(self, points, tmp_path):
        # Two spawned processes race 50 stores each onto the same key.
        # Atomic replace + unique temp names must leave exactly one
        # loadable entry and zero temp-file litter.
        from repro.sweep.executor import evaluate_point

        payload = points[0].payload()
        result_dict, _, _ = evaluate_point(payload, "auto")
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(
                target=_store_race,
                args=(str(tmp_path), payload, result_dict, 50),
            )
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        cache = ResultCache(tmp_path)
        hit = cache.load(points[0])
        assert hit is not None
        assert hit[0] == result_dict
        assert len(cache) == 1
        assert not list(tmp_path.glob("**/*.tmp"))
