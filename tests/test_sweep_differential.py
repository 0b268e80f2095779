"""Differential tests: every execution path yields bit-identical results.

The sweep executor promises that fanning points over worker processes
or answering them from the on-disk cache never changes the answer.
These tests run one sampled grid (both machine families, four
algorithms, three distributions, two seeds) through every path —
serial, pooled, cold cache, warm cache, a partly warm cache, a cache
with quarantined entries, observed on either engine — and assert the
results agree field-for-field, including every metric counter.
"""

from __future__ import annotations

import pytest

from repro.sweep import ResultCache, SweepExecutor, SweepSpec

#: Mesh-only algorithms (Br_xy_*) are excluded: the grid includes t3d.
GRID = SweepSpec(
    machines=("paragon:4x4", "t3d:16"),
    distributions=("R", "E", "Sq"),
    s_values=(4,),
    message_sizes=(256,),
    algorithms=("Br_Lin", "2-Step", "PersAlltoAll", "MPI_AllGather"),
    seeds=(0, 1),
)


def fingerprint(result):
    """Everything observable about a run, as a comparable value."""
    return (
        result.algorithm,
        result.elapsed_us,
        result.num_rounds,
        result.num_transfers,
        result.link_utilization,
        result.metrics.to_json_dict(),
    )


@pytest.fixture(scope="module")
def points():
    pts = GRID.points()
    assert len(pts) == 48
    return pts


@pytest.fixture(scope="module")
def serial_results(points):
    return [fingerprint(r) for r in SweepExecutor(jobs=1).run(points)]


def test_parallel_matches_serial(points, serial_results):
    executor = SweepExecutor(jobs=4)
    parallel = [fingerprint(r) for r in executor.run(points)]
    assert parallel == serial_results
    assert executor.last_report.total == len(points)
    assert executor.last_report.cached == 0


def test_cold_and_warm_cache_match_serial(points, serial_results, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    executor = SweepExecutor(jobs=1, cache=cache)

    cold = [fingerprint(r) for r in executor.run(points)]
    assert cold == serial_results
    assert executor.last_report.cached == 0
    assert executor.last_report.computed == len(points)

    warm = [fingerprint(r) for r in executor.run(points)]
    assert warm == serial_results
    assert executor.last_report.cached == len(points)
    assert executor.last_report.computed == 0


def test_parallel_warm_cache_matches_serial(points, serial_results, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    SweepExecutor(jobs=1, cache=cache).run(points)
    warm = SweepExecutor(jobs=4, cache=cache).run(points)
    assert [fingerprint(r) for r in warm] == serial_results


def test_parallel_resumes_a_partial_cache(points, serial_results, tmp_path):
    # An interrupted run leaves some points cached: a pooled rerun
    # computes only the rest and still answers like serial.
    cache = ResultCache(tmp_path / "cache")
    SweepExecutor(jobs=1, cache=cache).run(points[::2])
    executor = SweepExecutor(jobs=2, cache=cache)
    resumed = [fingerprint(r) for r in executor.run(points)]
    assert resumed == serial_results
    assert executor.last_report.cached == len(points[::2])
    assert executor.last_report.computed == len(points[1::2])


def test_parallel_recomputes_quarantined_entries(points, serial_results, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    SweepExecutor(jobs=1, cache=cache).run(points)
    for point in (points[0], points[-1]):
        cache.path_for(point.key()).write_text("rot")
    executor = SweepExecutor(jobs=2, cache=cache)
    assert [fingerprint(r) for r in executor.run(points)] == serial_results
    assert executor.last_report.computed == 2
    assert executor.last_report.quarantines == 2


def test_parallel_observe_matches_across_engines(points, serial_results):
    runs = {}
    for engine in ("fast", "event"):
        executor = SweepExecutor(jobs=2, observe=True, engine=engine)
        results = [fingerprint(r) for r in executor.run(points)]
        runs[engine] = (results, executor.last_observations)
    assert runs["fast"][0] == runs["event"][0] == serial_results
    assert all(obs["summary"] for obs in runs["fast"][1])
    assert runs["fast"][1] == runs["event"][1]


def test_results_are_order_aligned(points, serial_results):
    # Shuffled input order must map results back onto their points.
    reordered = list(reversed(points))
    results = SweepExecutor(jobs=1).run(reordered)
    assert [fingerprint(r) for r in results] == list(reversed(serial_results))
