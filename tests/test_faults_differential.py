"""Differential tests for fault-injected runs: every path, one answer.

The acceptance bar for fault injection is the same one the sweep
executor already holds fault-free runs to: the identical ``--faults``
spec and seed must produce bit-identical ``BroadcastResult`` JSON
whether evaluated serially, fanned over worker processes, or served
from a warm cache.  Degrade subsets are seeded from the canonical spec
string (PYTHONHASHSEED-independent), detours are deterministic BFS, so
nothing here is allowed to wobble.
"""

from __future__ import annotations

import json

import pytest

from repro.sweep import ResultCache, SweepExecutor, SweepSpec

#: A grid crossing fault-free, detoured, lossy (partial delivery), and
#: degraded conditions — node:15 makes Br_Lin runs genuinely partial.
GRID = SweepSpec(
    machines=("paragon:4x4",),
    distributions=("E", "R"),
    s_values=(4,),
    message_sizes=(256,),
    algorithms=("Br_Lin", "2-Step"),
    seeds=(0, 1),
    faults=(None, "link:5-6", "node:15", "degrade:links=0.25,factor=4"),
)


def fingerprint(result):
    """The complete serialized result — stricter than field-picking."""
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def points():
    pts = GRID.points()
    assert len(pts) == 32
    return pts


@pytest.fixture(scope="module")
def serial_results(points):
    return [fingerprint(r) for r in SweepExecutor(jobs=1).run(points)]


def test_grid_exercises_partial_delivery(points, serial_results):
    # Guard: the node-fault cells really are lossy, so the differential
    # paths below are proven over partial results too, not just clean ones.
    deliveries = [json.loads(blob).get("delivery", 1.0) for blob in serial_results]
    assert any(d < 1.0 for d in deliveries)
    assert any(d == 1.0 for d in deliveries)


def test_parallel_matches_serial(points, serial_results):
    parallel = [fingerprint(r) for r in SweepExecutor(jobs=4).run(points)]
    assert parallel == serial_results


def test_warm_cache_matches_serial(points, serial_results, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    executor = SweepExecutor(jobs=1, cache=cache)
    cold = [fingerprint(r) for r in executor.run(points)]
    assert cold == serial_results
    warm = [fingerprint(r) for r in executor.run(points)]
    assert warm == serial_results
    assert executor.last_report.cached == len(points)


def test_parallel_warm_cache_matches_serial(points, serial_results, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    SweepExecutor(jobs=4, cache=cache).run(points)
    warm = [fingerprint(r) for r in SweepExecutor(jobs=4, cache=cache).run(points)]
    assert warm == serial_results


def test_repeated_serial_runs_are_stable(points, serial_results):
    again = [fingerprint(r) for r in SweepExecutor(jobs=1).run(points)]
    assert again == serial_results


# ---------------------------------------------------------------------------
# Recovery differential: every Br_* algorithm, connected link kills
# ---------------------------------------------------------------------------
#: Three wire cuts that leave the 8x8 mesh connected: recovery-enabled
#: runs must reach full delivery, and must do so bit-identically on
#: every evaluation path.
CONNECTED_KILLS = "link:(3,3)-(3,4)@0us;link:(0,0)-(0,1)@100us;link:(7,6)-(7,7)"

RECOVER_GRID = SweepSpec(
    machines=("paragon:8x8",),
    distributions=("E",),
    s_values=(4,),
    message_sizes=(256,),
    algorithms=("Br_Lin", "Br_Ring", "Br_xy_dim", "Br_xy_source"),
    seeds=(0,),
    faults=(CONNECTED_KILLS,),
    recover=True,
)


@pytest.fixture(scope="module")
def recover_points():
    pts = RECOVER_GRID.points()
    assert all(p.recover for p in pts)
    return pts


@pytest.fixture(scope="module")
def recover_serial(recover_points):
    return [fingerprint(r) for r in SweepExecutor(jobs=1).run(recover_points)]


def test_recovery_reaches_full_delivery(recover_serial):
    for blob in recover_serial:
        data = json.loads(blob)
        assert data.get("delivery", 1.0) == 1.0
        assert data["recovered"] is True


def test_recovery_parallel_matches_serial(recover_points, recover_serial):
    parallel = [
        fingerprint(r) for r in SweepExecutor(jobs=4).run(recover_points)
    ]
    assert parallel == recover_serial


def test_recovery_warm_cache_matches_serial(
    recover_points, recover_serial, tmp_path
):
    cache = ResultCache(tmp_path / "cache")
    executor = SweepExecutor(jobs=1, cache=cache)
    cold = [fingerprint(r) for r in executor.run(recover_points)]
    assert cold == recover_serial
    warm = [fingerprint(r) for r in executor.run(recover_points)]
    assert warm == recover_serial
    assert executor.last_report.cached == len(recover_points)


def test_recover_points_hash_apart_from_plain_fault_points(recover_points):
    plain = SweepSpec(
        machines=("paragon:8x8",),
        distributions=("E",),
        s_values=(4,),
        message_sizes=(256,),
        algorithms=("Br_Lin", "Br_Ring", "Br_xy_dim", "Br_xy_source"),
        seeds=(0,),
        faults=(CONNECTED_KILLS,),
    ).points()
    assert {p.key() for p in plain}.isdisjoint(
        {p.key() for p in recover_points}
    )
