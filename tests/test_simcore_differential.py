"""Differential tests pinning simulator results to golden fixtures.

The fixtures in ``tests/golden/simcore_golden.json`` were generated
from the pre-optimization simulator core.  Every entry records the
sha256 of the canonical ``BroadcastResult.to_dict()`` JSON for one
``(machine, algorithm, sources, message size, seed)`` point — or the
exception class for combinations the algorithm rejects.  These tests
prove the hot-path optimizations (route memoization, communicator
views, fused send events, inlined scheduling) are *bit-identical*
rewrites: same virtual times, same transfer counts, same metrics,
down to the last float bit.
"""

from __future__ import annotations

import builtins
import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.core.problem import BroadcastProblem
from repro.core.runner import run_broadcast
from repro.machines import machine_from_spec
from repro.summation import left_sum

GOLDEN_PATH = Path(__file__).parent / "golden" / "simcore_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _canonical_hash(result) -> str:
    blob = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _run_point(key: str, engine: str = "auto"):
    spec, algorithm, s_part, L_part, seed_part = key.split("|")
    s = int(s_part.split("=")[1])
    L = int(L_part.split("=")[1])
    seed = int(seed_part.split("=")[1])
    problem = BroadcastProblem(
        machine=machine_from_spec(spec),
        sources=tuple(range(s)),
        message_size=L,
    )
    return run_broadcast(problem, algorithm, seed=seed, engine=engine)


@pytest.mark.parametrize("engine", ["auto", "event", "fast"])
@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_result_matches_golden(key, engine):
    """Every fixture point reproduces its digest under every engine.

    The same sha256 values pin all three engine selections: the fast
    path (``fast``, and ``auto`` on these clean runs) must be a
    bit-identical rewrite of the event engine (``event``), with no
    engine-specific fixture file.
    """
    expect = GOLDEN[key]
    if "error" in expect:
        with pytest.raises(Exception) as excinfo:
            _run_point(key, engine)
        assert type(excinfo.value).__name__ == expect["error"]
        return
    result = _run_point(key, engine)
    assert result.elapsed_us == expect["elapsed_us"]
    assert result.num_transfers == expect["num_transfers"]
    assert _canonical_hash(result) == expect["sha256"]


def test_repeated_runs_are_bit_identical():
    """Two runs of the same point produce byte-for-byte equal JSON.

    Guards the warm-cache path: the second run hits the memoized
    machine, routes, and communicator views, and must not diverge
    from the first (cold) run in any way.
    """
    key = "paragon:8x8|PersAlltoAll|s=16|L=1024|seed=0"
    first = _run_point(key)
    second = _run_point(key)
    blob_a = json.dumps(first.to_dict(), sort_keys=True, separators=(",", ":"))
    blob_b = json.dumps(second.to_dict(), sort_keys=True, separators=(",", ":"))
    assert blob_a == blob_b


def test_golden_fixture_covers_acceptance_point():
    """The 16x16 s=64 perf acceptance point is pinned by a fixture."""
    assert "paragon:16x16|PersAlltoAll|s=64|L=4096|seed=0" in GOLDEN


def _compensated_sum(iterable, /, start=0):
    """``builtins.sum`` as Python 3.12 computes it.

    Ints add exactly; once the total is a float, float items add with
    Neumaier compensation and ints add plainly, and the compensation is
    folded in at the end.
    """
    items = iter(iterable)
    total = start
    if type(total) is not float:
        for item in items:
            total = total + item
            if type(total) is float:
                break
        else:
            return total
    compensation = 0.0
    for item in items:
        if type(item) is float:
            t = total + item
            if abs(total) >= abs(item):
                compensation += (total - t) + item
            else:
                compensation += (item - t) + total
            total = t
        elif isinstance(item, int):
            total += float(item)
        else:  # pragma: no cover - no result sums other types
            raise TypeError(f"unsupported summand {item!r}")
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_compensated_sum_differs_from_left_to_right():
    assert _compensated_sum([0.1] * 10) == 1.0
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert _compensated_sum([1, 2, 3]) == 6


@pytest.mark.parametrize("engine", ["event", "fast"])
@pytest.mark.parametrize("key", [
    "paragon:8x8|Br_Lin|s=16|L=1024|seed=0",
    "paragon:16x16|PersAlltoAll|s=16|L=1024|seed=0",
    "t3d:64|MPI_Alltoall|s=16|L=1024|seed=1",
    "hypercube:16|2-Step|s=16|L=1024|seed=0",
])
def test_results_do_not_depend_on_builtin_sum(key, engine, monkeypatch):
    """Python 3.12's compensated ``sum`` reproduces the goldens too.

    The fixtures were recorded on 3.11, whose ``sum`` adds left to
    right; every float total that feeds a result goes through
    :func:`repro.summation.left_sum`, never ``builtins.sum``.
    """
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    result = _run_point(key, engine)
    assert _canonical_hash(result) == GOLDEN[key]["sha256"]
