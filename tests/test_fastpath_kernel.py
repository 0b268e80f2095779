"""Kernel edge cases: the degenerate shapes a sweep can feed the replay.

Single-rank machines (no events beyond process start) and schedules
containing empty rounds must replay exactly as on the event engine.
"""

from __future__ import annotations

import json

import pytest

from repro.core.problem import BroadcastProblem
from repro.core.runner import run_broadcast
from repro.machines import machine_from_spec


def _blob(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Degenerate shapes through the kernel.


@pytest.mark.parametrize("spec", ["paragon:1x1", "t3d:1"])
@pytest.mark.parametrize("algorithm", ["Br_Lin", "PersAlltoAll", "MPI_AllGather"])
def test_single_rank_runs_match_event_engine(spec, algorithm):
    """p = 1: zero rounds, zero sends — the kernel must still terminate
    with the verification and metrics the event engine produces."""
    problem = BroadcastProblem(
        machine=machine_from_spec(spec), sources=(0,), message_size=64
    )
    fast = run_broadcast(problem, algorithm, engine="fast")
    event = run_broadcast(problem, algorithm, engine="event")
    assert fast.num_rounds == 0
    assert fast.num_transfers == 0
    assert _blob(fast) == _blob(event)


def test_empty_round_matches_event_engine():
    """A round with no transfers (single-source pipelined gather) must
    advance every rank past it exactly as the event engine does."""
    problem = BroadcastProblem(
        machine=machine_from_spec("t3d:16"), sources=(0,), message_size=4096
    )
    fast = run_broadcast(problem, "MPI_AllGather", engine="fast")
    event = run_broadcast(problem, "MPI_AllGather", engine="event")
    assert _blob(fast) == _blob(event)


def test_minimal_message_size_matches_event_engine():
    """L = 1 byte: the smallest legal size, exercising near-zero copy
    costs without losing the per-message software overheads."""
    problem = BroadcastProblem(
        machine=machine_from_spec("paragon:4x4"),
        sources=(0, 5, 10),
        message_size=1,
    )
    for algorithm in ("Br_Lin", "2-Step", "PersAlltoAll"):
        fast = run_broadcast(problem, algorithm, engine="fast")
        event = run_broadcast(problem, algorithm, engine="event")
        assert _blob(fast) == _blob(event)
