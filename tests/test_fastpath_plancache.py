"""Plan-cache correctness: amortization must never change a byte.

The plan cache (:mod:`repro.fastpath.plancache`) reuses one lowered
:class:`~repro.fastpath.lowering.FastPlan` across sweep points that
share the schedule-determining data, rebinding message sizes and rank
mappings per point.  Every test here is a bit-identity claim: a run
served from a warm cache entry — same sizes, rebound sizes, different
seed — must serialize byte-for-byte like a run computed with the cache
cleared (and, transitively via the differential suite, like the event
engine).
"""

from __future__ import annotations

import json

import pytest

from repro.core.algorithms import get_algorithm
from repro.core.problem import BroadcastProblem
from repro.core.runner import run_broadcast
import repro
from repro.core.algorithms.auto import AutoPredict
from repro.fastpath import lower_schedule
from repro.fastpath import plancache
from repro.machines import Machine, machine_from_spec
from repro.network.linear import LinearArray


@pytest.fixture(autouse=True)
def fresh_cache():
    plancache.clear()
    yield
    plancache.clear()


def _blob(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


def _problem(spec: str, size: int, s: int = 4) -> BroadcastProblem:
    return BroadcastProblem(
        machine=machine_from_spec(spec),
        sources=tuple(range(s)),
        message_size=size,
    )


def test_repeated_point_hits_and_matches():
    problem = _problem("paragon:4x4", 1024)
    first = run_broadcast(problem, "PersAlltoAll", engine="fast")
    second = run_broadcast(problem, "PersAlltoAll", engine="fast")
    assert first.debug["plan_cache"] == "miss"
    assert second.debug["plan_cache"] == "hit"
    assert _blob(first) == _blob(second)


@pytest.mark.parametrize("algorithm", ["PersAlltoAll", "Br_Lin", "2-Step"])
def test_size_rebind_matches_fresh_lowering(algorithm):
    """One plan serves every message length, byte-identical to a fresh
    build: lower at L=64, replay rebound at L=4096, compare against a
    cold-cache L=4096 run."""
    small = run_broadcast(_problem("paragon:4x4", 64), algorithm, engine="fast")
    assert small.debug["plan_cache"] == "miss"
    # A hit at a new size is a rebind of the L=64 structure.
    warm = run_broadcast(_problem("paragon:4x4", 4096), algorithm, engine="fast")
    assert warm.debug["plan_cache"] == "hit"
    plancache.clear()
    cold = run_broadcast(_problem("paragon:4x4", 4096), algorithm, engine="fast")
    assert cold.debug["plan_cache"] == "miss"
    assert _blob(warm) == _blob(cold)


def test_size_dependent_schedule_cached_per_size_table():
    """Pipelined MPI_AllGather's *structure* changes with L (segment
    count), so its plans key per size table — every L is a fresh
    lowering, repeats of the same L are hits, and all of it matches
    cold-cache runs."""
    spec, algorithm = "t3d:16", "MPI_AllGather"
    warm = {}
    for size in (64, 4096, 65536):
        first = run_broadcast(_problem(spec, size), algorithm, engine="fast")
        assert first.debug["plan_cache"] == "miss"  # never size-rebound
        again = run_broadcast(_problem(spec, size), algorithm, engine="fast")
        assert again.debug["plan_cache"] == "hit"
        assert _blob(first) == _blob(again)
        warm[size] = _blob(first)
    plancache.clear()
    for size, blob in warm.items():
        cold = run_broadcast(_problem(spec, size), algorithm, engine="fast")
        assert _blob(cold) == blob


def test_seed_variation_shares_plan_not_binding():
    """T3D rank mappings are seeded, so seeds share the lowered plan
    (a hit) but resolve their own link paths — results must match
    cold-cache runs seed by seed."""
    warm = {}
    for seed in (0, 3, 7):
        result = run_broadcast(
            _problem("t3d:16", 2048), "PersAlltoAll", engine="fast", seed=seed
        )
        expected = "miss" if seed == 0 else "hit"
        assert result.debug["plan_cache"] == expected
        warm[seed] = _blob(result)
    assert len(set(warm.values())) > 1, "seeded mappings should differ"
    plancache.clear()
    for seed, blob in warm.items():
        cold = run_broadcast(
            _problem("t3d:16", 2048), "PersAlltoAll", engine="fast", seed=seed
        )
        assert _blob(cold) == blob


def test_hand_built_machine_is_keyed_by_the_object():
    """A machine without a spec keys its plans by the object itself: its
    own repeated run hits, an equal but distinct machine misses, and
    every run matches the event engine."""
    from tests.conftest import TEST_PARAMS

    def problem_on(machine):
        return BroadcastProblem(machine=machine, sources=(0, 5), message_size=512)

    problem = problem_on(Machine(LinearArray(8), TEST_PARAMS))
    first = run_broadcast(problem, "Br_Lin", engine="fast")
    second = run_broadcast(problem, "Br_Lin", engine="fast")
    assert first.debug["plan_cache"] == "miss"
    assert second.debug["plan_cache"] == "hit"
    twin = run_broadcast(
        problem_on(Machine(LinearArray(8), TEST_PARAMS)), "Br_Lin",
        engine="fast",
    )
    assert twin.debug["plan_cache"] == "miss"
    event = run_broadcast(problem, "Br_Lin", engine="event")
    assert _blob(first) == _blob(second) == _blob(twin) == _blob(event)


def test_parameter_variants_do_not_share_plans():
    base = run_broadcast(_problem("t3d:16", 2048), "Br_Lin", engine="fast")
    variant = run_broadcast(
        _problem("t3d:16+t_mem_byte=0.0", 2048), "Br_Lin", engine="fast"
    )
    assert variant.debug["plan_cache"] == "miss"
    assert variant.elapsed_us < base.elapsed_us


def test_rebind_sizes_refuses_size_dependent_structure():
    problem = _problem("t3d:16", 65536)
    schedule = get_algorithm("MPI_AllGather").build_schedule(problem)
    plan = lower_schedule(schedule)
    assert not plan.size_reusable
    with pytest.raises(ValueError, match="depends on message sizes"):
        plan.rebind_sizes(_problem("t3d:16", 1024))


def test_rebind_sizes_bit_equal_to_fresh_lowering():
    """Direct check at the lowering layer: the rebound plan equals a
    from-scratch lowering of the resized problem, list by list."""
    base = _problem("paragon:4x4", 64)
    schedule = get_algorithm("PersAlltoAll").build_schedule(base)
    plan = lower_schedule(schedule)
    assert plan.size_reusable
    resized = _problem("paragon:4x4", 4096)
    rebound = plan.rebind_sizes(resized)
    fresh = lower_schedule(
        get_algorithm("PersAlltoAll").build_schedule(resized)
    )
    for name in ("send_nbytes", "send_ovh", "recv_total", "recv_copy",
                 "report_fields"):
        assert getattr(rebound, name) == getattr(fresh, name), name
    assert rebound.send_nbytes != plan.send_nbytes
    assert rebound == fresh
    # Structural lists are shared, not copied.
    for name in ("send_src", "send_dst", "send_round", "send_msgset",
                 "send_ovh", "op_code", "op_arg", "op_aux", "op_start",
                 "rank_rounds", "round_phase", "round_collective",
                 "round_mpi", "round_recv_ovh", "round_mem_scale"):
        assert getattr(rebound, name) is getattr(plan, name), name


def _auto_problem(size: int) -> BroadcastProblem:
    machine = machine_from_spec("paragon:8x8")
    sources = repro.get_distribution("E").generate(machine, 16)
    return BroadcastProblem(machine, sources, message_size=size)


@pytest.mark.parametrize(
    "sizes", [(32, 65536), (65536, 32)], ids=["small-first", "large-first"]
)
def test_auto_predict_never_replays_another_sizes_pick(sizes):
    """Auto_Predict picks by the predicted time at the point's sizes:
    L = 32 and L = 65536 pick different candidates on paragon:8x8, and
    a warm cache must not serve one size's pick at the other."""
    picks = set()
    for size in sizes:
        problem = _auto_problem(size)
        fast = run_broadcast(problem, "Auto_Predict", engine="fast")
        event = run_broadcast(problem, "Auto_Predict", engine="event")
        assert fast.debug["plan_cache"] == "miss"
        assert _blob(fast) == _blob(event)
        picks.add(fast.algorithm)
    assert picks == {"Auto_Predict[Br_xy_source]", "Auto_Predict[Repos_xy_source]"}


def test_auto_predict_portfolio_instance_keeps_its_own_plans():
    """A configured AutoPredict instance shares no plan with the
    registry's Auto_Predict, although both carry the same name."""
    problem = _auto_problem(1024)
    default = run_broadcast(problem, "Auto_Predict", engine="fast")
    ring_only = AutoPredict(portfolio=("Br_Ring",))
    fast = run_broadcast(problem, ring_only, engine="fast")
    event = run_broadcast(problem, ring_only, engine="event")
    assert fast.debug["plan_cache"] == "miss"
    assert fast.algorithm == "Auto_Predict[Br_Ring]"
    assert default.algorithm != fast.algorithm
    assert _blob(fast) == _blob(event)
    again = run_broadcast(problem, ring_only, engine="fast")
    assert again.debug["plan_cache"] == "hit"
    assert _blob(again) == _blob(event)
