"""Property-based tests (hypothesis) for algorithm schedules.

The central invariants of the reproduction: every algorithm, on every
feasible (machine, distribution, s), must produce a schedule that is
*causal* (senders only send what they hold) and *complete* (every rank
ends with every message) — `Schedule.validate` checks both.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms import ALGORITHMS, get_algorithm
from repro.core.algorithms.common import halving_pairs
from repro.core.problem import BroadcastProblem
from repro.core.structure import analyze_schedule
from repro.distributions import DISTRIBUTIONS
from repro.machines import paragon, t3d

shapes = st.tuples(st.integers(2, 8), st.integers(2, 8))
dist_keys = st.sampled_from(sorted(DISTRIBUTIONS))
algo_names = st.sampled_from(sorted(ALGORITHMS))


@settings(max_examples=120, deadline=None)
@given(shape=shapes, key=dist_keys, name=algo_names, data=st.data())
def test_every_schedule_is_causal_and_complete(shape, key, name, data):
    machine = paragon(*shape)
    algo = get_algorithm(name)
    if not algo.supports(machine):
        return
    s = data.draw(st.integers(1, machine.p), label="s")
    sources = DISTRIBUTIONS[key].generate(machine, s)
    problem = BroadcastProblem(machine, sources, message_size=64)
    schedule = algo.build_schedule(problem)
    schedule.validate()  # raises on violation


@settings(max_examples=40, deadline=None)
@given(p_exp=st.integers(2, 6), name=algo_names, data=st.data())
def test_t3d_schedules_are_causal_and_complete(p_exp, name, data):
    machine = t3d(1 << p_exp)
    algo = get_algorithm(name)
    if not algo.supports(machine):
        return
    s = data.draw(st.integers(1, machine.p), label="s")
    sources = DISTRIBUTIONS["E"].generate(machine, s)
    problem = BroadcastProblem(machine, sources, message_size=64)
    algo.build_schedule(problem).validate()


@settings(max_examples=80, deadline=None)
@given(shape=shapes, key=dist_keys, name=algo_names, data=st.data())
def test_schedule_building_is_deterministic(shape, key, name, data):
    machine = paragon(*shape)
    algo = get_algorithm(name)
    if not algo.supports(machine):
        return
    s = data.draw(st.integers(1, machine.p), label="s")
    sources = DISTRIBUTIONS[key].generate(machine, s)
    problem = BroadcastProblem(machine, sources, message_size=64)
    a = algo.build_schedule(problem)
    b = algo.build_schedule(problem)
    assert vars(a) == vars(b)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 300))
def test_halving_pairs_structural_invariants(n):
    """Depth is ceil(log2 n); pairs never cross segment boundaries twice;
    every non-trivial position communicates at least once."""
    iterations = halving_pairs(n)
    assert len(iterations) == max(n - 1, 0).bit_length()
    touched = set()
    for pairs in iterations:
        seen_this_round = {}
        for a, b, one_way in pairs:
            assert 0 <= a < n and 0 <= b < n and a != b
            touched.add(a)
            touched.add(b)
            # a position sends to at most one partner per iteration
            seen_this_round[a] = seen_this_round.get(a, 0) + 1
        # one-way feeds can give the upper-last TWO receives but a
        # sender never initiates two sends in one iteration
        assert all(v <= 1 for v in seen_this_round.values())
    if n > 1:
        assert touched == set(range(n))


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([(4, 4), (4, 8), (8, 8)]),
    s=st.integers(1, 16),
)
def test_active_ranks_never_shrink_holders(shape, s):
    """Holder count is monotonically non-decreasing over rounds."""
    machine = paragon(*shape)
    s = min(s, machine.p)
    sources = DISTRIBUTIONS["E"].generate(machine, s)
    problem = BroadcastProblem(machine, sources, message_size=64)
    schedule = get_algorithm("Br_Lin").build_schedule(problem)
    profile = analyze_schedule(schedule)
    holders = s
    for rnd in profile.rounds:
        assert rnd.new_holders >= 0
        holders += rnd.new_holders
    assert holders == machine.p
