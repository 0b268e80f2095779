"""Property-based tests for end-to-end simulated runs.

These push whole problems through the event engine: delivery through
actual message passing, determinism of timing, and agreement between
the fabric's reservation bookkeeping and wall-clock outcomes.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BroadcastProblem, run_broadcast
from repro.core.algorithms import ALGORITHMS, get_algorithm
from repro.distributions import DISTRIBUTIONS
from repro.machines import paragon
from repro.network import Fabric, Mesh2D

shapes = st.sampled_from([(2, 3), (3, 3), (4, 4), (3, 5)])
algo_names = st.sampled_from(sorted(ALGORITHMS))
dist_keys = st.sampled_from(sorted(DISTRIBUTIONS))


@settings(max_examples=60, deadline=None)
@given(shape=shapes, name=algo_names, key=dist_keys, data=st.data())
def test_simulated_delivery_of_every_algorithm(shape, name, key, data):
    """run_broadcast validates delivery and raises if any rank misses one."""
    machine = paragon(*shape)
    algo = get_algorithm(name)
    if not algo.supports(machine):
        return
    s = data.draw(st.integers(1, machine.p), label="s")
    sources = DISTRIBUTIONS[key].generate(machine, s)
    problem = BroadcastProblem(machine, sources, message_size=128)
    result = run_broadcast(problem, algo)
    assert result.elapsed_us >= 0.0


@settings(max_examples=30, deadline=None)
@given(shape=shapes, name=algo_names, data=st.data())
def test_elapsed_time_is_deterministic(shape, name, data):
    machine = paragon(*shape)
    algo = get_algorithm(name)
    if not algo.supports(machine):
        return
    s = data.draw(st.integers(1, machine.p), label="s")
    sources = DISTRIBUTIONS["E"].generate(machine, s)
    problem = BroadcastProblem(machine, sources, message_size=256)
    assert (
        run_broadcast(problem, algo).elapsed_us
        == run_broadcast(problem, algo).elapsed_us
    )


@settings(max_examples=30, deadline=None)
@given(
    shape=shapes,
    name=st.sampled_from(["Br_Lin", "2-Step", "PersAlltoAll"]),
    data=st.data(),
)
def test_contention_never_speeds_things_up(shape, name, data):
    machine = paragon(*shape)
    s = data.draw(st.integers(1, machine.p), label="s")
    sources = DISTRIBUTIONS["E"].generate(machine, s)
    problem = BroadcastProblem(machine, sources, message_size=2048)
    on = run_broadcast(problem, name, contention=True).elapsed_us
    off = run_broadcast(problem, name, contention=False).elapsed_us
    assert on >= off - 1e-9


@settings(max_examples=30, deadline=None)
@given(
    shape=shapes,
    name=st.sampled_from(["Br_Lin", "Br_xy_source"]),
    data=st.data(),
)
def test_bigger_messages_never_finish_faster(shape, name, data):
    machine = paragon(*shape)
    algo = get_algorithm(name)
    if not algo.supports(machine):
        return
    s = data.draw(st.integers(1, machine.p), label="s")
    sources = DISTRIBUTIONS["E"].generate(machine, s)
    small = BroadcastProblem(machine, sources, message_size=256)
    large = BroadcastProblem(machine, sources, message_size=4096)
    assert (
        run_broadcast(large, algo).elapsed_us
        >= run_broadcast(small, algo).elapsed_us
    )


@settings(max_examples=100, deadline=None)
@given(
    transfers=st.lists(
        st.tuples(
            st.integers(0, 11),
            st.integers(0, 11),
            st.integers(1, 10_000),
            st.floats(0.0, 100.0),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_fabric_reservations_never_overlap_per_link(transfers):
    """For any request pattern, two reservations of one link never
    overlap in time (the wormhole path-reservation invariant)."""
    topo = Mesh2D(3, 4)
    fabric = Fabric(topo, t_byte=0.01, t_hop=0.5)
    intervals = {}  # link id -> list of (start, finish)
    clock = 0.0
    for src, dst, nbytes, advance in sorted(
        transfers, key=lambda t: t[3]
    ):
        clock = max(clock, advance)
        stats = fabric.transfer(src, dst, nbytes, now=clock)
        assert stats.start_time >= clock
        if src == dst:
            continue
        for link in topo.route(src, dst):
            intervals.setdefault(link, []).append(
                (stats.start_time, stats.finish_time)
            )
    for link, spans in intervals.items():
        spans.sort()
        for (s1, f1), (s2, f2) in zip(spans, spans[1:]):
            assert s2 >= f1 - 1e-9, f"link {link}: {spans}"
