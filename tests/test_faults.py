"""Fault-injection subsystem: grammar, injector state, run integration."""

from __future__ import annotations

import json

import pytest

from repro.core import BroadcastProblem, run_broadcast
from repro.errors import ConfigurationError, PeerFailedError
from repro.faults import (
    DegradeFault,
    FaultSchedule,
    LinkFault,
    NodeFault,
    parse_fault,
)
from repro.machines import paragon


# ---------------------------------------------------------------------------
# Grammar
# ---------------------------------------------------------------------------
class TestParseFault:
    def test_link_with_node_ids(self):
        fault = parse_fault("link:5-6")
        assert fault == LinkFault(5, 6, 0.0)

    def test_link_with_coordinates(self):
        fault = parse_fault("link:(2,3)-(2,4)@500us")
        assert fault == LinkFault((2, 3), (2, 4), 500.0)

    def test_node_with_time(self):
        assert parse_fault("node:17@250us") == NodeFault(17, 250.0)

    def test_millisecond_suffix(self):
        assert parse_fault("node:3@1.5ms") == NodeFault(3, 1500.0)

    def test_bare_time_is_microseconds(self):
        assert parse_fault("node:3@40") == NodeFault(3, 40.0)

    def test_time_defaults_to_zero(self):
        assert parse_fault("node:3").at_us == 0.0

    def test_degrade(self):
        fault = parse_fault("degrade:links=0.25,factor=4")
        assert fault == DegradeFault(0.25, 4.0, 0.0)

    @pytest.mark.parametrize(
        "bad",
        [
            "explode:7",                      # unknown kind
            "node",                           # no colon
            "link:5",                         # missing second endpoint
            "link:a-b",                       # non-numeric endpoints
            "node:3@soon",                    # unparseable time
            "degrade:links=0.25",             # missing factor
            "degrade:links=0.25,factor=4,x=1",  # unknown field
            "degrade:links=abc,factor=4",     # non-numeric fraction
        ],
    )
    def test_rejects_malformed_clauses(self, bad):
        with pytest.raises(ConfigurationError):
            parse_fault(bad)

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_rejects_bad_degrade_fraction(self, fraction):
        with pytest.raises(ConfigurationError):
            DegradeFault(fraction, 2.0)

    def test_rejects_degrade_factor_below_one(self):
        with pytest.raises(ConfigurationError):
            DegradeFault(0.5, 0.5)


class TestFaultSchedule:
    def test_parse_multi_clause_string(self):
        schedule = FaultSchedule.parse("node:17; link:5-6@100us")
        assert len(schedule.faults) == 2

    def test_canonical_sorts_by_onset(self):
        schedule = FaultSchedule.parse("link:5-6@100us;node:17")
        assert schedule.canonical() == "node:17@0us;link:5-6@100us"

    def test_spelling_variants_share_a_canonical(self):
        a = FaultSchedule.parse("node:3@0.5ms ; link:1-2")
        b = FaultSchedule.parse("link:1-2@0us;node:3@500us")
        assert a.canonical() == b.canonical()

    def test_parse_iterable_of_clauses_and_faults(self):
        schedule = FaultSchedule.parse(["node:3", LinkFault(1, 2)])
        assert NodeFault(3, 0.0) in schedule.faults
        assert LinkFault(1, 2, 0.0) in schedule.faults

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule.parse("  ;  ")

    def test_coerce(self):
        assert FaultSchedule.coerce(None) is None
        schedule = FaultSchedule.parse("node:3")
        assert FaultSchedule.coerce(schedule) is schedule
        assert FaultSchedule.coerce("node:3") == schedule

    def test_str_is_canonical(self):
        schedule = FaultSchedule.parse("node:3")
        assert str(schedule) == schedule.canonical() == "node:3@0us"


# ---------------------------------------------------------------------------
# Injector
# ---------------------------------------------------------------------------
@pytest.fixture()
def topo():
    return paragon(4, 4).topology


class TestInjectorResolution:
    def test_link_fault_kills_both_directions(self, topo):
        injector = FaultSchedule.parse("link:5-6@100us").bind(topo)
        for u, v in ((5, 6), (6, 5)):
            link = topo.wire_link(u, v)
            assert not injector.link_dead(link, 99.0)
            assert injector.link_dead(link, 100.0)

    def test_coordinates_resolve_to_node_ids(self, topo):
        by_coord = FaultSchedule.parse("link:(1,1)-(1,2)").bind(topo)
        by_id = FaultSchedule.parse("link:5-6").bind(topo)
        assert by_coord._dead_links == by_id._dead_links

    def test_nonadjacent_link_rejected(self, topo):
        with pytest.raises(ConfigurationError, match="no wire link"):
            FaultSchedule.parse("link:0-5").bind(topo)

    def test_out_of_range_node_rejected(self, topo):
        with pytest.raises(ConfigurationError, match="out of range"):
            FaultSchedule.parse("node:99").bind(topo)

    def test_node_fault_kills_node_and_ports(self, topo):
        injector = FaultSchedule.parse("node:5").bind(topo)
        assert injector.node_dead(5, 0.0)
        assert not injector.node_dead(6, 0.0)
        assert injector.link_dead(topo.injection_link(5), 0.0)
        assert injector.link_dead(topo.ejection_link(5), 0.0)
        for neighbor in topo.neighbors(5):
            assert injector.link_dead(topo.wire_link(5, neighbor), 0.0)

    def test_descriptions_are_human_readable(self, topo):
        injector = FaultSchedule.parse("node:5;link:1-2").bind(topo)
        assert "node 5 dead from t=0us" in injector.descriptions
        assert "link 1<->2 dead from t=0us" in injector.descriptions


class TestDegradeSampling:
    def test_subset_size(self, topo):
        injector = FaultSchedule.parse("degrade:links=0.25,factor=4").bind(topo)
        expected = max(1, round(0.25 * topo.num_wire_links))
        assert len(injector._degraded) == expected

    def test_same_seed_same_subset(self, topo):
        spec = "degrade:links=0.5,factor=2"
        a = FaultSchedule.parse(spec).bind(topo, seed=3)
        b = FaultSchedule.parse(spec).bind(topo, seed=3)
        assert a._degraded == b._degraded

    def test_different_seeds_differ(self, topo):
        spec = "degrade:links=0.25,factor=2"
        subsets = {
            frozenset(FaultSchedule.parse(spec).bind(topo, seed=s)._degraded)
            for s in range(8)
        }
        assert len(subsets) > 1

    def test_factor_applies_from_onset(self, topo):
        injector = FaultSchedule.parse("degrade:links=1,factor=3@200us").bind(topo)
        link = next(iter(injector._degraded))
        assert injector.link_factor(link, 199.0) == 1.0
        assert injector.link_factor(link, 200.0) == 3.0

    def test_byte_factor_is_worst_on_path(self, topo):
        injector = FaultSchedule.parse("degrade:links=1,factor=3").bind(topo)
        path = topo.route_links(0, 15)
        assert injector.byte_factor(path, 0.0) == 3.0


class TestDetourRouting:
    def test_healthy_route_unchanged(self, topo):
        injector = FaultSchedule.parse("link:5-6").bind(topo)
        path, factor = injector.plan(0, 3, now=0.0)
        assert path == topo.route_links(0, 3)
        assert factor == 1.0

    def test_detour_avoids_the_dead_link(self, topo):
        # Dimension-order 5 -> 7 runs along row 1 over the 5-6 wire.
        injector = FaultSchedule.parse("link:5-6").bind(topo)
        direct = topo.route_links(5, 7)
        dead = {topo.wire_link(5, 6), topo.wire_link(6, 5)}
        assert dead & set(direct)
        path, _ = injector.plan(5, 7, now=0.0)
        assert path is not None
        assert not dead & set(path)
        assert path[0] == topo.injection_link(5)
        assert path[-1] == topo.ejection_link(7)

    def test_detour_is_deterministic(self, topo):
        a = FaultSchedule.parse("link:5-6").bind(topo).plan(5, 7, 0.0)
        b = FaultSchedule.parse("link:5-6").bind(topo).plan(5, 7, 0.0)
        assert a == b

    def test_unreachable_destination_is_lost(self, topo):
        injector = FaultSchedule.parse("node:5").bind(topo)
        path, _ = injector.plan(0, 5, now=0.0)
        assert path is None

    def test_dead_node_cannot_forward(self, topo):
        # 4 -> 6 dimension-order passes through node 5; with 5 dead the
        # detour must route around it, not through it.
        injector = FaultSchedule.parse("node:5").bind(topo)
        path, _ = injector.plan(4, 6, now=0.0)
        assert path is not None
        for neighbor in topo.neighbors(5):
            assert topo.wire_link(5, neighbor) not in path

    def test_fault_not_yet_active(self, topo):
        injector = FaultSchedule.parse("node:5@1000us").bind(topo)
        path, _ = injector.plan(0, 5, now=0.0)
        assert path == topo.route_links(0, 5)


class TestKillEpochRouteMemo:
    SPEC = "link:5-6@0us;degrade:links=1,factor=2@50us;node:9@100us"

    def test_kill_epoch_ignores_degradations(self, topo):
        injector = FaultSchedule.parse(self.SPEC).bind(topo)
        # Only the two reachability-changing activations count (the link
        # at 0, the node at 100), not the degradation at 50.
        assert injector.kill_epoch(0.0) == 1
        assert injector.kill_epoch(50.0) == 1
        assert injector.kill_epoch(99.9) == 1
        assert injector.kill_epoch(100.0) == 2

    def test_same_epoch_reuses_the_route_object(self, topo):
        injector = FaultSchedule.parse(self.SPEC).bind(topo)
        first, _ = injector.plan(5, 7, now=0.0)
        again, _ = injector.plan(5, 7, now=10.0)
        assert again is first  # memo hit, not a recomputed equal tuple

    def test_degrade_activation_does_not_invalidate_routes(self, topo):
        injector = FaultSchedule.parse(self.SPEC).bind(topo)
        before, factor_before = injector.plan(5, 7, now=10.0)
        after, factor_after = injector.plan(5, 7, now=60.0)
        assert after is before  # same kill epoch across the degrade onset
        assert factor_before == 1.0
        assert factor_after == 2.0  # ...but the degradation still applies

    def test_new_kill_epoch_recomputes(self, topo):
        injector = FaultSchedule.parse(self.SPEC).bind(topo)
        before, _ = injector.plan(5, 7, now=10.0)
        after, _ = injector.plan(5, 7, now=100.0)
        assert after is not before  # node 9 died: detours must re-plan
        for neighbor in topo.neighbors(9):
            assert topo.wire_link(9, neighbor) not in after


# ---------------------------------------------------------------------------
# Run-level integration
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def problem():
    machine = paragon(4, 4)
    return BroadcastProblem(machine, (0, 5, 10), message_size=512)


class TestRunBroadcastFaults:
    def test_clean_run_has_no_fault_fields(self, problem):
        result = run_broadcast(problem, "Br_Lin")
        assert result.faults_active == ()
        assert result.delivery == 1.0
        assert result.complete
        data = result.to_dict()
        assert "faults_active" not in data
        assert "delivery" not in data

    def test_link_failure_detours_and_delivers(self, problem):
        clean = run_broadcast(problem, "Br_Lin")
        faulty = run_broadcast(problem, "Br_Lin", faults="link:5-6")
        assert faulty.delivery == 1.0
        assert faulty.complete
        assert faulty.faults_active == ("link 5<->6 dead from t=0us",)
        assert faulty.elapsed_us >= clean.elapsed_us

    def test_degradation_slows_but_delivers(self, problem):
        clean = run_broadcast(problem, "Br_Lin")
        slow = run_broadcast(problem, "Br_Lin",
                             faults="degrade:links=1,factor=4")
        assert slow.delivery == 1.0
        assert slow.elapsed_us > clean.elapsed_us

    def test_node_failure_gives_partial_delivery(self, problem):
        result = run_broadcast(problem, "Br_Lin", faults="node:15")
        assert 0.0 < result.delivery < 1.0
        assert not result.complete
        assert any("node 15" in d for d in result.faults_active)

    def test_schedule_object_accepted(self, problem):
        schedule = FaultSchedule.parse("link:5-6")
        by_object = run_broadcast(problem, "Br_Lin", faults=schedule)
        by_string = run_broadcast(problem, "Br_Lin", faults="link:5-6")
        assert by_object.to_dict() == by_string.to_dict()

    def test_fault_runs_are_deterministic(self, problem):
        spec = "degrade:links=0.25,factor=4;node:15@2000us"
        blobs = {
            json.dumps(
                run_broadcast(problem, "Br_Lin", faults=spec).to_dict(),
                sort_keys=True,
            )
            for _ in range(2)
        }
        assert len(blobs) == 1

    def test_result_dict_round_trips(self, problem):
        from repro.core.runner import BroadcastResult

        result = run_broadcast(problem, "Br_Lin", faults="node:15")
        clone = BroadcastResult.from_dict(result.to_dict())
        assert clone.delivery == result.delivery
        assert clone.faults_active == result.faults_active


class TestCommFaultSemantics:
    def test_send_into_dead_node_raises_peer_failed(self):
        machine = paragon(4, 4)
        schedule = FaultSchedule.parse("node:5")
        seen = {}

        def program(comm):
            if comm.rank == 0:
                try:
                    yield from comm.isend(5, "x", 64)
                except PeerFailedError as exc:
                    seen["error"] = str(exc)
            return None
            yield  # pragma: no cover - makes every branch a generator

        machine.run(program, faults=schedule, allow_partial=True)
        assert "5" in seen["error"]

    def test_blocking_send_on_a_lost_path_never_completes(self):
        from repro.simulator.trace import Tracer

        # Cut node 5 off from the mesh but leave it alive: a message to
        # it has no route, so it is lost and a blocking send to it hangs
        # (ReliableComm is the transport that detects the loss).
        machine = paragon(4, 4)
        schedule = FaultSchedule.parse("link:5-1;link:5-4;link:5-6;link:5-9")
        tracer = Tracer(kinds=("send_lost",))

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(5, "x", 64)
            return comm.rank

        result = machine.run(
            program, faults=schedule, allow_partial=True, tracer=tracer
        )
        assert result.returns[0] is None  # the sender never returned
        assert result.returns[5] == 5
        assert [(r.fields["src"], r.fields["dst"]) for r in tracer] == [(0, 5)]
        assert result.deadlock is not None
        for other in (1, 4, 6, 9):
            assert f"link 5<->{other} dead" in result.deadlock

    def test_partial_run_reports_deadlock_not_crash(self):
        machine = paragon(4, 4)
        schedule = FaultSchedule.parse("node:5")

        def program(comm):
            if comm.rank == 5:
                yield from comm.recv()
            return comm.rank

        result = machine.run(program, faults=schedule, allow_partial=True)
        assert result.deadlock is not None
        assert result.returns[5] is None
        assert result.returns[0] == 0

    def test_partitioned_mesh_names_every_fault_and_leaves_no_residue(self):
        # Kill every wire between the top and bottom halves of the 4x4
        # mesh: cross-partition messages are lost, their receivers hang,
        # and the deadlock diagnostic must name ALL four injected faults.
        machine = paragon(4, 4)
        cuts = ("link:4-8", "link:5-9", "link:6-10", "link:7-11")
        schedule = FaultSchedule.parse(";".join(cuts))

        def program(comm):
            if comm.rank == 0:
                yield from comm.isend(15, "x", 64)
            elif comm.rank == 15:
                yield from comm.recv(source=0)
            return comm.rank

        result = machine.run(program, faults=schedule, allow_partial=True)
        assert result.deadlock is not None
        for a, b in ((4, 8), (5, 9), (6, 10), (7, 11)):
            assert f"link {a}<->{b} dead" in result.deadlock
        assert result.returns[15] is None
        assert result.returns[0] == 0  # sender completed (worm was lost)

        # No Process from the wedged run may leak into the next one: a
        # clean run on the same Machine must complete fully and carry no
        # deadlock diagnostic.
        clean = machine.run(program)
        assert clean.deadlock is None
        assert list(clean.returns) == list(range(16))
