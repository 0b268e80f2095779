"""Unit tests for the reliable transport (ReliableComm)."""

from __future__ import annotations

import pytest

from repro.errors import CommError, PeerFailedError, RecvTimeoutError
from repro.faults import FaultSchedule
from repro.machines import paragon
from repro.mpsim import ANY_SOURCE, ReliableComm
from repro.mpsim.reliable import ACK_TAG_BASE, DATA_TAG_BASE, transfer_budget
from repro.simulator.trace import Tracer


@pytest.fixture
def machine():
    return paragon(4, 4)


class TestHealthyDelivery:
    def test_payload_roundtrip_with_user_tag(self, machine):
        def program(comm):
            reliable = ReliableComm(comm)
            if comm.rank == 0:
                seq = yield from reliable.send(1, {"k": 1}, 64, tag=5)
                return seq
            if comm.rank == 1:
                env = yield from reliable.recv(source=0, tag=5)
                return (env.payload, env.source, env.tag)

        result = machine.run(program)
        assert result.returns[0] == 0  # first seq on the (1, 5) stream
        assert result.returns[1] == ({"k": 1}, 0, 5)

    def test_sequence_numbers_advance_per_stream(self, machine):
        def program(comm):
            reliable = ReliableComm(comm)
            if comm.rank == 0:
                seqs = []
                for payload in ("a", "b"):
                    seq = yield from reliable.send(1, payload, 32, tag=0)
                    seqs.append(seq)
                seq_other = yield from reliable.send(1, "c", 32, tag=9)
                return (*seqs, seq_other)
            if comm.rank == 1:
                a = yield from reliable.recv(source=0, tag=0)
                b = yield from reliable.recv(source=0, tag=0)
                c = yield from reliable.recv(source=0, tag=9)
                return (a.payload, b.payload, c.payload)

        result = machine.run(program)
        assert result.returns[0] == (0, 1, 0)  # tag 9 is its own stream
        assert result.returns[1] == ("a", "b", "c")

    def test_delivery_over_detoured_route(self, machine):
        # The dimension-order route 5 -> 7 crosses the dead 5-6 wire;
        # the reliable layer must still deliver (BFS detour underneath).
        schedule = FaultSchedule.parse("link:5-6")

        def program(comm):
            reliable = ReliableComm(comm)
            if comm.rank == 5:
                yield from reliable.send(7, "detoured", 128)
            elif comm.rank == 7:
                env = yield from reliable.recv(source=5)
                return env.payload

        result = machine.run(program, faults=schedule, allow_partial=True)
        assert result.deadlock is None
        assert result.returns[7] == "detoured"


class TestRetransmission:
    def test_tiny_budget_retransmits_until_acked(self, machine):
        # A 1us first budget is far below the ACK round-trip, so early
        # attempts must time out and retransmit with growing budgets
        # until one attempt survives long enough to see the ACK.
        tracer = Tracer(kinds=("reliable_retry",))

        def program(comm):
            reliable = ReliableComm(comm, timeout_us=1.0, max_retries=12)
            if comm.rank == 0:
                yield from reliable.send(1, "payload", 64)
            elif comm.rank == 1:
                env = yield from reliable.recv(source=0)
                return env.payload

        result = machine.run(program, tracer=tracer)
        assert result.returns[1] == "payload"
        retries = [r for r in tracer if r.kind == "reliable_retry"]
        assert retries  # at least one retransmission happened
        budgets = [r.fields["budget_us"] for r in retries]
        assert budgets == sorted(budgets)  # backoff grows the budget

    def test_duplicates_are_delivered_exactly_once(self, machine):
        # Retransmits put duplicate data on the wire; the receiver must
        # return each stream message once, in order, and nothing extra.
        def program(comm):
            reliable = ReliableComm(comm, timeout_us=1.0, max_retries=12)
            if comm.rank == 0:
                for payload in ("a", "b"):
                    yield from reliable.send(1, payload, 64)
            elif comm.rank == 1:
                got = []
                for _ in range(2):
                    env = yield from reliable.recv(source=0)
                    got.append(env.payload)
                # No third message may be pending: a further receive
                # with a real timeout must come up empty.
                try:
                    yield from reliable.recv(source=0, timeout_us=5000.0)
                except RecvTimeoutError:
                    return got
                return got + ["UNEXPECTED"]

        result = machine.run(program)
        assert result.returns[1] == ["a", "b"]


class TestFailureDetection:
    def test_send_to_dead_node_marks_peer_failed(self, machine):
        schedule = FaultSchedule.parse("node:5")

        def program(comm):
            reliable = ReliableComm(comm)
            if comm.rank == 0:
                try:
                    yield from reliable.send(5, "x", 64)
                except PeerFailedError:
                    return ("failed", "failed=[5]" in repr(reliable))
            return None
            yield  # pragma: no cover - keeps every branch a generator

        result = machine.run(program, faults=schedule, allow_partial=True)
        assert result.returns[0] == ("failed", True)

    def test_silent_peer_presumed_failed_and_sticky(self, machine):
        # Rank 1 is alive but never receives: no ACK ever comes back, so
        # the retry ladder must exhaust and presume the peer failed; the
        # presumption is sticky, failing the next send immediately.
        def program(comm):
            reliable = ReliableComm(comm, timeout_us=50.0, max_retries=2)
            if comm.rank == 0:
                outcomes = []
                for _ in range(2):
                    try:
                        yield from reliable.send(1, "x", 64)
                        outcomes.append("sent")
                    except PeerFailedError as exc:
                        outcomes.append(str(exc))
                return (outcomes, repr(reliable))
            return None
            yield  # pragma: no cover

        result = machine.run(program, allow_partial=True)
        (first, second), failed = result.returns[0]
        assert "presumed failed" in first
        assert "already presumed failed" in second
        assert failed.endswith(" failed=[1]>")

    def test_nack_fails_the_sender_fast(self, machine):
        def program(comm):
            reliable = ReliableComm(comm)
            if comm.rank == 0:
                try:
                    yield from reliable.send(1, "poison", 64)
                except PeerFailedError as exc:
                    return str(exc)
            elif comm.rank == 1:
                try:
                    yield from reliable.recv(
                        source=0,
                        timeout_us=50_000.0,
                        accept=lambda payload: payload != "poison",
                    )
                except RecvTimeoutError:
                    return "timed-out"

        result = machine.run(program, allow_partial=True)
        assert "NACK" in result.returns[0]
        assert result.returns[1] == "timed-out"

    def test_recv_timeout_raises(self, machine):
        def program(comm):
            reliable = ReliableComm(comm)
            if comm.rank == 3:
                with pytest.raises(RecvTimeoutError):
                    yield from reliable.recv(ANY_SOURCE, timeout_us=100.0)
            return comm.rank
            yield  # pragma: no cover

        result = machine.run(program)
        assert result.returns[3] == 3


class TestConfiguration:
    def test_tag_spaces_clear_user_traffic(self):
        assert DATA_TAG_BASE != ACK_TAG_BASE
        assert min(DATA_TAG_BASE, ACK_TAG_BASE) > 1 << 26

    def test_budget_grows_with_message_size(self, machine):
        def program(comm):
            if comm.rank == 0:
                small = transfer_budget(comm, 64)
                large = transfer_budget(comm, 1 << 20)
                scaled = transfer_budget(comm, 64, slack=16.0)
                return (small, large, scaled)
            return None
            yield  # pragma: no cover

        small, large, scaled = machine.run(program).returns[0]
        assert 0.0 < small < large
        assert scaled == pytest.approx(2.0 * small)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout_us": 0.0},
            {"timeout_us": -5.0},
            {"max_retries": -1},
            {"backoff_factor": 0.5},
        ],
    )
    def test_invalid_parameters_rejected(self, machine, kwargs):
        def program(comm):
            if comm.rank == 0:
                with pytest.raises(CommError):
                    ReliableComm(comm, **kwargs)
            return None
            yield  # pragma: no cover

        machine.run(program)
