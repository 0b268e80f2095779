"""IO-fault grammar and injection-shim semantics."""

from __future__ import annotations

import errno

import pytest

from repro.errors import ConfigurationError
from repro.reliability import (
    RAW_IO,
    FaultyIO,
    IOFault,
    IOFaultPlan,
    SimulatedCrash,
)
from repro.reliability.iofaults import parse_io_fault


class TestGrammar:
    def test_parse_each_kind(self):
        assert parse_io_fault("torn:write@3").canonical() == "torn:write@3"
        assert parse_io_fault("err:ENOSPC@5").canonical() == "err:ENOSPC@5"
        assert parse_io_fault("crash@0").canonical() == "crash@0"
        assert (
            parse_io_fault("stall:read@2+0.5").canonical() == "stall:read@2+0.5"
        )

    def test_plan_parse_normalises_order_and_whitespace(self):
        plan = IOFaultPlan.parse(" err:EIO@7 ;crash@2;  torn:write@2 ")
        # Sorted by (index, canonical): both index-2 clauses precede 7,
        # and within an index ties break on the canonical string.
        assert plan.canonical() == "crash@2;torn:write@2;err:EIO@7"
        assert IOFaultPlan.parse(plan.canonical()).canonical() == plan.canonical()

    def test_empty_plan_is_legal(self):
        assert IOFaultPlan.parse("").canonical() == ""
        assert FaultyIO().plan.faults == ()

    @pytest.mark.parametrize(
        "bad",
        [
            "torn:read@3",  # torn applies only to writes
            "err:NOTREAL@1",
            "crash@-1",
            "stall:write@2",  # stall needs a duration
            "frobnicate@4",
            "crash@x",
        ],
    )
    def test_bad_clauses_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            IOFaultPlan.parse(bad)

    def test_unknown_errno_rejected_even_when_constructed(self):
        with pytest.raises(ConfigurationError, match="errno"):
            IOFault("err", 0, errno_name="EBOGUS")


COUNTED = ("read", "write", "replace", "unlink")


def _files(root):
    """``{name: text}`` of every file directly under ``root``."""
    return {p.name: p.read_text() for p in sorted(root.iterdir())}


def _perform(io, op, root):
    """Run one counted ``op`` against a fresh ``src.txt`` under ``root``."""
    src = root / "src.txt"
    src.write_text("payload")
    if op == "read":
        return io.read_text(src)
    if op == "write":
        return io.write_text(root / "new.txt", "payload")
    if op == "replace":
        return io.replace(src, root / "dst.txt")
    return io.unlink(src)


class TestFaultyIO:
    @pytest.mark.parametrize("op", COUNTED)
    def test_err_leaves_each_op_undone(self, op, tmp_path):
        io = FaultyIO("err:EIO@0")
        with pytest.raises(OSError) as excinfo:
            _perform(io, op, tmp_path)
        assert excinfo.value.errno == errno.EIO
        assert _files(tmp_path) == {"src.txt": "payload"}
        assert io.trace[0][1] == op

    @pytest.mark.parametrize("op", COUNTED)
    def test_crash_leaves_each_op_undone(self, op, tmp_path):
        io = FaultyIO("crash@0")
        with pytest.raises(SimulatedCrash):
            _perform(io, op, tmp_path)
        assert _files(tmp_path) == {"src.txt": "payload"}
        assert io.ops == 1

    @pytest.mark.parametrize(
        "op, after",
        [
            ("read", {"src.txt": "payload"}),
            ("replace", {"dst.txt": "payload"}),
            ("unlink", {}),
        ],
    )
    def test_torn_leaves_other_ops_whole(self, op, after, tmp_path):
        # A torn fault at an index that is not a write does nothing.
        value = _perform(FaultyIO("torn:write@0"), op, tmp_path)
        assert value == ("payload" if op == "read" else None)
        assert _files(tmp_path) == after

    def test_counts_and_traces_counted_ops(self, tmp_path):
        io = FaultyIO()
        target = tmp_path / "a.txt"
        io.write_text(target, "hello")
        assert io.read_text(target) == "hello"
        io.replace(target, tmp_path / "b.txt")
        io.unlink(tmp_path / "b.txt")
        io.mkdir(tmp_path / "dir")  # metadata: not counted
        assert (tmp_path / "dir").is_dir()
        assert io.ops == 4
        assert [kind for _, kind, _ in io.trace] == [
            "write",
            "read",
            "replace",
            "unlink",
        ]

    def test_missing_file_read_still_counts(self, tmp_path):
        # A cache miss is an op the plan can address: the read is
        # counted before the FileNotFoundError propagates.
        io = FaultyIO()
        with pytest.raises(FileNotFoundError):
            io.read_text(tmp_path / "nope.json")
        assert io.ops == 1

    def test_err_raises_the_named_errno(self, tmp_path):
        io = FaultyIO("err:ENOSPC@1")
        io.write_text(tmp_path / "ok.txt", "fine")  # op 0: untouched
        with pytest.raises(OSError) as excinfo:
            io.write_text(tmp_path / "fails.txt", "doomed")
        assert excinfo.value.errno == errno.ENOSPC
        assert not (tmp_path / "fails.txt").exists()
        # The op index advanced past the fault: a retry succeeds.
        io.write_text(tmp_path / "fails.txt", "doomed")
        assert (tmp_path / "fails.txt").read_text() == "doomed"

    def test_crash_is_a_base_exception(self, tmp_path):
        io = FaultyIO("crash@0")
        with pytest.raises(SimulatedCrash):
            try:
                io.write_text(tmp_path / "x", "y")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("SimulatedCrash must pierce `except Exception`")
        assert not (tmp_path / "x").exists()

    def test_torn_write_persists_a_prefix(self, tmp_path):
        io = FaultyIO("torn:write@0")
        io.write_text(tmp_path / "torn.json", '{"k": "0123456789"}')
        data = (tmp_path / "torn.json").read_text()
        assert data == '{"k": "01'  # first half of the bytes
        # torn scopes to writes: a read at the same plan is untouched.
        assert FaultyIO("torn:write@0").read_text(tmp_path / "torn.json")

    def test_stall_sleeps_then_proceeds(self, tmp_path):
        naps = []
        io = FaultyIO("stall:read@1+0.25", sleep=naps.append)
        io.write_text(tmp_path / "f", "x")  # op 0: write, no stall
        (tmp_path / "g").write_text("y")
        assert io.read_text(tmp_path / "g") == "y"  # op 1: stalled read
        assert naps == [0.25]
        # op kind must match: a write at a stall:read index does not nap.
        io2 = FaultyIO("stall:read@0+0.25", sleep=naps.append)
        io2.write_text(tmp_path / "h", "z")
        assert naps == [0.25]

    def test_unreached_fault_is_a_noop(self, tmp_path):
        io = FaultyIO("crash@99")
        io.write_text(tmp_path / "f", "x")
        assert io.ops == 1  # nothing raised; the fault simply never fired

    def test_raw_io_roundtrip(self, tmp_path):
        RAW_IO.mkdir(tmp_path / "d")
        RAW_IO.write_text(tmp_path / "d" / "f", "data")
        assert RAW_IO.read_text(tmp_path / "d" / "f") == "data"
        RAW_IO.replace(tmp_path / "d" / "f", tmp_path / "d" / "g")
        assert (tmp_path / "d" / "g").read_text() == "data"
        RAW_IO.unlink(tmp_path / "d" / "g")
        assert not (tmp_path / "d" / "g").exists()
