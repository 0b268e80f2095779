"""Injectable IO backend with a seeded fault grammar.

Every filesystem call the sweep's result cache
(:class:`~repro.sweep.cache.ResultCache`) makes routes through an
:class:`IOBackend`.  The default backend (:data:`RAW_IO`) is a thin
passthrough to :mod:`os` / :mod:`pathlib`; :class:`FaultyIO` counts
operations and applies an :class:`IOFaultPlan` against the counter, so
a test (or ``chaos --io``) can make *exactly* the K-th filesystem
operation tear, fail, stall, or kill the process.

The textual grammar mirrors the simulator's fault specs
(:mod:`repro.faults.spec`): ``;``-separated clauses, canonical
spelling, addressable from a seed::

    plan      := clause (";" clause)*
    clause    := torn | err | crash | stall
    torn      := "torn:write@" INDEX        (the write persists only a prefix)
    err       := "err:" ERRNO "@" INDEX     (e.g. err:ENOSPC@5, raises OSError)
    crash     := "crash@" INDEX             (raises SimulatedCrash, a
                                             BaseException — pierces the
                                             run's error handling the way
                                             SIGKILL would)
    stall     := "stall:" OP "@" INDEX "+" SECONDS   (OP = read | write)

``INDEX`` counts the backend's *counted* operations (reads, writes,
replaces, unlinks) from 0.  A fault whose index is
never reached is a no-op, exactly like a simulated fault scheduled
after the run ends.
"""

from __future__ import annotations

import errno as errno_module
import os
import pathlib
import re
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple, Union

from repro.errors import ConfigurationError

__all__ = [
    "COUNTED_OPS",
    "IOBackend",
    "IOFault",
    "IOFaultPlan",
    "FaultyIO",
    "RAW_IO",
    "SimulatedCrash",
    "parse_io_fault",
]

#: Operation kinds that advance the fault-plan index.  Metadata-only
#: calls (mkdir, stat) are not counted: a crash between a mkdir and the
#: following write is indistinguishable from a crash at the write, so
#: counting them would only inflate the crash sweep of ``chaos --io``.
COUNTED_OPS = ("read", "write", "replace", "unlink")


class SimulatedCrash(BaseException):
    """The process "dies" at an injected ``crash@K`` point.

    Derives from :class:`BaseException` (not :class:`Exception`) so it
    pierces any ``except Exception`` handling exactly the way SIGKILL
    would — no code path can accidentally swallow a crash and keep
    going.
    """


@dataclass(frozen=True)
class IOFault:
    """One injected IO fault, addressed by operation index.

    ``kind`` is one of ``torn`` / ``err`` / ``crash`` / ``stall``;
    ``op`` scopes ``torn`` and ``stall`` to an operation kind
    (``write`` / ``read``); ``errno_name`` names the :mod:`errno`
    constant an ``err`` fault raises; ``duration_s`` is how long a
    ``stall`` sleeps.
    """

    kind: str
    index: int
    op: str = ""
    errno_name: str = ""
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ConfigurationError(
                f"IO fault index must be >= 0, got {self.index}"
            )
        if self.kind == "err" and not hasattr(
            errno_module, self.errno_name
        ):
            raise ConfigurationError(
                f"unknown errno name {self.errno_name!r} in IO fault"
            )

    def canonical(self) -> str:
        if self.kind == "torn":
            return f"torn:{self.op}@{self.index}"
        if self.kind == "err":
            return f"err:{self.errno_name}@{self.index}"
        if self.kind == "crash":
            return f"crash@{self.index}"
        return f"stall:{self.op}@{self.index}+{self.duration_s:g}"


_TORN_RE = re.compile(r"^torn:(?P<op>write)@(?P<index>\d+)$")
_ERR_RE = re.compile(r"^err:(?P<name>[A-Z][A-Z0-9]*)@(?P<index>\d+)$")
_CRASH_RE = re.compile(r"^crash@(?P<index>\d+)$")
_STALL_RE = re.compile(
    r"^stall:(?P<op>read|write)@(?P<index>\d+)"
    r"\+(?P<duration>[0-9]+(?:\.[0-9]+)?)$"
)


def parse_io_fault(text: str) -> IOFault:
    """Parse one IO-fault clause (``torn:write@K``, ``err:ENOSPC@K``, ...)."""
    clause = text.strip()
    match = _TORN_RE.match(clause)
    if match:
        return IOFault("torn", int(match.group("index")), op=match.group("op"))
    match = _ERR_RE.match(clause)
    if match:
        return IOFault(
            "err", int(match.group("index")), errno_name=match.group("name")
        )
    match = _CRASH_RE.match(clause)
    if match:
        return IOFault("crash", int(match.group("index")))
    match = _STALL_RE.match(clause)
    if match:
        return IOFault(
            "stall",
            int(match.group("index")),
            op=match.group("op"),
            duration_s=float(match.group("duration")),
        )
    raise ConfigurationError(
        f"bad IO fault clause {text!r}; expected torn:write@K, err:ERRNO@K, "
        "crash@K or stall:read@K+D (see docs/RELIABILITY.md)"
    )


@dataclass(frozen=True)
class IOFaultPlan:
    """An immutable, canonically ordered set of injected IO faults.

    Like :class:`~repro.faults.spec.FaultSchedule`, parsing is
    normalising: faults sort by ``(index, canonical)``, so two spellings
    of one plan share a canonical string.  An empty plan is legal (the
    counting-only shim the storage campaign's probe run uses).
    """

    faults: Tuple[IOFault, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.faults, key=lambda f: (f.index, f.canonical()))
        )
        object.__setattr__(self, "faults", ordered)

    @classmethod
    def parse(cls, spec: Union[str, Iterable[Union[str, IOFault]]]) -> "IOFaultPlan":
        """Parse a ``;``-separated spec string or an iterable of clauses."""
        if isinstance(spec, str):
            clauses = [c for c in (s.strip() for s in spec.split(";")) if c]
            return cls(tuple(parse_io_fault(c) for c in clauses))
        return cls(
            tuple(
                item if isinstance(item, IOFault) else parse_io_fault(item)
                for item in spec
            )
        )

    def canonical(self) -> str:
        """Normalised spec string (the plan's identity)."""
        return ";".join(fault.canonical() for fault in self.faults)

    def by_index(self) -> Dict[int, List[IOFault]]:
        """Faults grouped by operation index."""
        grouped: Dict[int, List[IOFault]] = {}
        for fault in self.faults:
            grouped.setdefault(fault.index, []).append(fault)
        return grouped

    def __str__(self) -> str:
        return self.canonical()


class IOBackend:
    """The real filesystem, as the narrow surface the storage layers use.

    Subclasses (``FaultyIO``) intercept these calls; production code
    uses the shared :data:`RAW_IO` instance.  Paths are
    :class:`pathlib.Path` or strings.
    """

    def read_text(self, path: Union[str, pathlib.Path]) -> str:
        """Read a whole UTF-8 file (``FileNotFoundError`` on a missing one).

        An undecodable byte (a flipped high bit) reads as U+FFFD, which
        no stored digest matches: a defect, not an exception.
        """
        return pathlib.Path(path).read_text(encoding="utf-8", errors="replace")

    def write_text(self, path: Union[str, pathlib.Path], text: str) -> None:
        """Write a whole UTF-8 file (non-atomic; pair with :meth:`replace`)."""
        pathlib.Path(path).write_text(text, encoding="utf-8")

    def replace(
        self, src: Union[str, pathlib.Path], dst: Union[str, pathlib.Path]
    ) -> None:
        """Atomic rename, replacing ``dst``."""
        os.replace(src, dst)

    def unlink(self, path: Union[str, pathlib.Path]) -> None:
        """Delete a file (``FileNotFoundError`` on a missing one)."""
        pathlib.Path(path).unlink()

    def mkdir(self, path: Union[str, pathlib.Path]) -> None:
        """Create a directory tree (idempotent); not a counted op."""
        pathlib.Path(path).mkdir(parents=True, exist_ok=True)


#: The shared passthrough backend production code defaults to.
RAW_IO = IOBackend()


class FaultyIO(IOBackend):
    """An :class:`IOBackend` that counts ops and applies a fault plan.

    ``ops`` is the number of counted operations performed so far — the
    index the plan's clauses address.  ``trace`` records every counted
    op as ``(index, kind, path)`` so the storage campaign can probe
    a sequence's length and label its crash points.  With an
    empty plan this is a pure counting shim.

    Fault semantics at index K:

    * ``torn:write@K`` — the write *appears to succeed* but persists
      only the first half of the bytes (a torn page / partial flush).
      The atomic-replace discipline then publishes a corrupt file,
      which verify-on-read must catch.
    * ``err:ERRNO@K`` — the op raises ``OSError(ERRNO)`` before
      touching the filesystem (ENOSPC, EIO, ...).
    * ``crash@K`` — raises :class:`SimulatedCrash` before the op runs:
      everything already durable stays, the op itself never happens.
    * ``stall:OP@K+D`` — an op of kind ``OP`` sleeps ``D`` seconds
      first (a wedged NFS read, a paused process), then proceeds
      normally.  Other kinds at that index stall too only if they
      match ``OP``.
    """

    def __init__(
        self,
        plan: Union[IOFaultPlan, str, None] = None,
        *,
        sleep=time.sleep,
    ) -> None:
        if plan is None:
            plan = IOFaultPlan()
        elif isinstance(plan, str):
            plan = IOFaultPlan.parse(plan)
        self.plan = plan
        self._by_index = plan.by_index()
        self.ops = 0
        self.trace: List[Tuple[int, str, str]] = []
        self._sleep = sleep

    def _step(self, kind: str, path: Union[str, pathlib.Path]) -> List[IOFault]:
        """Advance the op counter; raise/stall per the plan.

        Returns the faults that *modify* the op itself (currently only
        ``torn``), for the caller to apply.
        """
        index = self.ops
        self.ops += 1
        self.trace.append((index, kind, str(path)))
        modifiers: List[IOFault] = []
        for fault in self._by_index.get(index, ()):
            if fault.kind == "crash":
                raise SimulatedCrash(f"injected crash@{index} before {kind}")
            if fault.kind == "err":
                code = getattr(errno_module, fault.errno_name)
                raise OSError(
                    code,
                    f"injected {fault.errno_name}@{index} on {kind}",
                    str(path),
                )
            if fault.kind == "stall" and fault.op == kind:
                self._sleep(fault.duration_s)
            if fault.kind == "torn" and kind == "write":
                modifiers.append(fault)
        return modifiers

    # -- counted operations ------------------------------------------------
    def read_text(self, path: Union[str, pathlib.Path]) -> str:
        self._step("read", path)
        return super().read_text(path)

    def write_text(self, path: Union[str, pathlib.Path], text: str) -> None:
        modifiers = self._step("write", path)
        if any(f.kind == "torn" for f in modifiers):
            data = text.encode("utf-8")
            text = data[: len(data) // 2].decode("utf-8", errors="ignore")
        super().write_text(path, text)

    def replace(
        self, src: Union[str, pathlib.Path], dst: Union[str, pathlib.Path]
    ) -> None:
        self._step("replace", dst)
        super().replace(src, dst)

    def unlink(self, path: Union[str, pathlib.Path]) -> None:
        self._step("unlink", path)
        super().unlink(path)
