"""The s-to-p broadcasting problem statement.

A problem is a machine, the set of ``s`` source ranks, and the size of
each source's message.  Every algorithm builds its schedule from a
problem; the paper's standing assumption — "every processor knows the
position of the source processors and the size of the messages when
s-to-p broadcasting starts" (§1) — is what licenses schedule
construction without any pre-communication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.machines.machine import Machine

__all__ = ["BroadcastProblem"]


@dataclass(frozen=True)
class BroadcastProblem:
    """An instance of s-to-p broadcasting.

    Parameters
    ----------
    machine:
        The simulated machine.
    sources:
        The ranks initiating a broadcast (deduplicated, sorted).
    message_size:
        Uniform message size ``L`` in bytes.  For the non-uniform case
        (§5 reports it does not change the findings) pass ``sizes``.
    sizes:
        Optional per-source byte sizes; overrides ``message_size`` for
        the ranks it mentions.
    """

    machine: Machine
    sources: Tuple[int, ...]
    message_size: int = 1024
    sizes: Optional[Mapping[int, int]] = None
    _size_table: Dict[int, int] = field(
        init=False, repr=False, hash=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        p = self.machine.p
        unique = tuple(sorted(set(self.sources)))
        if not unique:
            raise ConfigurationError("need at least one source processor")
        if unique != tuple(self.sources):
            object.__setattr__(self, "sources", unique)
        if unique[0] < 0 or unique[-1] >= p:
            raise ConfigurationError(
                f"sources must lie in [0, {p}), got range "
                f"[{unique[0]}, {unique[-1]}]"
            )
        if self.message_size <= 0:
            raise ConfigurationError(
                f"message size must be positive, got {self.message_size}"
            )
        table = {rank: self.message_size for rank in unique}
        if self.sizes is not None:
            for rank, size in self.sizes.items():
                if rank not in table:
                    raise ConfigurationError(
                        f"size given for non-source rank {rank}"
                    )
                if size <= 0:
                    raise ConfigurationError(
                        f"size for source {rank} must be positive, got {size}"
                    )
                table[rank] = int(size)
        object.__setattr__(self, "_size_table", table)

    # -- basic quantities ------------------------------------------------
    @property
    def p(self) -> int:
        """Number of processors."""
        return self.machine.p

    @property
    def s(self) -> int:
        """Number of source processors."""
        return len(self.sources)

    @property
    def source_set(self) -> frozenset:
        """Sources as a frozenset (handy for membership tests)."""
        return frozenset(self.sources)

    def is_source(self, rank: int) -> bool:
        """Whether ``rank`` initiates a broadcast."""
        return rank in self._size_table

    def size_of(self, source: int) -> int:
        """Message size of one source rank."""
        try:
            return self._size_table[source]
        except KeyError:
            raise ConfigurationError(f"rank {source} is not a source") from None

    def nbytes(self, msgset: AbstractSet[int] | Iterable[int]) -> int:
        """Total byte size of a combined message holding ``msgset``."""
        return sum(self._size_table[m] for m in msgset)

    def initial_holdings(self) -> Tuple[frozenset, ...]:
        """Per-rank initial message sets: ``{rank}`` for sources, else empty."""
        empty = frozenset()
        return tuple(
            frozenset((rank,)) if rank in self._size_table else empty
            for rank in range(self.p)
        )

    def replace_sources(self, sources: Iterable[int]) -> "BroadcastProblem":
        """A copy of this problem with a different source set, every
        source of the uniform ``message_size``."""
        return BroadcastProblem(
            machine=self.machine,
            sources=tuple(sorted(set(sources))),
            message_size=self.message_size,
        )

    def __repr__(self) -> str:
        return (
            f"<BroadcastProblem s={self.s} p={self.p} "
            f"L={self.message_size} on {self.machine.params.name}>"
        )
