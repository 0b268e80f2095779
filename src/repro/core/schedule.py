"""The communication-schedule IR all broadcasting algorithms compile to.

A :class:`Schedule` is a list of :class:`Round`\\ s; a round is a set of
:class:`Transfer`\\ s — (source rank, destination rank, message set).
The *message set* is the set of original source ids whose (combined)
messages travel in that transfer; byte sizes come from the problem's
size table, so the IR is size-agnostic.

Rounds are the paper's *iterations*: they bucket the Figure-2 metrics,
and the executor lets each rank flow through them with only
data-parallel synchronisation (a rank starts its round-k sends as soon
as *its own* round-(k-1) operations finished — no global barrier,
exactly as §5 describes the implementations).  Both engines run a
schedule through one lowering,
:func:`~repro.fastpath.lowering.lower_schedule`, which resolves it into
per-rank operation streams in round order.

Central invariant (checked by :meth:`Schedule.validate`): **causality**
— a rank may only send message sets it already holds, where holdings
start as ``{rank}`` for sources and grow by receiving.  Validation also
proves **delivery**: after the last round every rank holds every
source's message.  Algorithm unit tests call ``validate`` on every
schedule they build; the hypothesis suite fuzzes it across machines,
distributions, and source counts.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from repro.core.problem import BroadcastProblem
from repro.errors import AlgorithmError, VerificationError

__all__ = ["Transfer", "Round", "Schedule"]


def _phase_of_label(label: str) -> str:
    """Phase name a bare round label implies (``halving-3`` → ``halving``)."""
    if not label:
        return "round"
    stem, dash, suffix = label.rpartition("-")
    if dash and suffix.isdigit():
        return stem
    return label


@dataclass(slots=True)
class Transfer:
    """One message: ``src`` sends the combined messages of ``msgset`` to ``dst``.

    ``nbytes_override`` lets pipelined schedules move a *segment* of a
    message: the transfer still carries the message ids (for delivery
    tracking) but is charged the segment size.  ``None`` means the full
    combined size from the problem's size table.

    A slotted, unfrozen dataclass: schedules build hundreds of
    thousands of transfers, a frozen one pays for ``object.__setattr__``
    on each field, and nothing mutates or hashes a transfer after
    construction (equality still compares fields).
    """

    src: int
    dst: int
    msgset: FrozenSet[int]
    nbytes_override: int | None = None

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise AlgorithmError(f"self-transfer at rank {self.src}")
        if not self.msgset:
            raise AlgorithmError(
                f"empty transfer {self.src}->{self.dst}; omit it instead"
            )
        if not isinstance(self.msgset, frozenset):
            self.msgset = frozenset(self.msgset)
        if self.nbytes_override is not None and self.nbytes_override <= 0:
            raise AlgorithmError(
                f"nbytes_override must be positive, got {self.nbytes_override}"
            )

    def nbytes(self, problem: BroadcastProblem) -> int:
        """Simulated byte size of this transfer."""
        if self.nbytes_override is not None:
            return self.nbytes_override
        return problem.nbytes(self.msgset)


@dataclass(frozen=True)
class Round:
    """One iteration of an algorithm.

    Attributes
    ----------
    transfers:
        The messages exchanged this round.
    label:
        Human-readable per-round tag (shown in reports/traces).
    collective:
        Whether these messages are issued from inside a library
        collective (charged the machine's collective overhead tier).
    mpi:
        Whether these messages pay the MPI point-to-point overhead
        scale (vs. the native library).
    phase:
        The algorithm phase this round belongs to — the span name the
        executor opens around the round at run time (see
        :meth:`Schedule.span`).  Empty means unphased; the executor
        falls back to the ``label``.
    """

    transfers: Tuple[Transfer, ...]
    label: str = ""
    collective: bool = False
    mpi: bool = False
    phase: str = ""

    def __post_init__(self) -> None:
        # Duplicate (src, dst) pairs within a round are legal: the
        # message layer's per-(source, tag) FIFO (MPI non-overtaking)
        # delivers them in posting order, and the executor merges
        # received message sets commutatively, so matching order cannot
        # affect the outcome (the NaiveIndependent baseline relies on
        # this when its binomial trees collide).
        if not isinstance(self.transfers, tuple):
            object.__setattr__(self, "transfers", tuple(self.transfers))

    def __len__(self) -> int:
        return len(self.transfers)

    def __iter__(self) -> Iterator[Transfer]:
        return iter(self.transfers)


@dataclass
class Schedule:
    """An ordered list of rounds plus the problem it was built for."""

    problem: BroadcastProblem
    rounds: List[Round] = field(default_factory=list)
    algorithm: str = ""
    #: Phase name applied to rounds added inside a :meth:`span` block.
    _phase: str = field(default="", repr=False, compare=False)

    def add_round(
        self,
        transfers: Sequence[Transfer],
        label: str = "",
        collective: bool = False,
        mpi: bool = False,
    ) -> None:
        """Append a round (empty rounds are dropped silently).

        Its phase is the enclosing :meth:`span` block's name (empty
        outside any block).
        """
        if transfers:
            self.rounds.append(
                Round(
                    tuple(transfers),
                    label=label,
                    collective=collective,
                    mpi=mpi,
                    phase=self._phase,
                )
            )

    @contextmanager
    def span(self, name: str) -> Iterator["Schedule"]:
        """Declare an algorithm phase: rounds added inside carry it.

        This is the *static* half of span instrumentation — algorithms
        annotate the rounds they compile, and the executor opens a
        matching runtime span (per rank, per round) when a tracer is
        attached.  Nesting replaces the phase for the inner block.
        """
        previous = self._phase
        self._phase = name
        try:
            yield self
        finally:
            self._phase = previous

    # -- queries ------------------------------------------------------------
    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def num_transfers(self) -> int:
        return sum(len(r) for r in self.rounds)

    # -- validation ---------------------------------------------------------
    def validate(self) -> None:
        """Check causality and delivery; raises on violation.

        * causality: every transfer's ``msgset`` is a subset of what its
          sender held *before* the round began;
        * rank bounds: all endpoints within ``[0, p)``;
        * delivery: final holdings equal the full source set everywhere.
        """
        p = self.problem.p
        all_sources = set(self.problem.sources)
        holdings: List[Set[int]] = [set(h) for h in self.problem.initial_holdings()]
        for round_idx, rnd in enumerate(self.rounds):
            pending: List[Tuple[int, FrozenSet[int]]] = []
            for t in rnd:
                if not (0 <= t.src < p and 0 <= t.dst < p):
                    raise AlgorithmError(
                        f"{self.algorithm}: round {round_idx} transfer "
                        f"{t.src}->{t.dst} outside [0, {p})"
                    )
                if not t.msgset <= holdings[t.src]:
                    missing = sorted(t.msgset - holdings[t.src])
                    raise AlgorithmError(
                        f"{self.algorithm}: round {round_idx}: rank {t.src} "
                        f"sends messages {missing} it does not hold"
                    )
                if not t.msgset <= all_sources:
                    raise AlgorithmError(
                        f"{self.algorithm}: round {round_idx}: transfer "
                        f"carries non-source ids {sorted(t.msgset - all_sources)}"
                    )
                pending.append((t.dst, t.msgset))
            for dst, msgset in pending:
                holdings[dst] |= msgset
        incomplete = [
            rank for rank, held in enumerate(holdings) if held != all_sources
        ]
        if incomplete:
            example = incomplete[0]
            missing = sorted(all_sources - holdings[example])
            raise VerificationError(
                f"{self.algorithm}: {len(incomplete)} rank(s) incomplete "
                f"after {self.num_rounds} rounds; e.g. rank {example} "
                f"missing {missing[:8]}"
            )

    def phases(self) -> List[Tuple[str, int, int]]:
        """Contiguous phase runs as ``(name, first_round, last_round)``.

        Unphased rounds fall back to their label with any trailing
        ``-<n>`` counter stripped, so legacy labels like ``halving-3``
        group under ``halving``.
        """
        out: List[Tuple[str, int, int]] = []
        for idx, rnd in enumerate(self.rounds):
            name = rnd.phase or _phase_of_label(rnd.label)
            if out and out[-1][0] == name:
                out[-1] = (name, out[-1][1], idx)
            else:
                out.append((name, idx, idx))
        return out

    # -- statistics -----------------------------------------------------------
    def ops_by_rank(self) -> Dict[int, int]:
        """Send+recv operation count per rank (only ranks with ops)."""
        ops: Dict[int, int] = {}
        for rnd in self.rounds:
            for t in rnd:
                ops[t.src] = ops.get(t.src, 0) + 1
                ops[t.dst] = ops.get(t.dst, 0) + 1
        return ops

    def __repr__(self) -> str:
        return (
            f"<Schedule {self.algorithm or 'anonymous'}: "
            f"{self.num_rounds} rounds, {self.num_transfers} transfers>"
        )
