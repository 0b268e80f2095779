"""The communication-schedule IR all broadcasting algorithms compile to.

A :class:`Schedule` records an algorithm's sends in parallel columns,
per send and per round (see the class).  A send's *message set* is the
set of original source ids whose (combined) messages it carries; byte
sizes come from the problem's size table, so the IR is size-agnostic.
:func:`~repro.fastpath.lowering.lower_schedule` hands these columns to
the :class:`~repro.fastpath.lowering.FastPlan` both engines run instead
of copying them.

Rounds are the paper's *iterations*: they bucket the Figure-2 metrics,
and the executor lets each rank flow through them with only
data-parallel synchronisation (a rank starts its round-k sends as soon
as *its own* round-(k-1) operations finished — no global barrier,
exactly as §5 describes the implementations).

Central invariant (checked by :meth:`Schedule.validate`): **causality**
— a rank may only send message sets it already holds, where holdings
start as ``{rank}`` for sources and grow by receiving.  Validation also
proves **delivery**: after the last round every rank holds every
source's message.  Algorithm unit tests call ``validate`` on every
schedule they build; the hypothesis suite fuzzes it across machines,
distributions, and source counts.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set

from repro.core.problem import BroadcastProblem
from repro.errors import AlgorithmError, VerificationError

__all__ = ["Schedule"]


def _phase_of_label(label: str) -> str:
    """Phase name a bare round label implies (``halving-3`` → ``halving``)."""
    if not label:
        return "round"
    stem, dash, suffix = label.rpartition("-")
    if dash and suffix.isdigit():
        return stem
    return label


class Schedule:
    """An algorithm's rounds of sends, as columns, plus its problem.

    Per send, indexed by send id in the order rounds added them:
    ``send_src`` / ``send_dst`` (ranks), ``send_msgset`` (a frozenset
    of source ids), ``send_override`` (the bytes charged, or ``None``
    for the message set's full size — pipelined schedules charge a
    *segment* while the send still carries the message ids) and
    ``send_round`` (non-decreasing).  Per round: ``round_label``,
    ``round_collective`` (issued from inside a library collective, so
    charged the machine's collective overhead tier), ``round_mpi``
    (charged the MPI overhead scale) and ``round_phase``, the span name
    the executor opens around the round: the enclosing :meth:`span`
    block's name, or else the label's stem.

    Duplicate (src, dst) pairs within a round are legal: the message
    layer's per-(source, tag) FIFO (MPI non-overtaking) delivers them
    in posting order, and the executor merges received message sets
    commutatively, so matching order cannot affect the outcome (the
    NaiveIndependent baseline relies on this when its binomial trees
    collide).
    """

    def __init__(self, problem: BroadcastProblem, algorithm: str = "") -> None:
        self.problem = problem
        self.algorithm = algorithm
        self.send_src: List[int] = []
        self.send_dst: List[int] = []
        self.send_msgset: List[FrozenSet[int]] = []
        self.send_override: List[Optional[int]] = []
        self.send_round: List[int] = []
        self.round_label: List[str] = []
        self.round_collective: List[bool] = []
        self.round_mpi: List[bool] = []
        self.round_phase: List[str] = []
        #: Phase name applied to rounds added inside a :meth:`span` block.
        self._phase = ""

    def add_round(
        self,
        sends: Sequence[tuple],
        label: str = "",
        collective: bool = False,
        mpi: bool = False,
    ) -> None:
        """Append a round of ``(src, dst, msgset[, nbytes])`` sends.

        An empty round is dropped silently.  A send to itself, an empty
        message set or a byte override below 1 raises
        :class:`~repro.errors.AlgorithmError` and leaves the schedule
        unchanged; a message set that is not a frozenset is converted
        to one.
        """
        if not sends:
            return
        srcs: List[int] = []
        dsts: List[int] = []
        msgsets: List[FrozenSet[int]] = []
        overrides: List[Optional[int]] = []
        for send in sends:
            if len(send) == 3:
                src, dst, msgset = send
                nbytes = None
            else:
                src, dst, msgset, nbytes = send
                if nbytes is not None and nbytes <= 0:
                    raise AlgorithmError(
                        f"byte override must be positive, got {nbytes}"
                    )
            if src == dst:
                raise AlgorithmError(f"self-send at rank {src}")
            if not msgset:
                raise AlgorithmError(f"empty send {src}->{dst}; omit it instead")
            if type(msgset) is not frozenset:
                msgset = frozenset(msgset)
            srcs.append(src)
            dsts.append(dst)
            msgsets.append(msgset)
            overrides.append(nbytes)
        self.send_round += [len(self.round_label)] * len(srcs)
        self.send_src += srcs
        self.send_dst += dsts
        self.send_msgset += msgsets
        self.send_override += overrides
        self.round_label.append(label)
        self.round_collective.append(collective)
        self.round_mpi.append(mpi)
        self.round_phase.append(self._phase or _phase_of_label(label))

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
        return len(self.round_label)

    @property
    def num_transfers(self) -> int:
        return len(self.send_src)

    def round_bounds(self) -> List[int]:
        """Each round's first send id, then the send count.

        Round ``k``'s sends are ids ``bounds[k]`` up to ``bounds[k + 1]``.
        """
        send_round = self.send_round
        bounds = [bisect_left(send_round, rnd) for rnd in range(self.num_rounds)]
        bounds.append(len(send_round))
        return bounds

    # -- validation ---------------------------------------------------------
    def validate(self) -> None:
        """Check causality and delivery; raises on violation.

        * causality: every send's ``msgset`` is a subset of what its
          sender held *before* the round began;
        * rank bounds: all endpoints within ``[0, p)``;
        * delivery: final holdings equal the full source set everywhere.
        """
        p = self.problem.p
        all_sources = set(self.problem.sources)
        holdings: List[Set[int]] = [set(h) for h in self.problem.initial_holdings()]
        bounds = self.round_bounds()
        for round_idx in range(self.num_rounds):
            first, stop = bounds[round_idx], bounds[round_idx + 1]
            dsts = self.send_dst[first:stop]
            msgsets = self.send_msgset[first:stop]
            for src, dst, msgset in zip(self.send_src[first:stop], dsts, msgsets):
                if not (0 <= src < p and 0 <= dst < p):
                    raise AlgorithmError(
                        f"{self.algorithm}: round {round_idx} transfer "
                        f"{src}->{dst} outside [0, {p})"
                    )
                if not msgset <= holdings[src]:
                    missing = sorted(msgset - holdings[src])
                    raise AlgorithmError(
                        f"{self.algorithm}: round {round_idx}: rank {src} "
                        f"sends messages {missing} it does not hold"
                    )
                if not msgset <= all_sources:
                    raise AlgorithmError(
                        f"{self.algorithm}: round {round_idx}: transfer "
                        f"carries non-source ids {sorted(msgset - all_sources)}"
                    )
            for dst, msgset in zip(dsts, msgsets):
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

    # -- statistics -----------------------------------------------------------
    def ops_by_rank(self) -> Dict[int, int]:
        """Send+recv operation count per rank (only ranks with ops)."""
        return dict(Counter(self.send_src) + Counter(self.send_dst))

    def __repr__(self) -> str:
        return (
            f"<Schedule {self.algorithm or 'anonymous'}: "
            f"{self.num_rounds} rounds, {self.num_transfers} transfers>"
        )
