"""Tests-only views of a schedule's columns, one round at a time.

:func:`round_sends` lists a round's sends for tests that check a
schedule round by round.  :func:`rounds_view` reads a whole schedule as
rounds of transfer objects, the shape ``tests/lowering_reference.py``
was written against, and :func:`FastPlan` builds the plan that
reference returns.  Each reads ``send_round`` itself, sharing no code
with the production lowering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, NamedTuple, Optional, Tuple

from repro.fastpath import lowering


class Send(NamedTuple):
    """One send of a schedule, read from its columns."""

    src: int
    dst: int
    msgset: FrozenSet[int]
    nbytes_override: Optional[int]

    def nbytes(self, problem) -> int:
        """The bytes charged: the override, else the message set's sum."""
        if self.nbytes_override is not None:
            return self.nbytes_override
        return problem.nbytes(self.msgset)


def all_rounds(schedule) -> List[List[Send]]:
    """Every round's sends, in round order and send order within it."""
    rounds: List[List[Send]] = [[] for _ in range(schedule.num_rounds)]
    for send in zip(schedule.send_src, schedule.send_dst,
                    schedule.send_msgset, schedule.send_override,
                    schedule.send_round):
        rounds[send[-1]].append(Send(*send[:-1]))
    return rounds


def round_sends(schedule, rnd: int) -> List[Send]:
    """Round ``rnd``'s sends, in send order."""
    return all_rounds(schedule)[rnd]


@dataclass(frozen=True)
class RoundView:
    transfers: Tuple[Send, ...]
    collective: bool
    mpi: bool
    phase: str


@dataclass(frozen=True)
class ScheduleView:
    problem: object
    rounds: Tuple[RoundView, ...]

    def phases(self) -> List[Tuple[str, int, int]]:
        """Contiguous phase runs as ``(name, first_round, last_round)``."""
        out: List[Tuple[str, int, int]] = []
        for idx, rnd in enumerate(self.rounds):
            if out and out[-1][0] == rnd.phase:
                out[-1] = (rnd.phase, out[-1][1], idx)
            else:
                out.append((rnd.phase, idx, idx))
        return out


def rounds_view(schedule) -> ScheduleView:
    """``schedule`` as rounds of transfer objects."""
    return ScheduleView(
        problem=schedule.problem,
        rounds=tuple(
            RoundView(
                transfers=tuple(sends),
                collective=schedule.round_collective[rnd],
                mpi=schedule.round_mpi[rnd],
                phase=schedule.round_phase[rnd],
            )
            for rnd, sends in enumerate(all_rounds(schedule))
        ),
    )


def FastPlan(*, active_rounds: List[int], **fields) -> lowering.FastPlan:
    """The plan the reference builds.

    The reference counts the rounds in which some rank sends or
    receives; a schedule drops empty rounds, so that is every round,
    and the plan has no such list.
    """
    assert active_rounds == list(range(fields["num_rounds"]))
    return lowering.FastPlan(**fields)
