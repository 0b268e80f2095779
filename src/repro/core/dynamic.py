"""Dynamic broadcasting sessions (§1's motivating workload, [21]).

"Broadcasting problems arising in parallel applications are not limited
to these two forms.  The number and positions of the processors
initiating a broadcast can vary and may not be known in advance."

A :class:`DynamicBroadcastSession` manages a *sequence* of s-to-p
broadcasts on one machine — the iterative-algorithm scenario where each
outer iteration some set of processors has updates to publish.  Per
round it can:

* run a fixed algorithm,
* follow the paper's §5.2 selector (re-evaluated every round, since
  ``s`` and the placement change), or
* pick the best *predicted* algorithm from a candidate set via the
  closed-form model of :mod:`repro.core.predict` — a what-if search
  that would be far too expensive with real broadcasts, which is
  precisely why the prediction layer exists.

The session records per-round statistics so workloads can be compared
end to end (see ``examples/dynamic_broadcasting.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.problem import BroadcastProblem
from repro.core.predict import predict_broadcast_time
from repro.core.runner import BroadcastResult, run_broadcast
from repro.core.selector import recommend
from repro.errors import ConfigurationError
from repro.machines.machine import Machine
from repro.summation import left_sum

__all__ = ["RoundRecord", "DynamicBroadcastSession"]


@dataclass(frozen=True)
class RoundRecord:
    """Outcome of one dynamic-broadcast round."""

    index: int
    s: int
    message_size: int
    algorithm: str
    elapsed_ms: float
    predicted_ms: Optional[float] = None


@dataclass
class DynamicBroadcastSession:
    """Repeated s-to-p broadcasts on one machine, with strategy control.

    Parameters
    ----------
    machine:
        The machine every round runs on.
    strategy:
        ``"fixed"`` (use ``algorithm`` every round), ``"selector"``
        (the paper's §5.2 recommendation, re-evaluated per round), or
        ``"predictive"`` (run the closed-form model over ``candidates``
        and pick the best prediction).
    algorithm:
        The fixed algorithm (strategy ``"fixed"``).
    candidates:
        Candidate set for strategy ``"predictive"``.
    """

    machine: Machine
    strategy: str = "selector"
    algorithm: Optional[str] = None
    candidates: Sequence[str] = ("Br_Lin", "Br_xy_source", "Repos_xy_source")
    history: List[RoundRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.strategy not in ("fixed", "selector", "predictive"):
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; use fixed | selector "
                "| predictive"
            )
        if self.strategy == "fixed" and not self.algorithm:
            raise ConfigurationError("strategy 'fixed' needs an algorithm")

    # -- strategy -----------------------------------------------------------
    def choose(self, problem: BroadcastProblem) -> Tuple[str, Optional[float]]:
        """The algorithm for this round, plus its prediction if any."""
        if self.strategy == "fixed":
            assert self.algorithm is not None
            return self.algorithm, None
        if self.strategy == "selector":
            return recommend(problem).algorithm, None
        best_name = None
        best_pred = float("inf")
        from repro.core.algorithms import get_algorithm

        for name in self.candidates:
            if not get_algorithm(name).supports(self.machine):
                continue
            predicted = predict_broadcast_time(problem, name)
            if predicted < best_pred:
                best_name, best_pred = name, predicted
        if best_name is None:
            raise ConfigurationError(
                "no candidate algorithm supports this machine"
            )
        return best_name, best_pred / 1000.0

    # -- execution ---------------------------------------------------------
    def broadcast(
        self,
        sources: Iterable[int],
        message_size: int,
        *,
        seed: int = 0,
    ) -> BroadcastResult:
        """Run one round; appends a :class:`RoundRecord` to the history."""
        problem = BroadcastProblem(
            self.machine, tuple(sources), message_size=message_size
        )
        name, predicted = self.choose(problem)
        result = run_broadcast(problem, name, seed=seed)
        self.history.append(
            RoundRecord(
                index=len(self.history),
                s=problem.s,
                message_size=message_size,
                algorithm=name,
                elapsed_ms=result.elapsed_ms,
                predicted_ms=predicted,
            )
        )
        return result

    # -- statistics ----------------------------------------------------------
    @property
    def total_ms(self) -> float:
        """Sum of completion times across the session."""
        return left_sum(r.elapsed_ms for r in self.history)

    @property
    def rounds(self) -> int:
        return len(self.history)

    def algorithms_used(self) -> List[str]:
        """Distinct algorithms the strategy picked, in first-use order."""
        seen: List[str] = []
        for record in self.history:
            if record.algorithm not in seen:
                seen.append(record.algorithm)
        return seen

    def summary(self) -> str:
        """Human-readable session recap."""
        lines = [
            f"dynamic broadcasting session: {self.rounds} rounds, "
            f"strategy={self.strategy}, total {self.total_ms:.2f} ms"
        ]
        for record in self.history:
            pred = (
                f" (predicted {record.predicted_ms:.2f})"
                if record.predicted_ms is not None
                else ""
            )
            lines.append(
                f"  round {record.index}: s={record.s} L={record.message_size} "
                f"-> {record.algorithm} in {record.elapsed_ms:.2f} ms{pred}"
            )
        return "\n".join(lines)
