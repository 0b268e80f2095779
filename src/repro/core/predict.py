"""Closed-form completion-time prediction from a schedule.

A contention-free critical-path model: per-rank ready times are
propagated round by round through the schedule, charging each rank its
send overheads back-to-back, each transfer its uncontended wire time,
and each receive its overhead plus copy cost — exactly the executor's
cost structure *minus* link contention and arbitration.

Uses:

* **fast what-if analysis** — predicting a sweep is orders of magnitude
  cheaper than simulating it (no event engine);
* **model validation** — tests assert the prediction brackets the
  simulation from below (it omits contention) and stays within a
  modest factor on contention-light workloads;
* **contention attribution** — ``simulated / predicted`` is a direct
  measure of how contention-bound an algorithm is (the naive flood
  scores highest, per the §2 claim).

Works on any machine; on seed-dependent machines (the T3D) the
prediction uses hop counts from the seed-0 mapping.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.schedule import Schedule
from repro.machines.machine import Machine

__all__ = ["predict_schedule_time", "predict_broadcast_time"]


def predict_schedule_time(
    schedule: Schedule, machine: Machine | None = None, seed: int = 0
) -> float:
    """Predicted completion time of ``schedule`` in microseconds.

    Critical-path recurrence per round: a sender issues its sends
    back-to-back (each costing its software overhead), each message
    arrives at ``issue + wire(nbytes, hops)``, and the receiver
    processes its receives in schedule order, each costing
    ``max(arrival, receiver ready) + recv overhead + copy``.
    Blocking-send semantics: a rank's next round starts only after its
    own sends have drained.
    """
    problem = schedule.problem
    machine = machine if machine is not None else problem.machine
    params = machine.params
    mapping = machine._mapping_factory(machine.topology, seed)
    ready: Dict[int, float] = {}

    def rank_ready(rank: int) -> float:
        return ready.get(rank, 0.0)

    for rnd in schedule.rounds:
        o_send = params.send_overhead(collective=rnd.collective, mpi=rnd.mpi)
        o_recv = params.recv_overhead(collective=rnd.collective, mpi=rnd.mpi)
        # Keyed by position in the round: one round may carry two
        # transfers between the same pair of ranks.
        arrivals: List[float] = []
        issue_clock: Dict[int, float] = {}
        # Phase 1: every rank issues its round sends back-to-back.
        for t in rnd:
            clock = issue_clock.get(t.src, rank_ready(t.src)) + o_send
            issue_clock[t.src] = clock
            nbytes = t.nbytes(problem)
            src_node = mapping.node_of(t.src)
            dst_node = mapping.node_of(t.dst)
            hops = machine.topology.distance(src_node, dst_node)
            wire = (
                params.route_setup + hops * params.t_hop + nbytes * params.t_byte
                if hops
                else 0.0
            )
            arrivals.append(clock + wire)
        # Phase 2: receivers drain their receives in schedule order.
        recv_clock: Dict[int, float] = {}
        send_drain: Dict[int, float] = {}
        for t, arrival in zip(rnd, arrivals):
            nbytes = t.nbytes(problem)
            start = max(
                arrival, recv_clock.get(t.dst, rank_ready(t.dst))
            )
            copy = params.copy_cost(nbytes, collective=rnd.collective)
            recv_clock[t.dst] = start + o_recv + copy
            send_drain[t.src] = max(
                send_drain.get(t.src, 0.0), arrival
            )
        # Phase 3: next-round ready times.
        for rank, clock in issue_clock.items():
            ready[rank] = max(rank_ready(rank), clock, send_drain.get(rank, 0.0))
        for rank, clock in recv_clock.items():
            ready[rank] = max(rank_ready(rank), clock)
    return max(ready.values(), default=0.0)


def predict_broadcast_time(
    problem, algorithm, seed: int = 0
) -> float:
    """Predicted time (us) for ``algorithm`` on ``problem`` (no engine run)."""
    from repro.core.algorithms import get_algorithm  # local: avoid cycle

    if isinstance(algorithm, str):
        algorithm = get_algorithm(algorithm)
    schedule = algorithm.build_schedule(problem)
    return predict_schedule_time(schedule, seed=seed)
