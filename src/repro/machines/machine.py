"""The simulated machine: topology + parameters + rank mapping + run loop.

A :class:`Machine` is a lightweight, reusable *configuration*; each call
to :meth:`Machine.run` builds a fresh engine/fabric/world, spawns one
simulated process per rank, runs to completion, and returns a
:class:`RunResult` with the elapsed virtual time and the collected
metrics.  Runs are bit-deterministic given ``seed``.

The module also holds the machine spec grammar: :func:`machine_spec`
writes a factory machine's canonical spec, and :func:`machine_from_spec`
rebuilds the machine from it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import ConfigurationError, DeadlockError
from repro.faults import FaultSchedule
from repro.machines.params import MachineParams
from repro.metrics.report import MetricsReport
from repro.mpsim.comm import Comm, World
from repro.network.fabric import Fabric
from repro.network.mapping import IdentityMapping, RankMapping
from repro.network.mesh import Mesh2D
from repro.network.topology import Topology
from repro.simulator.engine import Engine
from repro.simulator.trace import Tracer

__all__ = ["Machine", "RunResult", "machine_from_spec", "machine_spec"]

#: A per-rank SPMD program: takes this rank's communicator, yields events.
ProgramFactory = Callable[[Comm], Generator[Any, Any, Any]]
#: Builds the rank mapping for a run (seed-dependent on the T3D).
MappingFactory = Callable[[Topology, int], RankMapping]

#: The :class:`MachineParams` fields a spec suffix may name, in
#: dataclass order (``name`` is a display label, not a parameter).
SPEC_FIELDS = tuple(f.name for f in fields(MachineParams) if f.name != "name")
#: Final spec suffix of an identity rank mapping on a family whose
#: default mapping is random (the T3D).
IDENTITY_MAPPING = "mapping=identity"
#: The ``+`` that starts a ``+<field>=<value>`` suffix (a float's
#: exponent, as in ``1e+20``, is not one).
_SUFFIX = re.compile(r"\+(?=[a-z_]+=)")
#: The spec grammar in one line (``--machine`` help, error messages).
SPEC_GRAMMAR = (
    "paragon:RxC | t3d:P | hypercube:P, then +<param>=<value> for each "
    f"non-default MachineParams field (t3d: a final +{IDENTITY_MAPPING})"
)


def machine_spec(base: str, params: MachineParams,
                 defaults: MachineParams) -> str:
    """The canonical spec of a factory machine with ``params``.

    ``base`` is the family and size (``"paragon:10x10"``, ``"t3d:64"``).
    Every :data:`SPEC_FIELDS` field whose value differs from the
    family's ``defaults`` adds a ``+<field>=<value>`` suffix, in
    dataclass order: numbers as the ``repr`` of the default value's
    type, strings bare (``"t3d:128+t_mem_byte=0.0"``,
    ``"paragon:10x10+switching=store_and_forward"``).  The factories
    spell their machines with it; :func:`machine_from_spec` parses
    these strings and writes the one suffix no factory does, the final
    ``+mapping=identity`` of an identity-mapped T3D.
    """
    parts = [base]
    for name in SPEC_FIELDS:
        value, default = getattr(params, name), getattr(defaults, name)
        if value != default:
            if not isinstance(default, str):
                value = repr(type(default)(value))
            parts.append(f"{name}={value}")
    return "+".join(parts)


@lru_cache(maxsize=64)
def machine_from_spec(spec: str) -> Machine:
    """Rebuild a factory machine from its canonical spec string.

    The exact inverse of :attr:`Machine.spec`: ``paragon:RxC``,
    ``t3d:P`` or ``hypercube:P``, then the :func:`machine_spec`
    suffixes, and on the T3D an optional final ``+mapping=identity``,
    which builds the torus on the identity mapping
    (``"t3d:128+t_mem_byte=0.0"``, ``"t3d:64+mapping=identity"``).
    The sweep executor relies on it to rebuild problems inside worker
    processes and to key the on-disk result cache, so one machine has
    one spelling: a spec whose rebuilt machine spells itself
    differently (``paragon:04x4``, a suffix that repeats a default,
    suffixes out of order) is rejected with the canonical spelling in
    the message.

    Memoized: a factory machine is an immutable configuration (frozen
    params, finalized topology; every :meth:`Machine.run` builds a fresh
    engine/fabric/world), so repeated sweep points within one process
    share a single instance — and with it the topology's warm route
    cache — instead of rebuilding the interconnect per point.
    """
    # local: the factory modules import machine_spec from this one
    from repro.machines.hypercube_machine import hypercube
    from repro.machines.paragon import PARAGON_PARAMS, paragon
    from repro.machines.t3d import T3D_PARAMS, t3d

    base, *suffixes = _SUFFIX.split(spec)
    family, _, size = base.partition(":")
    identity = suffixes[-1:] == [IDENTITY_MAPPING]
    if identity:
        suffixes.pop()
    try:
        if family == "paragon":
            rows, sep, cols = size.partition("x")
            if not sep:
                raise ValueError(size)
            factory = partial(paragon, int(rows), int(cols))
            defaults = PARAGON_PARAMS
        elif family == "t3d":
            factory, defaults = partial(t3d, int(size)), T3D_PARAMS
        elif family == "hypercube":
            factory, defaults = partial(hypercube, int(size)), PARAGON_PARAMS
        else:
            raise ValueError(family)
        overrides = {}
        for suffix in suffixes:
            name, _, text = suffix.partition("=")
            if name not in SPEC_FIELDS:
                raise ValueError(name)
            overrides[name] = type(getattr(defaults, name))(text)
    except ValueError:
        raise ConfigurationError(
            f"unknown machine spec {spec!r}; use {SPEC_GRAMMAR}"
        ) from None
    machine = factory(defaults.with_overrides(**overrides))
    if identity and not machine.topology_stable_ranks:
        machine = Machine(
            machine.topology,
            machine.params,
            spec=f"{machine.spec}+{IDENTITY_MAPPING}",
        )
    if machine.spec != spec:
        raise ConfigurationError(
            f"non-canonical machine spec {spec!r}; write {machine.spec!r}"
        )
    return machine


@dataclass(frozen=True)
class RunResult:
    """Outcome of one machine run.

    ``elapsed_us`` is the virtual time at which the last rank finished —
    the quantity the paper's figures plot.  ``returns`` holds each
    rank's program return value (the broadcasting executor returns the
    set of messages the rank ended up holding, which verification
    checks).
    """

    elapsed_us: float
    metrics: MetricsReport
    returns: Tuple[Any, ...]
    fabric_transfers: int
    fabric_link_wait: float
    link_utilization: float
    events_scheduled: int = 0
    #: Resolved descriptions of the injected faults ('' tuple = none).
    faults_active: Tuple[str, ...] = ()
    #: Deadlock diagnostic when the run ended blocked under
    #: ``allow_partial`` (``None`` = the run completed).  Ranks that
    #: never finished have ``None`` in ``returns``.
    deadlock: Optional[str] = None


class Machine:
    """A simulated message-passing machine.

    Parameters
    ----------
    topology:
        Physical interconnect.
    params:
        Timing parameters (see :class:`~repro.machines.params.MachineParams`).
    mapping_factory:
        Builds the rank→node mapping for a run; defaults to identity
        (ranks in node order, the Paragon submesh convention).
    spec:
        Canonical spec string (``"paragon:10x10"``, ``"t3d:128"``,
        ``"t3d:128+t_mem_byte=0.0"``, ``"t3d:64+mapping=identity"``; see
        :func:`machine_spec`) from which :func:`machine_from_spec`
        rebuilds an equivalent
        machine.  Every factory-built machine has one, parameter
        variants included.  ``None`` for hand-built machines (test
        topologies): they cannot become sweep points, and the fast
        path's plan cache keys them by the object itself.
    """

    def __init__(
        self,
        topology: Topology,
        params: MachineParams,
        mapping_factory: Optional[MappingFactory] = None,
        spec: Optional[str] = None,
    ) -> None:
        self.topology = topology
        self.params = params
        self.spec = spec
        self._mapping_factory: MappingFactory = (
            mapping_factory
            if mapping_factory is not None
            else (lambda topo, seed: IdentityMapping(topo))
        )
        self._stable_ranks: Optional[bool] = None

    # -- shape helpers -----------------------------------------------------
    @property
    def p(self) -> int:
        """Number of processors (ranks)."""
        return self.topology.num_nodes

    @property
    def is_mesh(self) -> bool:
        """Whether the machine is a 2-D mesh with topology-stable ranks."""
        return isinstance(self.topology, Mesh2D) and self.topology_stable_ranks

    @property
    def topology_stable_ranks(self) -> bool:
        """True when rank→node does not depend on the run seed.

        Algorithms may exploit mesh coordinates only on such machines
        (the Paragon); the T3D's random mapping makes coordinates
        meaningless to the application.
        """
        if self._stable_ranks is None:
            probe = self._mapping_factory(self.topology, 0)
            self._stable_ranks = isinstance(probe, IdentityMapping)
        return self._stable_ranks

    @property
    def mesh_shape(self) -> Tuple[int, int]:
        """``(rows, cols)`` of a mesh machine."""
        if not isinstance(self.topology, Mesh2D):
            raise ConfigurationError(f"{self!r} is not a 2-D mesh machine")
        return (self.topology.rows, self.topology.cols)

    @property
    def logical_grid(self) -> Tuple[int, int]:
        """``(rows, cols)`` grid on which source distributions are defined.

        §4 of the paper defines every distribution on an ``r x c`` mesh
        with ``r <= c``.  On a physical mesh this is the mesh itself;
        on the T3D (whose physical layout the user cannot see) it is
        the most nearly square factorisation of ``p`` with ``r <= c`` —
        the "virtual mesh" of ranks in row-major order.
        """
        if isinstance(self.topology, Mesh2D):
            return (self.topology.rows, self.topology.cols)
        p = self.p
        r = int(p**0.5)
        while r > 1 and p % r != 0:
            r -= 1
        return (r, p // r)

    def linear_order(self) -> List[int]:
        """Rank sequence realising the paper's linear-array view.

        On an identity-mapped mesh this is the snake-like row-major
        order (consecutive positions are physical neighbours); on other
        machines it is simply rank order — on the T3D the user cannot
        do better, which is precisely the paper's point.
        """
        if self.is_mesh:
            assert isinstance(self.topology, Mesh2D)
            topo = self.topology
            order: List[int] = []
            for r in range(topo.rows):
                cols = (
                    range(topo.cols)
                    if r % 2 == 0
                    else range(topo.cols - 1, -1, -1)
                )
                order.extend(topo.node_at(r, c) for c in cols)
            return order
        return list(range(self.p))

    def build_mapping(self, seed: int = 0) -> RankMapping:
        """The rank→node mapping a run with ``seed`` will use.

        Host-side planners (the recovery layer, diagnostics) need the
        same view of rank placement as the run itself; mapping factories
        are deterministic in ``(topology, seed)``, so this reproduces it
        exactly.
        """
        return self._mapping_factory(self.topology, seed)

    # -- execution ----------------------------------------------------------
    def run(
        self,
        program_factory: ProgramFactory,
        *,
        seed: int = 0,
        contention: bool = True,
        tracer: Optional[Tracer] = None,
        until: Optional[float] = None,
        faults: Optional[FaultSchedule] = None,
        allow_partial: bool = False,
    ) -> RunResult:
        """Run one SPMD program on all ranks; returns timing and metrics.

        ``program_factory(comm)`` is called once per rank with that
        rank's world communicator and must return a generator.

        ``faults`` injects a :class:`~repro.faults.FaultSchedule`
        (bound deterministically to this topology and ``seed``).  With
        ``allow_partial`` a fault-induced deadlock does not raise:
        the result carries the diagnostic in ``RunResult.deadlock`` and
        ``None`` returns for the ranks that never finished — degraded
        operation instead of a crash.
        """
        engine = Engine(tracer=tracer)
        injector = faults.bind(self.topology, seed) if faults is not None else None
        fabric = Fabric(
            self.topology,
            t_byte=self.params.t_byte,
            t_hop=self.params.t_hop,
            route_setup=self.params.route_setup,
            contention=contention,
            switching=self.params.switching,
            injector=injector,
            tracer=tracer,
        )
        mapping = self._mapping_factory(self.topology, seed)
        world = World(engine, fabric, self.params, mapping, injector=injector)
        if injector is not None:
            engine.fault_context = injector.descriptions
        processes = [
            engine.process(program_factory(world.comm(rank)), name=f"rank{rank}")
            for rank in range(self.p)
        ]
        deadlock: Optional[str] = None
        try:
            engine.run(until=until)
        except DeadlockError as exc:
            if not allow_partial:
                raise
            deadlock = str(exc)
        elapsed = engine.now
        return RunResult(
            elapsed_us=elapsed,
            metrics=MetricsReport.from_collector(world.metrics),
            returns=tuple(
                proc.value if proc.triggered else None for proc in processes
            ),
            fabric_transfers=fabric.transfers,
            fabric_link_wait=fabric.total_link_wait,
            link_utilization=fabric.link_utilization(until=elapsed),
            events_scheduled=engine.events_scheduled,
            faults_active=injector.descriptions if injector is not None else (),
            deadlock=deadlock,
        )

    def __repr__(self) -> str:
        shape = self.spec if self.spec is not None else repr(self.topology)
        return f"<Machine {self.params.name} {shape}>"
