"""Sweep points and cartesian sweep grids.

A :class:`SweepPoint` is the *unit of work* of the sweep subsystem: one
``run_broadcast`` invocation, described entirely by plain data (machine
spec string, explicit source ranks, sizes, algorithm name, seed,
contention flag).  Because the discrete-event engine is a pure function
of that data — deterministic tie-breaking, seeded mappings — a point can
be shipped to a worker process, evaluated there, and its result reused
from a cache, all without changing the answer.

A :class:`SweepSpec` is the cartesian grid the paper's figures sweep:
machines x distributions x source counts x message sizes x algorithms x
seeds.  :meth:`SweepSpec.points` expands it, resolving each distribution
to explicit source ranks on each machine's logical grid.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.problem import BroadcastProblem
from repro.errors import ConfigurationError
from repro.faults import FaultSchedule
from repro.machines import machine_from_spec

__all__ = ["SweepPoint", "SweepSpec", "code_fingerprint", "source_fingerprint"]

#: The ``repro`` package directory, whose modules :func:`code_fingerprint`
#: hashes.
_PACKAGE_DIR = pathlib.Path(__file__).resolve().parents[1]


def source_fingerprint(root: pathlib.Path) -> str:
    """sha256 over every ``*.py`` under ``root``: relative path + bytes.

    Modules are taken in sorted relative-path order, each as its path,
    its length and its bytes, so a rename, an edit, an added or a
    deleted module all change the digest.  Plain file reads: the cache's
    injectable IO backend never sees them.
    """
    root = pathlib.Path(root)
    digest = hashlib.sha256()
    for rel, path in sorted(
        (path.relative_to(root).as_posix(), path) for path in root.rglob("*.py")
    ):
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """:func:`source_fingerprint` of this package, once per process."""
    return source_fingerprint(_PACKAGE_DIR)


@dataclass(frozen=True)
class SweepPoint:
    """One fully specified broadcast run, as plain picklable data.

    ``machine`` is a canonical machine spec (``"paragon:10x10"``,
    ``"t3d:128+t_mem_byte=0.0"``, ...; see
    :func:`~repro.machines.machine_from_spec`), so a parameter variant
    ships and caches like its family's default.  ``sources`` are
    explicit ranks, so the point stays valid even for placements no
    registered distribution generates (ideal rows, repositioned
    targets).  ``sizes`` optionally carries the per-source
    byte table of non-uniform problems.  ``distribution`` is a
    provenance label; it participates in the cache key (two identically
    placed points from different distributions hash apart, which only
    costs a rare duplicate cache entry).  ``faults`` is an optional
    fault-injection spec, stored canonically so every spelling of the
    same schedule shares one cache entry; ``None`` (the default) keeps
    the point's payload — and with it the cache key — byte-identical to
    the pre-faults format.
    """

    machine: str
    sources: Tuple[int, ...]
    message_size: int
    algorithm: str
    seed: int = 0
    contention: bool = True
    sizes: Optional[Tuple[Tuple[int, int], ...]] = None
    distribution: Optional[str] = None
    faults: Optional[str] = None
    #: Run the recovery protocol after a faulty primary run.  ``False``
    #: (the default) keeps the payload — and the cache key — identical
    #: to the pre-recovery format.
    recover: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(int(r) for r in self.sources))
        if self.sizes is not None:
            object.__setattr__(
                self,
                "sizes",
                tuple(sorted((int(r), int(v)) for r, v in self.sizes)),
            )
        if self.faults is not None:
            object.__setattr__(
                self, "faults", FaultSchedule.coerce(self.faults).canonical()
            )

    @classmethod
    def from_problem(
        cls,
        problem: BroadcastProblem,
        algorithm: str,
        *,
        seed: int = 0,
        contention: bool = True,
        distribution: Optional[str] = None,
        faults: Optional[str] = None,
        recover: bool = False,
    ) -> "SweepPoint":
        """Describe ``run_broadcast(problem, algorithm, ...)`` as a point.

        Raises
        ------
        ConfigurationError
            If the problem's machine has no spec: a hand-built machine
            (a test topology) that no worker or cache entry could
            rebuild.  Every factory-built machine has one.
        """
        spec = problem.machine.spec
        if spec is None:
            raise ConfigurationError(
                "sweep points require a factory-built machine; "
                f"{problem.machine!r} has no spec"
            )
        sizes: Optional[Tuple[Tuple[int, int], ...]] = None
        if problem.sizes is not None:
            sizes = tuple((r, problem.size_of(r)) for r in problem.sources)
        return cls(
            machine=spec,
            sources=problem.sources,
            message_size=problem.message_size,
            algorithm=algorithm,
            seed=seed,
            contention=contention,
            sizes=sizes,
            distribution=distribution,
            faults=faults,
            recover=recover,
        )

    # -- identity ----------------------------------------------------------
    def payload(self) -> Dict[str, Any]:
        """Canonical JSON-compatible identity of this point.

        Everything the result depends on is here — including the code:
        ``code`` is :func:`code_fingerprint`, so any edit to a module of
        the package (recalibrated machine parameters, a changed
        algorithm, a new report renderer) re-keys every point instead of
        letting a warm cache serve results of the old code.
        The ``faults`` key appears only on fault-injected points, so the
        keys (and cached entries) of fault-free points are unchanged
        from the pre-faults format.
        """
        data: Dict[str, Any] = {
            "schema": 1,
            "code": code_fingerprint(),
            "machine": self.machine,
            "distribution": self.distribution,
            "sources": list(self.sources),
            "message_size": self.message_size,
            "sizes": [list(pair) for pair in self.sizes] if self.sizes else None,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "contention": self.contention,
        }
        if self.faults is not None:
            data["faults"] = self.faults
        if self.recover:
            # Same discipline as ``faults``: only recovery-enabled points
            # carry the key, so existing cache entries stay addressable.
            data["recover"] = True
        return data

    def key(self) -> str:
        """Stable content hash of :meth:`payload` (the cache key)."""
        blob = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SweepPoint":
        """Inverse of :meth:`payload` (used on the worker side)."""
        sizes = payload.get("sizes")
        return cls(
            machine=payload["machine"],
            sources=tuple(payload["sources"]),
            message_size=payload["message_size"],
            algorithm=payload["algorithm"],
            seed=payload["seed"],
            contention=payload["contention"],
            sizes=tuple((r, v) for r, v in sizes) if sizes else None,
            distribution=payload.get("distribution"),
            faults=payload.get("faults"),
            recover=payload.get("recover", False),
        )

    # -- evaluation support ------------------------------------------------
    def build_problem(self) -> BroadcastProblem:
        """Reconstruct the :class:`BroadcastProblem` this point describes."""
        return BroadcastProblem(
            machine=machine_from_spec(self.machine),
            sources=self.sources,
            message_size=self.message_size,
            sizes=dict(self.sizes) if self.sizes else None,
        )


@dataclass(frozen=True)
class SweepSpec:
    """A cartesian grid of sweep points.

    Axes mirror the paper's experiment parameters: machine spec strings,
    distribution keys (resolved against each machine's logical grid),
    source counts ``s``, message sizes ``L``, algorithm names, and run
    seeds.  ``contention`` applies to the whole grid.
    """

    machines: Tuple[str, ...]
    distributions: Tuple[str, ...]
    s_values: Tuple[int, ...]
    message_sizes: Tuple[int, ...]
    algorithms: Tuple[str, ...]
    seeds: Tuple[int, ...] = (0,)
    contention: bool = True
    #: Fault-injection axis: each entry is a spec string (canonicalised
    #: at point construction) or ``None`` for the fault-free baseline.
    faults: Tuple[Optional[str], ...] = (None,)
    #: Run the recovery protocol on every fault-injected point.
    recover: bool = False

    def __post_init__(self) -> None:
        for name in ("machines", "distributions", "s_values", "message_sizes",
                     "algorithms", "seeds", "faults"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
            if not getattr(self, name):
                raise ConfigurationError(f"SweepSpec.{name} must be non-empty")
        if self.recover and all(f is None for f in self.faults):
            raise ConfigurationError(
                "SweepSpec.recover needs at least one fault-injected entry "
                "on the faults axis (a clean run has nothing to recover)"
            )

    @property
    def num_points(self) -> int:
        """Size of the expanded grid."""
        return (
            len(self.machines)
            * len(self.distributions)
            * len(self.s_values)
            * len(self.message_sizes)
            * len(self.algorithms)
            * len(self.seeds)
            * len(self.faults)
        )

    def points(self) -> List[SweepPoint]:
        """Expand the grid, machine-major, in deterministic order."""
        from repro.distributions import get_distribution  # local: avoid cycle

        out: List[SweepPoint] = []
        for spec in self.machines:
            machine = machine_from_spec(spec)
            for dist_key in self.distributions:
                distribution = get_distribution(dist_key)
                for s in self.s_values:
                    sources = tuple(distribution.generate(machine, s))
                    for size in self.message_sizes:
                        for algorithm in self.algorithms:
                            for seed in self.seeds:
                                for fault_spec in self.faults:
                                    out.append(
                                        SweepPoint(
                                            machine=spec,
                                            sources=sources,
                                            message_size=size,
                                            algorithm=algorithm,
                                            seed=seed,
                                            contention=self.contention,
                                            distribution=dist_key,
                                            faults=fault_spec,
                                            recover=(
                                                self.recover
                                                and fault_spec is not None
                                            ),
                                        )
                                    )
        return out
