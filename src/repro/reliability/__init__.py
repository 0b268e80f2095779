"""Storage reliability layer for the sweep's result cache.

Every point a cached sweep computes lands in the content-addressed
result cache (:class:`~repro.sweep.cache.ResultCache`), which
concurrent ``report``/``sweep`` runs share.  It lives on real
filesystems, where writes tear, disks fill and processes die
mid-``rename``.  This package makes those hazards first-class, testable
inputs — the same move :mod:`repro.faults` made for the *simulated*
fabric:

* :mod:`repro.reliability.iofaults` — an injectable IO backend.  Every
  filesystem call :class:`~repro.sweep.cache.ResultCache` makes routes
  through an :class:`IOBackend`; the default is a thin passthrough, and
  :class:`FaultyIO` applies a seeded :class:`IOFaultPlan` (grammar
  ``torn:write@K`` / ``err:ENOSPC@K`` / ``crash@K`` /
  ``stall:read@K+D``, mirroring the simulator's fault specs).
* :mod:`repro.reliability.envelope` — self-verifying storage: the
  versioned ``repro-cache/2`` entry envelope with an embedded sha256,
  verified on every read; legacy v1 entries stay readable.
* :mod:`repro.reliability.harness` — the crash-consistency harness:
  replay a cached ``SweepExecutor`` run with a crash injected at
  *every* IO-op index and assert the cache never serves unverified
  bytes, a rerun recomputes exactly what the crash lost, and the
  recovered sweep is bit-identical to serial.

Layering: the two library modules sit below :mod:`repro.sweep` (which
consumes them) and import only :mod:`repro.errors`; the harness is the
deliberate exception — it is a test driver that exercises
:mod:`repro.sweep` end-to-end, and is therefore not re-exported here.
"""

from __future__ import annotations

from repro.reliability.envelope import (
    ENTRY_SCHEMA_V2,
    EnvelopeError,
    open_envelope,
    seal_envelope,
)
from repro.reliability.iofaults import (
    RAW_IO,
    FaultyIO,
    IOBackend,
    IOFault,
    IOFaultPlan,
    SimulatedCrash,
)

__all__ = [
    "ENTRY_SCHEMA_V2",
    "EnvelopeError",
    "FaultyIO",
    "IOBackend",
    "IOFault",
    "IOFaultPlan",
    "RAW_IO",
    "SimulatedCrash",
    "open_envelope",
    "seal_envelope",
]
