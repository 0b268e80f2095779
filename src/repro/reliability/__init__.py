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
  versioned ``repro-cache/3`` entry, a header line with the sha256 of
  the body text that follows it, checked over the stored text before
  every read parses it.

The storage-fault campaign that drives these layers end to end,
``python -m repro chaos --io``, lives in :mod:`repro.faults.chaos`: it
replays a cached ``SweepExecutor`` run with a crash injected at *every*
IO-op index, then under seeded fault plans, and asserts the cache never
serves unverified bytes, a rerun recomputes exactly what a crash lost,
and the recovered sweep is bit-identical to serial.

Layering: both modules sit below :mod:`repro.sweep` (which consumes
them) and import only :mod:`repro.errors`; callers import from them
directly.
"""
