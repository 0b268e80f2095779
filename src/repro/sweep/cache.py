"""Content-addressed on-disk cache of broadcast results.

Entries are JSON files named by the sweep point's content hash
(:meth:`~repro.sweep.spec.SweepPoint.key`), sharded into 256 two-hex
subdirectories.  Each entry holds the point's full identity payload,
the serialized :class:`~repro.core.runner.BroadcastResult`, and the
original compute duration (which feeds the speedup counters) as the
body of a self-verifying ``repro-cache/3`` envelope
(:mod:`repro.reliability.envelope`): a header line carrying the sha256
of the body text, checked over the stored text before the body is
parsed, so a torn write or bit rot can never be served as truth; a
file without that header is a defect like any other.  Beside an entry,
``<key>.<kind>.json`` *siblings* (:data:`SIBLINGS`: an observed run's
summary, a report page's link heatmap) ride in the same envelope under
the same payload check.

The cache is defensive by design: a corrupted, truncated, or
wrong-format entry counts as a miss and is recomputed — a cache must
never be able to fail a sweep.  But defects are **quarantined, never
deleted**: the bad bytes move to ``<root>/quarantine/`` beside a
``.reason.json`` record naming what failed, preserving the evidence
(was it a torn write? a stale format? a flipped bit?) instead of
destroying it.  Writes are atomic (temp file + ``replace``), so a
crashed writer leaves at worst a stray temp file, never a half-written
entry served as truth.

Every filesystem call routes through an injectable
:class:`~repro.reliability.iofaults.IOBackend`, so tests and the
storage campaign (``chaos --io``) can make exactly the K-th operation
tear, fail, or kill the process.  Each quarantine is counted in
:attr:`ResultCache.quarantines`.

The cache directory is **shared across processes**: every concurrent
``report`` or ``sweep`` run pointed at the same ``--cache-dir`` (by
default ``~/.cache/repro/sweep``) reads and writes the same entries.
Temp names therefore carry host + pid + a
per-process counter — pid-only suffixes collide between hosts sharing
one directory over a network filesystem — and stale temp files left by
crashed writers are garbage-collected opportunistically on the next
write into the same shard directory.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import re
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.reliability.envelope import EnvelopeError, open_envelope, seal_envelope
from repro.reliability.iofaults import RAW_IO, IOBackend
from repro.sweep.spec import SweepPoint

__all__ = [
    "CacheAudit",
    "DEFAULT_CACHE_DIR",
    "QUARANTINE_DIR",
    "ResultCache",
    "SIBLINGS",
    "TMP_MAX_AGE_S",
]

#: Default cache location for the CLIs (overridable via ``--cache-dir``).
DEFAULT_CACHE_DIR = pathlib.Path("~/.cache/repro/sweep")

#: Temp files older than this are presumed crashed-writer leftovers and
#: garbage-collected on the next write into their shard directory.  A
#: healthy writer holds a temp file for milliseconds; ten minutes leaves
#: generous headroom for a paused process on a loaded host.
TMP_MAX_AGE_S = 600.0

#: Subdirectory quarantined defects move to.  Deliberately longer than
#: the two-hex shard names, so ``??/*.json`` globs never see it.
QUARANTINE_DIR = "quarantine"

#: Sibling files kept beside an entry as ``<key>.<kind>.json``, by
#: kind, with the type of the value each stores: an observed run's
#: summary and a report page's link-heatmap text.  A sibling is never
#: counted or scanned as an entry, moves with its entry into
#: quarantine, is quarantined alone when it is itself defective, and is
#: served whether or not its point has a result entry.
SIBLINGS: Dict[str, type] = {"obs": dict, "heatmap": str}

#: Host component of temp names, filesystem-safe.  Distinguishes
#: writers on different hosts sharing one cache directory.
_HOST_TOKEN = re.sub(r"[^A-Za-z0-9_.-]", "-", socket.gethostname()) or "host"

#: Per-process counter: two stores of the same key from one process
#: (e.g. concurrent threads) never reuse a temp name.
_TMP_COUNTER = itertools.count()

#: Fields an entry's result dict must carry to be considered intact.
_REQUIRED_RESULT_FIELDS = (
    "algorithm",
    "elapsed_us",
    "num_rounds",
    "num_transfers",
    "link_utilization",
    "metrics",
)


def _result_of(body: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
    """An entry body's ``(result, compute_s)``; ``KeyError`` on a gap (a
    ``compute_s`` of 0.0 would silently zero the speedup accounting)."""
    result = body["result"]
    for field in _REQUIRED_RESULT_FIELDS:
        if field not in result:
            raise KeyError(field)
    return result, float(body["compute_s"])


@dataclass
class CacheAudit:
    """Outcome of one offline :meth:`ResultCache.verify_all` scan."""

    #: Entries whose sha256 verified.
    verified: int = 0
    #: Defects found *by this scan* and moved to quarantine.
    quarantined_now: int = 0
    #: Entries sitting in the quarantine directory after the scan.
    quarantined_total: int = 0

    def summary(self) -> str:
        return (
            f"{self.verified} verified, "
            f"{self.quarantined_now} newly quarantined "
            f"({self.quarantined_total} total in quarantine)"
        )


class ResultCache:
    """Filesystem-backed memoization of sweep-point results.

    Parameters
    ----------
    root:
        Cache directory (created lazily on first write).
    io:
        Filesystem backend; tests inject
        :class:`~repro.reliability.iofaults.FaultyIO` here.

    Attributes
    ----------
    quarantines:
        Defects this instance has moved to the quarantine directory
        (one per quarantined key, each with a reason record).
    """

    def __init__(
        self,
        root: Union[str, pathlib.Path],
        *,
        io: IOBackend = RAW_IO,
    ) -> None:
        self.root = pathlib.Path(root).expanduser()
        self.io = io
        self.quarantines = 0

    def path_for(self, key: str) -> pathlib.Path:
        """Entry path for a content hash."""
        return self.root / key[:2] / f"{key}.json"

    def sibling_path(self, key: str, kind: str) -> pathlib.Path:
        """Path of the ``kind`` sibling of a content hash (:data:`SIBLINGS`).

        Siblings live *beside* the result entry, never inside it: the
        result file's bytes — and the point's cache key — are identical
        whether or not the run was observed or its page rendered.
        """
        return self.root / key[:2] / f"{key}.{kind}.json"

    @property
    def quarantine_root(self) -> pathlib.Path:
        """Directory quarantined defects are moved to."""
        return self.root / QUARANTINE_DIR

    # -- read --------------------------------------------------------------
    def load(
        self, point: SweepPoint, key: str
    ) -> Optional[Tuple[Dict[str, Any], float]]:
        """``(result_dict, original_compute_seconds)`` or ``None`` on miss.

        ``key`` is ``point.key()``, which the caller computes once per
        point and passes to every method here.  Any defect — an
        unreadable or torn file, a failed envelope checksum, missing
        fields, or a stored payload that does not match the point (stale
        format, hash collision) — counts as a miss; the bad entry is
        quarantined *together with its siblings* so all are recomputed
        and rewritten rather than tripping every future run.  (Leaving a
        ``<key>.obs.json`` sibling behind would let a stale-format
        observation survive the recompute and be served beside the fresh
        result.)
        """
        return self._read(point, key, self.path_for(key), _result_of)

    def load_sibling(
        self, point: SweepPoint, key: str, kind: str
    ) -> Optional[Any]:
        """The stored ``kind`` sibling of ``point``, or ``None``.

        A sibling needs no result entry beside it, and ``None`` also
        covers a result hit with no sibling (an unobserved sweep, a
        page never rendered) — that is normal, not a defect, so nothing
        is quarantined here unless the sibling itself is corrupt or
        stale, and then it goes alone.
        """

        def value_of(body: Dict[str, Any]) -> Any:
            if not isinstance(body[kind], SIBLINGS[kind]):
                raise TypeError(f"{kind} must be a {SIBLINGS[kind].__name__}")
            return body[kind]

        path = self.sibling_path(key, kind)
        return self._read(point, key, path, value_of, quarantine=[path])

    def _read(
        self,
        point: SweepPoint,
        key: str,
        path: pathlib.Path,
        value_of: Callable[[Dict[str, Any]], Any],
        quarantine: Optional[List[pathlib.Path]] = None,
    ) -> Optional[Any]:
        """``value_of`` the verified body at ``path``, or ``None``.

        A missing file is a miss; a failed envelope, another point's
        payload or a body ``value_of`` rejects is a defect, and moves
        ``quarantine`` (default: the entry and its siblings) aside.
        """
        try:
            text = self.io.read_text(path)
        except OSError:
            return None
        try:
            body = open_envelope(text)
            if body["point"] != point.payload():
                raise ValueError("stored payload does not match the point")
            return value_of(body)
        except EnvelopeError as exc:
            reason = str(exc)
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"bad-entry: {exc}"
        self._quarantine(key, reason, paths=quarantine)
        return None

    # -- write -------------------------------------------------------------
    def store(
        self, point: SweepPoint, key: str, result: Dict[str, Any],
        compute_s: float,
    ) -> None:
        """Persist one evaluated point (atomic replace, v3 envelope)."""
        body = {
            "point": point.payload(),
            "result": result,
            "compute_s": compute_s,
        }
        self._write_atomic(self.path_for(key), seal_envelope(body))

    def store_sibling(
        self, point: SweepPoint, key: str, kind: str, value: Any
    ) -> None:
        """Persist one point's ``kind`` sibling (atomic replace, v3 envelope)."""
        body = {"point": point.payload(), kind: value}
        self._write_atomic(self.sibling_path(key, kind), seal_envelope(body))

    def _write_atomic(self, path: pathlib.Path, text: str) -> None:
        """Temp-file + ``replace`` write of ``text``, with stale-temp GC.

        The temp name is unique per (host, pid, in-process counter):
        concurrent writers — including workers on *different hosts*
        sharing one cache directory — never clobber each other's temp
        files, and the atomic replace means the last writer wins with a
        complete entry (all writers of one key produce identical results,
        so which one wins is immaterial).
        """
        self.io.mkdir(path.parent)
        self.gc_stale_tmp(path.parent)
        tmp = path.with_name(
            f"{path.name}.{_HOST_TOKEN}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        )
        self.io.write_text(tmp, text)
        self.io.replace(tmp, path)

    # -- quarantine --------------------------------------------------------
    def _quarantine(
        self,
        key: str,
        reason: str,
        *,
        paths: Optional[List[pathlib.Path]] = None,
    ) -> None:
        """Move defective files for ``key`` aside, with a reason record.

        Defaults to the entry and all its siblings.  Each moved
        file keeps its name under ``quarantine/``; a ``.reason.json``
        record per key states what failed and when, so the evidence of
        *why* a recompute happened survives the recompute.  A second
        quarantine of the same key overwrites the first — the latest
        corrupt copy is the interesting one.  Failures here degrade to
        the old delete-free behaviour (the entry stays, the next read
        re-trips); quarantine is best-effort evidence preservation, and
        a cache must never be able to fail a sweep.
        """
        if paths is None:
            paths = [self.path_for(key)]
            paths += [self.sibling_path(key, kind) for kind in SIBLINGS]
        self.io.mkdir(self.quarantine_root)
        moved = []
        for path in paths:
            try:
                self.io.replace(path, self.quarantine_root / path.name)
                moved.append(path.name)
            except OSError:
                pass  # missing sibling, or the move itself failed
        if not moved:
            return
        self.quarantines += 1
        record = {
            "key": key,
            "reason": reason,
            "files": moved,
            "quarantined_at": time.time(),
        }
        try:
            self.io.write_text(
                self.quarantine_root / f"{key}.reason.json",
                json.dumps(record, sort_keys=True),
            )
        except OSError:
            pass  # the moved bytes are the evidence; the record is a bonus

    # -- maintenance -------------------------------------------------------
    def gc_stale_tmp(
        self,
        directory: Optional[pathlib.Path] = None,
        max_age_s: Optional[float] = None,
    ) -> int:
        """Delete crashed-writer temp files; returns how many were removed.

        A writer that dies between creating its temp file and the atomic
        replace leaks ``<key>.json.<host>.<pid>.<n>.tmp`` forever.  Every
        write sweeps its own shard directory (cheap: shard dirs are
        256-way), deleting temp files older than ``max_age_s`` (default
        :data:`TMP_MAX_AGE_S`) — young ones may belong to a live writer
        mid-replace and are left alone.  With no ``directory``, sweeps
        the whole cache.
        """
        cutoff = time.time() - (TMP_MAX_AGE_S if max_age_s is None else max_age_s)
        if directory is not None:
            candidates = directory.glob("*.tmp")
        else:
            candidates = self.root.glob("??/*.tmp")
        removed = 0
        for tmp in candidates:
            try:
                if tmp.stat().st_mtime <= cutoff:
                    self.io.unlink(tmp)
                    removed += 1
            except OSError:
                pass  # vanished under a concurrent GC, or unreadable
        return removed

    def verify_all(self) -> CacheAudit:
        """Offline integrity scan of every result entry.

        Opens each ``??/<key>.json`` entry (siblings are not entries)
        through the envelope layer: a verifying entry counts
        ``verified``; anything else — a missing or foreign header, a
        torn write, a failed checksum — is quarantined exactly as a
        sweep-time read would, and counts ``quarantined_now``.
        Payload/point agreement is *not* checked (the scan has no
        :class:`~repro.sweep.spec.SweepPoint` to compare against); a
        wrong-payload entry is caught at load time.
        """
        audit = CacheAudit()
        for path in sorted(self._entry_paths()):
            key = path.stem
            try:
                text = self.io.read_text(path)
            except OSError:
                continue  # vanished under a concurrent writer
            try:
                open_envelope(text)
                audit.verified += 1
            except EnvelopeError as exc:
                self._quarantine(key, str(exc))
                audit.quarantined_now += 1
        audit.quarantined_total = sum(
            1
            for p in self.quarantine_root.glob("*.json")
            if not p.name.endswith(".reason.json")
        )
        return audit

    def _entry_paths(self) -> List[pathlib.Path]:
        """Every ``??/<key>.json`` result entry; siblings have a dotted stem."""
        return [p for p in self.root.glob("??/*.json") if "." not in p.stem]

    def __len__(self) -> int:
        """Number of result entries on disk (siblings not counted)."""
        return len(self._entry_paths())

    def __repr__(self) -> str:
        return f"<ResultCache root={str(self.root)!r}>"
