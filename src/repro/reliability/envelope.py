"""Self-verifying storage envelopes (``repro-cache/2``).

A v2 cache entry wraps its payload in an envelope carrying a sha256 of
the payload's canonical JSON form::

    {"schema": "repro-cache/2",
     "sha256": "<hex digest of canonical(body)>",
     "body": {...}}

:func:`seal_envelope` builds one; :func:`open_envelope` verifies and
unwraps it, raising :class:`EnvelopeError` on any defect — a digest
mismatch (torn write, bit rot, truncation that still parses), a
malformed envelope, or a body that is not an object.  Verification
re-serialises the body with the same canonical ``json.dumps`` used at
seal time, so a JSON round-trip through disk is digest-stable (Python's
float repr round-trips exactly).

An entry without a ``schema`` key (the plain pre-envelope format) is a
``bad-envelope`` defect like any other: nothing unverified is served.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

from repro.errors import ReproError

__all__ = [
    "ENTRY_SCHEMA_V2",
    "EnvelopeError",
    "canonical_digest",
    "open_envelope",
    "seal_envelope",
]

#: Schema tag of checksummed entries.  Bump on incompatible envelope
#: layout changes; readers treat unknown schemas as corrupt (quarantine,
#: never serve) rather than guessing.
ENTRY_SCHEMA_V2 = "repro-cache/2"


class EnvelopeError(ReproError):
    """A storage envelope failed verification or parsing.

    The message is the quarantine *reason*: machine-checkable prefix
    (``checksum-mismatch``, ``bad-envelope``, ``invalid-json``) plus
    human detail.
    """


def canonical_digest(body: Dict[str, Any]) -> str:
    """sha256 hex digest of ``body``'s canonical JSON form."""
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def seal_envelope(body: Dict[str, Any]) -> Dict[str, Any]:
    """Wrap ``body`` in a verified ``repro-cache/2`` envelope."""
    return {
        "schema": ENTRY_SCHEMA_V2,
        "sha256": canonical_digest(body),
        "body": body,
    }


def open_envelope(text: str) -> Dict[str, Any]:
    """Parse and verify stored entry ``text``; returns its body.

    Raises
    ------
    EnvelopeError
        On unparseable JSON, a non-object entry, a missing or unknown
        schema, a malformed envelope, or — the case the whole layer
        exists for — a sha256 that does not match the body.
    """
    try:
        entry = json.loads(text)
    except ValueError as exc:
        raise EnvelopeError(f"invalid-json: {exc}") from None
    if not isinstance(entry, dict):
        raise EnvelopeError(
            f"bad-envelope: entry is {type(entry).__name__}, not an object"
        )
    schema = entry.get("schema")
    if schema != ENTRY_SCHEMA_V2:
        raise EnvelopeError(f"bad-envelope: unknown schema {schema!r}")
    body = entry.get("body")
    stored = entry.get("sha256")
    if not isinstance(body, dict) or not isinstance(stored, str):
        raise EnvelopeError("bad-envelope: missing body or sha256")
    actual = canonical_digest(body)
    if actual != stored:
        raise EnvelopeError(
            f"checksum-mismatch: stored {stored[:12]}.., "
            f"recomputed {actual[:12]}.."
        )
    return body
