"""Self-verifying storage envelopes (``repro-cache/3``).

A v3 cache entry is one header line, the schema and the sha256 of the
body text, followed by the body's JSON::

    repro-cache/3 <hex sha256 of everything after the newline>
    {"compute_s":0.0078125,"point":{...},"result":{...}}

:func:`seal_envelope` encodes the body once and hashes exactly the
text it returns for writing; :func:`open_envelope` checks the digest
over the stored text *before* it parses the body, once.  Every stored
byte after the header is covered, so any change to it — a flipped bit,
added whitespace, ``1.0`` written as ``1.00`` — is a defect.

A defect raises :class:`EnvelopeError`, whose message is the quarantine
reason; its prefix names the kind: ``bad-envelope`` (no ``repro-cache/3
<sha256>`` header — a v2 or pre-envelope entry, an unknown schema, a
foreign file — or a body that is not a JSON object), ``truncated`` (the
text ends inside its header line, or its body fails the digest and does
not parse: a torn or cut-short write, or damage to its syntax),
``checksum-mismatch`` (the body parses but fails the digest: bit rot or
an edit) and ``invalid-json`` (a body that matches its digest but does
not parse, which only a hand-made entry can be).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

from repro.errors import ReproError

__all__ = ["ENTRY_SCHEMA", "EnvelopeError", "open_envelope", "seal_envelope"]

#: Schema tag of checksummed entries.  Bump on incompatible envelope
#: layout changes; readers treat unknown schemas as corrupt (quarantine,
#: never serve) rather than guessing.
ENTRY_SCHEMA = "repro-cache/3"

#: How every entry's text starts: the schema, a space, the digest.
_HEADER = f"{ENTRY_SCHEMA} "


class EnvelopeError(ReproError):
    """A storage envelope failed verification or parsing.

    The message is the quarantine *reason*: a machine-checkable prefix
    naming the defect's kind, plus human detail.
    """


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def seal_envelope(body: Dict[str, Any]) -> str:
    """The ``repro-cache/3`` entry text of ``body``, ready to write."""
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return f"{_HEADER}{_sha256(text)}\n{text}"


def open_envelope(text: str) -> Dict[str, Any]:
    """Verify stored entry ``text``, then parse it; returns its body.

    Raises :class:`EnvelopeError` with a reason prefixed by the
    defect's kind (see the module docstring).
    """
    header, newline, body_text = text.partition("\n")
    if not newline and _HEADER.startswith(header[: len(_HEADER)]):
        raise EnvelopeError(
            f"truncated: {len(text)} bytes end inside the header line"
        )
    if not header.startswith(_HEADER):
        raise EnvelopeError(
            f"bad-envelope: no {ENTRY_SCHEMA} header (starts {text[:24]!r})"
        )
    stored, actual = header[len(_HEADER):], _sha256(body_text)
    try:
        if actual != stored:
            json.loads(body_text)  # parses: rot, not a cut-short write
            raise EnvelopeError(
                f"checksum-mismatch: stored {stored[:12]}.., "
                f"recomputed {actual[:12]}.."
            )
        body = json.loads(body_text)
    except ValueError as exc:
        kind = "invalid-json" if actual == stored else "truncated"
        raise EnvelopeError(f"{kind}: {exc}") from None
    if not isinstance(body, dict):
        raise EnvelopeError(
            f"bad-envelope: body is {type(body).__name__}, not an object"
        )
    return body
