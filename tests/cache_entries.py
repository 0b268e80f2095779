"""Hand-made cache entries for the storage tests.

A stored entry is ``repro-cache/3 <sha256 of the body text>``, a
newline, then the body's JSON.  The tests that damage, rewrite or read
a stored entry by hand go through :func:`reseal` (a changed body under
a valid digest, so the damage reaches the cache's payload and field
checks instead of the checksum) or :func:`edit_body` (a changed body
under the old digest).  :func:`sealed` writes the layout independently
of :func:`repro.reliability.seal_envelope`, so these tests also pin it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict

SCHEMA = "repro-cache/3"


def split(text: str) -> "tuple[str, str]":
    """``(header line, body text)`` of a stored entry."""
    header, _, body = text.partition("\n")
    return header, body


def sealed(body_text: str) -> str:
    """``body_text`` under a valid ``repro-cache/3`` header."""
    digest = hashlib.sha256(body_text.encode("utf-8")).hexdigest()
    return f"{SCHEMA} {digest}\n{body_text}"


def reseal(text: str, mutate: Callable[[Dict[str, Any]], Any]) -> str:
    """``text``'s body changed by ``mutate``, sealed again (valid digest)."""
    body = json.loads(split(text)[1])
    mutate(body)
    return sealed(json.dumps(body, sort_keys=True, separators=(",", ":")))


def edit_body(text: str, edit: Callable[[str], str]) -> str:
    """``text`` with its body text changed by ``edit``, header kept."""
    header, body = split(text)
    return f"{header}\n{edit(body)}"


def rewrite_body(path, mutate: Callable[[Dict[str, Any]], Any]) -> None:
    """Reseal the entry at ``path`` after ``mutate`` changes its body."""
    path.write_text(reseal(path.read_text(), mutate))


def v2_entry(text: str) -> str:
    """``text``'s body as a ``repro-cache/2`` entry: a retired format."""
    body = json.loads(split(text)[1])
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return json.dumps({
        "schema": "repro-cache/2",
        "sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "body": body,
    }, sort_keys=True)


def schema_less(text: str) -> str:
    """``text``'s body alone: the plain pre-envelope format."""
    return split(text)[1]
