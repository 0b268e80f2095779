"""Self-verifying envelope (repro-cache/3) tests."""

from __future__ import annotations

import json

import pytest

from repro.reliability.envelope import (
    ENTRY_SCHEMA,
    EnvelopeError,
    open_envelope,
    seal_envelope,
)
from tests.cache_entries import edit_body, sealed, split, v2_entry

BODY = {
    "point": {"machine": "paragon:4x4", "seed": 0},
    "result": {"elapsed_us": 12.375, "metrics": {"rounds": 3}, "ratio": 1.0},
    "compute_s": 0.0078125,
}


class TestSealOpen:
    def test_roundtrip(self):
        text = seal_envelope(BODY)
        assert split(text)[0].startswith(f"{ENTRY_SCHEMA} ")
        assert open_envelope(text) == BODY

    def test_layout_is_a_header_line_over_the_body_text(self):
        """The header's digest is the sha256 of every byte after it."""
        text = seal_envelope(BODY)
        assert json.loads(split(text)[1]) == BODY
        assert sealed(split(text)[1]) == text

    def test_sealing_is_key_order_independent(self):
        reordered = {k: BODY[k] for k in sorted(BODY, reverse=True)}
        assert seal_envelope(reordered) == seal_envelope(BODY)


class TestDefects:
    def test_flipped_bit_fails_checksum(self):
        text = edit_body(seal_envelope(BODY), lambda b: b.replace("12.375", "12.875"))
        with pytest.raises(EnvelopeError, match="checksum-mismatch"):
            open_envelope(text)

    @pytest.mark.parametrize("edit", [
        lambda body: body.replace(",", ", ", 1),
        lambda body: body.replace('"ratio":1.0', '"ratio":1.00'),
        lambda body: body + "\n",
    ], ids=["whitespace", "float-spelling", "trailing-newline"])
    def test_every_stored_byte_is_covered(self, edit):
        """Edits the v2 canonical form ignored: same JSON value, new bytes."""
        text = edit_body(seal_envelope(BODY), edit)
        assert json.loads(split(text)[1]) == BODY
        with pytest.raises(EnvelopeError, match="checksum-mismatch"):
            open_envelope(text)

    def test_truncated_body_is_not_a_flipped_bit(self):
        text = seal_envelope(BODY)
        for cut in (len(split(text)[0]) + 1, len(text) // 2, len(text) - 1):
            with pytest.raises(EnvelopeError, match="^truncated"):
                open_envelope(text[:cut])

    def test_torn_header_is_truncated(self):
        text = seal_envelope(BODY)
        for cut in (0, 5, len(ENTRY_SCHEMA) + 1, len(split(text)[0])):
            with pytest.raises(EnvelopeError, match="^truncated"):
                open_envelope(text[:cut])

    def test_verified_body_that_does_not_parse(self):
        with pytest.raises(EnvelopeError, match="invalid-json"):
            open_envelope(sealed("{ torn write !!!"))

    def test_non_object_body(self):
        with pytest.raises(EnvelopeError, match="bad-envelope"):
            open_envelope(sealed("[1, 2, 3]"))

    def test_unknown_schema_is_corrupt_not_guessed(self):
        text = seal_envelope(BODY).replace(ENTRY_SCHEMA, "repro-cache/99", 1)
        with pytest.raises(EnvelopeError, match="bad-envelope"):
            open_envelope(text)

    def test_header_without_digest(self):
        with pytest.raises(EnvelopeError, match="bad-envelope"):
            open_envelope(f"{ENTRY_SCHEMA}\n{json.dumps(BODY)}")

    def test_foreign_text(self):
        with pytest.raises(EnvelopeError, match="bad-envelope"):
            open_envelope("{ torn write !!!")


class TestRetiredFormats:
    """Older formats are defects, not second formats."""

    def test_v2_entry_is_a_bad_envelope(self):
        with pytest.raises(EnvelopeError, match="bad-envelope"):
            open_envelope(v2_entry(seal_envelope(BODY)))

    def test_plain_entry_is_a_bad_envelope(self):
        with pytest.raises(EnvelopeError, match="bad-envelope"):
            open_envelope(json.dumps(BODY))

    def test_null_schema_is_a_bad_envelope(self):
        with pytest.raises(EnvelopeError, match="bad-envelope"):
            open_envelope(json.dumps(dict(BODY, schema=None)))
