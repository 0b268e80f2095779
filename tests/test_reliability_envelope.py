"""Self-verifying envelope (repro-cache/2) tests."""

from __future__ import annotations

import json

import pytest

from repro.reliability import (
    ENTRY_SCHEMA_V2,
    EnvelopeError,
    open_envelope,
    seal_envelope,
)
from repro.reliability.envelope import canonical_digest

BODY = {
    "point": {"machine": "paragon:4x4", "seed": 0},
    "result": {"elapsed_us": 12.375, "metrics": {"rounds": 3}},
    "compute_s": 0.0078125,
}


class TestSealOpen:
    def test_roundtrip(self):
        env = seal_envelope(BODY)
        assert env["schema"] == ENTRY_SCHEMA_V2
        assert open_envelope(json.dumps(env)) == BODY

    def test_digest_survives_a_disk_roundtrip(self):
        # The digest is over canonical JSON, and Python floats
        # round-trip exactly through json — so parse + re-serialise +
        # re-parse must still verify.
        once = json.dumps(seal_envelope(BODY), sort_keys=True)
        twice = json.dumps(json.loads(once), sort_keys=True)
        body = open_envelope(twice)
        assert canonical_digest(body) == json.loads(twice)["sha256"]

    def test_digest_is_key_order_independent(self):
        reordered = {k: BODY[k] for k in sorted(BODY, reverse=True)}
        assert canonical_digest(reordered) == canonical_digest(BODY)


class TestDefects:
    def test_flipped_bit_fails_checksum(self):
        env = seal_envelope(BODY)
        env["body"]["result"]["elapsed_us"] = 99.0
        with pytest.raises(EnvelopeError, match="checksum-mismatch"):
            open_envelope(json.dumps(env))

    def test_invalid_json(self):
        with pytest.raises(EnvelopeError, match="invalid-json"):
            open_envelope("{ torn write !!!")

    def test_non_object_entry(self):
        with pytest.raises(EnvelopeError, match="bad-envelope"):
            open_envelope("[1, 2, 3]")

    def test_unknown_schema_is_corrupt_not_guessed(self):
        env = seal_envelope(BODY)
        env["schema"] = "repro-cache/99"
        with pytest.raises(EnvelopeError, match="unknown schema"):
            open_envelope(json.dumps(env))

    def test_missing_body_or_digest(self):
        with pytest.raises(EnvelopeError, match="bad-envelope"):
            open_envelope(json.dumps({"schema": ENTRY_SCHEMA_V2}))
        with pytest.raises(EnvelopeError, match="bad-envelope"):
            open_envelope(
                json.dumps({"schema": ENTRY_SCHEMA_V2, "body": {}, "sha256": 7})
            )


class TestSchemaLess:
    """The plain pre-envelope format is a defect, not a second format."""

    def test_plain_entry_is_a_bad_envelope(self):
        with pytest.raises(EnvelopeError, match="bad-envelope"):
            open_envelope(json.dumps(BODY))

    def test_null_schema_is_a_bad_envelope(self):
        with pytest.raises(EnvelopeError, match="bad-envelope"):
            open_envelope(json.dumps(dict(BODY, schema=None)))
