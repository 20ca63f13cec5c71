"""SHA-256 hashing over canonical encodings.

All hashes in the library are 32-byte SHA-256 digests.  Structured values
are hashed over their canonical codec encoding, so any two parties that
agree on a value agree on its digest.
"""

from __future__ import annotations

import hashlib
from typing import Any

from .. import codec

DIGEST_SIZE = 32

Digest = bytes
"""Type alias for 32-byte SHA-256 digests."""

EMPTY_DIGEST: Digest = b"\x00" * DIGEST_SIZE
"""Digest used for empty trees / genesis checkpoints."""


def digest(data: bytes) -> Digest:
    """SHA-256 of raw bytes."""
    return hashlib.sha256(data).digest()


def digest_pair(left: Digest, right: Digest) -> Digest:
    """SHA-256 of the concatenation of two digests (Merkle interior node)."""
    return hashlib.sha256(left + right).digest()


def digest_value(value: Any) -> Digest:
    """SHA-256 of the canonical encoding of a structured value.  A sealed
    value is hashed once, over the bytes it carries."""
    if type(value) is codec.Sealed or type(value) is codec.SealedSeq:
        if value.digest is None:
            value.digest = hashlib.sha256(value.wire_bytes).digest()
        return value.digest
    return hashlib.sha256(codec.encode(value)).digest()


def hexdigest(data: bytes) -> str:
    """Hex string form of :func:`digest` for logs and error messages."""
    return hashlib.sha256(data).hexdigest()
