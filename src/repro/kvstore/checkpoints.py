"""Key-value store checkpoints (paper §3.4).

A checkpoint captures the full service state at a batch boundary plus the
ledger Merkle tree's size and root at that point, so replicas (and
auditors) can resume replay from the checkpoint instead of the start of
the ledger.  The checkpoint digest ``dC`` recorded in checkpoint
transactions is the canonical digest of the state.

For state transfer the snapshot is shipped in bounded-size *chunks*
(:func:`chunk_state`), each a canonical byte stream of ``(key, value)``
pairs.  A receiver reassembles them through :class:`ChunkReassembler`,
which verifies every chunk against the digests in the sender's manifest
and the reassembled state against ``dC`` — a tampered or reordered chunk
is rejected before any state is installed.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from .. import codec
from ..crypto.hashing import Digest, digest
from ..errors import KVError
from .store import KVStore, Snapshot, accumulator_digest, state_accumulator


def checkpoint_digest(state: Mapping[str, Any]) -> Digest:
    """Canonical digest of a raw state mapping, hashing every entry
    (matches :meth:`KVStore.state_digest` and :meth:`Snapshot.digest` for
    the same contents)."""
    return accumulator_digest(state_accumulator(state.items()))


@dataclass(frozen=True)
class Checkpoint:
    """A point-in-time value of the service state.

    ``seqno`` is the batch sequence number at which it was taken;
    ``ledger_size`` / ``ledger_root`` bind it to the ledger tree M at that
    point so auditors can check the ledger fragment they replay from it.
    """

    seqno: int
    state: Snapshot
    ledger_size: int
    ledger_root: Digest

    def digest(self) -> Digest:
        """The checkpoint digest dC recorded in checkpoint transactions."""
        return self.state.digest()

    def restore_into(self, store: KVStore) -> None:
        """Load this checkpoint's state into ``store``."""
        store.restore(self.state)

    @staticmethod
    def capture(store: KVStore, seqno: int, ledger_size: int, ledger_root: Digest) -> "Checkpoint":
        """Snapshot ``store`` at batch ``seqno``: O(keys written since the
        store's base), with the store's incremental accumulator carried."""
        if seqno < 0:
            raise KVError(f"checkpoint seqno must be non-negative, got {seqno}")
        return Checkpoint(seqno, store.snapshot(), ledger_size, ledger_root)

    def to_chunks(self, max_bytes: int) -> list[bytes]:
        """Serialize this checkpoint's state into bounded-size chunks."""
        return chunk_state(self.state, max_bytes)

    def to_wire(self) -> tuple:
        """``(seqno, key-sorted items, ledger_size, ledger_root)``."""
        return (self.seqno, tuple(sorted(self.state.items())), self.ledger_size, self.ledger_root)

    @staticmethod
    def from_wire(raw: tuple) -> "Checkpoint":
        """Parse :meth:`to_wire` output.  The wire carries no digest: the
        snapshot's accumulator is computed from the received items, and a
        claimed ``dC`` is compared against it, never adopted."""
        try:
            seqno, items, ledger_size, ledger_root = raw
            state = Snapshot(dict(items))
        except (TypeError, ValueError) as exc:
            raise KVError(f"malformed checkpoint: {exc}") from exc
        return Checkpoint(seqno, state, ledger_size, ledger_root)


def chunk_state(state: Mapping[str, Any], max_bytes: int) -> list[bytes]:
    """Split a state snapshot into canonical chunks of at most
    ``max_bytes`` each (a chunk may exceed the bound only when a single
    ``(key, value)`` pair does).

    Each chunk is a concatenation of canonical ``(key, value)`` pair
    encodings, keys in sorted order across the whole sequence — so any
    chunking of the same state reassembles to the same snapshot and the
    same :func:`checkpoint_digest`.  An empty state yields one empty
    chunk, so every checkpoint has at least one transferable unit.
    """
    if max_bytes < 1:
        raise KVError(f"chunk size must be positive, got {max_bytes}")
    chunks: list[bytes] = []
    current = bytearray()
    for key in sorted(state):
        encoded = codec.encode((key, state[key]))
        if current and len(current) + len(encoded) > max_bytes:
            chunks.append(bytes(current))
            current = bytearray()
        current.extend(encoded)
    chunks.append(bytes(current))
    return chunks


def chunk_digest(chunk: bytes) -> Digest:
    """Digest of one chunk's canonical bytes (the manifest entry)."""
    return digest(b"state-chunk|" + chunk)


class ChunkReassembler:
    """Digest-verified reassembly of a chunked checkpoint snapshot.

    Construct with the manifest's per-chunk digests and the expected
    checkpoint digest ``dC``; feed chunks in any order via :meth:`add`
    (which rejects tampered bytes); :meth:`reassemble` re-checks the full
    state against ``dC`` once every chunk arrived.
    """

    def __init__(self, chunk_digests: tuple, expected_digest: Digest) -> None:
        self.chunk_digests = tuple(chunk_digests)
        self.expected_digest = expected_digest
        self._chunks: dict[int, bytes] = {}

    def __len__(self) -> int:
        return len(self._chunks)

    @property
    def total(self) -> int:
        return len(self.chunk_digests)

    def missing(self) -> list[int]:
        return [i for i in range(self.total) if i not in self._chunks]

    def complete(self) -> bool:
        return len(self._chunks) == self.total

    def add(self, index: int, chunk: bytes) -> bool:
        """Accept chunk ``index`` if its digest matches the manifest.
        Returns False (and stores nothing) on mismatch or a bad index;
        duplicates of an already-verified chunk are idempotent."""
        if not 0 <= index < self.total:
            return False
        if not isinstance(chunk, (bytes, bytearray)):
            return False
        chunk = bytes(chunk)
        if chunk_digest(chunk) != self.chunk_digests[index]:
            return False
        self._chunks[index] = chunk
        return True

    def reassemble(self) -> Snapshot:
        """Rebuild the snapshot and verify it against ``dC``.

        Raises :class:`KVError` when chunks are missing, malformed, out
        of canonical key order, or the reassembled digest mismatches —
        the caller must not install anything in that case.  The
        accumulator computed for that check stays cached in the returned
        :class:`Snapshot`, so installing it hashes nothing again.
        """
        if not self.complete():
            raise KVError(f"missing chunks {self.missing()}")
        state: dict[str, Any] = {}
        previous_key: str | None = None
        for i in range(self.total):
            try:
                pairs = list(codec.decode_stream(self._chunks[i]))
            except Exception as exc:
                raise KVError(f"malformed chunk {i}: {exc}") from exc
            for pair in pairs:
                if not isinstance(pair, tuple) or len(pair) != 2 or not isinstance(pair[0], str):
                    raise KVError(f"malformed pair in chunk {i}")
                key, value = pair
                if previous_key is not None and key <= previous_key:
                    raise KVError("chunk keys not in canonical order")
                previous_key = key
                state[key] = value
        snapshot = Snapshot(state)
        if snapshot.digest() != self.expected_digest:
            raise KVError("reassembled state digest mismatches checkpoint digest")
        return snapshot
