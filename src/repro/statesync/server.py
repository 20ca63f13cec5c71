"""Serving side of state sync: offers, manifests, chunks, ledger suffixes.

A :class:`StateSyncServer` is owned by a replica and answers pull
requests from lagging peers.  It offers its newest checkpoint recorded at
or below its commit frontier, or checkpoint 0 (genesis, held by every
replica, so no chunks travel) when it has none, and serves one ledger
range: from that checkpoint's boundary up to the commit frontier — or,
for a new-view catch-up (Alg. 2), up to its newest pre-prepared batch.
A boundary below what it retains is never served.  The client's install
commits only what the ledger proves, so a tail the service may still
roll back is installed pre-prepared, never committed.

Chunking a checkpoint is work (one pass over the state), so the chunks
and manifest for the currently-served checkpoint are cached and reused
across clients until a newer checkpoint becomes stable.
"""

from __future__ import annotations

from ..crypto.hashing import Digest
from ..kvstore.checkpoints import chunk_digest, chunk_state
from ..lpbft.batch import split_location
from .client import MAX_RETRIES, RETRY_TIMEOUT
from .messages import SyncManifest, SyncOffer

# Largest checkpoint chunk a server sends, in bytes of encoded state.
CHUNK_BYTES = 65536


class StateSyncServer:
    """Answers ``sync-*`` requests from the owning replica's peers."""

    def __init__(self, replica) -> None:
        self.replica = replica
        # Cache for the served checkpoint: (cp_seqno, dC) -> (chunks, manifest).
        self._cache_key: tuple[int, Digest] | None = None
        self._chunks: list[bytes] = []
        self._manifest: SyncManifest | None = None
        # When a transfer last touched the served checkpoint; drives the
        # release of the "sync-serve" retention pin once clients go quiet.
        self._cache_last_used = 0.0

    # -- what is stable ------------------------------------------------------

    def stable_checkpoint(self):
        """The newest checkpoint still held locally whose recording batch
        is at or below the commit frontier, or None."""
        replica = self.replica
        return next(replica.checkpoints.stable(replica.committed_upto, newest_first=True), None)

    def _served_ledger_end(self, new_view: bool = False) -> int:
        """Ledger length at the commit frontier, or at the newest
        pre-prepared batch for a new-view catch-up."""
        replica = self.replica
        record = replica.batches.get(
            replica.next_seqno - 1 if new_view else replica.committed_upto)
        return record.ledger_end if record is not None and record.ledger_end >= 1 else 1

    # -- request handlers ------------------------------------------------------

    def on_probe(self, src: str, msg: tuple) -> None:
        replica = self.replica
        if replica.syncing:
            return  # mid-sync ourselves: nothing trustworthy to offer
        cp = self.stable_checkpoint()
        if cp is None or cp.seqno == 0:
            # Checkpoint 0, genesis, is held by every replica: no chunks.
            cp, n_chunks = replica.checkpoints.genesis, 0
        else:
            n_chunks = len(self._chunked(cp)[0])
        if cp.ledger_size < replica.ledger.base_index:
            return  # our retained ledger starts past its boundary
        offer = SyncOffer(
            cp_seqno=cp.seqno,
            cp_digest=cp.digest(),
            cp_ledger_size=cp.ledger_size,
            cp_ledger_root=cp.ledger_root,
            n_chunks=n_chunks,
            tip_seqno=replica.committed_upto,
            view=replica.view,
        )
        replica.send(src, offer.to_wire())

    def on_get_manifest(self, src: str, msg: tuple) -> None:
        if not isinstance(msg[1], int):
            return
        cp_seqno = msg[1]
        cp = self.stable_checkpoint()
        if cp is None or cp.seqno != cp_seqno:
            return  # a newer checkpoint became stable; the client re-probes
        _, manifest = self._chunked(cp)
        self.replica.send(src, manifest.to_wire())

    def on_get_chunk(self, src: str, msg: tuple) -> None:
        if not isinstance(msg[1], int) or not isinstance(msg[2], int):
            return
        cp_seqno, index = msg[1], msg[2]
        replica = self.replica
        if self._cache_key is None or self._cache_key[0] != cp_seqno:
            cp = self.stable_checkpoint()
            if cp is None or cp.seqno != cp_seqno:
                return
            self._chunked(cp)
        if not 0 <= index < len(self._chunks):
            return
        self._cache_last_used = replica.now
        chunk = self._chunks[index]
        replica.submit("hash", replica.costs.hash_fixed + len(chunk) * replica.costs.hash_per_byte)
        payload = ("sync-chunk", cp_seqno, index, chunk)
        behavior = replica.behavior
        if behavior is not None:
            payload = behavior.outgoing_sync_chunk(replica, src, payload)
            if payload is None:
                return
        replica.send(src, payload)

    def on_get_ledger(self, src: str, msg: tuple) -> None:
        """Serve the ledger past an offered checkpoint's boundary.

        ``("sync-get-ledger", size, root, new_view)``: ``size`` and
        ``root`` are the checkpoint's ledger binding, and ``new_view``
        extends the suffix to the newest pre-prepared batch.  We serve
        ``[size, end)`` only when ``size`` lies in what we retain and tree
        M's root there is ``root``; otherwise we stay silent and the
        client times out and re-probes.  The answer always carries our
        governance chain (quorum-signed end-of-configuration receipts:
        the configuration schedule, anchored at genesis, that the suffix
        verifies under) and our index of executed requests (the client
        keeps those at or below its checkpoint: a client's retransmission
        of one must not read as new work no primary will order).
        """
        size, root = msg[1], msg[2]
        replica = self.replica
        end = self._served_ledger_end(bool(msg[3]))
        if not (
            isinstance(size, int) and replica.ledger.base_index <= size <= end
            and replica.ledger.root_at(size) == root
        ):
            return
        self._cache_last_used = replica.now
        fragment = replica.ledger.fragment(size, end)
        replica.submit("append", len(fragment) * replica.costs.ledger_append)
        replica.metrics.bump("sync_ledger_serves")
        executed = tuple(
            (d, *split_location(located)) for d, located in replica.tx_locations.items())
        replica.send(src, (
            "sync-ledger", size, fragment.entry_wires, replica.view,
            replica.gov_chain.to_wire(), executed,
        ))

    # -- chunk cache ---------------------------------------------------------

    def release_stale_pin(self) -> None:
        """Drop the serve cache and its retention pin once no transfer
        has touched the served checkpoint for longer than a full client
        retry cycle — a pin held forever after one completed (or
        abandoned) transfer would silently cap ledger GC at that
        checkpoint for the rest of the run.  An in-flight client
        re-requests at least every ``RETRY_TIMEOUT``, so a live
        transfer keeps the pin refreshed."""
        replica = self.replica
        if self._cache_key is None:
            return
        if replica.now - self._cache_last_used > RETRY_TIMEOUT * (MAX_RETRIES + 2):
            replica.retention.release("sync-serve")
            self._cache_key = None
            self._chunks = []
            self._manifest = None

    def _chunked(self, cp) -> tuple[list[bytes], SyncManifest]:
        key = (cp.seqno, cp.digest())
        self._cache_last_used = self.replica.now
        if self._cache_key != key:
            replica = self.replica
            # Retention pin: while this checkpoint is being served, the
            # ledger suffix from its boundary must survive local GC so an
            # in-flight transfer can complete checkpoint-rooted.  The pin
            # moves forward when a newer checkpoint takes over the cache.
            replica.retention.pin("sync-serve", cp.ledger_size)
            replica.submit("hash", len(cp.state) * replica.costs.checkpoint_per_entry)
            self._chunks = chunk_state(cp.state, CHUNK_BYTES)
            self._manifest = SyncManifest(
                cp_seqno=cp.seqno,
                cp_digest=cp.digest(),
                cp_ledger_size=cp.ledger_size,
                cp_ledger_root=cp.ledger_root,
                chunk_digests=tuple(chunk_digest(c) for c in self._chunks),
                frontier=tuple(
                    (h, d) for h, d in replica.ledger.tree().frontier_at(cp.ledger_size)
                ),
            )
            self._cache_key = key
            replica.metrics.bump("sync_checkpoints_chunked")
        return self._chunks, self._manifest
