"""Serving side of state sync: offers, manifests, chunks, ledger suffixes.

A :class:`StateSyncServer` is owned by a replica and answers pull
requests from lagging peers.  It serves the newest checkpoint recorded at
or below its commit frontier, and the ledger up to that frontier — or,
for a new-view catch-up (Alg. 2), up to its newest pre-prepared batch.
The client's install commits only what the ledger proves, so a tail the
service may still roll back is installed pre-prepared, never committed.

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
        if record is not None and record.ledger_end >= 1:
            return record.ledger_end
        return 1 if len(replica.ledger) >= 1 else 0

    # -- request handlers ------------------------------------------------------

    def on_probe(self, src: str, msg: tuple) -> None:
        replica = self.replica
        if replica.syncing or len(replica.ledger) == 0:
            return  # mid-sync ourselves: nothing trustworthy to offer
        cp = self.stable_checkpoint()
        if cp is not None and cp.seqno > 0:
            chunks, _ = self._chunked(cp)
            offer = SyncOffer(
                cp_seqno=cp.seqno,
                cp_digest=cp.digest(),
                cp_ledger_size=cp.ledger_size,
                cp_ledger_root=cp.ledger_root,
                n_chunks=len(chunks),
                tip_seqno=replica.committed_upto,
                view=replica.view,
            )
        else:
            # No stable checkpoint yet: the client replays from its own
            # genesis checkpoint, so only the ledger needs to travel.
            # (Unreachable once the prefix is garbage-collected — GC only
            # ever runs above a stable checkpoint — but guard anyway.)
            if replica.ledger.base_index > 0:
                return
            offer = SyncOffer(
                cp_seqno=0,
                cp_digest=b"",
                cp_ledger_size=1,
                cp_ledger_root=replica.ledger.root_at(1),
                n_chunks=0,
                tip_seqno=replica.committed_upto,
                view=replica.view,
            )
        replica.send(src, offer.to_wire())

    def on_get_manifest(self, src: str, msg: tuple) -> None:
        if len(msg) != 2 or not isinstance(msg[1], int):
            return
        cp_seqno = msg[1]
        cp = self.stable_checkpoint()
        if cp is None or cp.seqno != cp_seqno:
            return  # a newer checkpoint became stable; the client re-probes
        _, manifest = self._chunked(cp)
        self.replica.send(src, manifest.to_wire())

    def on_get_chunk(self, src: str, msg: tuple) -> None:
        if len(msg) != 3 or not isinstance(msg[1], int) or not isinstance(msg[2], int):
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
        """Serve a ledger suffix, bounded below by the retained prefix.

        Requests come in two forms (4th wire field ``from_checkpoint``),
        each with a 5th field ``new_view`` that extends the suffix to the
        newest pre-prepared batch:

        - splice (False): ``base_len``/``base_root`` describe the client's
          committed prefix; when it is bit-identical to ours and reaches
          into our retained region, only ``[base_len, end)`` travels.
        - checkpoint-rooted (True): the client holds the served
          checkpoint's chunks and asks for exactly ``[cp.ledger_size,
          end)`` — the suffix it can verify against the manifest frontier
          — plus our index of the requests executed at or below the
          checkpoint (``executed``, empty for a splice).

        A splice request reaching *below* the retained prefix (or one
        whose prefix diverges while ours is partially garbage-collected)
        is **refused** with ``sync-ledger-refused``: the entries that
        would prove the splice no longer exist, so the client must fall
        back to a full checkpoint transfer.
        """
        if len(msg) != 5:
            return
        base_len, base_root, from_checkpoint = msg[1], msg[2], bool(msg[3])
        replica = self.replica
        end = self._served_ledger_end(bool(msg[4]))
        if end < 1:
            return
        retained = replica.ledger.base_index
        if from_checkpoint:
            # Validate against the checkpoint this transfer was *served*
            # from (the cache — still pinned and retained) first: the
            # newest stable checkpoint may have advanced while the client
            # pulled chunks, and forcing a restart against the new one
            # could livelock a slow transfer.  Fall back to the current
            # stable checkpoint for clients rooted directly at it.
            served = self._manifest
            matches = served is not None and (
                served.cp_ledger_size == base_len and served.cp_ledger_root == base_root
            )
            if not matches:
                cp = self.stable_checkpoint()
                matches = cp is not None and (
                    cp.ledger_size == base_len and cp.ledger_root == base_root
                )
            if not matches or base_len < retained or base_len > end:
                return  # stale request; the client times out and re-probes
            self._cache_last_used = replica.now
            start = base_len
        elif (
            isinstance(base_len, int)
            and max(1, retained) <= base_len <= end
            and base_len <= len(replica.ledger)
            and replica.ledger.root_at(base_len) == base_root
        ):
            # The client's committed prefix is bit-identical to ours:
            # only the suffix needs to travel.
            start = base_len
        elif retained == 0:
            start = 0
        else:
            # The splice point is unprovable: either it lies below the
            # prefix we garbage-collected, or the prefixes diverge and a
            # full-from-genesis ledger no longer exists here.
            replica.metrics.bump("sync_suffix_refusals")
            replica.send(src, ("sync-ledger-refused", retained))
            return
        fragment = replica.ledger.fragment(start, end)
        replica.submit("append", len(fragment) * replica.costs.ledger_append)
        replica.metrics.bump("sync_ledger_serves")
        # A suffix does not carry the governance history below its base;
        # the governance chain (quorum-signed end-of-configuration
        # receipts) lets a joiner that missed a reconfiguration derive
        # the configuration schedule anyway, anchored at genesis.
        chain_wire = replica.gov_chain.to_wire() if start > 0 else None
        # A client rooted at the checkpoint knows no request executed at or
        # below it: our index (it keeps those entries) tells it a client's
        # retransmission of one from a request no primary ordered yet.
        executed = tuple(
            (d, *split_location(located)) for d, located in replica.tx_locations.items()
        ) if from_checkpoint else ()
        replica.send(
            src,
            (
                "sync-ledger",
                start,
                fragment.entry_wires,
                replica.view,
                chain_wire,
                executed,
            ),
        )

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
