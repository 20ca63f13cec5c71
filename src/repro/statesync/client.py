"""Fetching side of state sync: a retrying, verifying state machine.

One :class:`StateSyncClient` is owned by each replica.  A sync session
fetches one thing: the server's offered checkpoint and the ledger past
it, ``[cp.ledger_size, end)`` (§3.4, §5.1; PBFT's state transfer has
the same shape).  A server without a stable checkpoint offers
checkpoint 0, genesis, which every replica holds.  The session walks
up to four phases::

    probe -> manifest -> chunks -> ledger -> install/resume

and skips what it already has: a checkpoint we hold with the same
seqno, digest and ledger binding travels no chunks.  When our own tree M
has the checkpoint's bound root at its ledger size we keep our own
ledger below the boundary (and, holding the checkpoint, need no
manifest either); otherwise the fetched suffix is seeded from the
manifest's tree frontier.

Every phase has a timeout (``RETRY_TIMEOUT``); a request that times out
is retried up to ``MAX_RETRIES`` times before the client *fails over*: the
current server is excluded and the session restarts from the best other
offer (or a fresh probe).  A server caught lying — a chunk that does not
hash to its manifest entry, a manifest inconsistent with its offer, a
suffix that fails root checks — is failed over immediately.

Chunk transfers *resume* across failovers: chunks are verified against
the manifest digests as they arrive, so when the replacement server
offers the **same** checkpoint (equal ``dC``, ledger binding, and chunk
count), the already-verified chunks are kept and only the missing ones
are re-requested.  (Chunking is deterministic given the state and
``CHUNK_BYTES``, so honest servers serving the same checkpoint produce
bit-identical chunks.)

Nothing is installed until everything verifies:

- each chunk's bytes against the manifest's ``chunk_digests``;
- the reassembled state (or the one we hold) against the checkpoint
  digest ``dC``;
- ``dC`` itself against the checkpoint transaction recorded in the
  fetched ledger (a Byzantine server cannot invent a checkpoint without
  also forging the signed ledger around it);
- the manifest's tree frontier against the checkpoint's bound ledger
  root and size;
- the server's governance chain against our genesis: the configuration
  schedule the suffix verifies under comes from it;
- the fetched ledger against every pre-prepare's signed ``root_m`` and
  ``root_g`` and the checkpoint's ledger binding — the one check the
  audit asks too (:meth:`repro.ledger.Ledger.unbound`);
- replayed batches against the outputs the ledger records (inside the
  install).

Duplicated or reordered network deliveries are harmless: chunks are
accepted idempotently by index and stale-phase messages are dropped.
"""

from __future__ import annotations

from ..errors import KVError, LedgerError, MerkleError, ProtocolError
from ..kvstore.checkpoints import Checkpoint, ChunkReassembler
from ..ledger import LedgerFragment
from ..lpbft.adoption import install_ledger, verify_fetched_ledger
from ..merkle.proofs import frontier_from_wire, frontier_root
from .messages import SyncManifest, SyncOffer

# Per-request timeout and the retries a server gets before the client
# fails over (also the serving side's pin grace, see server.py).
RETRY_TIMEOUT = 0.25
MAX_RETRIES = 3

# Chunk requests a client keeps in flight to its server.
CHUNK_WINDOW = 4

# The session state machine's phases.  Transitions (every phase also
# self-loops on timeout up to ``MAX_RETRIES`` and fails over on
# exhaustion or on any verification failure — see the table in the
# :class:`StateSyncClient` docstring):
#
#   IDLE ──start()──▶ PROBE ──first usable offer──▶ MANIFEST | CHUNKS | LEDGER
#   MANIFEST ──consistent manifest──▶ CHUNKS | LEDGER (checkpoint held)
#   CHUNKS ──all chunks verified──▶ LEDGER
#   LEDGER ──suffix verified + installed──▶ IDLE   (resume)
#   any ──failover──▶ best cached offer (re-enter at MANIFEST/CHUNKS/LEDGER)
#                     or PROBE when no offers remain
IDLE = "idle"
PROBE = "probe"
MANIFEST = "manifest"
CHUNKS = "chunks"
LEDGER = "ledger"


class StateSyncClient:
    """Pull-based catch-up for one lagging replica.

    **States and what they wait for**

    ========  ==========================================================
    phase     waiting for
    ========  ==========================================================
    IDLE      nothing; no session is running
    PROBE     ``sync-offer`` from any non-excluded peer (all were probed)
    MANIFEST  ``sync-manifest`` for the adopted offer's checkpoint
    CHUNKS    ``sync-chunk`` for each outstanding index (windowed)
    LEDGER    ``sync-ledger``: the suffix past the checkpoint's boundary
    ========  ==========================================================

    **Transitions.** ``start()`` probes every peer and enters PROBE.  The
    first structurally-valid offer is adopted: straight to LEDGER when we
    hold its checkpoint and our own ledger reaches its boundary with the
    root it binds (always so for checkpoint 0 on a replica that kept its
    genesis entry), to CHUNKS when it matches a cached partial transfer
    (resumption), to MANIFEST otherwise.  A verified manifest opens
    CHUNKS, or LEDGER for a checkpoint we hold; the last verified chunk
    opens LEDGER; a verified and installed suffix returns to IDLE and
    resumes the replica.

    **Failover.** Any timeout past ``MAX_RETRIES``, and *any*
    verification failure (tampered chunk, inconsistent manifest, suffix
    failing root/signature checks), excludes the current server and
    re-enters at the best cached offer — or PROBE when none remain.
    Chunk transfers resume across failovers when the replacement serves
    the same checkpoint.

    **Ledger GC interplay.** A server serves only a checkpoint whose
    boundary it retains, and only the suffix from that boundary, so a
    server's garbage-collected prefix never needs to travel: the
    checkpoint supersedes it.
    """

    def __init__(self, replica) -> None:
        self.replica = replica
        self.phase = IDLE
        self.server: str | None = None
        self.offer: SyncOffer | None = None
        self.manifest: SyncManifest | None = None
        self.reassembler: ChunkReassembler | None = None
        self.offers: dict[str, SyncOffer] = {}
        self.excluded: set[str] = set()
        self._inflight: set[int] = set()
        self._to_request: list[int] = []
        self._timer: int | None = None
        self._attempts = 0
        # Our own copy of the adopted offer's checkpoint, else None.
        self.held: Checkpoint | None = None
        # Alg. 2's catch-up: ``(view, slp, pplp digest, held-back
        # new-view)``, else None.
        self.target: tuple | None = None
        self._started_at = 0.0
        self._span = None  # open "state-sync" Span while tracing
        self.last_result: dict | None = None

    @property
    def active(self) -> bool:
        return self.phase != IDLE

    # -- session control ----------------------------------------------------

    def start(self, reason: str = "", target: tuple | None = None) -> None:
        """Suspend normal operation and catch up from a peer (no-op if a
        session is already running) — the replica's one recovery entry:
        lag, join, crash recovery, the view-change timer when it finds we
        missed a view, over-advanced our own while partitioned, or sit
        stuck behind a deep stash, and (with ``target``) a new view whose
        latest prepared batch we lack (Alg. 2): servers then serve through
        their newest pre-prepared batch, and the session gives up rather
        than re-probe once every offer missed the target."""
        replica = self.replica
        if replica.tracer.enabled and self._span is None:
            self._span = replica.tracer.span(
                "state-sync", replica.address, replica.now, reason=reason)
        if self.active:
            return
        peers = [p for p in replica.peer_addresses() if p not in self.excluded]
        if not peers:
            self.excluded.clear()
            peers = replica.peer_addresses()
        if not peers:
            return
        replica.syncing = True
        replica.ready = False
        self.target = target
        self._started_at = replica.now
        self.last_result = None
        self.offers = {}
        self._enter_probe(peers)
        replica.metrics.bump("sync_sessions_started")
        if reason:
            replica.metrics.bump(f"sync_started_{reason}")

    def abort(self) -> None:
        """Drop the session without resuming (crash modeling)."""
        self._close_span(aborted=True)
        self._cancel_timer()
        self.phase = IDLE
        self.server = None
        self.offer = None
        self.manifest = None
        self.reassembler = None
        self.offers = {}
        self._inflight = set()
        self._to_request = []
        self.held = None
        self.target = None

    def _close_span(self, **attrs) -> None:
        if self._span is not None:
            self._span.set(**attrs)
            self._span.finish(self.replica.now)
            self._span = None

    # -- lag detection ------------------------------------------------------

    def maybe_detect_lag(self) -> None:
        """Start a transfer when stashed pre-prepares show the service is
        further ahead than one checkpoint interval — those batches will
        never be individually retransmitted once peers checkpoint past
        them, so only a state transfer can recover.

        A deep stash alone is not lag: right after a resume the stash
        legitimately holds everything that arrived during the transfer,
        and draining it is normal processing.  Only a *gap* — the next
        needed pre-prepare absent while the horizon is far ahead — means
        we are cut off from batch-by-batch recovery.  (A stash that is
        contiguous but stuck anyway is caught by the view-change timer's
        no-progress branch.)
        """
        replica = self.replica
        if replica.syncing or not replica.pending_pps:
            return
        if self._stash_gap() > self.lag_threshold():
            replica.metrics.bump("sync_lag_detected")
            self.start("lag")

    def lag_threshold(self) -> int:
        params = self.replica.params
        return params.sync_lag_batches or params.checkpoint_interval

    def _stash_gap(self) -> int:
        """How far the stashed pre-prepare horizon is ahead of the commit
        frontier, or 0 when the stash reaches down to the next batch we
        can process (no gap — just work to do)."""
        replica = self.replica
        if any(item[0].seqno <= replica.next_seqno for item in replica.pending_pps):
            return 0
        horizon = max(item[0].seqno for item in replica.pending_pps)
        return horizon - max(replica.committed_upto, 0)

    # -- phases -------------------------------------------------------------

    def _enter_probe(self, peers: list[str] | None = None) -> None:
        # The manifest/reassembler pair survives probing: it is the
        # partial-transfer cache a same-checkpoint offer resumes from.
        self.phase = PROBE
        self.server = None
        self.offer = None
        self._inflight = set()
        if peers is None:
            peers = [p for p in self.replica.peer_addresses() if p not in self.excluded]
            if not peers:
                # Everyone failed us once; liveness beats blame — retry
                # all, but after a timeout: re-probing at once spins while
                # no peer can serve yet (every ledger ends below ours).
                self.excluded.clear()
                self._arm_timer()
                return
        for peer in peers:
            self.replica.send(peer, ("sync-probe",))
        self._arm_timer()

    def _adopt_offer(self, src: str, offer: SyncOffer) -> None:
        self.server = src
        self.offer = offer
        self._inflight = set()
        self._attempts = 0
        self.held = self._held(offer)
        if self.held is not None and self._own_prefix_reaches(offer):
            self.manifest = None
            self.reassembler = None
            self._enter_ledger()  # only the suffix needs to travel
        elif self._matches_partial_transfer(offer):
            # Same checkpoint as the transfer interrupted by the
            # failover: keep the already-verified chunks and request
            # only what is still missing.
            self.replica.metrics.bump("sync_transfers_resumed")
            self._enter_chunks()
        else:
            self.manifest = None
            self.reassembler = None
            self.phase = MANIFEST
            self.replica.send(src, ("sync-get-manifest", offer.cp_seqno))
            self._arm_timer()

    def _held(self, offer: SyncOffer) -> Checkpoint | None:
        """Our own copy of the offered checkpoint, or None."""
        return self.replica.checkpoints.held(
            offer.cp_seqno, offer.cp_digest, offer.cp_ledger_size, offer.cp_ledger_root)

    def _own_prefix_reaches(self, offer: SyncOffer) -> bool:
        """Does our own ledger reach the offered checkpoint's boundary with
        tree M's root there equal to the root it binds?  Then we keep our
        entries below the boundary instead of the manifest's frontier."""
        own, size = self.replica.ledger, offer.cp_ledger_size
        return own.base_index <= size <= len(own) and own.root_at(size) == offer.cp_ledger_root

    def _matches_partial_transfer(self, offer: SyncOffer) -> bool:
        """Does ``offer`` bind the very checkpoint our cached manifest (and
        verified chunks) belong to?  Equality of ``dC``, the ledger
        binding, and the chunk count means every cached chunk is still
        valid."""
        manifest = self.manifest
        return (
            manifest is not None
            and offer.cp_seqno == manifest.cp_seqno
            and offer.cp_digest == manifest.cp_digest
            and offer.cp_ledger_size == manifest.cp_ledger_size
            and offer.cp_ledger_root == manifest.cp_ledger_root
            and offer.n_chunks == len(manifest.chunk_digests)
        )

    def _enter_chunks(self) -> None:
        """Request the chunks still missing, or the suffix once there are
        none (a checkpoint we hold has none to fetch)."""
        if self.reassembler is None or self.reassembler.complete():
            self._enter_ledger()
            return
        self.phase = CHUNKS
        self._to_request = self.reassembler.missing()
        self._fill_window()
        self._arm_timer()

    def _enter_ledger(self) -> None:
        self.phase = LEDGER
        self._request_ledger()
        self._arm_timer()

    def _request_ledger(self) -> None:
        """Ask for the suffix from the offered checkpoint's boundary; a
        new-view catch-up asks through the newest pre-prepared batch."""
        offer = self.offer
        self.replica.send(self.server, (
            "sync-get-ledger", offer.cp_ledger_size, offer.cp_ledger_root, self.target is not None))

    # -- message handlers (dispatched by the replica) -------------------------

    def on_offer(self, src: str, msg: tuple) -> None:
        if not self.active or src in self.excluded:
            return
        try:
            offer = SyncOffer.from_wire(msg)
        except ProtocolError:
            return
        int_fields = (
            offer.cp_seqno, offer.cp_ledger_size, offer.n_chunks,
            offer.tip_seqno, offer.view,
        )
        if not all(isinstance(f, int) for f in int_fields):
            return
        if not isinstance(offer.cp_digest, bytes) or not isinstance(offer.cp_ledger_root, bytes):
            return
        if offer.tip_seqno < 0 or offer.cp_seqno < 0 or offer.cp_ledger_size < 1:
            return
        if offer.n_chunks < 1 and not (self._held(offer) and self._own_prefix_reaches(offer)):
            return  # no chunks and no manifest: nothing to take it from
        self.offers[src] = offer
        if self.phase == PROBE:
            self._adopt_offer(src, offer)

    def on_manifest(self, src: str, msg: tuple) -> None:
        if self.phase != MANIFEST or src != self.server:
            return
        try:
            manifest = SyncManifest.from_wire(msg)
        except ProtocolError:
            self._failover("bad_manifest")
            return
        offer = self.offer
        consistent = (
            manifest.cp_seqno == offer.cp_seqno
            and manifest.cp_digest == offer.cp_digest
            and manifest.cp_ledger_size == offer.cp_ledger_size
            and manifest.cp_ledger_root == offer.cp_ledger_root
            and len(manifest.chunk_digests) == offer.n_chunks
        )
        if consistent:
            try:
                peaks = frontier_from_wire(manifest.frontier)
                consistent = (
                    frontier_root(peaks) == manifest.cp_ledger_root
                    and sum(1 << height for height, _ in peaks) == manifest.cp_ledger_size
                )
            except MerkleError:
                consistent = False
        if not consistent:
            self._failover("bad_manifest")
            return
        self.manifest = manifest
        self.reassembler = None if self.held is not None else ChunkReassembler(
            manifest.chunk_digests, manifest.cp_digest)
        self._attempts = 0
        self._inflight = set()
        self._enter_chunks()

    def _fill_window(self) -> None:
        while len(self._inflight) < CHUNK_WINDOW and self._to_request:
            index = self._to_request.pop(0)
            self._inflight.add(index)
            self.replica.send(self.server, ("sync-get-chunk", self.offer.cp_seqno, index))

    def on_chunk(self, src: str, msg: tuple) -> None:
        if self.phase != CHUNKS or src != self.server:
            return
        if not isinstance(msg[2], int):
            self._failover("malformed_chunk")
            return
        cp_seqno, index, chunk = msg[1], msg[2], msg[3]
        if cp_seqno != self.offer.cp_seqno:
            return
        replica = self.replica
        size = len(chunk) if isinstance(chunk, (bytes, bytearray)) else 0
        replica.submit("hash", replica.costs.hash_fixed + size * replica.costs.hash_per_byte)
        if not self.reassembler.add(index, chunk):
            if index in self._inflight or (0 <= index < self.reassembler.total):
                replica.metrics.bump("sync_chunks_rejected")
                self._failover("tampered_chunk")
            return
        self._inflight.discard(index)
        self._attempts = 0
        replica.metrics.bump("sync_chunks_received")
        if self.reassembler.complete():
            self._enter_ledger()
        else:
            self._fill_window()
            self._arm_timer()

    def on_ledger(self, src: str, msg: tuple) -> None:
        if self.phase != LEDGER or src != self.server:
            return
        if not isinstance(msg[1], int) or not isinstance(msg[2], tuple) or not isinstance(msg[3], int):
            self._failover("malformed_ledger")
            return
        start, entry_wires, view, chain_wire, executed = msg[1:]
        if start != self.offer.cp_ledger_size:
            self._failover("bad_suffix_start")
            return
        replica = self.replica
        try:
            schedule = self._trusted_schedule(chain_wire)
            checkpoint = self._verified_checkpoint()
            ledger = self._verified_ledger(entry_wires, checkpoint, schedule)
        except (ProtocolError, LedgerError, MerkleError, KVError) as exc:
            replica.metrics.bump("sync_verification_failures")
            self._failover(f"verify:{type(exc).__name__}")
            return
        if not self._serves_target(ledger):
            self._failover("target_missed")
            return
        if replica.committed_upto > 0 and ledger.last_seqno() < replica.committed_upto:
            # Committed state is never replaced by a shorter ledger,
            # whatever the offer's view: ask another server.
            self._failover("shorter_ledger")
            return
        if (
            ledger.last_seqno() <= replica.committed_upto
            and replica.committed_upto > 0
            and view <= replica.view
        ):
            # The server offered nothing newer than we already have —
            # treat as success, normal operation resumes from here.  A
            # *higher* server view is newer even at an equal tip (we
            # recovered into a view change): fall through and install, so
            # the new view is adopted instead of stalling on stale
            # pre-prepares as the old view's primary.
            self._finish(checkpoint, ledger)
            return
        try:
            replayed = install_ledger(
                replica, ledger, checkpoint, schedule, self._executed_below(executed, checkpoint))
        except (ProtocolError, LedgerError, KVError) as exc:
            replica.metrics.bump("sync_verification_failures")
            self._failover(f"install:{type(exc).__name__}")
            return
        self._finish(checkpoint, ledger, view, replayed, len(entry_wires))

    @staticmethod
    def _executed_below(executed, checkpoint) -> dict:
        """The well-formed entries of the server's index of requests
        executed at or below our checkpoint (unprovable: a lying server
        can make us ignore a request, never change what we install)."""
        if not isinstance(executed, tuple):
            return {}
        return {
            item[0]: (item[1], item[2]) for item in executed
            if isinstance(item, tuple) and len(item) == 3 and isinstance(item[0], bytes)
            and isinstance(item[1], int) and isinstance(item[2], int)
            and item[1] <= checkpoint.seqno
        }

    def _serves_target(self, ledger) -> bool:
        """Is ``ledger`` of use?  Always without a target; for a new-view
        catch-up, when it holds the target batch or already runs in the
        target view."""
        if self.target is None:
            return True
        view, slp, pplp_digest, _ = self.target
        batches = ledger.batches()
        if batches and batches[-1].view >= view:
            return True
        return ledger.batch(slp) is not None and ledger.batch_pre_prepare(slp).digest() == pplp_digest

    def _trusted_schedule(self, chain_wire):
        """The configuration schedule the fetched ledger verifies under:
        our own, superseded by the server's governance chain when that
        chain verifies against our genesis and reaches further.

        The suffix does not carry the governance history below its
        checkpoint, and a replica constructed before a reconfiguration it
        missed has a genesis-only schedule: without the chain it would
        adopt the suffix under config 0 and never recognise itself as a
        member of the active configuration.  The chain is quorum-signed
        end-of-configuration receipts, so a Byzantine server still cannot
        fabricate governance history.
        """
        # Imported lazily: repro.receipts imports the lpbft messages, so
        # a module-level import would be circular.
        from ..errors import ReceiptError
        from ..receipts import verify_served_chain

        replica = self.replica
        try:
            chain, schedule = verify_served_chain(
                chain_wire, replica.gov_chain.genesis_config_wire,
                replica.params.pipeline, replica.backend,
            )
        except ReceiptError as exc:
            raise ProtocolError(f"sync governance chain invalid: {exc}") from exc
        own = replica.schedule.copy()
        if len(schedule.spans()) <= len(own.spans()):
            return own
        if len(chain) > len(replica.gov_chain):
            replica.gov_chain = chain
        replica.metrics.bump("sync_chain_schedules_adopted")
        return schedule

    # -- verification ----------------------------------------------------------

    def _verified_checkpoint(self) -> Checkpoint:
        """The checkpoint to restore from: our own copy, or the one the
        transferred chunks reassemble (raises KVError on any mismatch)."""
        if self.held is not None:
            return self.held
        offer = self.offer
        return Checkpoint(
            seqno=offer.cp_seqno,
            state=self.reassembler.reassemble(),
            ledger_size=offer.cp_ledger_size,
            ledger_root=offer.cp_ledger_root,
        )

    def _verified_ledger(self, entry_wires: tuple, checkpoint: Checkpoint, schedule):
        """Materialise the fetched suffix past the checkpoint's boundary
        and verify it against every digest we hold (raises on mismatch).

        Below the boundary the ledger is our own when our tree M has the
        checkpoint's root there, and otherwise starts at the boundary,
        seeded from the manifest's frontier.  Either way
        :func:`verify_fetched_ledger` binds it to every signed root and to
        the checkpoint.
        """
        replica, offer = self.replica, self.offer
        size = offer.cp_ledger_size
        if self._own_prefix_reaches(offer):
            base = replica.ledger.base_index
            wires = replica.ledger.fragment(base, size).entry_wires + tuple(entry_wires)
            frontier = replica.ledger.tree().frontier_at(base)
        elif self.manifest is not None:
            base, wires, frontier = size, entry_wires, self.manifest.frontier
        else:
            raise ProtocolError("no frontier at the checkpoint boundary")
        ledger = LedgerFragment(start=base, entry_wires=tuple(wires)).to_ledger(frontier)
        verify_fetched_ledger(replica, ledger, len(entry_wires), size, checkpoint, schedule)
        return ledger

    # -- completion / failure -------------------------------------------------

    def _finish(self, checkpoint, ledger, view: int | None = None, replayed: int = 0,
                fetched_entries: int = 0) -> None:
        """End the session; ``view`` is the server's when ``ledger`` was
        installed, None when it held nothing newer."""
        replica = self.replica
        server, target = self.server, self.target
        installed = view is not None
        self.last_result = {
            "installed": installed,
            "cp_seqno": 0 if checkpoint is None else checkpoint.seqno,
            "chunks": 0 if self.reassembler is None else self.reassembler.total,
            "replayed_batches": replayed,
            "fetched_entries": fetched_entries,
            "tip_seqno": ledger.last_seqno(),
            "duration": replica.now - self._started_at,
            "server": server,
        }
        self._close_span(committed_upto=replica.committed_upto)
        self.abort()
        self.excluded = set()
        replica.metrics.bump("sync_sessions_completed")
        # Resume normal operation, or the view change we caught up for:
        # lift the suspension and restart the machinery.
        replica.syncing = False
        resumed_view_change = replica.views.synced(ledger, view, target)
        if server:
            replica.send(server, ("get-gov-chain",))
            if installed and not resumed_view_change:
                # The tail the ledger could not prove committed: the
                # server holds its evidence if it committed it.
                for seqno in range(replica.committed_upto + 1, replica.next_seqno):
                    replica.send(server, ("fetch-evidence", seqno, None))
        replica.metrics.bump("sync_resumes")
        replica._retry_pending_pps()
        # If we resumed as the primary with admitted-but-unproposed
        # requests, propose them now: client retransmissions of a request
        # already queued do not re-arm the batch timer, so nothing else
        # would ever kick the pipeline.
        replica.maybe_send_pre_prepare()
        replica.views.arm_timer()

    def _failover(self, reason: str) -> None:
        replica = self.replica
        replica.metrics.bump("sync_failovers")
        if self.server is not None:
            self.excluded.add(self.server)
            self.offers.pop(self.server, None)
        self._attempts = 0
        fallback = [a for a in self.offers if a not in self.excluded]
        if fallback:
            # Best remaining offer: newest stable checkpoint, then newest
            # tip; address as a deterministic tie-break.
            src = max(
                fallback,
                key=lambda a: (self.offers[a].cp_seqno, self.offers[a].tip_seqno, a),
            )
            self._adopt_offer(src, self.offers[src])
        elif self.target is not None:
            # No server could serve a new-view catch-up: stop, and leave
            # the view change to the view-change timer.
            replica.metrics.bump("sync_sessions_abandoned")
            self.abort()
            self.excluded = set()
            replica.syncing = False
            replica.views.arm_timer()
        else:
            self._enter_probe()

    # -- timeouts -------------------------------------------------------------

    def _arm_timer(self) -> None:
        self._cancel_timer()
        self._timer = self.replica.set_timer(RETRY_TIMEOUT, self._on_timeout)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self.replica.cancel_timer(self._timer)
            self._timer = None

    def _on_timeout(self) -> None:
        self._timer = None
        if not self.active:
            return
        self._attempts += 1
        if self._attempts > MAX_RETRIES:
            self._failover("timeout")
            return
        replica = self.replica
        replica.metrics.bump("sync_retries")
        if self.phase == PROBE:
            for peer in replica.peer_addresses():
                if peer not in self.excluded:
                    replica.send(peer, ("sync-probe",))
        elif self.phase == MANIFEST:
            replica.send(self.server, ("sync-get-manifest", self.offer.cp_seqno))
        elif self.phase == CHUNKS:
            for index in sorted(self._inflight):
                replica.send(self.server, ("sync-get-chunk", self.offer.cp_seqno, index))
        elif self.phase == LEDGER:
            self._request_ledger()
        self._arm_timer()
