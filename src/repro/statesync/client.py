"""Fetching side of state sync: a retrying, verifying state machine.

One :class:`StateSyncClient` is owned by each replica.  A sync session
walks four phases::

    probe -> manifest -> chunks -> ledger -> install/resume

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
are re-requested.  A failover at 90% of a large checkpoint no longer
restarts the transfer from zero.  (Chunking is deterministic given the
state and ``sync_chunk_bytes``, so honest servers serving the same
checkpoint produce bit-identical chunks.)

Nothing is installed until everything verifies:

- each chunk's bytes against the manifest's ``chunk_digests``;
- the reassembled state against the checkpoint digest ``dC``;
- ``dC`` itself against the checkpoint transaction recorded in the
  fetched ledger (a Byzantine server cannot invent a checkpoint without
  also forging the signed ledger around it);
- the ledger suffix against the checkpoint's bound ledger root, the
  manifest's tree frontier, and every subsequent pre-prepare's signed
  ``root_m``;
- replayed batches against their signed ``root_g`` (inside the install).

Duplicated or reordered network deliveries are harmless: chunks are
accepted idempotently by index and stale-phase messages are dropped.
"""

from __future__ import annotations

from ..errors import KVError, LedgerError, MerkleError, ProtocolError
from ..kvstore.checkpoints import Checkpoint, ChunkReassembler
from ..ledger import Ledger, LedgerFragment
from ..lpbft.adoption import install_ledger, verify_fetched_ledger
from ..merkle.proofs import FrontierAccumulator, frontier_from_wire, frontier_root
from .messages import SyncManifest, SyncOffer

# Per-request timeout and the retries a server gets before the client
# fails over (also the serving side's pin grace, see server.py).
RETRY_TIMEOUT = 0.25
MAX_RETRIES = 3

# The session state machine's phases.  Transitions (every phase also
# self-loops on timeout up to ``MAX_RETRIES`` and fails over on
# exhaustion or on any verification failure — see the table in the
# :class:`StateSyncClient` docstring):
#
#   IDLE ──start()──▶ PROBE ──first usable offer──▶ MANIFEST | CHUNKS | LEDGER
#   MANIFEST ──consistent manifest──▶ CHUNKS
#   CHUNKS ──all chunks verified──▶ LEDGER
#   LEDGER ──suffix verified + installed──▶ IDLE   (resume)
#   LEDGER ──sync-ledger-refused──▶ LEDGER         (checkpoint-rooted retry)
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
    LEDGER    ``sync-ledger`` (or ``sync-ledger-refused``) for the suffix
    ========  ==========================================================

    **Transitions.** ``start()`` probes every peer and enters PROBE.  The
    first structurally-valid offer is adopted: straight to CHUNKS when it
    matches a cached partial transfer (resumption), to LEDGER when it
    carries no checkpoint (``cp_seqno == 0``: genesis replay) or the
    chunks already completed, to MANIFEST otherwise.  A verified manifest
    opens CHUNKS; the last verified chunk opens LEDGER; a verified and
    installed suffix returns to IDLE and resumes the replica.

    **Failover.** Any timeout past ``MAX_RETRIES``, and *any*
    verification failure (tampered chunk, inconsistent manifest, suffix
    failing root/signature checks), excludes the current server and
    re-enters at the best cached offer — or PROBE when none remain.
    Chunk transfers resume across failovers when the replacement serves
    the same checkpoint.

    **Ledger GC interplay (PR 5).** A server that garbage-collected its
    ledger prefix refuses splice requests below its retained base with
    ``sync-ledger-refused``.  The client then retries *checkpoint-rooted*:
    it re-requests the suffix from exactly the served checkpoint's
    boundary and materializes a suffix-only ledger seeded from the
    manifest's Merkle frontier — its own (now unsplicable) prefix is
    superseded by the digest-verified checkpoint.
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
        self._base_len = 0
        # True once the server refused our splice point and we fell back
        # to requesting the suffix from the checkpoint boundary.
        self._cp_rooted = False
        # The schedule the current suffix verifies under (set per
        # sync-ledger message; includes reconfigurations we missed when
        # the server's governance chain proves them).
        self._suffix_schedule = None
        self._started_at = 0.0
        self._span = None  # open "state-sync" Span while tracing
        self.last_result: dict | None = None

    @property
    def active(self) -> bool:
        return self.phase != IDLE

    # -- session control ----------------------------------------------------

    def start(self, reason: str = "") -> None:
        """Suspend normal operation and catch up from a peer (no-op if a
        session is already running) — the replica's one recovery entry:
        lag, join, crash recovery, a ``ledger-gone`` answer, and the
        view-change timer when it finds we missed a view, over-advanced
        our own while partitioned, or sit stuck behind a deep stash."""
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
        self._cp_rooted = False
        self._suffix_schedule = None

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
        if any(item[0][2] <= replica.next_seqno for item in replica.pending_pps):
            return 0
        horizon = max(item[0][2] for item in replica.pending_pps)  # wire field 2 = seqno
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
                # Everyone failed us once; liveness beats blame — retry all.
                self.excluded.clear()
                peers = self.replica.peer_addresses()
        for peer in peers:
            self.replica.send(peer, ("sync-probe",))
        self._arm_timer()

    def _adopt_offer(self, src: str, offer: SyncOffer) -> None:
        self.server = src
        self.offer = offer
        self._inflight = set()
        self._attempts = 0
        if offer.cp_seqno > 0 and offer.n_chunks > 0:
            if self._matches_partial_transfer(offer):
                # Same checkpoint as the transfer interrupted by the
                # failover: keep the already-verified chunks and request
                # only what is still missing.
                self.replica.metrics.bump("sync_transfers_resumed")
                if self.reassembler.complete():
                    self._enter_ledger()
                    return
                self.phase = CHUNKS
                self._to_request = self.reassembler.missing()
                self._fill_window()
            else:
                self.manifest = None
                self.reassembler = None
                self.phase = MANIFEST
                self.replica.send(src, ("sync-get-manifest", offer.cp_seqno))
        else:
            self.manifest = None
            self.reassembler = None
            self._enter_ledger()
        self._arm_timer()

    def _matches_partial_transfer(self, offer: SyncOffer) -> bool:
        """Does ``offer`` bind the very checkpoint our verified-chunk
        cache belongs to?  Equality of ``dC``, the ledger binding, and
        the chunk count means every cached chunk is still valid."""
        manifest = self.manifest
        return (
            manifest is not None
            and self.reassembler is not None
            and offer.cp_seqno == manifest.cp_seqno
            and offer.cp_digest == manifest.cp_digest
            and offer.cp_ledger_size == manifest.cp_ledger_size
            and offer.cp_ledger_root == manifest.cp_ledger_root
            and offer.n_chunks == len(manifest.chunk_digests)
        )

    def _enter_ledger(self) -> None:
        self.phase = LEDGER
        self._cp_rooted = False
        self._base_len = self._splice_point()
        root = self.replica.ledger.root_at(self._base_len)
        self.replica.send(self.server, ("sync-get-ledger", self._base_len, root, False))
        self._arm_timer()

    def _enter_ledger_cp_rooted(self) -> None:
        """Re-request the suffix from the checkpoint boundary after the
        server refused our splice point (its prefix below it is gone)."""
        offer = self.offer
        self.phase = LEDGER
        self._cp_rooted = True
        self._base_len = offer.cp_ledger_size
        self.replica.send(
            self.server,
            ("sync-get-ledger", offer.cp_ledger_size, offer.cp_ledger_root, True),
        )
        self._arm_timer()

    def _splice_point(self) -> int:
        """Length of our committed ledger prefix: everything at or below
        the commit frontier is final (BFT safety), so only entries past it
        need fetching — if the server's prefix is bit-identical."""
        replica = self.replica
        if replica.committed_upto >= 1:
            record = replica.batches.get(replica.committed_upto)
            if record is not None and 1 <= record.ledger_end <= len(replica.ledger):
                return record.ledger_end
        return min(1, len(replica.ledger))

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
            offer.tip_seqno, offer.tip_ledger_size, offer.view,
        )
        if not all(isinstance(f, int) for f in int_fields):
            return
        if not isinstance(offer.cp_digest, bytes) or not isinstance(offer.cp_ledger_root, bytes):
            return
        if offer.tip_seqno < 0 or offer.cp_seqno < 0 or offer.cp_ledger_size < 1:
            return
        if offer.cp_seqno > 0 and offer.n_chunks < 1:
            return  # a real checkpoint always has at least one chunk
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
                    and FrontierAccumulator(peaks).size == manifest.cp_ledger_size
                )
            except MerkleError:
                consistent = False
        if not consistent:
            self._failover("bad_manifest")
            return
        self.manifest = manifest
        self.reassembler = ChunkReassembler(manifest.chunk_digests, manifest.cp_digest)
        self.phase = CHUNKS
        self._attempts = 0
        self._to_request = list(range(self.reassembler.total))
        self._inflight = set()
        self._fill_window()
        self._arm_timer()

    def _fill_window(self) -> None:
        window = max(1, self.replica.params.sync_window)
        while len(self._inflight) < window and self._to_request:
            index = self._to_request.pop(0)
            self._inflight.add(index)
            self.replica.send(self.server, ("sync-get-chunk", self.offer.cp_seqno, index))

    def on_chunk(self, src: str, msg: tuple) -> None:
        if self.phase != CHUNKS or src != self.server:
            return
        if len(msg) != 4 or not isinstance(msg[2], int):
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

    def on_ledger_refused(self, src: str, msg: tuple) -> None:
        """The server garbage-collected the prefix our splice point lives
        in: fall back to a checkpoint-rooted transfer when the session
        holds a verified checkpoint, fail over otherwise."""
        if self.phase != LEDGER or src != self.server or self._cp_rooted:
            if self._cp_rooted and self.phase == LEDGER and src == self.server:
                # Even the checkpoint boundary is refused: the server's
                # retention moved past its own offer — it is useless now.
                self._failover("suffix_refused")
            return
        if len(msg) != 2 or not isinstance(msg[1], int):
            return
        offer = self.offer
        retained = msg[1]
        if (
            offer.cp_seqno > 0
            and self.reassembler is not None
            and self.reassembler.complete()
            and offer.cp_ledger_size >= retained
        ):
            self.replica.metrics.bump("sync_cp_rooted_transfers")
            self._enter_ledger_cp_rooted()
        else:
            self._failover("suffix_refused")

    def on_ledger(self, src: str, msg: tuple) -> None:
        if self.phase != LEDGER or src != self.server:
            return
        if (
            len(msg) not in (5, 6)
            or not isinstance(msg[1], int)
            or not isinstance(msg[2], tuple)
            or not isinstance(msg[3], int)
        ):
            self._failover("malformed_ledger")
            return
        start, entry_wires, view, tip_seqno = msg[1], msg[2], msg[3], msg[4]
        chain_wire = msg[5] if len(msg) == 6 else None
        if start not in (0, self._base_len):
            self._failover("bad_suffix_start")
            return
        replica = self.replica
        try:
            self._suffix_schedule = self._trusted_suffix_schedule(chain_wire)
            checkpoint = self._verified_checkpoint()
            ledger, schedule = self._verified_ledger(start, entry_wires, checkpoint)
        except (ProtocolError, LedgerError, MerkleError, KVError) as exc:
            replica.metrics.bump("sync_verification_failures")
            self._failover(f"verify:{type(exc).__name__}")
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
            self._finish(checkpoint, ledger, installed=False)
            return
        try:
            replayed = install_ledger(replica, ledger, checkpoint, view, schedule)
        except (ProtocolError, LedgerError, KVError) as exc:
            replica.metrics.bump("sync_verification_failures")
            self._failover(f"install:{type(exc).__name__}")
            return
        self._finish(checkpoint, ledger, installed=True, replayed=replayed,
                     fetched_entries=len(entry_wires))

    def _trusted_suffix_schedule(self, chain_wire):
        """The configuration schedule a suffix-rooted ledger verifies
        under: our own, superseded by the server's governance chain when
        that chain verifies against our genesis and reaches further.

        This is the late-join path: a replica constructed before a
        reconfiguration it missed has a genesis-only schedule, and
        without the chain it would adopt the suffix under config 0 —
        never recognising itself as a member of the active configuration.
        The chain is quorum-signed end-of-configuration receipts, so a
        Byzantine server still cannot fabricate governance history.
        """
        # Imported lazily: repro.receipts imports the lpbft messages, so
        # a module-level import would be circular.
        from ..errors import ReceiptError
        from ..receipts import GovernanceChain, verify_chain

        replica = self.replica
        own = replica.schedule.copy()
        if chain_wire is None:
            return own
        try:
            chain = GovernanceChain.from_wire(chain_wire)
            genesis = own.spans()[0].config
            if chain.genesis_config_wire != genesis.to_wire():
                raise ProtocolError("sync governance chain has a different genesis")
            schedule = verify_chain(
                chain,
                replica.params.pipeline,
                replica.backend,
                cache=replica.verify_cache,
            )
        except ReceiptError as exc:
            raise ProtocolError(f"sync governance chain invalid: {exc}") from exc
        if len(schedule.spans()) <= len(own.spans()):
            return own
        if len(chain) > len(replica.gov_chain):
            replica.gov_chain = chain
        replica.metrics.bump("sync_chain_schedules_adopted")
        return schedule

    # -- verification ----------------------------------------------------------

    def _verified_checkpoint(self) -> Checkpoint | None:
        """The checkpoint to restore from: transferred chunks (cp > 0) or
        our own genesis checkpoint (identical on every replica)."""
        offer = self.offer
        if offer.cp_seqno <= 0 or self.reassembler is None:
            genesis = self.replica.checkpoints.get(0)
            return genesis  # may be None; install then replays from genesis config
        state = self.reassembler.reassemble()  # raises KVError on any mismatch
        return Checkpoint(
            seqno=offer.cp_seqno,
            state=state,
            ledger_size=offer.cp_ledger_size,
            ledger_root=offer.cp_ledger_root,
        )

    def _verified_ledger(self, start: int, entry_wires: tuple, checkpoint) -> tuple:
        """Splice our committed prefix with the fetched suffix and verify
        the whole against every digest we hold (raises on mismatch);
        returns the ledger and the schedule it verified under.

        Three shapes, depending on who garbage-collected what:

        - neither side GC'd: full-from-genesis ledger, genesis compared
          with our own (the historical path);
        - *we* hold a GC'd prefix: the splice is rooted at our own base,
          seeded from our tree's frontier (our retained prefix is already
          trusted);
        - checkpoint-rooted retry (the *server* GC'd below our splice
          point): the ledger is rooted at the served checkpoint boundary,
          seeded from the manifest's frontier — the prefix exists only as
          peaks, and the suffix is bound to it through every signed
          ``root_m`` plus the checkpoint transaction that records ``dC``.
        """
        replica = self.replica
        offer = self.offer
        if self._cp_rooted:
            if start != offer.cp_ledger_size or offer.cp_seqno <= 0 or self.manifest is None:
                raise ProtocolError("checkpoint-rooted suffix with wrong start")
            fragment = LedgerFragment(start=start, entry_wires=tuple(entry_wires))
            ledger = Ledger.from_fragment_suffix(
                fragment, frontier_from_wire(self.manifest.frontier)
            )
        else:
            own_base = replica.ledger.base_index
            wires = list(entry_wires)
            if start > 0:
                wires = list(replica.ledger.fragment(own_base, start).entry_wires) + wires
            if not wires:
                raise ProtocolError("empty sync ledger")
            if start > 0 and own_base > 0:
                # Splicing our own GC'd prefix: the combined wires begin
                # at our retained base, rooted at our own tree's frontier.
                fragment = LedgerFragment(start=own_base, entry_wires=tuple(wires))
                ledger = Ledger.from_fragment_suffix(
                    fragment, replica.ledger.tree().frontier_at(own_base)
                )
            else:
                # start == 0: the server shipped a full-from-genesis
                # ledger (its own prefix is intact), so the entry wires
                # are genesis-rooted regardless of what *we* collected.
                ledger = LedgerFragment(start=0, entry_wires=tuple(wires)).to_ledger()
        if len(ledger) < offer.cp_ledger_size:
            raise ProtocolError("sync ledger shorter than checkpoint bound")
        # Everything past our own trusted prefix is the server's.
        schedule = verify_fetched_ledger(
            replica, ledger, len(entry_wires), max(start, 1), checkpoint, self._suffix_schedule
        )
        if offer.cp_seqno > 0 and not self._cp_rooted:
            # The manifest's frontier must reproduce the tree over the
            # suffix (proves the frontier belongs to this very prefix).
            # Skipped in checkpoint-rooted mode: there the ledger tree was
            # *built* from that same frontier, so the comparison is true
            # by construction — the binding is instead enforced by the
            # verifier's root_at check plus its per-batch root_m checks.
            acc = FrontierAccumulator(frontier_from_wire(self.manifest.frontier))
            for index in range(offer.cp_ledger_size, len(ledger)):
                acc.append(ledger.entry(index).digest())
            if acc.root() != ledger.root():
                raise ProtocolError("manifest frontier inconsistent with suffix")
        return ledger, schedule

    # -- completion / failure -------------------------------------------------

    def _finish(self, checkpoint, ledger, installed: bool, replayed: int = 0,
                fetched_entries: int = 0) -> None:
        replica = self.replica
        self._cancel_timer()
        self.last_result = {
            "installed": installed,
            "cp_seqno": 0 if checkpoint is None else checkpoint.seqno,
            "chunks": 0 if self.reassembler is None else self.reassembler.total,
            "replayed_batches": replayed,
            "fetched_entries": fetched_entries,
            "tip_seqno": ledger.last_seqno(),
            "duration": replica.now - self._started_at,
            "server": self.server,
        }
        self.phase = IDLE
        self.offers = {}
        self.excluded = set()
        self.manifest = None
        self.reassembler = None
        self._inflight = set()
        self._to_request = []
        replica.metrics.bump("sync_sessions_completed")
        # Resume normal operation.  The install already adopted the
        # server's view wholesale; here we only lift the suspension and
        # restart the machinery.
        self._close_span(committed_upto=replica.committed_upto)
        replica.syncing = False
        replica.ready = True
        replica.views.mark_progress()
        if self.server:
            replica.send(self.server, ("get-gov-chain",))
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
            if self._cp_rooted:
                replica.send(
                    self.server,
                    ("sync-get-ledger", self.offer.cp_ledger_size, self.offer.cp_ledger_root, True),
                )
            else:
                root = replica.ledger.root_at(self._base_len)
                replica.send(self.server, ("sync-get-ledger", self._base_len, root, False))
        self._arm_timer()
