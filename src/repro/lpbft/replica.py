"""The L-PBFT replica (paper §3, Alg. 1; reconfiguration §5.1).

A replica is a :class:`~repro.network.Node` driven entirely by messages
and timers.  The primary batches client requests, executes them *early*
(before agreement), and signs a pre-prepare carrying the roots of the
ledger tree M and the per-batch tree G; backups re-execute and send
prepares only if their roots match, which makes divergent execution a
liveness problem rather than a safety one.  Commit messages carry revealed
nonces instead of signatures (the nonce commitment scheme), halving
signing work.  Committed batches leave behind *commitment evidence* —
N−f−1 prepares plus N−f nonces — which is ordered into the ledger P
batches later.

The same class plays backup, primary, passive mirror (a replica not in the
current configuration tracks the ledger but emits nothing), and retiring
roles; the active configuration per sequence number comes from the
replica's :class:`~repro.governance.schedule.ConfigSchedule`.

CPU accounting is staged: the hot path submits typed work items to the
replica's multi-lane :class:`~repro.sim.cpu.VirtualCPU` — client-signature
checks and evidence bundles fan out as ``verify`` items across all lanes
(:meth:`LPBFTReplica._verify_many`), transaction execution is a
serial ``execute`` stage on a dedicated lane
(:meth:`LPBFTReplica._execute_batch`), ledger writes are ``append``
items on the ledger lane, and Merkle/checkpoint hashing is parallel
``hash`` work.  Stages of different batches (and of verification vs.
execution) overlap exactly as lane availability allows.

The replica *has* its parts: the request queue and overload control
(:class:`~repro.lpbft.admission.Admission`), the batch records with their
slots' messages and the evidence and replies built from them
(:class:`~repro.lpbft.batch.BatchStore`), the checkpoints
(:class:`~repro.lpbft.checkpointing.CheckpointStore`), what survives GC
(:class:`~repro.lpbft.retention.Retention`), view changes
(:class:`~repro.lpbft.viewchange.ViewManager`, Alg. 2) and the two halves
of state sync (:class:`~repro.statesync.StateSyncClient`,
:class:`~repro.statesync.StateSyncServer`).  A ledger fetched from a peer
reaches replica state through :mod:`~repro.lpbft.adoption` only.
"""

from __future__ import annotations

from typing import Any

from .. import codec
from ..crypto import signatures
from ..crypto.hashing import Digest, digest_value
from ..crypto.nonces import NonceCommitment, commit_nonce, new_nonce
from ..errors import MalformedMessage, ProtocolError, ReceiptError
from ..governance.configuration import Configuration
from ..governance.schedule import ConfigSchedule, ConfigSpan
from ..governance.transactions import install_configuration
from ..kvstore import EMPTY_WS, Checkpoint, KVStore, ProcedureRegistry, Snapshot
from ..ledger import (
    CheckpointTxEntry,
    EvidenceEntry,
    GenesisEntry,
    Ledger,
    NoncesEntry,
    PrePrepareEntry,
    TxRun,
    entry_from_wire,
)
from ..network import Node
from ..receipts.chain import GovernanceChain, GovernanceLink, verify_served_chain
from ..receipts.receipt import Certificate, Receipt
from ..sim.costs import CostModel
from ..sim.metrics import MetricsCollector
from ..statesync.client import StateSyncClient
from ..statesync.server import StateSyncServer
from .admission import Admission
from .batch import (  # noqa: F401  (re-exported)
    BatchRecord, BatchStore, ReconfigState, execute_procedure, location, split_location)
from .checkpointing import CheckpointStore, checkpoint_due
from .config import ProtocolParams
from .messages import (
    BATCH_CHECKPOINT,
    BATCH_END_OF_CONFIG,
    BATCH_REGULAR,
    BATCH_START_OF_CONFIG,
    Commit,
    Prepare,
    PrePrepare,
    TransactionRequest,
    bitmap_members,
    check_envelope,
    pre_prepare_payload,
    read_pre_prepare,
    received,
    replyx_payload,
)
from .retention import Retention
from .viewchange import ViewManager


def designated_replica(tx_digest: Digest, config: Configuration) -> int:
    """The replica that sends the ``replyx`` for a transaction (§3.3:
    "a designated replica, chosen based on t")."""
    ids = config.replica_ids()
    return ids[int.from_bytes(tx_digest[:8], "big") % len(ids)]


class LPBFTReplica(Node):
    """The L-PBFT replica: normal case (Alg. 1), checkpoints and
    reconfiguration, plus the components it owns — ``admission``,
    ``batches``, ``checkpoints``, ``retention``, ``views`` (Alg. 2),
    ``sync_client`` and ``sync_server``.

    Entry points are network messages (:meth:`on_message` looks the kind
    up in a table of bound methods built here, each pointing straight at
    the owning component) and inspection helpers used by deployments,
    audits, and tests (``ledger``, ``kv``, ``schedule``,
    ``receipt_from_ledger``).
    """

    def __init__(
        self,
        replica_id: int,
        keypair: signatures.KeyPair,
        genesis_config: Configuration,
        registry: ProcedureRegistry,
        params: ProtocolParams,
        costs: CostModel | None = None,
        site: str = "local",
        metrics: MetricsCollector | None = None,
        behavior: "object | None" = None,
        backend: signatures.SignatureBackend | None = None,
        replica_directory: dict[int, str] | None = None,
        initial_state: Snapshot | None = None,
    ) -> None:
        costs = costs or CostModel()
        # One CPU lane per core: verification fans out across lanes,
        # execution/ledger appends stay serial on dedicated lanes (§3.4).
        super().__init__(address=f"replica-{replica_id}", site=site, cores=costs.cores)
        self.id = replica_id
        self.keypair = keypair
        self.params = params
        self.costs = costs
        self.metrics = metrics or MetricsCollector()
        self.behavior = behavior
        self.backend = backend or signatures.default_backend()
        self.registry = registry

        # Service identity and replicated state.
        genesis_entry = GenesisEntry(config_wire=genesis_config.to_wire())
        self.service_name = genesis_entry.service_name()
        self.schedule = ConfigSchedule.genesis(genesis_config)
        self.ledger = Ledger(genesis_entry)
        # ``initial_state`` is application state that exists at genesis
        # (e.g. pre-populated benchmark accounts); it is part of the
        # genesis checkpoint, so audits replay on top of it.
        self.kv = KVStore(initial=initial_state)
        self.kv.execute(lambda tx: install_configuration(tx, genesis_config))
        genesis = Checkpoint.capture(self.kv, 0, len(self.ledger), self.ledger.root())
        self.checkpoints = CheckpointStore(genesis.digest())
        self.checkpoints.take(genesis, 0.0)
        # What survives GC: pins, the governance archive, the collection.
        self.retention = Retention(self)

        # Protocol state (Alg. 1).
        self.view = 0
        self.next_seqno = 1  # next batch to pre-prepare (primary) / accept (backup)
        self.prepared_upto = 0
        self.committed_upto = 0
        self.ready = True
        # True while a state transfer suspends us: pre-prepares are
        # stashed, the primary is not suspected, peers are not served.
        self.syncing = False

        # Stores.  The request queue T and everything keyed by a request
        # digest belong to the admission component, slot messages to the batch store.
        self.admission = Admission(self)
        self.batches = BatchStore()
        self.tx_locations: dict[Digest, int] = {}  # digest -> location(seqno, index)
        self.pending_pps: list[tuple] = []  # stashed (pp, digests, trace_ctx)
        # View of the last pre-prepare dropped for being *below* our view —
        # a sign we over-advanced and the service moved on without us.
        self._last_lower_view_drop: int | None = None

        # Reconfiguration.
        self.reconfig: ReconfigState | None = None
        self.gov_chain = GovernanceChain.genesis(genesis_config)
        self.gov_tx_log: list[tuple[int, Digest, str]] = []  # (seqno, tx digest, procedure)

        # Directory of replica addresses (present and proposed members).
        self.replica_directory = dict(replica_directory or {})
        self.replica_directory.setdefault(replica_id, self.address)

        # Timers.
        self._batch_timer: int | None = None
        self._nonce_counter = 0

        self.views = ViewManager(self)
        self.sync_client = StateSyncClient(self)
        self.sync_server = StateSyncServer(self)
        self._handlers = {
            "request": self.handle_request,
            "pre-prepare": self.handle_pre_prepare,
            "prepare": self.handle_prepare,
            "commit": self.handle_commit,
            "get-replyx": self.handle_get_replyx,
            "fetch-requests": self.handle_fetch_requests,
            "requests-bundle": self.handle_requests_bundle,
            "fetch-evidence": self.handle_fetch_evidence,
            "evidence-bundle": self.handle_evidence_bundle,
            "get-gov-chain": self.handle_get_gov_chain,
            "gov-chain-resp": self.handle_gov_chain_resp,
            "ack": self.handle_ack,
            "view-change": self.views.on_view_change,
            "new-view": self.views.on_new_view,
            "sync-probe": self.sync_server.on_probe,
            "sync-get-manifest": self.sync_server.on_get_manifest,
            "sync-get-chunk": self.sync_server.on_get_chunk,
            "sync-get-ledger": self.sync_server.on_get_ledger,
            "sync-offer": self.sync_client.on_offer,
            "sync-manifest": self.sync_client.on_manifest,
            "sync-chunk": self.sync_client.on_chunk,
            "sync-ledger": self.sync_client.on_ledger,
        }

    # -- identity and quorum helpers ------------------------------------------

    def config_for(self, seqno: int) -> Configuration:
        return self.schedule.config_at_seqno(seqno)

    def current_config(self) -> Configuration:
        return self.config_for(self.next_seqno)

    def is_member(self, seqno: int | None = None) -> bool:
        """True iff this replica belongs to the configuration that prepares
        the batch at ``seqno`` (default: the next batch)."""
        config = self.config_for(self.next_seqno if seqno is None else seqno)
        return config.has_replica(self.id)

    def is_primary(self, seqno: int | None = None) -> bool:
        config = self.config_for(self.next_seqno if seqno is None else seqno)
        return config.has_replica(self.id) and config.primary_for_view(self.view) == self.id

    def window_occupancy(self) -> int:
        """Consensus rounds currently in flight: pre-prepared (or locally
        proposed) but not yet committed.  Bounded by the pipeline depth
        P — the evidence lag stalls ``maybe_send_pre_prepare`` once batch
        ``s − P`` lacks commitment evidence."""
        return max(0, self.next_seqno - 1 - self.committed_upto)

    def peer_addresses(self) -> list[str]:
        """Every replica address in the directory except our own.

        Broadcasting to the whole directory (not just current members)
        lets replicas of a proposed configuration mirror the ledger before
        their configuration activates (§5.1)."""
        return [addr for rid, addr in sorted(self.replica_directory.items()) if rid != self.id]

    # -- crypto with cost accounting -------------------------------------------------

    def _sign(self, payload: bytes) -> bytes:
        if not self.params.use_signatures:
            self.submit("sign", self.costs.mac)
            return b""
        self.submit("sign", self.costs.sign)
        self.metrics.bump("signatures_created")
        return self.backend.sign(self.keypair, payload)

    def _verify(self, public_key: bytes, payload: bytes, signature: bytes) -> bool:
        if not self.params.use_signatures:
            self.submit("sign", self.costs.mac)
            return True
        # Signature checking is parallelized across the machine's cores
        # (§3.4 "Cryptography"): the item lands on the earliest-free lane.
        self.submit("verify", self.costs.verify)
        self.metrics.bump("signatures_verified")
        return self.backend.verify(public_key, payload, signature)

    def _verify_many(self, items: list[tuple[bytes, bytes, bytes]]) -> list[bool]:
        """Batched :meth:`_verify` over (key, payload, sig) triples —
        one CPU charge for a signature set that arrives together
        (evidence bundles, view-change certificates), one verdict per
        triple, in order.  The
        verification stage fans out across the CPU's lanes and joins on
        the last item — the caller consumes all the verdicts."""
        if not items:
            return []
        if not self.params.use_signatures:
            self.submit("sign", len(items) * self.costs.mac)
            return [True] * len(items)
        self.submit_many("verify", [self.costs.verify] * len(items))
        self.metrics.bump("signatures_verified", len(items))
        return [self.backend.verify(pk, m, s) for pk, m, s in items]

    def _fresh_nonce(self) -> NonceCommitment:
        self._nonce_counter += 1
        seed = codec.encode((self.id, self._nonce_counter, self.keypair.public_key))
        return new_nonce(seed)

    # -- message dispatch ---------------------------------------------------------

    def on_start(self) -> None:
        self.views.arm_timer()

    def on_message(self, src: str, msg: Any) -> None:
        kind = msg[0] if isinstance(msg, tuple) and msg else None
        handler = self._handlers.get(kind) if type(kind) is str else None
        # Channel authentication: all traffic is MAC'd (§3.4).
        self.submit("message", self.costs.message_overhead + self.costs.mac)
        self.metrics.bump("messages_received")
        if handler is None:  # not an envelope of a kind we know: dropped and counted
            self.metrics.bump("malformed_messages", kind="unknown")
            return
        if self.params.peer_review and kind in _PEER_REVIEW_ACKED:
            # PeerReview baseline: sign an acknowledgement for every
            # protocol message (§6.1); the ack is a real message so the
            # extra network load is modeled too.
            self.submit("sign", self.costs.sign)
            self.send(src, ("ack", digest_value((kind, self.id))))
        try:  # a message that does not parse is dropped and counted
            check_envelope(msg)
            handler(src, msg)
        except MalformedMessage:
            self.metrics.bump("malformed_messages", kind=kind)

    # -- client requests (Alg. 1 line 1) ------------------------------------------------

    def handle_request(
        self, src: str, msg: tuple, force: bool = False, record_source: bool = True
    ) -> None:
        request = received(TransactionRequest.from_wire, msg[1])
        tx_digest = request.request_digest()
        located = self.tx_locations.get(tx_digest)
        if located is not None or tx_digest in self.admission:
            # A retransmission.  Its sender is worth remembering only
            # while a reply can still be routed there: the request is
            # queued, or its batch record is retained.
            if record_source and (located is None or split_location(located)[0] in self.batches):
                self.admission.note_source(tx_digest, src)
                self._maybe_resend_reply(tx_digest, src)
            return
        if request.service != self.service_name:
            return  # addressed to a different service; cannot be replayed here
        if not self.admission.admit(src, request, tx_digest, force, record_source):
            return
        if self.is_primary() and self.ready:
            self._schedule_batch()
        self._retry_pending_pps()

    def wasted_verify_seconds(self) -> float:
        return self.admission.wasted_verify_seconds()

    def _schedule_batch(self) -> None:
        if self._batch_timer is not None:
            return

        def fire() -> None:
            self._batch_timer = None
            self.maybe_send_pre_prepare()

        self._batch_timer = self.set_timer(self.params.batch_delay, fire)

    # -- primary: building batches (Alg. 1 line 4) -----------------------------------------

    def maybe_send_pre_prepare(self) -> None:
        """Alg. 1 ``sendPrePrepare``: batch, execute early, sign, ship.
        Loops while more batches can be emitted (reconfiguration sequences
        emit several empty batches back to back)."""
        while True:
            if not self.ready:
                return
            s = self.next_seqno
            if self.reconfig is not None and s == self.reconfig.activation_seqno(self.params.pipeline):
                # The activation batch is proposed by the *new*
                # configuration's primary, which need not be the old one.
                if self.reconfig.new_config.primary_for_view(self.view) != self.id:
                    return
                if not self._evidence_available(s - self.params.pipeline):
                    return
                self._activate_configuration()
                flags = BATCH_CHECKPOINT
                self._emit_batch(s, flags, [])
                continue
            if not (self.is_primary() and self.is_member()):
                return
            if self.reconfig is not None and s in self.reconfig.eoc_range(self.params.pipeline):
                flags = BATCH_END_OF_CONFIG
            elif self._start_of_config_pending(s):
                flags = BATCH_START_OF_CONFIG
            else:
                flags = BATCH_REGULAR
            if not self._evidence_available(s - self.params.pipeline):
                return
            if flags == BATCH_REGULAR:
                base = self.ledger.logical_size() + (2 if s - self.params.pipeline >= 1 else 0) + 1
                while True:
                    selected = self.admission.select(base + (1 if self._checkpoint_due(s) else 0))
                    # Requests stashed while we were a backup are verified
                    # here, batched; invalid ones are dropped and the
                    # selection re-runs.
                    if self.admission.ensure_verified(selected):
                        break
                if not selected and not self._checkpoint_due(s):
                    return
            else:
                selected = []
            self._emit_batch(s, flags, selected)

    def _evidence_available(self, seqno: int) -> bool:
        """hasEvidence (Alg. 1 line 5)."""
        return seqno < 1 or self.batches.evidence_signers(seqno, self.config_for(seqno)) is not None

    def _checkpoint_due(self, seqno: int) -> bool:
        """Does the regular batch at ``seqno`` carry an interval checkpoint
        transaction (recording the newest unrecorded checkpoint, §3.4)?"""
        if not self.params.checkpoints:
            return False
        if seqno % self.params.checkpoint_interval != 0:
            return False
        return self.checkpoints.last_taken > self.checkpoints.last_recorded

    def _start_of_config_pending(self, seqno: int) -> bool:
        """True while the P start-of-configuration batches after an
        activation are still owed (§5.1)."""
        span = self.schedule.current_span()
        if span.config.number == 0:
            return False
        first_soc = span.start_seqno + 1
        return first_soc <= seqno < first_soc + self.params.pipeline

    def _emit_batch(self, s: int, flags: int, selected: list[Digest]) -> None:
        """Execute and pre-prepare one batch (primary side)."""
        pp_span = None
        if self.tracer.enabled:
            # The batch rides the first traced request's trace; its seqno
            # attribute lets the summarizer join the other requests in.
            pp_span = self.tracer.span(
                "pre-prepare", self.address, self.cpu_time(),
                parent=self.admission.trace_parent(selected),
                seqno=s, view=self.view, n=len(selected), role="primary")
        ledger_mark = len(self.ledger)
        kv_mark = self.kv.tx_count
        ev_bitmap = self._append_evidence(s)
        record, m_leaves = self._execute_batch(s, self.view, flags, selected)
        record.ledger_start = ledger_mark
        record.kv_mark = kv_mark
        pp = self._finalize_batch(record, m_leaves, ev_bitmap)
        batch_digests = tuple(d for d in record.tx_digests if d is not None)
        payload, size = pre_prepare_payload(pp, batch_digests)
        if pp_span is not None:
            # Outgoing pre-prepares (and everything else this activity
            # sends) carry the batch span as causal parent.
            self._send_ctx = pp_span.context
        for dst in self.peer_addresses():
            out = payload if self.behavior is None else self.behavior.outgoing_pre_prepare(self, dst, payload)
            if out is not None:
                self.send(dst, out, size if out is payload else None)
        self.metrics.bump("batches_proposed")
        if pp_span is not None:
            pp_span.finish(self.cpu_time())
            record.quorum_span = self.tracer.span(
                "quorum", self.address, self.cpu_time(), parent=pp_span,
                seqno=s, view=self.view, role="primary")
        self._after_local_pre_prepare(record)

    def _append_evidence(self, s: int, bitmap: int | None = None) -> int:
        """Append the evidence entries for batch ``s − P`` (if owed) — the
        primary's own choice, or exactly ``bitmap`` at a backup; returns
        the evidence bitmap for the pre-prepare."""
        ev_seqno = s - self.params.pipeline
        if ev_seqno < 1:
            return 0
        pair = self.batches.evidence(ev_seqno, self.config_for(ev_seqno), bitmap)
        if pair is None:
            raise ProtocolError(f"evidence for batch {ev_seqno} not available")
        evidence, nonces = pair
        self.ledger.append(evidence)
        self.ledger.append(nonces)
        if self.params.ledger:
            self.submit("append", 2 * self.costs.ledger_append)
        return nonces.bitmap

    # -- shared early execution --------------------------------------------------------

    def _execute_batch(
        self,
        s: int,
        view: int,
        flags: int,
        tx_digests: list[Digest],
    ) -> tuple[BatchRecord, list[Digest]]:
        """Early execution shared by primary and backups: take the batch's
        requests from the queue, run them, build the per-batch tree G, and
        pack the (t, i, o) entries into the record's run.  The caller has
        already appended the evidence entries; the pre-prepare entry will
        sit at the current ledger length, so the first transaction index
        is ``len(ledger) + 1``.  Also returns each entry's M leaf, hashed
        from the encoding its G leaf was, for :meth:`_install_batch`."""
        record = BatchRecord(seqno=s, view=view, flags=flags, kv_mark=self.kv.tx_count)
        m_leaves: list[Digest] = []
        # The pre-prepare entry consumes the next logical index; the first
        # transaction takes the one after (logical indices skip vc/nv
        # entries, so re-executed batches reuse their original indices).
        next_index = self.ledger.logical_size() + 1
        run = TxRun(next_index)

        # Checkpoint transactions lead their batch (§3.4, §5.1).
        if flags == BATCH_CHECKPOINT or (flags == BATCH_REGULAR and self._checkpoint_due(s)):
            cp_seqno = self.checkpoints.last_taken
            cp = self.checkpoints[cp_seqno]
            entry = CheckpointTxEntry(
                cp_seqno=cp_seqno,
                cp_digest=cp.digest(),
                ledger_size=cp.ledger_size,
                ledger_root=cp.ledger_root,
                index=next_index,
            )
            m_leaf, g_leaf = run.add_entry(entry)
            record.g_tree.append(g_leaf)
            m_leaves.append(m_leaf)
            record.tx_digests.append(None)
            record.sources.append(None)
            next_index += 1
            self.checkpoints.note_record(s, cp_seqno, cp.digest())

        for tx_digest in tx_digests:
            request, arrival, source = self.admission.take(tx_digest)
            if arrival is not None:
                # Time spent queued between admission and execution — the
                # congestion signal open-loop saturation sweeps read.
                self.metrics.queue_delay.record(self.now - arrival)
            exec_span = None
            ctx = self.admission.trace_parent((tx_digest,)) if self.tracer.enabled else None
            if ctx is not None:
                # Start at the activity frontier: the span length covers
                # execute-lane wait plus the execution itself.
                exec_span = self.tracer.span(
                    "execute", self.address, self.cpu_time(), parent=ctx, seqno=s)
            output = self._execute_request(request)
            if exec_span is not None:
                exec_span.finish(self.cpu_time())
            if self.behavior is not None:
                output = self.behavior.mutate_output(self, request, output)
            m_leaf, g_leaf = run.add(request.to_wire(), output)
            record.g_tree.append(g_leaf)
            m_leaves.append(m_leaf)
            record.tx_digests.append(tx_digest)
            record.sources.append(source)
            self.tx_locations[tx_digest] = location(s, next_index)
            next_index += 1
            if request.procedure.startswith("gov."):
                # A governance transaction ends the batch (§5.1 summary).
                self.gov_tx_log.append((s, tx_digest, request.procedure))
                break
        record.run = run.close()
        return record, m_leaves

    def _execute_request(self, request: TransactionRequest) -> dict:
        if not self.params.execute_transactions:
            return {"reply": {"ok": True}, "ws": EMPTY_WS}
        output, ops = execute_procedure(self.kv, self.registry, request)
        # Execution is single-threaded (its lane is dedicated): batches
        # can overlap verification and message handling, never each other.
        cost = self.costs.execute_tx(ops, len(self.kv))
        self.submit("execute", cost)
        self.admission.observe_execute_cost(cost)
        self.metrics.bump("transactions_executed")
        return output

    def _finalize_batch(self, record: BatchRecord, m_leaves: list[Digest], ev_bitmap: int) -> PrePrepare:
        """Sign the pre-prepare for a freshly executed batch (primary)."""
        s, view = record.seqno, record.view
        nonce = self._fresh_nonce()
        self.batches.own_nonces[(view, s)] = nonce
        _, cp_digest = self.checkpoints.reference_for(s)
        committed_root = b""
        if record.flags == BATCH_END_OF_CONFIG and self.reconfig is not None:
            committed_root = self.reconfig.committed_root
        pp = PrePrepare(
            view=view,
            seqno=s,
            root_m=self.ledger.root(),
            root_g=record.g_tree.root(),
            nonce_commitment=nonce.commitment,
            evidence_bitmap=ev_bitmap,
            gov_index=self.ledger.last_gov_index,
            checkpoint_digest=cp_digest,
            flags=record.flags,
            committed_root=committed_root,
        )
        pp = pp.with_signature(self._sign(pp.signed_payload()))
        self._install_batch(record, m_leaves, pp)
        return pp

    def _install_batch(self, record: BatchRecord, m_leaves: list[Digest], pp: PrePrepare) -> None:
        """Append the pre-prepare entry and tx entries (with the M leaves
        execution hashed); index the batch."""
        record.pp = pp
        record.pp_digest = pp.digest()
        self.ledger.append(PrePrepareEntry.of(pp))
        self.ledger.append_run(record.run, m_leaves)
        if self.params.ledger:
            entries = 1 + len(record.run)
            self.submit("append", entries * self.costs.ledger_append)
            self.submit("hash", entries * 2 * self.costs.hash_fixed)
        record.ledger_end = len(self.ledger)
        self.batches.install(record)
        self._verify_early_prepares(record.pp_digest, record.seqno)

    def _verify_early_prepares(self, pp_digest: Digest, seqno: int) -> None:
        """A prepare that arrived before its pre-prepare was stored
        unchecked — ``handle_prepare`` could not tell whose keys to check
        it against.  Now that the digest names a slot, verify what is
        stored under it in one fan-out, before anything counts it toward
        the prepare quorum or ships it as evidence."""
        early = self.batches.prepares_by_ppd.get(pp_digest)
        if not early:
            return
        config = self.config_for(seqno)
        members = [p for p in early.values() if config.has_replica(p.replica)]
        verdicts = self._verify_many(
            [(config.replica_key(p.replica), p.signed_payload(), p.signature) for p in members]
        )
        valid = {p.replica: p for p, ok in zip(members, verdicts) if ok}
        if len(valid) < len(members):
            self.metrics.bump("bad_prepare_signatures", len(members) - len(valid))
        self.batches.prepares_by_ppd[pp_digest] = valid

    def _after_local_pre_prepare(self, record: BatchRecord) -> None:
        """Shared post-processing: advance, checkpoint, notice referendums,
        and re-check preparedness."""
        self.next_seqno = max(self.next_seqno, record.seqno + 1)
        self._maybe_take_checkpoint(record)
        self._maybe_note_referendum(record)
        self._check_prepared(record.view, record.seqno)

    # -- backups: accepting pre-prepares (Alg. 1 line 15) ---------------------------------

    def handle_pre_prepare(self, src: str, msg: tuple) -> None:
        # Third element: the message's trace context (None untraced) — the
        # accept may run later, from another message's activity, so the
        # causal parent is stashed with the pre-prepare.
        self.pending_pps.append((*read_pre_prepare(msg), self._inbound_ctx))
        self._retry_pending_pps()

    def _retry_pending_pps(self) -> None:
        """Process stashed pre-prepares now actionable, in sequence order
        (execution is serial, so out-of-order arrivals wait)."""
        progress = True
        while progress:
            progress = False
            self.pending_pps.sort(key=lambda item: item[0].seqno)
            for stashed in list(self.pending_pps):
                pp = stashed[0]
                known = self.batches.get(pp.seqno)
                # Drop only what can never be needed: stale views, batches
                # we hold in an equal-or-newer view, or committed ones we
                # hold no record of (below an installed checkpoint).  A
                # pre-prepare below next_seqno is NOT stale per se — a
                # new-view may roll the frontier back and re-issue it.
                if pp.view < self.view or (
                        known.view >= pp.view if known is not None else pp.seqno <= self.committed_upto):
                    if pp.view < self.view and (known is None or known.view < pp.view):
                        self._last_lower_view_drop = pp.view
                    self.pending_pps.remove(stashed)
                    progress = True
                    continue
                if pp.seqno == self.next_seqno and pp.view == self.view:
                    if self._try_accept_pre_prepare(*stashed):
                        self.pending_pps.remove(stashed)
                        progress = True
                        break
        self.sync_client.maybe_detect_lag()

    def _try_accept_pre_prepare(
        self, pp: PrePrepare, batch_digests: tuple, trace_ctx=None
    ) -> bool:
        """Validate and execute the pre-prepare at the expected sequence
        number.  Returns True when the message is consumed (accepted or
        rejected for cause), False to keep it stashed."""
        s = pp.seqno
        config = self.config_for(s)
        if not self.ready:
            return False
        if (pp.view, s) in self.batches.own_nonces:
            return True  # already sent a prepare for this (v, s): drop (line 16)
        missing = [d for d in batch_digests if d not in self.admission and d not in self.tx_locations]
        if missing:
            self._fetch_requests(config, missing)
            return False
        if any(d in self.tx_locations for d in batch_digests):
            return True  # batch replays an executed request: drop
        if len(set(batch_digests)) != len(batch_digests):
            return True  # batch names a request twice (the queue holds it once): drop
        ev_seqno = s - self.params.pipeline
        if ev_seqno >= 1 and self.batches.evidence_signers(
                ev_seqno, self.config_for(ev_seqno), pp.evidence_bitmap) is None:
            # Wait for the referenced prepares/commits; ask the primary
            # to retransmit in case we never saw them (§3.1: "if the
            # backup is missing messages, it requests that the primary
            # retransmit them").
            primary_addr = self.replica_directory.get(config.primary_for_view(pp.view))
            if primary_addr and primary_addr != self.address:
                self.send(primary_addr, ("fetch-evidence", ev_seqno, pp.evidence_bitmap))
            return False
        # The activation batch (s + 2P + 1) is signed by the *new*
        # configuration's primary (§5.1).  A re-issued one too: a rollback
        # across an activation undoes it and restores the ReconfigState.
        activation_batch = (
            pp.flags == BATCH_CHECKPOINT
            and self.reconfig is not None
            and s == self.reconfig.activation_seqno(self.params.pipeline)
        )
        signer_config = self.reconfig.new_config if activation_batch else config
        primary_id = signer_config.primary_for_view(pp.view)
        if primary_id == self.id:
            return True
        if not self._verify(signer_config.replica_key(primary_id), pp.signed_payload(), pp.signature):
            self.metrics.bump("bad_pre_prepare_signatures")
            return True
        # Client-signature checks are deferred to the moment the primary
        # sequences a request: verify the batch's requests now, in one
        # fan-out.  A batch naming a request with an invalid signature
        # exposes a Byzantine primary.
        if not self.admission.ensure_verified(batch_digests):
            self.views.suspect_primary()
            return True
        if pp.flags == BATCH_END_OF_CONFIG and self.reconfig is None:
            return False  # the final vote has not executed locally yet
        if activation_batch:
            self._activate_configuration()
        self._accept_pre_prepare(pp, batch_digests, trace_ctx)
        return True

    def _accept_pre_prepare(self, pp: PrePrepare, batch_digests: tuple, trace_ctx=None) -> None:
        """Alg. 1 lines 17–26: execute, compare roots, prepare."""
        s = pp.seqno
        accept_span = None
        if self.tracer.enabled:
            # Child of the primary's pre-prepare span (stashed with the
            # message): the cross-node edge of the batch's causal chain.
            accept_span = self.tracer.span(
                "accept-pre-prepare", self.address, self.cpu_time(),
                parent=trace_ctx, seqno=s, view=pp.view, role="backup")
        ledger_mark = len(self.ledger)
        kv_mark = self.kv.tx_count
        self._append_evidence(s, pp.evidence_bitmap)
        record, m_leaves = self._execute_batch(s, pp.view, pp.flags, list(batch_digests))
        record.ledger_start = ledger_mark
        record.kv_mark = kv_mark

        consistent = record.g_tree.root() == pp.root_g and self.ledger.root() == pp.root_m
        if consistent and pp.flags == BATCH_END_OF_CONFIG and self.reconfig is not None:
            consistent = pp.committed_root == self.reconfig.committed_root
        if not consistent:
            # Line 22–23: divergent execution or a lying primary.
            self._undo_batch_execution(record, ledger_mark, kv_mark)
            self.metrics.bump("root_mismatches")
            if accept_span is not None:
                accept_span.set(root_mismatch=True)
                accept_span.finish(self.cpu_time())
            self.views.suspect_primary()
            return

        self._install_batch(record, m_leaves, pp)
        nonce = self._fresh_nonce()
        self.batches.own_nonces[(pp.view, s)] = nonce
        prepare = Prepare(replica=self.id, nonce_commitment=nonce.commitment, pp_digest=record.pp_digest)
        prepare = prepare.with_signature(self._sign(prepare.signed_payload()))
        self.batches.add_prepare(prepare)
        if self.is_member(s):
            payload = ("prepare", prepare.to_wire())
            for dst in self.peer_addresses():
                out = payload if self.behavior is None else self.behavior.outgoing_prepare(self, dst, payload)
                if out is not None:
                    self.send(dst, out)
        self.metrics.bump("batches_accepted")
        if accept_span is not None:
            accept_span.finish(self.cpu_time())
            record.quorum_span = self.tracer.span(
                "quorum", self.address, self.cpu_time(), parent=accept_span,
                seqno=s, view=pp.view, role="backup")
        self._after_local_pre_prepare(record)
        self._drain_pending_commits(pp.view, s)

    def _undo_batch_execution(self, record: BatchRecord, ledger_mark: int, kv_mark: int) -> None:
        """Alg. 1 ``undo``: roll back the KV store, ledger and checkpoint
        records and restore the batch's requests to the pending set."""
        self.kv.rollback_to(kv_mark)
        self.ledger.truncate(ledger_mark)
        self.checkpoints.rollback_after(record.seqno - 1)
        self._unexecute(record, arrival=self.now)

    def _unexecute(self, record: BatchRecord, arrival: float | None = None) -> None:
        """Forget where a rolled-back batch's requests executed and return
        them to the queue."""
        for tx_digest in record.tx_digests:
            self.tx_locations.pop(tx_digest, None)
        self.admission.requeue(record, arrival)

    # -- prepares and commits (Alg. 1 lines 27–41) -----------------------------------------

    def handle_prepare(self, src: str, msg: tuple) -> None:
        prepare = received(Prepare.from_wire, msg[1])
        record = self.batches.by_digest(prepare.pp_digest)
        if record is not None:
            config = self.config_for(record.seqno)
            if not config.has_replica(prepare.replica):
                return
            if not self._verify(
                config.replica_key(prepare.replica), prepare.signed_payload(), prepare.signature
            ):
                self.metrics.bump("bad_prepare_signatures")
                return
        # An early prepare (digest not indexed yet) is stored unchecked;
        # ``_verify_early_prepares`` checks it when the digest gets a slot.
        self.batches.add_prepare(prepare)
        if record is not None:
            self._check_prepared(record.view, record.seqno)
            self._drain_pending_commits(record.view, record.seqno)
        self._retry_pending_pps()

    def handle_commit(self, src: str, msg: tuple) -> None:
        commit = received(Commit.from_wire, msg[1])
        if self.batches.pre_prepared(commit.view, commit.seqno) is None:
            self.batches.stash_commit(commit)
            return
        self._apply_commit(commit)
        self._retry_pending_pps()

    def _drain_pending_commits(self, view: int, seqno: int) -> None:
        for commit in self.batches.pending_commits.pop((view, seqno), []):
            self._apply_commit(commit)

    def _apply_commit(self, commit: Commit) -> None:
        """Validate a revealed nonce against the commitment its sender
        signed — the pre-prepare for the primary, a prepare otherwise."""
        key = (commit.view, commit.seqno)
        record = self.batches.pre_prepared(*key)
        if record is None:
            return
        config = self.config_for(commit.seqno)
        if not config.has_replica(commit.replica):
            return
        primary_id = config.primary_for_view(commit.view)
        commitment = commit_nonce(commit.nonce)
        self.submit("hash", self.costs.hash_fixed)
        signer = self.batches.signer(record, commit.replica, primary_id)
        if signer is None:
            self.batches.pending_commits.setdefault(key, []).append(commit)
            return
        if signer.nonce_commitment != commitment:
            self.metrics.bump("bad_commit_nonces")
            return
        self.batches.commit_nonces.setdefault(key, {})[commit.replica] = commit.nonce
        self._check_committed(commit.view, commit.seqno)

    def _check_prepared(self, view: int, seqno: int) -> None:
        """Alg. 1 ``batchPrepared``: the batch prepares once we hold its
        pre-prepare plus N−f−1 matching prepares and every earlier batch
        has prepared."""
        record = self.batches.get(seqno)
        if record is None or record.prepared or record.view != view:
            return
        config = self.config_for(seqno)
        prepares = self.batches.prepares_by_ppd.get(record.pp_digest, {})
        if len(prepares) < config.quorum - 1:
            return
        if self.prepared_upto != seqno - 1:
            return
        record.prepared = True
        self.prepared_upto = seqno
        self.metrics.bump("batches_prepared")
        if record.quorum_span is not None:
            record.quorum_span.set(prepared_at=self.cpu_time())
        if self.is_member(seqno):
            nonce = self.batches.own_nonces.get((view, seqno))
            if nonce is not None:
                commit = Commit(view=view, seqno=seqno, replica=self.id, nonce=nonce.nonce)
                payload = ("commit", commit.to_wire())
                for dst in self.peer_addresses():
                    out = payload if self.behavior is None else self.behavior.outgoing_commit(self, dst, payload)
                    if out is not None:
                        self.send(dst, out)
                self.batches.commit_nonces.setdefault((view, seqno), {})[self.id] = nonce.nonce
            self._send_replies(record)
        self._check_committed(view, seqno)
        nxt = self.batches.get(seqno + 1)
        if nxt is not None:
            self._check_prepared(nxt.view, seqno + 1)

    def _check_committed(self, view: int, seqno: int) -> None:
        record = self.batches.get(seqno)
        if record is None or record.committed or record.view != view or not record.prepared:
            return
        config = self.config_for(seqno)
        nonces = self.batches.commit_nonces.get((view, seqno), {})
        primary_id = config.primary_for_view(view)
        if len(nonces) < config.quorum or primary_id not in nonces:
            return
        if self.committed_upto != seqno - 1:
            return
        record.committed = True
        record.g_tree = None  # its replies went out at prepare: BatchStore.g_tree finds it from now on
        self.committed_upto = seqno
        self.metrics.bump("batches_committed")
        self.metrics.bump("requests_committed", record.request_count())
        self.metrics.throughput.record_commit(self.cpu_time(), record.request_count())
        if record.quorum_span is not None:
            record.quorum_span.finish(self.cpu_time())
            record.quorum_span = None
        nxt = self.batches.get(seqno + 1)
        if nxt is not None:
            self._check_committed(nxt.view, seqno + 1)
        # Fresh evidence, or a checkpoint this commit made due, may unblock
        # the pipeline whatever the queue holds — for the current primary,
        # or for the new configuration's primary around an activation
        # (§5.1).  A call with nothing to send returns at once.
        if self.is_primary() or (
            self.reconfig is not None and self.reconfig.new_config.has_replica(self.id)
        ):
            self.maybe_send_pre_prepare()

    # -- replies and receipts (Alg. 1 lines 34–38) --------------------------------------------

    def _maybe_resend_reply(self, tx_digest: Digest, src: str) -> None:
        """§3.3: a retransmitted request for an executed, committed
        transaction gets this replica's reply re-sent.  The original
        reply may simply have been lost in transit, but a replica can
        also have never sent one at all: a batch that became committed
        through a ledger install bypasses ``_after_commit`` — fatal when
        that replica is the primary of the committing view, whose reply
        every receipt requires.  Only the commit nonce drawn when we
        proposed or prepared the batch ourselves can be revealed, so
        purely-installed batches (no own nonce) stay silent."""
        located = self.tx_locations.get(tx_digest)
        if located is None:
            return
        record = self.batches.get(split_location(located)[0])
        if record is None or not record.committed:
            return
        if not self.net.has_node(src):
            return  # a real network drops this; the simulator raises
        reply = self.batches.reply(record, self.id, self.config_for(record.seqno))
        if reply is None:
            return
        if self._send_reply(src, reply, (tx_digest,)):
            self.metrics.bump("replies_resent")

    def _send_reply(self, dst: str, reply, tx_digests: tuple) -> bool:
        """Send ``reply`` to ``dst`` unless a Byzantine behavior drops it."""
        payload = ("reply", reply.to_wire(), tx_digests)
        if self.behavior is not None:
            payload = self.behavior.outgoing_reply(self, dst, payload)
        if payload is not None:
            self.send(dst, payload)
        return payload is not None

    def _send_replies(self, record: BatchRecord) -> None:
        """One reply per client in the batch; the designated replica also
        sends the extended ``replyx`` per transaction (§3.3)."""
        config = self.config_for(record.seqno)
        reply = self.batches.reply(record, self.id, config)
        if reply is None:
            return
        if self.params.peer_review:
            # PeerReview: a signed reply per transaction, not per batch.
            self.submit("sign", self.costs.sign * max(1, record.request_count()))
        for dst, tx_digests in self.batches.reply_groups(record):
            self._send_reply(dst, reply, tx_digests)
        if self.params.receipts:
            for position, (tx_digest, dst) in enumerate(zip(record.tx_digests, record.sources)):
                if dst is not None and designated_replica(tx_digest, config) == self.id:
                    self._send_replyx(record, position, tx_digest, dst)

    def _send_replyx(self, record: BatchRecord, position: int, tx_digest: Digest, dst: str) -> None:
        entry = record.run.entry(position)
        path = self.batches.g_tree(record, self.ledger).path(position)
        self.submit("hash", len(path) * self.costs.hash_fixed)
        payload, size = replyx_payload(record.pp, tx_digest, entry.index, entry.output, path)
        out = payload if self.behavior is None else self.behavior.outgoing_replyx(self, dst, payload)
        if out is None:
            return
        self.send(dst, out, size if out is payload else None)
        self.metrics.bump("receipts_sent")

    def handle_get_replyx(self, src: str, msg: tuple) -> None:
        """Serve a replyx on request — client failover when the designated
        replica stays silent (§3.3)."""
        if not self.params.receipts:
            return  # IA-CCF-NoReceipt serves no receipts at all
        tx_digest = msg[1]
        located = self.tx_locations.get(tx_digest)
        if located is None:
            return
        seqno = split_location(located)[0]
        if seqno not in self.batches:
            # The batch record was garbage-collected; everything a
            # replyx needs is still in the ledger.  Only
            # committed batches qualify: an executed-but-unprepared batch
            # can still be rolled back by a view change, and serving its
            # receipt would break receipt safety.
            if seqno <= self.committed_upto:
                self._replyx_from_ledger(tx_digest, located, src)
            return
        found = self.batches.executed(tx_digest, located)
        if found is not None and found[0].prepared:
            self.admission.note_source(tx_digest, src, replace=True)
            self._send_replyx(*found, tx_digest, src)

    def _replyx_from_ledger(self, tx_digest: Digest, located: int, src: str) -> None:
        """Rebuild a replyx for a committed-and-pruned batch from ledger
        entries alone: the pre-prepare, the (t, i, o) triples, and the
        batch's tree G (:meth:`Ledger.g_tree`, built once per batch) for
        the inclusion path.

        For a batch below the ledger-GC horizon the entries themselves are
        gone; the fallback is the checkpoint that superseded them — the
        client is told its transaction's effects are vouched for by the
        oldest retained stable checkpoint (digest dC), which is the best
        any replica can attest once the prefix is collected."""
        found = self.batches.executed(tx_digest, located, self.ledger)
        if found is None:
            seqno = split_location(located)[0]
            oldest = self.ledger.oldest_retained_seqno()
            if oldest is not None and seqno < oldest:
                cp = self.checkpoints.oldest_stable(self.committed_upto)
                if cp is not None and seqno <= cp.seqno:
                    self.send(src, ("replyx-gone", tx_digest, cp.seqno, cp.digest()))
                    self.metrics.bump("receipts_gone_gc")
            return
        info, position = found
        g_tree = self.ledger.g_tree(info)
        self.submit("hash", len(g_tree) * self.costs.hash_fixed)
        entry = self.ledger.entry(info.first_tx + position)
        payload, size = replyx_payload(
            self.ledger.pre_prepare(info), tx_digest, entry.index, entry.output, g_tree.path(position))
        self.send(src, payload, size)
        self.metrics.bump("receipts_rebuilt_from_ledger")

    # -- checkpoints (§3.4) ------------------------------------------------------------

    def _maybe_take_checkpoint(self, record: BatchRecord) -> None:
        s = record.seqno
        if not checkpoint_due(s, record.flags, self.params, self.reconfig):
            return
        cp_start = self.cpu_time() if self.tracer.enabled else 0.0
        self.submit("hash", len(self.kv) * self.costs.checkpoint_per_entry)
        cp = Checkpoint.capture(self.kv, s, len(self.ledger), self.ledger.root())
        self.checkpoints.take(cp, self.now)
        self.metrics.bump("checkpoints_taken")
        if self.tracer.enabled:
            # Node-local root span: checkpoints are batch work, not tied
            # to one request's trace.
            self.tracer.span("checkpoint", self.address, cp_start,
                             end=self.cpu_time(), seqno=s)
        self.retention.collect(s)

    # -- reconfiguration (§5.1) ----------------------------------------------------------

    def _maybe_note_referendum(self, record: BatchRecord) -> None:
        """After executing a batch, notice a passed referendum and start
        the end-of-configuration sequence."""
        if self.reconfig is not None:
            return
        raw = self.kv.get("__gov.accepted_config")
        if raw is None:
            return
        self.reconfig = ReconfigState(
            new_config=Configuration.from_wire(raw),
            vote_seqno=record.seqno,
            committed_root=self.ledger.root(),
        )
        self.metrics.bump("reconfigurations_started")
        if self.is_primary():
            self.maybe_send_pre_prepare()

    def _activate_configuration(self) -> None:
        """Install the new configuration at ``s + 2P + 1`` (§5.1): update
        the schedule and the KV store, and assemble the governance
        receipts link clients will fetch (§5.2)."""
        assert self.reconfig is not None
        new_config = self.reconfig.new_config
        link = self._build_governance_link()
        self.kv.execute(lambda tx: install_configuration(tx, new_config))
        # The final vote is the ledger's last governance transaction.
        self.schedule.append(ConfigSpan.activated(
            new_config, self.reconfig.vote_seqno, self.ledger.last_gov_index, self.params.pipeline))
        if link is not None:
            self.gov_chain = self.gov_chain.extended(link)
        self.gov_tx_log = []
        self.reconfig = None
        self.metrics.bump("reconfigurations_completed")

    def _build_governance_link(self) -> GovernanceLink | None:
        """Assemble the governance receipts for the completing
        reconfiguration from the ledger and message stores (§5.2)."""
        assert self.reconfig is not None
        propose_receipt: Receipt | None = None
        vote_receipts: list[Receipt] = []
        for seqno, tx_digest, procedure in self.gov_tx_log:
            receipt = self.receipt_from_ledger(seqno, tx_digest)
            if receipt is None:
                return None
            if procedure == "gov.propose":
                propose_receipt = receipt
            else:
                vote_receipts.append(receipt)
        eoc_receipt = self.receipt_from_ledger(
            self.reconfig.eoc_receipt_seqno(self.params.pipeline), None
        )
        if propose_receipt is None or eoc_receipt is None:
            return None
        return GovernanceLink(
            propose_receipt=propose_receipt,
            vote_receipts=tuple(vote_receipts),
            eoc_receipt=eoc_receipt,
        )

    # -- receipts from the ledger (audit support, client failover) ----------------------------

    def receipt_from_ledger(self, seqno: int, tx_digest: Digest | None) -> Receipt | None:
        """Build a receipt for a committed batch from stored evidence: a
        transaction receipt when ``tx_digest`` names a transaction in the
        batch, a batch receipt otherwise."""
        config = self.config_for(seqno)
        bitmap = self.batches.evidence_signers(seqno, config)
        if bitmap is None:
            return None
        record, signers = self.batches[seqno], bitmap_members(bitmap)
        primary_id = config.primary_for_view(record.view)
        nonces = self.batches.commit_nonces[(record.view, seqno)]
        certificate = Certificate(
            **record.pp.receipt_fields(),
            primary_signature=record.pp.signature,
            signer_bitmap=bitmap,
            prepare_signatures=tuple(
                self.batches.signer(record, r, primary_id).signature for r in signers if r != primary_id),
            nonces=tuple(nonces[r] for r in signers),
            root_g=record.pp.root_g if tx_digest is None else None,
        )
        if tx_digest is None:
            return Receipt(None, None, None, None, certificate)
        found = self.batches.executed(tx_digest, self.tx_locations.get(tx_digest))
        if found is None or found[0] is not record:
            return None
        entry = record.run.entry(found[1])
        return Receipt(
            entry.request_wire, entry.index, codec.encoding_of(entry.output),
            self.batches.g_tree(record, self.ledger).path(found[1]), certificate)

    # -- fetch protocol ---------------------------------------------------------------

    def _fetch_requests(self, config: Configuration, digests: list[Digest]) -> None:
        primary_addr = self.replica_directory.get(config.primary_for_view(self.view))
        if primary_addr and primary_addr != self.address:
            self.send(primary_addr, ("fetch-requests", tuple(digests)))

    def handle_fetch_requests(self, src: str, msg: tuple) -> None:
        found = []
        for tx_digest in msg[1]:
            request = self.admission.get(tx_digest)
            if request is not None:
                found.append(request.to_wire())
                continue
            executed = self.batches.executed(tx_digest, self.tx_locations.get(tx_digest))
            if executed is not None:
                record, position = executed
                found.append(record.run.request_wire(position))
        if found:
            self.send(src, ("requests-bundle", tuple(found)))

    def handle_requests_bundle(self, src: str, msg: tuple) -> None:
        # Fetched requests bypass admission control (they are needed for an
        # already-proposed batch), and the sender is a replica, not the
        # client — never a reply destination.
        for wire in msg[1]:
            self.handle_request(src, ("request", wire), force=True, record_source=False)

    def handle_fetch_evidence(self, src: str, msg: tuple) -> None:
        """Retransmit commitment evidence for a batch (prepares + nonces)."""
        seqno, bitmap = msg[1], msg[2]
        config = self.config_for(seqno)
        pair = self.batches.evidence(seqno, config, bitmap) or self.batches.evidence(seqno, config)
        if pair is not None:
            self.send(src, ("evidence-bundle", seqno, pair[0].to_wire(), pair[1].to_wire()))

    def handle_evidence_bundle(self, src: str, msg: tuple) -> None:
        """Ingest retransmitted evidence into the message stores after
        validating every signature and nonce against our own pre-prepare
        for the batch."""
        seqno = msg[1]
        evidence = received(entry_from_wire, msg[2])
        nonces = received(entry_from_wire, msg[3])
        record = self.batches.get(seqno)
        if record is None:
            return
        if not isinstance(evidence, EvidenceEntry) or not isinstance(nonces, NoncesEntry):
            return
        if evidence.seqno != seqno or evidence.view != record.view:
            return
        config = self.config_for(seqno)
        primary_id = config.primary_for_view(record.view)
        # The bundle's prepares arrive together — verify them as one batch.
        candidates = [
            prepare
            for prepare in evidence.prepares()
            if prepare.pp_digest == record.pp_digest and config.has_replica(prepare.replica)
        ]
        verdicts = self._verify_many(
            [
                (config.replica_key(p.replica), p.signed_payload(), p.signature)
                for p in candidates
            ]
        )
        for prepare, ok in zip(candidates, verdicts):
            if ok:
                self.batches.add_prepare(prepare)
        store = self.batches.commit_nonces.setdefault((record.view, seqno), {})
        for replica_id, nonce in zip(bitmap_members(nonces.bitmap), nonces.nonces):
            commitment = commit_nonce(nonce)
            signer = self.batches.signer(record, replica_id, primary_id)
            if signer is not None and signer.nonce_commitment == commitment:
                store.setdefault(replica_id, nonce)
        # The bundle may be the proof an installed tail waits for.
        self._check_prepared(record.view, seqno)
        self._retry_pending_pps()

    def handle_get_gov_chain(self, src: str, msg: tuple) -> None:
        self.send(
            src,
            ("gov-chain-resp", self.gov_chain.to_wire(), self.retention.governance_suffix()),
        )

    def handle_gov_chain_resp(self, src: str, msg: tuple) -> None:
        """Adopt a longer governance chain, but only one that verifies
        against our genesis: we serve it to clients and extend it."""
        try:
            chain, _ = verify_served_chain(
                msg[1], self.gov_chain.genesis_config_wire, self.params.pipeline, self.backend
            )
        except ReceiptError:
            self.metrics.bump("bad_gov_chains")
            return
        if len(chain) > len(self.gov_chain):
            self.gov_chain = chain

    def handle_ack(self, src: str, msg: tuple) -> None:
        # PeerReview acknowledgement: verify it (cost) and log.
        self.submit("verify", self.costs.verify)

    # -- crash/recovery modeling ----------------------------------------------------------

    def reset_volatile_state(self) -> None:
        """Forget everything a process restart would lose, keeping only
        durable state (ledger, KV store, checkpoints, schedule, chain).
        Used by :meth:`~repro.lpbft.Deployment.recover_replica`."""
        self.admission.reset()
        self.views.reset()
        self.sync_client.abort()
        self.pending_pps = []
        self.batches.forget_messages()
        self._last_lower_view_drop = None
        self.syncing = False
        self.ready = True
        self.metrics.bump("volatile_resets")


# The class's former name: benchmarks/perf/spans.py wraps ``on_message`` through it.
LPBFTReplicaCore = LPBFTReplica

# Message kinds acknowledged under PeerReview (all protocol-level traffic).
_PEER_REVIEW_ACKED = {"request", "pre-prepare", "prepare", "commit"}
