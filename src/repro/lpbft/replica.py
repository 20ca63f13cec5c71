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
(:class:`~repro.lpbft.admission.Admission`), view changes
(:class:`~repro.lpbft.viewchange.ViewManager`, Alg. 2) and the two halves
of state sync (:class:`~repro.statesync.StateSyncClient`,
:class:`~repro.statesync.StateSyncServer`).  A ledger fetched from a peer
reaches replica state through :mod:`~repro.lpbft.adoption` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .. import codec
from ..crypto import signatures
from ..crypto.hashing import Digest, digest_value
from ..crypto.nonces import NonceCommitment, commit_nonce, new_nonce
from ..errors import KVError, LedgerError, MerkleError, ProtocolError
from ..governance.configuration import Configuration
from ..governance.schedule import ConfigSchedule, ConfigSpan
from ..governance.transactions import install_configuration
from ..kvstore import EMPTY_WS, Checkpoint, KVStore, ProcedureRegistry, Snapshot
from ..ledger import (
    CheckpointTxEntry,
    EvidenceEntry,
    GenesisEntry,
    Ledger,
    LedgerFragment,
    NoncesEntry,
    PrePrepareEntry,
    RetentionPolicy,
    TxEntry,
    entry_from_wire,
)
from ..merkle import MerkleTree
from ..network import Node
from ..receipts.chain import GovernanceChain, GovernanceLink
from ..receipts.receipt import Receipt
from ..sim.costs import CostModel
from ..sim.metrics import MetricsCollector
from ..statesync.client import StateSyncClient
from ..statesync.server import StateSyncServer
from .admission import Admission
from .adoption import install_ledger, verify_fetched_ledger
from .batch import BatchRecord, execute_procedure  # noqa: F401  (re-exported)
from .checkpointing import CheckpointDirectory
from .config import ProtocolParams
from .messages import (
    BATCH_CHECKPOINT,
    BATCH_END_OF_CONFIG,
    BATCH_REGULAR,
    BATCH_START_OF_CONFIG,
    Commit,
    Prepare,
    PrePrepare,
    Reply,
    TransactionRequest,
    bitmap_members,
    bitmap_of,
    pre_prepare_payload,
    replyx_payload,
)
from .viewchange import ViewManager


def designated_replica(tx_digest: Digest, config: Configuration) -> int:
    """The replica that sends the ``replyx`` for a transaction (§3.3:
    "a designated replica, chosen based on t")."""
    ids = config.replica_ids()
    return ids[int.from_bytes(tx_digest[:8], "big") % len(ids)]


@dataclass
class ReconfigState:
    """Progress of an in-flight reconfiguration (§5.1)."""

    new_config: Configuration
    vote_seqno: int  # batch containing the final vote
    committed_root: Digest  # ledger Merkle root at the final vote batch

    def eoc_range(self, pipeline: int) -> range:
        """Sequence numbers of the 2P end-of-configuration batches."""
        return range(self.vote_seqno + 1, self.vote_seqno + 2 * pipeline + 1)

    def eoc_receipt_seqno(self, pipeline: int) -> int:
        """The P-th end-of-configuration batch — it orders the final
        vote's evidence, and its receipt closes the governance link
        (§5.2)."""
        return self.vote_seqno + pipeline

    def checkpoint_seqno(self, pipeline: int) -> int:
        """The last end-of-configuration batch: the activation checkpoint
        is taken after it."""
        return self.vote_seqno + 2 * pipeline

    def activation_seqno(self, pipeline: int) -> int:
        return self.vote_seqno + 2 * pipeline + 1


class LPBFTReplica(Node):
    """The L-PBFT replica: normal case (Alg. 1), checkpoints and
    reconfiguration, plus the components it owns — ``admission``,
    ``views`` (Alg. 2), ``sync_client`` and ``sync_server``.

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
        verify_cache: signatures.SignatureVerifyCache | None = None,
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
        # Shared across the deployment's replicas: each (key, payload, sig)
        # triple is cryptographically verified once per process.  (An empty
        # cache is falsy, hence the explicit None test.)
        self.verify_cache = (
            signatures.SignatureVerifyCache() if verify_cache is None else verify_cache
        )
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
        self.checkpoints: dict[int, Checkpoint] = {
            0: Checkpoint.capture(self.kv, 0, len(self.ledger), self.ledger.root())
        }
        self.cp_directory = CheckpointDirectory(self.checkpoints[0].digest())
        self.last_taken_cp = 0
        self.last_recorded_cp = -1
        # Ledger prefix GC (PR 5): pins held by in-flight state transfers
        # and pending audit packages, and the governance archive that
        # preserves the sub-ledger across truncations (created lazily at
        # the first truncation; None also marks a suffix-installed replica
        # that never held the genesis prefix).
        self.retention = RetentionPolicy()
        self._gov_archive = None
        self._cp_taken_at: dict[int, float] = {0: 0.0}

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
        # digest belong to the admission component.
        self.admission = Admission(self)
        self.batches: dict[int, BatchRecord] = {}
        self.pps: dict[tuple[int, int], PrePrepare] = {}
        self.ppd_index: dict[Digest, tuple[int, int]] = {}
        self.prepares_by_ppd: dict[Digest, dict[int, Prepare]] = {}
        self.commit_nonces: dict[tuple[int, int], dict[int, bytes]] = {}
        self.pending_commits: dict[tuple[int, int], list[Commit]] = {}
        self.own_nonces: dict[tuple[int, int], NonceCommitment] = {}
        # Slots below the horizon were released by ``_garbage_collect``
        # (unless their batch is pinned): no pre-prepare can reopen one.
        self.gc_horizon = 0
        self.tx_locations: dict[Digest, tuple[int, int]] = {}  # digest -> (seqno, index)
        self.pending_pps: list[tuple] = []  # stashed (pp_wire, digests, trace_ctx)
        # Peers we have an outstanding legacy fetch-ledger to: only a
        # solicited `ledger-gone` may suspend us into a state transfer.
        self._fetch_ledger_pending: set[str] = set()
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
            "fetch-ledger": self.handle_fetch_ledger,
            "ledger-bundle": self.handle_ledger_bundle,
            "ledger-gone": self.handle_ledger_gone,
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
            "sync-ledger-refused": self.sync_client.on_ledger_refused,
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
        return self.verify_cache.verify(public_key, payload, signature, self.backend)

    def _verify_many(self, items: list[tuple[bytes, bytes, bytes]]) -> list[bool]:
        """Batched :meth:`_verify` over (key, payload, sig) triples —
        one call into the crypto layer for message sets that arrive
        together (evidence bundles, view-change certificates).  The
        verification stage fans out across the CPU's lanes and joins on
        the last item — the caller consumes all the verdicts."""
        if not items:
            return []
        if not self.params.use_signatures:
            self.submit("sign", len(items) * self.costs.mac)
            return [True] * len(items)
        self.submit_many("verify", [self.costs.verify] * len(items))
        self.metrics.bump("signatures_verified", len(items))
        return signatures.verify_batch(items, self.backend, self.verify_cache)

    def _fresh_nonce(self) -> NonceCommitment:
        self._nonce_counter += 1
        seed = codec.encode((self.id, self._nonce_counter, self.keypair.public_key))
        return new_nonce(seed)

    # -- message dispatch ---------------------------------------------------------

    def on_start(self) -> None:
        self.views.arm_timer()

    def on_message(self, src: str, msg: Any) -> None:
        if not isinstance(msg, tuple) or not msg:
            raise ProtocolError(f"malformed message from {src!r}")
        kind = msg[0]
        # Channel authentication: all traffic is MAC'd (§3.4).
        self.submit("message", self.costs.message_overhead + self.costs.mac)
        self.metrics.bump("messages_received")
        if self.params.peer_review and kind in _PEER_REVIEW_ACKED:
            # PeerReview baseline: sign an acknowledgement for every
            # protocol message (§6.1); the ack is a real message so the
            # extra network load is modeled too.
            self.submit("sign", self.costs.sign)
            self.send(src, ("ack", digest_value((kind, self.id))))
        handler = self._handlers.get(kind)
        if handler is None:
            raise ProtocolError(f"unknown message kind {kind!r}")
        handler(src, msg)

    # -- client requests (Alg. 1 line 1) ------------------------------------------------

    def handle_request(
        self, src: str, msg: tuple, force: bool = False, record_source: bool = True
    ) -> None:
        request = TransactionRequest.from_wire(msg[1])
        tx_digest = request.request_digest()
        located = self.tx_locations.get(tx_digest)
        if located is not None or tx_digest in self.admission:
            # A retransmission.  Its sender is worth remembering only
            # while a reply can still be routed there: the request is
            # queued, or its batch record is retained.
            if record_source and (located is None or located[0] in self.batches):
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

    # -- commitment evidence ----------------------------------------------------------

    def _evidence(
        self, seqno: int, bitmap: int | None = None
    ) -> tuple[EvidenceEntry, NoncesEntry] | None:
        """Assemble ``(Ps, Ks)`` for a committed batch from the message
        store: N−f revealed nonces (primary's included) and the matching
        N−f−1 prepare messages (§3.1).  Given ``bitmap``, for exactly the
        replicas the primary chose — backups must append *the same* Ps−P
        and Ks−P."""
        record = self.batches.get(seqno)
        if record is None or record.pp is None:
            return None
        view = record.view
        config = self.config_for(seqno)
        primary_id = config.primary_for_view(view)
        nonces_by = self.commit_nonces.get((view, seqno), {})
        prepares = self.prepares_by_ppd.get(record.pp_digest, {})
        if bitmap is None:
            eligible = sorted(r for r in nonces_by if r == primary_id or r in prepares)
            if primary_id not in eligible or len(eligible) < config.quorum:
                return None
            chosen = sorted([primary_id] + [r for r in eligible if r != primary_id][: config.quorum - 1])
            bitmap = bitmap_of(chosen)
        else:
            chosen = bitmap_members(bitmap)
            if any(r not in nonces_by or (r != primary_id and r not in prepares) for r in chosen):
                return None
        evidence = EvidenceEntry(
            seqno=seqno,
            view=view,
            prepare_wires=tuple(prepares[r].to_wire() for r in chosen if r != primary_id),
        )
        nonces = NoncesEntry(
            seqno=seqno,
            view=view,
            bitmap=bitmap,
            nonces=tuple(nonces_by[r] for r in chosen),
        )
        return evidence, nonces

    def _evidence_available(self, seqno: int) -> bool:
        """hasEvidence (Alg. 1 line 5)."""
        return seqno < 1 or self._evidence(seqno) is not None

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
                base = self.ledger.logical_size() + self._evidence_entry_count(s) + 1
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

    def _evidence_entry_count(self, seqno: int) -> int:
        return 2 if seqno - self.params.pipeline >= 1 else 0

    def _checkpoint_due(self, seqno: int) -> bool:
        """Does the regular batch at ``seqno`` carry an interval checkpoint
        transaction (recording the newest unrecorded checkpoint, §3.4)?"""
        if not self.params.checkpoints:
            return False
        if seqno % self.params.checkpoint_interval != 0:
            return False
        return self.last_taken_cp > self.last_recorded_cp

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
        pair = self._evidence(ev_seqno, bitmap)
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
        stage the (t, i, o) entries.  The caller has already appended the
        evidence entries; the pre-prepare entry will sit at the current
        ledger length, so the first transaction index is
        ``len(ledger) + 1``.  Also returns each entry's M leaf, hashed
        from the encoding its G leaf was, for :meth:`_install_batch`."""
        record = BatchRecord(seqno=s, view=view, flags=flags, kv_mark=self.kv.tx_count)
        m_leaves: list[Digest] = []
        # The pre-prepare entry consumes the next logical index; the first
        # transaction takes the one after (logical indices skip vc/nv
        # entries, so re-executed batches reuse their original indices).
        next_index = self.ledger.logical_size() + 1

        # Checkpoint transactions lead their batch (§3.4, §5.1).
        if flags == BATCH_CHECKPOINT or (flags == BATCH_REGULAR and self._checkpoint_due(s)):
            cp_seqno = self.last_taken_cp
            cp = self.checkpoints[cp_seqno]
            entry = CheckpointTxEntry(
                cp_seqno=cp_seqno,
                cp_digest=cp.digest(),
                ledger_size=cp.ledger_size,
                ledger_root=cp.ledger_root,
                index=next_index,
            )
            record.entries.append(entry)
            record.g_tree.append(entry.leaf_digest())
            m_leaves.append(entry.digest())
            record.tx_digests.append(None)
            next_index += 1
            self.last_recorded_cp = cp_seqno
            self.cp_directory.note_record(s, cp_seqno, cp.digest())

        for tx_digest in tx_digests:
            request, arrival = self.admission.take(tx_digest)
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
            entry = TxEntry(request_wire=request.to_wire(), index=next_index, output=output)
            m_leaf, g_leaf = entry.leaves()
            record.entries.append(entry)
            record.g_tree.append(g_leaf)
            m_leaves.append(m_leaf)
            record.tx_digests.append(tx_digest)
            record.clients.setdefault(request.client, []).append(tx_digest)
            self.tx_locations[tx_digest] = (s, next_index)
            next_index += 1
            if request.procedure.startswith("gov."):
                # A governance transaction ends the batch (§5.1 summary).
                self.gov_tx_log.append((s, tx_digest, request.procedure))
                break
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
        self.own_nonces[(view, s)] = nonce
        cp_ref_seqno, cp_digest = self.cp_directory.reference_for(s)
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
        self.ledger.append(PrePrepareEntry(pp_wire=pp.to_wire()))
        for entry, m_leaf in zip(record.entries, m_leaves):
            self.ledger.append(entry, m_leaf)
        if self.params.ledger:
            entries = 1 + len(record.entries)
            self.submit("append", entries * self.costs.ledger_append)
            self.submit("hash", entries * 2 * self.costs.hash_fixed)
        record.ledger_end = len(self.ledger)
        self.batches[record.seqno] = record
        self.pps[(record.view, record.seqno)] = pp
        self.ppd_index[record.pp_digest] = (record.view, record.seqno)
        self._verify_early_prepares(record.pp_digest, record.seqno)

    def _verify_early_prepares(self, pp_digest: Digest, seqno: int) -> None:
        """A prepare that arrived before its pre-prepare was stored
        unchecked — ``handle_prepare`` could not tell whose keys to check
        it against.  Now that the digest names a slot, verify what is
        stored under it in one fan-out, before anything counts it toward
        the prepare quorum or ships it as evidence."""
        early = self.prepares_by_ppd.get(pp_digest)
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
        self.prepares_by_ppd[pp_digest] = valid

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
        self.pending_pps.append((msg[1], tuple(msg[2]), self._inbound_ctx))
        self._retry_pending_pps()

    def _retry_pending_pps(self) -> None:
        """Process stashed pre-prepares now actionable, in sequence order
        (execution is serial, so out-of-order arrivals wait)."""
        progress = True
        while progress:
            progress = False
            self.pending_pps.sort(key=lambda item: item[0][2])  # wire field 2 = seqno
            for stashed in list(self.pending_pps):
                pp = PrePrepare.from_wire(stashed[0])
                known = self.batches.get(pp.seqno)
                # Drop only what can never be needed: stale views, or
                # batches we already hold in an equal-or-newer view.  A
                # pre-prepare below next_seqno is NOT stale per se — a
                # new-view may roll the frontier back and re-issue it
                # (messages can arrive out of order).
                if pp.view < self.view or (known is not None and known.view >= pp.view):
                    if pp.view < self.view and (known is None or known.view < pp.view):
                        self._last_lower_view_drop = pp.view
                    self.pending_pps.remove(stashed)
                    progress = True
                    continue
                if pp.seqno == self.next_seqno and pp.view == self.view:
                    done = self._try_accept_pre_prepare(
                        pp, stashed[1], stashed[2] if len(stashed) > 2 else None)
                    if done:
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
        if (pp.view, s) in self.own_nonces:
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
        if ev_seqno >= 1 and self._evidence(ev_seqno, pp.evidence_bitmap) is None:
            # Wait for the referenced prepares/commits; ask the primary
            # to retransmit in case we never saw them (§3.1: "if the
            # backup is missing messages, it requests that the primary
            # retransmit them").
            primary_addr = self.replica_directory.get(config.primary_for_view(pp.view))
            if primary_addr and primary_addr != self.address:
                self.send(primary_addr, ("fetch-evidence", ev_seqno, pp.evidence_bitmap))
            return False
        # The activation batch (s + 2P + 1) is signed by the *new*
        # configuration's primary (§5.1).
        activation_batch = (
            pp.flags == BATCH_CHECKPOINT
            and self.reconfig is not None
            and s == self.reconfig.activation_seqno(self.params.pipeline)
        )
        # A rollback that crossed an activation after a ledger adoption
        # has no ReconfigState to recognize the re-issued activation
        # batch by — but the adopted schedule knows which seqno starts
        # each configuration span.
        adopted_span = None
        if pp.flags == BATCH_CHECKPOINT and self.reconfig is None:
            for span in self.schedule.spans():
                if span.config.number > 0 and span.start_seqno == s:
                    adopted_span = span
                    break
        if activation_batch:
            signer_config = self.reconfig.new_config
        elif adopted_span is not None:
            signer_config = adopted_span.config
        else:
            signer_config = config
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
        elif adopted_span is not None:
            # Re-executing a known activation batch: re-assert the KV
            # install that live activation performed (idempotent — the
            # same configuration and marker deletions either way), so the
            # replayed state matches replicas that activated live.
            self.kv.execute(
                lambda tx, c=adopted_span.config: install_configuration(tx, c)
            )
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
        cp_mark = (self.last_recorded_cp, self.last_taken_cp)
        self._append_evidence(s, pp.evidence_bitmap)
        record, m_leaves = self._execute_batch(s, pp.view, pp.flags, list(batch_digests))
        record.ledger_start = ledger_mark
        record.kv_mark = kv_mark

        consistent = record.g_tree.root() == pp.root_g and self.ledger.root() == pp.root_m
        if consistent and pp.flags == BATCH_END_OF_CONFIG and self.reconfig is not None:
            consistent = pp.committed_root == self.reconfig.committed_root
        if not consistent:
            # Line 22–23: divergent execution or a lying primary.
            self._undo_batch_execution(record, ledger_mark, kv_mark, cp_mark)
            self.metrics.bump("root_mismatches")
            if accept_span is not None:
                accept_span.set(root_mismatch=True)
                accept_span.finish(self.cpu_time())
            self.views.suspect_primary()
            return

        self._install_batch(record, m_leaves, pp)
        nonce = self._fresh_nonce()
        self.own_nonces[(pp.view, s)] = nonce
        prepare = Prepare(replica=self.id, nonce_commitment=nonce.commitment, pp_digest=record.pp_digest)
        prepare = prepare.with_signature(self._sign(prepare.signed_payload()))
        self._store_prepare(prepare)
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

    def _undo_batch_execution(
        self,
        record: BatchRecord,
        ledger_mark: int,
        kv_mark: int,
        cp_mark: tuple[int, int],
    ) -> None:
        """Alg. 1 ``undo``: roll back the KV store and ledger and restore
        the batch's requests to the pending set."""
        self.kv.rollback_to(kv_mark)
        self.ledger.truncate(ledger_mark)
        self.last_recorded_cp, self.last_taken_cp = cp_mark
        self.cp_directory.rollback_after(record.seqno - 1)
        self._unexecute(record, arrival=self.now)

    def _unexecute(self, record: BatchRecord, arrival: float | None = None) -> None:
        """Forget where a rolled-back batch's requests executed and return
        them to the queue."""
        for tx_digest in record.tx_digests:
            self.tx_locations.pop(tx_digest, None)
        self.admission.requeue(record, arrival)

    # -- prepares and commits (Alg. 1 lines 27–41) -----------------------------------------

    def handle_prepare(self, src: str, msg: tuple) -> None:
        prepare = Prepare.from_wire(msg[1])
        located = self.ppd_index.get(prepare.pp_digest)
        if located is not None:
            view, seqno = located
            config = self.config_for(seqno)
            if not config.has_replica(prepare.replica):
                return
            if not self._verify(
                config.replica_key(prepare.replica), prepare.signed_payload(), prepare.signature
            ):
                self.metrics.bump("bad_prepare_signatures")
                return
        # An early prepare (digest not indexed yet) is stored unchecked;
        # ``_verify_early_prepares`` checks it when the digest gets a slot.
        self._store_prepare(prepare)
        if located is not None:
            self._check_prepared(*located)
            self._drain_pending_commits(*located)
        self._retry_pending_pps()

    def _store_prepare(self, prepare: Prepare) -> None:
        self.prepares_by_ppd.setdefault(prepare.pp_digest, {})[prepare.replica] = prepare

    def handle_commit(self, src: str, msg: tuple) -> None:
        commit = Commit.from_wire(msg[1])
        if (commit.view, commit.seqno) not in self.pps:
            if commit.seqno >= self.gc_horizon:  # else: late, for a released slot
                self.pending_commits.setdefault((commit.view, commit.seqno), []).append(commit)
            return
        self._apply_commit(commit)
        self._retry_pending_pps()

    def _drain_pending_commits(self, view: int, seqno: int) -> None:
        for commit in self.pending_commits.pop((view, seqno), []):
            self._apply_commit(commit)

    def _apply_commit(self, commit: Commit) -> None:
        """Validate a revealed nonce against the commitment its sender
        signed — the pre-prepare for the primary, a prepare otherwise."""
        key = (commit.view, commit.seqno)
        pp = self.pps.get(key)
        if pp is None:
            return
        config = self.config_for(commit.seqno)
        if not config.has_replica(commit.replica):
            return
        primary_id = config.primary_for_view(commit.view)
        commitment = commit_nonce(commit.nonce)
        self.submit("hash", self.costs.hash_fixed)
        if commit.replica == primary_id:
            if commitment != pp.nonce_commitment:
                self.metrics.bump("bad_commit_nonces")
                return
        else:
            record = self.batches.get(commit.seqno)
            ppd = record.pp_digest if record is not None and record.view == commit.view else pp.digest()
            prepare = self.prepares_by_ppd.get(ppd, {}).get(commit.replica)
            if prepare is None:
                self.pending_commits.setdefault(key, []).append(commit)
                return
            if prepare.nonce_commitment != commitment:
                self.metrics.bump("bad_commit_nonces")
                return
        self.commit_nonces.setdefault(key, {})[commit.replica] = commit.nonce
        self._check_committed(commit.view, commit.seqno)

    def _check_prepared(self, view: int, seqno: int) -> None:
        """Alg. 1 ``batchPrepared``: the batch prepares once we hold its
        pre-prepare plus N−f−1 matching prepares and every earlier batch
        has prepared."""
        record = self.batches.get(seqno)
        if record is None or record.prepared or record.view != view:
            return
        config = self.config_for(seqno)
        prepares = self.prepares_by_ppd.get(record.pp_digest, {})
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
            nonce = self.own_nonces.get((view, seqno))
            if nonce is not None:
                commit = Commit(view=view, seqno=seqno, replica=self.id, nonce=nonce.nonce)
                payload = ("commit", commit.to_wire())
                for dst in self.peer_addresses():
                    out = payload if self.behavior is None else self.behavior.outgoing_commit(self, dst, payload)
                    if out is not None:
                        self.send(dst, out)
                self.commit_nonces.setdefault((view, seqno), {})[self.id] = nonce.nonce
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
        nonces = self.commit_nonces.get((view, seqno), {})
        primary_id = config.primary_for_view(view)
        if len(nonces) < config.quorum or primary_id not in nonces:
            return
        if self.committed_upto != seqno - 1:
            return
        record.committed = True
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

    def _build_reply(self, record: BatchRecord) -> Reply | None:
        """Assemble this replica's reply for a batch, or ``None`` when we
        cannot: no commit nonce of our own for the slot, or (for a
        backup) no own prepare whose signature doubles as the reply
        signature (§3.3)."""
        config = self.config_for(record.seqno)
        nonce = self.own_nonces.get((record.view, record.seqno))
        if nonce is None or record.pp is None:
            return None
        primary_id = config.primary_for_view(record.view)
        if self.id == primary_id:
            signature = record.pp.signature
        else:
            own_prepare = self.prepares_by_ppd.get(record.pp_digest, {}).get(self.id)
            if own_prepare is None:
                return None
            signature = own_prepare.signature
        return Reply(
            view=record.view,
            seqno=record.seqno,
            replica=self.id,
            signature=signature,
            nonce=nonce.nonce,
        )

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
        record = self.batches.get(located[0])
        if record is None or not record.committed:
            return
        if not self.net.has_node(src):
            return  # a real network drops this; the simulator raises
        reply = self._build_reply(record)
        if reply is None:
            return
        payload = ("reply", reply.to_wire(), (tx_digest,))
        if self.behavior is not None:
            payload = self.behavior.outgoing_reply(self, src, payload)
            if payload is None:
                return
        self.send(src, payload)
        self.metrics.bump("replies_resent")

    def _send_replies(self, record: BatchRecord) -> None:
        """One reply per client in the batch; the designated replica also
        sends the extended ``replyx`` per transaction (§3.3)."""
        config = self.config_for(record.seqno)
        reply = self._build_reply(record)
        if reply is None:
            return
        if self.params.peer_review:
            # PeerReview: a signed reply per transaction, not per batch.
            self.submit("sign", self.costs.sign * max(1, record.request_count()))
        for client, tx_digests in record.clients.items():
            dst = self.admission.source(tx_digests[0])
            if dst is None:
                continue
            payload = ("reply", reply.to_wire(), tuple(tx_digests))
            if self.behavior is not None:
                payload = self.behavior.outgoing_reply(self, dst, payload)
                if payload is None:
                    continue
            self.send(dst, payload)
        if self.params.receipts:
            for position, (entry, tx_digest) in enumerate(zip(record.entries, record.tx_digests)):
                if tx_digest is None or designated_replica(tx_digest, config) != self.id:
                    continue
                dst = self.admission.source(tx_digest)
                if dst is not None:
                    self._send_replyx(record, position, entry, tx_digest, dst)

    def _send_replyx(
        self, record: BatchRecord, position: int, entry: TxEntry, tx_digest: Digest, dst: str
    ) -> None:
        path = record.g_tree.path(position)
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
        record = self.batches.get(located[0])
        if record is None:
            # The batch record was garbage-collected (or never built — a
            # state-synced replica only reconstructs committed batches);
            # everything a replyx needs is still in the ledger.  Only
            # committed batches qualify: an executed-but-unprepared batch
            # can still be rolled back by a view change, and serving its
            # receipt would break receipt safety.
            if located[0] <= self.committed_upto:
                self._replyx_from_ledger(tx_digest, located, src)
            return
        if not record.prepared:
            return
        for position, (entry, d) in enumerate(zip(record.entries, record.tx_digests)):
            if d == tx_digest:
                self.admission.note_source(tx_digest, src, replace=True)
                self._send_replyx(record, position, entry, tx_digest, src)
                return

    def _replyx_from_ledger(self, tx_digest: Digest, located: tuple[int, int], src: str) -> None:
        """Rebuild a replyx for a committed-and-pruned batch from ledger
        entries alone: the pre-prepare, the (t, i, o) triples, and a fresh
        per-batch tree G for the inclusion path.

        For a batch below the ledger-GC horizon the entries themselves are
        gone; the fallback is the checkpoint that superseded them — the
        client is told its transaction's effects are vouched for by the
        oldest retained stable checkpoint (digest dC), which is the best
        any replica can attest once the prefix is collected."""
        seqno, index = located
        info = self.ledger.batch(seqno)
        if info is None:
            oldest = self.ledger.oldest_retained_seqno()
            if oldest is not None and seqno < oldest:
                cp = self._oldest_stable_checkpoint()
                if cp is not None and seqno <= cp.seqno:
                    self.send(src, ("replyx-gone", tx_digest, cp.seqno, cp.digest()))
                    self.metrics.bump("receipts_gone_gc")
            return
        pp = self.ledger.batch_pre_prepare(seqno)
        g_tree = MerkleTree()
        position = target = None
        for offset, entry in enumerate(self.ledger.entries(info.first_tx, info.end)):
            g_tree.append(entry.leaf_digest())
            if entry.index == index:
                position, target = offset, entry
        if target is None:
            return
        self.submit("hash", len(g_tree) * self.costs.hash_fixed)
        payload, size = replyx_payload(pp, tx_digest, target.index, target.output, g_tree.path(position))
        self.send(src, payload, size)
        self.metrics.bump("receipts_rebuilt_from_ledger")

    # -- checkpoints (§3.4) ------------------------------------------------------------

    def _maybe_take_checkpoint(self, record: BatchRecord) -> None:
        if not self.params.checkpoints:
            return
        s = record.seqno
        due_interval = record.flags == BATCH_REGULAR and s % self.params.checkpoint_interval == 0
        due_activation = (
            record.flags == BATCH_END_OF_CONFIG
            and self.reconfig is not None
            and s == self.reconfig.checkpoint_seqno(self.params.pipeline)
        )
        if not (due_interval or due_activation):
            return
        cp_start = self.cpu_time() if self.tracer.enabled else 0.0
        self.submit("hash", len(self.kv) * self.costs.checkpoint_per_entry)
        self.checkpoints[s] = Checkpoint.capture(self.kv, s, len(self.ledger), self.ledger.root())
        self._cp_taken_at[s] = self.now
        self.last_taken_cp = s
        self.metrics.bump("checkpoints_taken")
        if self.tracer.enabled:
            # Node-local root span: checkpoints are batch work, not tied
            # to one request's trace.
            self.tracer.span("checkpoint", self.address, cp_start,
                             end=self.cpu_time(), seqno=s)
        self._garbage_collect(s)
        self._maybe_truncate_ledger()

    def _garbage_collect(self, stable_seqno: int) -> None:
        """Prune message stores for batches older than the previous
        checkpoint (their evidence lives in the ledger now)."""
        horizon = stable_seqno - self.params.checkpoint_interval
        if horizon <= 0:
            return
        self.gc_horizon = horizon
        # Batches holding governance transactions (and the pending EOC
        # batch) stay pinned until activation assembles their receipts
        # into the governance link: a referendum easily spans more than a
        # checkpoint window under load, and pruning the records first
        # would leave every replica unable to build the link — clients
        # could then never verify the new configuration (§5.2).
        pinned = {seqno for seqno, _, _ in self.gov_tx_log}
        if self.reconfig is not None:
            pinned.add(self.reconfig.eoc_receipt_seqno(self.params.pipeline))
        for seqno in [s for s in self.batches if s < horizon and s not in pinned]:
            if self.batches[seqno].committed:
                self.admission.forget(self.batches.pop(seqno))
        # The per-slot message tables go with their batch — by seqno, so
        # the keys a view change or a ledger install left behind under
        # another view (or for a slot that never got a record) go too.
        def released(seqno: int) -> bool:
            return seqno < horizon and seqno not in self.batches

        for digest in [d for d, (_, s) in self.ppd_index.items() if released(s)]:
            del self.ppd_index[digest]
            self.prepares_by_ppd.pop(digest, None)
        for table in (self.pps, self.commit_nonces, self.pending_commits, self.own_nonces):
            for key in [k for k in table if released(k[1])]:
                del table[key]
        old_cps = sorted(s for s in self.checkpoints if s < horizon)
        for s in old_cps[:-1]:
            del self.checkpoints[s]
            self._cp_taken_at.pop(s, None)
        # A rollback targets a retained batch (``rollback_to_batch`` raises
        # on an unknown one), so undo records below every kept mark are dead.
        self.kv.forget_before(min(record.kv_mark for record in self.batches.values()))

    # -- ledger prefix GC (PR 5) ---------------------------------------------------------

    def _oldest_stable_checkpoint(self) -> Checkpoint | None:
        """The oldest retained checkpoint (seqno > 0) whose recording
        checkpoint transaction sits in a *committed* batch — commitment
        means a quorum signed the chain of roots covering the record, so
        truncating below its state can never orphan an audit of the
        retained suffix."""
        for record in self.cp_directory.records():
            if record.record_seqno > self.committed_upto:
                break
            cp = self.checkpoints.get(record.cp_seqno)
            if cp is not None and cp.seqno > 0 and cp.digest() == record.digest:
                return cp
        return None

    def _maybe_truncate_ledger(self) -> None:
        """Garbage-collect the ledger prefix below the oldest stable
        checkpoint, clamped by retention pins (the statesync server's
        in-flight-transfer pin; the same API serves long-running audit
        collection).  Called after checkpoint stabilization; the
        governance sub-ledger of the pruned region is archived first so
        audits keep a complete configuration history."""
        if not (self.params.ledger_gc and self.params.checkpoints and self.params.ledger):
            return
        # A completed/abandoned state transfer must not hold its serve pin
        # forever; the server releases it once clients go quiet.
        self.sync_server.release_stale_pin()
        stable = self._oldest_stable_checkpoint()
        if stable is None:
            return
        # Age floor: recent history stays fetchable (client replyx
        # rebuilds, audit package assembly) for at least the grace window.
        taken = self._cp_taken_at.get(stable.seqno)
        if taken is None or self.now - taken < self.params.ledger_gc_min_age:
            return
        boundary = self.retention.boundary(stable.ledger_size)
        # Pins may sit anywhere; truncation must land on a batch boundary.
        boundary = self._align_gc_boundary(boundary)
        if boundary <= self.ledger.base_index:
            return
        self._archive_governance_prefix(boundary)
        dropped = self.ledger.truncate_below(boundary)
        if dropped:
            # Truncation is cheap but not free: pinning the boundary
            # frontier folds O(log n) cached peaks, and dropping the
            # prefix is one storage operation (a chunk-file unlink in a
            # real ledger).  O(log n) per C batches — far below any knee,
            # so pinned bench rates are unaffected.
            self.submit("hash", boundary.bit_length() * self.costs.hash_fixed)
            self.submit("append", self.costs.ledger_append)
            # Records for pruned batches can never be referenced again;
            # dropping them keeps the oldest-stable scan O(window).
            oldest = self.ledger.oldest_retained_seqno()
            if oldest is not None:
                self.cp_directory.prune_records_below(oldest)
            self.metrics.bump("ledger_truncations")
            self.metrics.bump("ledger_entries_gced", dropped)

    def _align_gc_boundary(self, boundary: int) -> int:
        """The largest batch-end at or below ``boundary`` (checkpoint
        ledger sizes are batch ends already; arbitrary pins round down)."""
        best = self.ledger.base_index
        for info in self.ledger.batches():
            if info.end <= boundary:
                best = max(best, info.end)
            else:
                break
        return best

    def _archive_governance_prefix(self, boundary: int) -> None:
        """Feed the about-to-be-pruned region into the governance archive
        (the sub-ledger must survive the entries it was derived from)."""
        # Imported lazily: repro.governance.subledger imports the lpbft
        # message types, so a module-level import would be circular.
        from ..governance.subledger import GovernanceExtractor

        if self._gov_archive is None:
            if self.ledger.base_index > 0:
                return  # suffix-installed: the genesis prefix never existed here
            self._gov_archive = GovernanceExtractor(self.params.pipeline)
        start = self._gov_archive.next_index
        if start < boundary:
            region = self.ledger.entries(start, boundary)
            # Archiving replays the region's governance transactions on
            # the extractor's scratch store — real (rare) execute work.
            gov_txs = sum(
                1
                for entry in region
                if isinstance(entry, TxEntry) and entry.request_wire[1].startswith("gov.")
            )
            if gov_txs:
                self.submit("execute", gov_txs * self.costs.execute_tx(3, 8))
            self._gov_archive.feed(region, start)

    def governance_subledger(self):
        """The replica's committed governance sub-ledger, complete from
        genesis even after ledger prefix GC (archive + retained suffix).
        A replica that *joined* from a checkpoint-rooted transfer never
        held the genesis prefix; it reports the retained governance
        entries under its own schedule (best effort — such replicas serve
        state sync, not audits)."""
        from ..governance.subledger import GovernanceSubLedger, extract_governance_subledger

        base = self.ledger.base_index
        if base == 0:
            return extract_governance_subledger(self.ledger.entries(), self.params.pipeline)
        if self._gov_archive is not None and self._gov_archive.next_index == base:
            extractor = self._gov_archive.copy()
            extractor.feed(self.ledger.entries(), base)
            return extractor.subledger()
        entries = [
            (index, entry.to_wire())
            for index, entry in zip(range(base, len(self.ledger)), self.ledger.entries())
            if isinstance(entry, TxEntry) and entry.request_wire[1].startswith("gov.")
        ]
        return GovernanceSubLedger(
            entries=entries, schedule=self.schedule.copy(), reconfigs=[]
        )

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
        activation = self.reconfig.activation_seqno(self.params.pipeline)
        new_config = self.reconfig.new_config
        link = self._build_governance_link()
        self.kv.execute(lambda tx: install_configuration(tx, new_config))
        self.schedule.append(
            ConfigSpan(config=new_config, start_seqno=activation, start_index=len(self.ledger))
        )
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
        record = self.batches.get(seqno)
        if record is None or record.pp is None:
            return None
        built = self._evidence(seqno)
        if built is None:
            return None
        evidence, nonces_entry = built
        config = self.config_for(seqno)
        primary_id = config.primary_for_view(record.view)
        signer_ids = bitmap_members(nonces_entry.bitmap)
        prepare_by = {p.replica: p for p in evidence.prepares()}
        prepare_signatures = tuple(
            prepare_by[r].signature for r in signer_ids if r != primary_id
        )
        aggregate = None
        if (
            self.params.aggregate_signatures
            and self.params.use_signatures
            and getattr(self.backend, "supports_aggregation", False)
        ):
            # Collapse the share set to one aggregate (group adds on a
            # parallel lane); served receipts, governance links, and
            # audit LedgerPackages all shrink by f signature strings.
            shares = (record.pp.signature,) + prepare_signatures
            self.submit("aggregate", len(shares) * self.costs.agg_add)
            aggregate = self.backend.aggregate(shares)
            prepare_signatures = ()
        common = dict(
            **record.pp.receipt_fields(),
            primary_signature=record.pp.signature,
            signer_bitmap=nonces_entry.bitmap,
            prepare_signatures=prepare_signatures,
            nonces=nonces_entry.nonces,
            aggregate=aggregate,
        )
        if tx_digest is None:
            return Receipt(
                request_wire=None, index=None, output=None, path=None,
                root_g=record.pp.root_g, **common,
            )
        for position, (entry, d) in enumerate(zip(record.entries, record.tx_digests)):
            if d == tx_digest:
                return Receipt(
                    request_wire=entry.request_wire, index=entry.index, output=entry.output,
                    path=record.g_tree.path(position), **common,
                )
        return None

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
            located = self.tx_locations.get(tx_digest)
            if located is not None:
                record = self.batches.get(located[0])
                if record is not None:
                    for entry, d in zip(record.entries, record.tx_digests):
                        if d == tx_digest:
                            found.append(entry.request_wire)
                            break
        if found:
            self.send(src, ("requests-bundle", tuple(found)))

    def handle_requests_bundle(self, src: str, msg: tuple) -> None:
        # Fetched requests bypass admission control (they are needed for an
        # already-proposed batch), and the sender is a replica, not the
        # client — never a reply destination.
        for wire in msg[1]:
            self.handle_request(src, ("request", wire), force=True, record_source=False)

    def handle_fetch_ledger(self, src: str, msg: tuple) -> None:
        """Serve the full ledger plus the newest checkpoint it records —
        the requester checks the binding, and a checkpoint taken but not
        yet recorded has none (Alg. 2: a replica behind a new view's
        latest prepared batch fetches the missing entries).  Once the
        prefix has been garbage-collected there is no full ledger to
        serve; the requester is told so explicitly (``ledger-gone``) and
        falls back to the checkpoint-rooted sync protocol."""
        if self.ledger.base_index > 0:
            self.send(src, ("ledger-gone",))
            return
        fragment = self.ledger.fragment(0)
        # The whole ledger ships, so a record in any batch we hold counts.
        cp = self.sync_server.recorded_checkpoint(self.next_seqno) or self.checkpoints.get(0)
        cp_wire = None if cp is None else cp.to_wire()
        self.send(
            src,
            ("ledger-bundle", fragment.start, fragment.entry_wires, cp_wire, self.view, self.next_seqno),
        )

    def handle_fetch_evidence(self, src: str, msg: tuple) -> None:
        """Retransmit commitment evidence for a batch (prepares + nonces)."""
        seqno, bitmap = msg[1], msg[2]
        pair = self._evidence(seqno, bitmap) or self._evidence(seqno)
        if pair is not None:
            self.send(src, ("evidence-bundle", seqno, pair[0].to_wire(), pair[1].to_wire()))

    def handle_evidence_bundle(self, src: str, msg: tuple) -> None:
        """Ingest retransmitted evidence into the message stores after
        validating every signature and nonce against our own pre-prepare
        for the batch."""
        seqno = msg[1]
        record = self.batches.get(seqno)
        if record is None or record.pp is None:
            return
        evidence = entry_from_wire(msg[2])
        nonces = entry_from_wire(msg[3])
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
        accepted: dict[int, Prepare] = {}
        for prepare, ok in zip(candidates, verdicts):
            if not ok:
                continue
            self._store_prepare(prepare)
            accepted[prepare.replica] = prepare
        store = self.commit_nonces.setdefault((record.view, seqno), {})
        for replica_id, nonce in zip(bitmap_members(nonces.bitmap), nonces.nonces):
            commitment = commit_nonce(nonce)
            if replica_id == primary_id:
                if commitment == record.pp.nonce_commitment:
                    store.setdefault(replica_id, nonce)
            else:
                prepare = accepted.get(replica_id) or self.prepares_by_ppd.get(
                    record.pp_digest, {}
                ).get(replica_id)
                if prepare is not None and prepare.nonce_commitment == commitment:
                    store.setdefault(replica_id, nonce)
        self._retry_pending_pps()

    def _send_fetch_ledger(self, addr: str) -> None:
        """Whole-ledger fetch, tracked so a `ledger-gone` answer is only
        honored from a peer we actually asked."""
        self._fetch_ledger_pending.add(addr)
        self.send(addr, ("fetch-ledger",))

    def handle_ledger_gone(self, src: str, msg: tuple) -> None:
        """The peer we asked for a whole ledger garbage-collected its
        prefix: recover through the checkpoint-rooted state-sync protocol
        instead.  Unsolicited `ledger-gone` messages are dropped — a
        Byzantine replica must not be able to suspend honest replicas into
        state transfers at will."""
        if src not in self._fetch_ledger_pending:
            return
        self._fetch_ledger_pending.discard(src)
        self.sync_client.start("ledger_gone")

    def handle_ledger_bundle(self, src: str, msg: tuple) -> None:
        """Adopt the whole ledger we fetched (Alg. 2) — only one we asked
        for, and only once it passes the verifier a sync suffix passes."""
        if src not in self._fetch_ledger_pending:
            return
        # The fetch is answered; src no longer holds a license to report
        # `ledger-gone` for it either.
        self._fetch_ledger_pending.discard(src)
        _, start, entry_wires, cp_wire, view, next_seqno = msg
        if start != 0 or len(entry_wires) <= len(self.ledger):
            return
        try:
            ledger = LedgerFragment(start, tuple(entry_wires)).to_ledger()
            checkpoint = None if cp_wire is None else Checkpoint.from_wire(cp_wire)
            schedule = verify_fetched_ledger(self, ledger, len(entry_wires), 1, checkpoint)
            install_ledger(self, ledger, checkpoint, view, schedule)
        except (ProtocolError, LedgerError, KVError, MerkleError, TypeError):
            self.metrics.bump("bad_ledger_bundles")
            return
        self.send(src, ("get-gov-chain",))
        self._retry_pending_pps()  # prune stash entries the adoption covered

    def handle_get_gov_chain(self, src: str, msg: tuple) -> None:
        self.send(
            src,
            ("gov-chain-resp", self.gov_chain.to_wire(), self._gov_suffix_entries()),
        )

    def handle_gov_chain_resp(self, src: str, msg: tuple) -> None:
        chain = GovernanceChain.from_wire(msg[1])
        if len(chain) > len(self.gov_chain):
            self.gov_chain = chain

    def _gov_suffix_entries(self) -> tuple:
        """Member-signed governance transactions past the chain's last
        link, as ``(logical_index, entry_wire)`` pairs (§5.2).

        The chain only carries receipts for governance transactions that
        *reconfigured* the service; a client gating receipt completion on
        governance coverage also needs the ones that didn't (failed
        proposals, in-flight referendums) — otherwise any rejected
        ``gov.propose`` would leave every later receipt's ``gov_index``
        unexplained and wedge completion.  Served best-effort from the
        retained ledger; entries below the GC horizon are simply absent
        (their referencing receipts completed long ago)."""
        anchor = 0
        for link in self.gov_chain.links:
            for receipt in (link.propose_receipt, *link.vote_receipts):
                if receipt.index is not None and receipt.index > anchor:
                    anchor = receipt.index
        if self.ledger.last_gov_index <= anchor:
            return ()
        return self.ledger.gov_entries_after(anchor)

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
        self.pending_commits = {}
        self.prepares_by_ppd = {}
        self.commit_nonces = {}
        self.own_nonces = {}
        self._last_lower_view_drop = None
        self.syncing = False
        self.ready = True
        self.metrics.bump("volatile_resets")


# The class's former name: benchmarks/perf/spans.py wraps ``on_message`` through it.
LPBFTReplicaCore = LPBFTReplica

# Message kinds acknowledged under PeerReview (all protocol-level traffic).
_PEER_REVIEW_ACKED = {"request", "pre-prepare", "prepare", "commit"}
