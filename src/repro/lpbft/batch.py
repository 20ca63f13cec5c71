"""What a replica remembers about its batches and their slots' messages,
what it builds from them (commitment evidence, its reply, where a
transaction executed), the one way a transaction runs against a store,
and the reconfiguration in flight.

A leaf module: the replica, its view changes, its ledger install
(:mod:`.adoption`) and the auditor's replay need these, and none of them
may import another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..crypto.hashing import Digest, digest_value
from ..crypto.nonces import NonceCommitment
from ..errors import TransactionAborted
from ..governance.configuration import Configuration
from ..kvstore import EMPTY_WS, KVStore, ProcedureRegistry
from ..ledger.entries import EvidenceEntry, NoncesEntry, TxRun
from ..merkle import MerkleTree
from .messages import Commit, Prepare, PrePrepare, Reply, TransactionRequest, bitmap_members, bitmap_of

if TYPE_CHECKING:
    from ..ledger import BatchInfo, Ledger


# PBFT's log size L (Castro and Liskov §4.2): a commit that arrives before
# its pre-prepare is held only for a slot in [gc_horizon, gc_horizon + L].
# Below, the slot was released; past it, a sender fills memory with slots
# no honest replica reaches before this one's next checkpoint.  L lies far
# past any sequencing window or checkpoint interval in use, so a replica
# that lags still holds the commits its state transfer's tail drains.
PENDING_COMMIT_REACH = 1 << 16


def location(seqno: int, index: int) -> int:
    """Where a transaction executed, as one int: its batch's ``seqno``
    above the 32 bits of its ledger ``index``.  A replica holds one per
    executed request (``tx_locations``); a tuple would cost 56 bytes
    more each."""
    return seqno << 32 | index


def split_location(located: int) -> tuple[int, int]:
    """``(seqno, index)`` from a :func:`location`."""
    return located >> 32, located & 0xFFFF_FFFF


def execute_procedure(
    kv: KVStore, registry: ProcedureRegistry, request: TransactionRequest
) -> tuple[dict, int]:
    """Run one transaction, returning ``(output, kv_op_count)``.  Reads
    only ``request.procedure`` and ``request.args`` (replay passes a
    ledger entry's :meth:`~repro.ledger.TxEntry.invocation`).

    The output is the ledger's ``o`` component: the client-visible reply
    plus the write-set digest (so replay detects silently-altered writes
    even when the reply matches).  Aborts, including a procedure that
    raises or is unknown (:meth:`ProcedureRegistry.invoke`), commit
    nothing and yield a deterministic error reply.  Shared by replicas
    and the auditor's replay (§4.1).
    """
    tx = kv.begin()
    try:
        result = registry.invoke(request.procedure, tx, request.args)
    except TransactionAborted as abort:
        ops = tx.op_count
        tx._discard()
        return {"reply": {"ok": False, "error": str(abort)}, "ws": EMPTY_WS}, max(1, ops)
    ops = tx.op_count
    ws = tx.write_set_digest()
    tx._commit()
    return {"reply": result, "ws": ws}, max(1, ops)


@dataclass
class BatchRecord:
    """Everything a replica remembers about one executed batch."""

    seqno: int
    view: int
    flags: int
    pp: PrePrepare | None = None
    pp_digest: Digest | None = None
    run: TxRun | None = None  # the batch's transaction entries, in G order (shared with the ledger)
    # Tree G until the batch commits; then BatchStore.g_tree finds it.
    g_tree: MerkleTree | None = field(default_factory=MerkleTree)
    tx_digests: list = field(default_factory=list)  # request digest per entry (None for cp tx)
    sources: list = field(default_factory=list)  # reply address per entry (None: unknown, or cp tx)
    kv_mark: int = 0  # kv.tx_count before the batch executed
    ledger_start: int = 0  # ledger size before the batch's evidence entries
    ledger_end: int = 0  # ledger size after the batch's last entry
    prepared: bool = False
    committed: bool = False
    quorum_span: object = None  # open "quorum" Span while tracing

    def request_count(self) -> int:
        return sum(1 for d in self.tx_digests if d is not None)


class BatchStore(dict):
    """A replica's message store (Alg. 1): a ``dict`` seqno → :class:`BatchRecord`
    for reads, plus the records by pre-prepare digest and their slots' messages.
    Only the store adds or removes a record, and a removed record's digest and
    prepares go with it; a slot's nonces and pending commits stay until GC passes
    the slot (a rolled-back slot keeps its own nonce: Alg. 1 line 16's guard)."""

    def __init__(self) -> None:
        self.digest_index: dict[Digest, BatchRecord] = {}  # pp digest -> held record
        self.prepares_by_ppd: dict[Digest, dict[int, Prepare]] = {}  # early ones unverified
        self.commit_nonces: dict[tuple[int, int], dict[int, bytes]] = {}
        self.pending_commits: dict[tuple[int, int], list[Commit]] = {}
        self.own_nonces: dict[tuple[int, int], NonceCommitment] = {}
        self.gc_horizon = 0  # slots below it were released: no pre-prepare reopens one

    def by_digest(self, pp_digest: Digest) -> BatchRecord | None:
        return self.digest_index.get(pp_digest)

    def pre_prepared(self, view: int, seqno: int) -> BatchRecord | None:
        record = self.get(seqno)
        return record if record is not None and record.view == view else None

    def stash_commit(self, commit: Commit) -> None:
        """Hold a commit for a slot not pre-prepared here yet, if the slot
        lies inside the window :data:`PENDING_COMMIT_REACH` bounds."""
        if 0 <= commit.seqno - self.gc_horizon <= PENDING_COMMIT_REACH:
            self.pending_commits.setdefault((commit.view, commit.seqno), []).append(commit)

    def add_prepare(self, prepare: Prepare) -> None:
        self.prepares_by_ppd.setdefault(prepare.pp_digest, {})[prepare.replica] = prepare

    def signer(self, record: BatchRecord, replica_id: int, primary_id: int) -> PrePrepare | Prepare | None:
        """What ``replica_id`` signed for ``record``'s slot, whose nonce
        commitment its commit nonce opens and whose signature stands in a
        receipt: the pre-prepare for the primary, its stored prepare
        otherwise."""
        if replica_id == primary_id:
            return record.pp
        return self.prepares_by_ppd.get(record.pp_digest, {}).get(replica_id)

    def evidence_signers(self, seqno: int, config: Configuration, bitmap: int | None = None) -> int | None:
        """The bitmap of the replicas whose commitment evidence the held
        batch at ``seqno`` appends: N−f with a revealed nonce (the
        primary's included), each backup among them with a prepare (§3.1).
        Given ``bitmap``, exactly those replicas — backups must append
        *the same* Ps−P and Ks−P.  None while any is missing."""
        record = self.get(seqno)
        if record is None:
            return None
        primary_id = config.primary_for_view(record.view)
        nonces_by = self.commit_nonces.get((record.view, seqno), {})
        prepares = self.prepares_by_ppd.get(record.pp_digest, {})
        if bitmap is None:
            eligible = sorted(r for r in nonces_by if r == primary_id or r in prepares)
            if primary_id not in eligible or len(eligible) < config.quorum:
                return None
            return bitmap_of([primary_id] + [r for r in eligible if r != primary_id][: config.quorum - 1])
        if any(r not in nonces_by or (r != primary_id and r not in prepares) for r in bitmap_members(bitmap)):
            return None
        return bitmap

    def evidence(
        self, seqno: int, config: Configuration, bitmap: int | None = None
    ) -> tuple[EvidenceEntry, NoncesEntry] | None:
        """``(Ps, Ks)`` for the held batch at ``seqno``: the N−f−1 prepares
        and N−f nonces of :meth:`evidence_signers`, or None.  Built only
        for the ledger and for an evidence bundle."""
        bitmap = self.evidence_signers(seqno, config, bitmap)
        if bitmap is None:
            return None
        record = self[seqno]
        view, chosen = record.view, bitmap_members(bitmap)
        primary_id = config.primary_for_view(view)
        nonces_by = self.commit_nonces.get((view, seqno), {})
        prepares = self.prepares_by_ppd.get(record.pp_digest, {})
        evidence = EvidenceEntry(
            seqno=seqno,
            view=view,
            prepare_wires=tuple(prepares[r].to_wire() for r in chosen if r != primary_id),
        )
        nonces = NoncesEntry(seqno=seqno, view=view, bitmap=bitmap, nonces=tuple(nonces_by[r] for r in chosen))
        return evidence, nonces

    def reply(self, record: BatchRecord, replica_id: int, config: Configuration) -> Reply | None:
        """``replica_id``'s reply for ``record`` (§3.3), or None without a
        commit nonce of its own for the slot or, for a backup, an own
        prepare whose signature doubles as the reply's."""
        nonce = self.own_nonces.get((record.view, record.seqno))
        if nonce is None:
            return None
        signer = self.signer(record, replica_id, config.primary_for_view(record.view))
        if signer is None:
            return None
        return Reply(
            view=record.view, seqno=record.seqno, replica=replica_id,
            signature=signer.signature, nonce=nonce.nonce)

    def reply_groups(self, record: BatchRecord) -> list[tuple[str, tuple]]:
        """``(address, tx digests)`` per client of ``record``, in
        first-appearance order: a client's transactions go to the reply
        address of its first one in the batch, and nowhere while that is
        unknown (a request fetched from the primary).  A client sends
        from one address, so while every address is known the addresses
        are the clients; otherwise the clients are read from the requests."""
        groups: dict = {}
        for d, src in zip(record.tx_digests, record.sources):
            if src is not None:
                groups.setdefault(src, []).append(d)
            elif d is not None:
                break
        else:
            return [(dst, tuple(digests)) for dst, digests in groups.items()]
        groups = {}
        for k, (d, src) in enumerate(zip(record.tx_digests, record.sources)):
            if d is not None:
                groups.setdefault(record.run.entry(k).request().client, (src, []))[1].append(d)
        return [(dst, tuple(digests)) for dst, digests in groups.values() if dst is not None]

    def g_tree(self, record: BatchRecord, ledger: Ledger) -> MerkleTree:
        """``record``'s tree G (§3.1).  The record holds it until the batch
        commits, after its replies went out; later readers (a
        ``get-replyx``, a governance receipt) take the ledger's,
        :meth:`Ledger.g_tree`, built once per batch, or for a record
        pinned past the ledger's collection one built from its run."""
        if record.g_tree is not None:
            return record.g_tree
        info = ledger.batch(record.seqno)
        if info is None:
            return MerkleTree(record.run.g_leaves(0, len(record.run)))
        return ledger.g_tree(info)

    def executed(
        self, tx_digest: Digest, located: int | None, ledger: Ledger | None = None
    ) -> tuple[BatchRecord, int] | tuple[BatchInfo, int] | None:
        """Where ``tx_digest`` executed, from its ``tx_locations`` value:
        ``(record, position)`` in the held batch record or, with none and
        given the ``ledger``, ``(info, position)`` in the ledger's batch.
        The position is the entry's logical index minus the batch's
        first, checked against the digest; None when it does not match."""
        if located is None:
            return None
        seqno, index = split_location(located)
        record = self.get(seqno)
        if record is not None:
            position = index - record.run.first_index
            if 0 <= position < len(record.tx_digests) and record.tx_digests[position] == tx_digest:
                return record, position
            return None
        info = None if ledger is None else ledger.batch(seqno)
        if info is None or not info.tx_count:
            return None
        run = ledger.batch_run(info)
        position = index - run.first_index
        wire = run.request_wire(position) if 0 <= position < len(run) else None
        if wire is not None and digest_value(wire) == tx_digest:
            return info, position
        return None

    def install(self, record: BatchRecord) -> None:
        self[record.seqno] = record
        self.digest_index[record.pp_digest] = record

    def _remove(self, seqno: int) -> BatchRecord:
        record = self.pop(seqno)
        del self.digest_index[record.pp_digest]
        self.prepares_by_ppd.pop(record.pp_digest, None)
        return record

    def remove_above(self, target: int) -> list[BatchRecord]:
        """A view-change rollback: drop the records above ``target``, oldest first."""
        return [self._remove(seqno) for seqno in sorted(s for s in self if s > target)]

    def release_below(self, horizon: int, pinned: set[int]) -> list[BatchRecord]:
        """Garbage collection: drop the committed, unpinned records below
        ``horizon``, then every message of a slot below it that keeps no
        record — by seqno, so keys a rollback left under another view go."""
        self.gc_horizon = horizon
        below = [s for s, record in self.items() if s < horizon and s not in pinned and record.committed]
        removed = [self._remove(seqno) for seqno in below]
        for table in (self.commit_nonces, self.pending_commits, self.own_nonces):
            for key in [k for k in table if k[1] < horizon and k[1] not in self]:
                del table[key]
        return removed

    def adopt(self, records: list[BatchRecord]) -> list[BatchRecord]:
        """A ledger install: hold exactly ``records`` (in seqno order) and
        drop the prepares of every digest no longer indexed; returns the
        newly indexed records, whose early prepares are unverified."""
        index = {record.pp_digest: record for record in records}
        for digest in self.digest_index.keys() - index.keys():
            self.prepares_by_ppd.pop(digest, None)
        fresh = [record for record in records if record.pp_digest not in self.digest_index]
        self.clear()
        self.update((record.seqno, record) for record in records)
        self.digest_index = index
        return fresh

    def forget_messages(self) -> None:
        """Lose every slot message and reply address (a process restart);
        records stay."""
        for table in (self.prepares_by_ppd, self.commit_nonces, self.pending_commits, self.own_nonces):
            table.clear()
        for record in self.values():
            record.sources = [None] * len(record.tx_digests)


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
