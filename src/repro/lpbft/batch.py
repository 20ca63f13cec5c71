"""What a replica remembers about its batches and their slots' messages,
the one way a transaction runs against a store, and the reconfiguration in flight.

A leaf module: the replica, its view changes, its ledger install
(:mod:`.adoption`) and the auditor's replay need these, and none of them
may import another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.hashing import Digest
from ..crypto.nonces import NonceCommitment
from ..errors import TransactionAborted
from ..governance.configuration import Configuration
from ..kvstore import EMPTY_WS, KVStore, ProcedureRegistry
from ..merkle import MerkleTree
from .messages import Commit, Prepare, PrePrepare, TransactionRequest


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
    entries: list = field(default_factory=list)  # TxEntry | CheckpointTxEntry, in G order
    g_tree: MerkleTree = field(default_factory=MerkleTree)
    tx_digests: list = field(default_factory=list)  # request digest per entry (None for cp tx)
    clients: dict = field(default_factory=dict)  # client pubkey -> [tx digests]
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

    def add_prepare(self, prepare: Prepare) -> None:
        self.prepares_by_ppd.setdefault(prepare.pp_digest, {})[prepare.replica] = prepare

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
        """Lose every slot message (a process restart); records stay."""
        for table in (self.prepares_by_ppd, self.commit_nonces, self.pending_commits, self.own_nonces):
            table.clear()


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
