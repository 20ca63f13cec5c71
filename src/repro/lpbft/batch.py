"""What a replica remembers about one executed batch, the one way a
transaction runs against a store, and the reconfiguration in flight.

A leaf module: the replica, its view changes, its ledger install
(:mod:`.adoption`) and the auditor's replay need these, and none of them
may import another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.hashing import Digest
from ..errors import TransactionAborted
from ..governance.configuration import Configuration
from ..kvstore import EMPTY_WS, KVStore, ProcedureRegistry
from ..merkle import MerkleTree
from .messages import PrePrepare, TransactionRequest


def execute_procedure(
    kv: KVStore, registry: ProcedureRegistry, request: TransactionRequest
) -> tuple[dict, int]:
    """Run one transaction, returning ``(output, kv_op_count)``.

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
