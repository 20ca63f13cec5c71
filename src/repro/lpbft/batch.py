"""What a replica remembers about one executed batch, and the one way a
transaction runs against a store.

A leaf module: the replica, its ledger install (:mod:`.adoption`) and the
auditor's replay all need these two, and none of them may import another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.hashing import Digest
from ..errors import TransactionAborted
from ..kvstore import EMPTY_WS, KVStore, ProcedureRegistry
from ..merkle import MerkleTree
from .messages import PrePrepare, TransactionRequest


def execute_procedure(
    kv: KVStore, registry: ProcedureRegistry, request: TransactionRequest
) -> tuple[dict, int]:
    """Run one transaction, returning ``(output, kv_op_count)``.

    The output is the ledger's ``o`` component: the client-visible reply
    plus the write-set digest (so replay detects silently-altered writes
    even when the reply matches).  Aborts commit nothing and yield a
    deterministic error reply.  Shared by replicas and the auditor's
    replay (§4.1).
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
