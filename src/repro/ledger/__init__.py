"""The IA-CCF ledger (paper §2 ②, Fig. 3).

An append-only sequence of typed entries — transactions with results,
L-PBFT protocol messages (pre-prepares, commitment evidence, nonces,
view-changes, new-views), checkpoint transactions, and governance
transactions — all bound by the ledger Merkle tree M.

:class:`Ledger` is the replica-side structure (entries + tree + rollback);
:class:`LedgerFragment` is the serializable slice shipped to auditors;
:mod:`repro.ledger.wellformed` checks the structural rules a correct
replica's ledger always satisfies.
"""

from .entries import (
    LedgerEntry,
    GenesisEntry,
    TxEntry,
    CheckpointTxEntry,
    EvidenceEntry,
    NoncesEntry,
    PrePrepareEntry,
    ViewChangesEntry,
    NewViewEntry,
    TxRun,
    entry_from_wire,
)
from .ledger import Ledger, LedgerFragment, BatchInfo

__all__ = [
    "LedgerEntry",
    "GenesisEntry",
    "TxEntry",
    "CheckpointTxEntry",
    "EvidenceEntry",
    "NoncesEntry",
    "PrePrepareEntry",
    "ViewChangesEntry",
    "NewViewEntry",
    "TxRun",
    "entry_from_wire",
    "Ledger",
    "LedgerFragment",
    "BatchInfo",
]
