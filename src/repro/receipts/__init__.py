"""Receipts: succinct, universally-verifiable execution evidence (§3.3, §5.2).

- :mod:`repro.receipts.receipt` — the :class:`Receipt` structure (its
  transaction and the batch's shared :class:`Certificate`) and Alg. 3
  verification, one receipt or many (each distinct certificate checked
  once);
- :mod:`repro.receipts.collector` — client-side assembly of receipts from
  ``reply``/``replyx`` messages;
- :mod:`repro.receipts.chain` — the governance receipt chains clients keep
  in place of the ledger, with fork detection.
"""

# Receipts are built from L-PBFT's messages, and the replica and client
# build receipts: load repro.lpbft first, which imports this package's
# modules (by submodule) after its messages, so the import order is the
# same whichever package a process imports first.
from .. import lpbft  # noqa: F401
from .receipt import Certificate, Receipt, verify_receipt, verify_receipts, receipts_equivalent
from .collector import ReceiptCollector, assemble_receipt, PendingRequest
from .chain import (
    GovernanceChain,
    GovernanceLink,
    verify_chain,
    verify_served_chain,
    find_chain_fork,
    longest_chain,
)

__all__ = [
    "Certificate",
    "Receipt",
    "verify_receipt",
    "verify_receipts",
    "receipts_equivalent",
    "ReceiptCollector",
    "assemble_receipt",
    "PendingRequest",
    "GovernanceChain",
    "GovernanceLink",
    "verify_chain",
    "verify_served_chain",
    "find_chain_fork",
    "longest_chain",
]
