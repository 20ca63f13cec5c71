"""Merkle trees binding ledger entries (paper §2, Fig. 3).

IA-CCF maintains two kinds of trees:

- the ledger tree **M** over every ledger entry, whose root in each signed
  pre-prepare commits replicas to the entire ledger prefix; and
- a per-batch tree **G** over the ``(t, i, o)`` transaction entries of one
  batch, whose root in the pre-prepare lets a single signature cover every
  transaction in the batch (receipts carry a path through G).

:class:`MerkleTree` is an append-only tree with truncation (rollback,
Lemma 1), historical roots (``root_at``), and inclusion proofs.
"""

from .tree import MerkleTree
from .proofs import (
    MerklePath,
    frontier_from_wire,
    frontier_root,
    path_root,
    verify_path,
)

__all__ = [
    "MerkleTree",
    "MerklePath",
    "verify_path",
    "path_root",
    "frontier_root",
    "frontier_from_wire",
]
