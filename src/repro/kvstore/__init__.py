"""Strictly-serializable transactional key-value store (paper §2).

IA-CCF executes transactions against a key-value store that supports
roll-back at transaction granularity.  CCF uses a CHAMP persistent map,
so a checkpoint is a pointer copy; the substitution here is a shared
immutable base + a per-store delta, under three invariants: a base is
never written after construction; a :class:`Snapshot` exposes no
mutator; an accumulator is computed from entries or carried from the
store that maintained it, never taken from a peer.  The store provides:

- :class:`Snapshot` — the immutable state value (base + delta +
  accumulator) that stores, checkpoints, genesis state, state sync and
  audits pass by reference;
- :class:`KVStore` — a base reference plus its own delta, with a flat
  undo log of ``key, prior`` slots, rollback of any retained suffix of the
  transaction history, canonical checkpoint digests, and write-set
  hashing;
- :class:`KVTransaction` — the read/write handle passed to stored
  procedures;
- :class:`ProcedureRegistry` — named stored procedures defining the
  service logic (paper: "clients send requests to execute transactions by
  calling stored procedures").
"""

from .store import EMPTY_WS, KVStore, KVTransaction, Snapshot
from .checkpoints import (
    Checkpoint,
    ChunkReassembler,
    checkpoint_digest,
    chunk_digest,
    chunk_state,
)
from .procedures import ProcedureRegistry, procedure_result

__all__ = [
    "EMPTY_WS",
    "KVStore",
    "KVTransaction",
    "Snapshot",
    "Checkpoint",
    "ChunkReassembler",
    "checkpoint_digest",
    "chunk_digest",
    "chunk_state",
    "ProcedureRegistry",
    "procedure_result",
]
