"""Checkpoint scheduling arithmetic (paper §3.4, Appendix B).

Checkpoints are taken when a replica executes a batch at a sequence number
that is a multiple of the checkpoint interval C (skipped inside
end/start-of-configuration sequences), plus one forced checkpoint at the
start of each configuration.  The digest of checkpoint ``cp_s`` is
recorded by a *checkpoint transaction* in the batch at ``s + C`` (or, for
the first checkpoint of a configuration, in the batch immediately after
it).  The ``dC`` field of a pre-prepare at sequence number ``s`` is the
digest recorded by the last checkpoint transaction strictly before ``s``
— i.e. the penultimate checkpoint, which is guaranteed committed.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from ..crypto.hashing import Digest


@dataclass(frozen=True, order=True)
class CheckpointRecord:
    """One checkpoint transaction as seen in the ledger: the batch that
    recorded it and the checkpoint it vouches for."""

    record_seqno: int
    cp_seqno: int
    digest: Digest


class CheckpointDirectory:
    """Tracks recorded checkpoint digests, in batch order.

    Replicas and auditors both maintain one, fed from checkpoint
    transactions as they appear; ``reference_for(s)`` answers "what dC
    must the pre-prepare at s carry?".
    """

    def __init__(self, genesis_digest: Digest) -> None:
        self._genesis_digest = genesis_digest
        self._records: list[CheckpointRecord] = []
        # Parallel sorted list of record_seqnos so the per-pre-prepare
        # reference_for lookup is a real O(log n) bisect.
        self._seqnos: list[int] = []

    def note_record(self, record_seqno: int, cp_seqno: int, digest: Digest) -> None:
        """Record a checkpoint transaction appearing at ``record_seqno``.

        Kept sorted by ``record_seqno`` regardless of call order (a replay
        after rollback, or a forced configuration-start record, may note
        records out of arrival order), and re-noting the same batch — an
        undone batch re-executed in a later view — replaces the stale
        record instead of shadowing it.
        """
        record = CheckpointRecord(record_seqno=record_seqno, cp_seqno=cp_seqno, digest=digest)
        index = bisect_left(self._seqnos, record_seqno)
        if index < len(self._seqnos) and self._seqnos[index] == record_seqno:
            self._records[index] = record
        else:
            self._records.insert(index, record)
            self._seqnos.insert(index, record_seqno)

    def rollback_after(self, seqno: int) -> None:
        """Drop records from batches later than ``seqno`` (view change).

        A record *at* ``seqno`` survives — including a forced
        configuration-start checkpoint recorded by the first batch of a
        new configuration: rolling back to that batch must not forget the
        checkpoint it itself recorded.
        """
        keep = bisect_left(self._seqnos, seqno + 1)
        del self._records[keep:]
        del self._seqnos[keep:]

    def prune_records_below(self, record_seqno: int) -> None:
        """Drop records from batches below ``record_seqno`` (ledger prefix
        GC).  Their checkpoints are no longer held and their batches
        can never be re-proposed; keeping them would make the per-
        stabilization oldest-stable scan O(total history) instead of
        O(retention window)."""
        keep = bisect_left(self._seqnos, record_seqno)
        del self._records[:keep]
        del self._seqnos[:keep]

    def reference_for(self, seqno: int) -> tuple[int, Digest]:
        """The ``(cp_seqno, digest)`` that the pre-prepare at ``seqno``
        must carry as dC: the last recorded checkpoint *strictly* before
        ``seqno`` (a checkpoint transaction inside the batch at ``seqno``
        itself is not yet committed, so it cannot be referenced), or the
        genesis checkpoint if none."""
        index = bisect_left(self._seqnos, seqno)
        if index == 0:
            return (0, self._genesis_digest)
        chosen = self._records[index - 1]
        return (chosen.cp_seqno, chosen.digest)

    def records(self) -> list[CheckpointRecord]:
        return list(self._records)

    def genesis_digest(self) -> Digest:
        return self._genesis_digest


def reference_checkpoint_seqno(seqno: int, interval: int, config_start: int = 0) -> int:
    """Closed-form dC reference (§B.1/§B.2): the penultimate checkpoint
    sequence number for a batch at ``seqno`` in a configuration whose
    first checkpoint is at ``config_start``.

    Matches :meth:`CheckpointDirectory.reference_for` on schedules without
    skipped checkpoints; the directory is authoritative when
    reconfiguration sequences skip interval checkpoints.
    """
    relative = seqno - config_start
    if relative < 0:
        raise ValueError(f"seqno {seqno} precedes configuration start {config_start}")
    if relative <= interval:
        return config_start
    raw = interval * (math.ceil(relative / interval) - 2)
    return config_start + max(0, raw)
