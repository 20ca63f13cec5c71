"""A replica's checkpoints (paper §3.4, Appendix B).

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
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..crypto.hashing import Digest
from .messages import BATCH_END_OF_CONFIG, BATCH_REGULAR

if TYPE_CHECKING:
    from ..kvstore import Checkpoint
    from ..ledger import Ledger


@dataclass(frozen=True, order=True)
class CheckpointRecord:
    """One checkpoint transaction as seen in the ledger: the batch that
    recorded it and the checkpoint it vouches for."""

    record_seqno: int
    cp_seqno: int
    digest: Digest


class CheckpointStore(Mapping):
    """A replica's checkpoints: a read-only mapping seqno → held
    :class:`~repro.kvstore.Checkpoint`, plus when each was taken and the
    checkpoint transactions recorded so far, in batch order.  It decides
    the dC a pre-prepare carries, which checkpoints are stable, and where
    ledger prefix GC may cut; nothing else writes checkpoint bookkeeping.
    """

    def __init__(self, genesis_digest: Digest) -> None:
        self.genesis_digest = genesis_digest
        # Checkpoint 0 once taken, kept through pruning: every replica
        # holds it, so state sync offers it without chunks.
        self.genesis: Checkpoint | None = None
        self._held: dict[int, tuple[Checkpoint, float]] = {}  # seqno -> (cp, taken at)
        self._records: list[CheckpointRecord] = []
        # Parallel sorted list of record_seqnos so the per-pre-prepare
        # reference_for lookup is a real O(log n) bisect.
        self._seqnos: list[int] = []

    def __getitem__(self, seqno: int) -> Checkpoint:
        return self._held[seqno][0]

    def __iter__(self) -> Iterator[int]:
        return iter(self._held)

    def __len__(self) -> int:
        return len(self._held)

    @property
    def last_taken(self) -> int:
        """The newest held checkpoint (0 with none)."""
        return max(self._held, default=0)

    @property
    def last_recorded(self) -> int:
        """The checkpoint the newest record names (−1 with none)."""
        return self._records[-1].cp_seqno if self._records else -1

    def records(self) -> list[CheckpointRecord]:
        return list(self._records)

    def take(self, checkpoint: Checkpoint, now: float) -> None:
        """Hold ``checkpoint``, taken (or adopted) at time ``now``."""
        self._held[checkpoint.seqno] = (checkpoint, now)
        if checkpoint.seqno == 0:
            self.genesis = checkpoint

    def held(self, seqno: int, digest: Digest, ledger_size: int,
             ledger_root: Digest) -> Checkpoint | None:
        """Our checkpoint with this seqno, digest and ledger binding, or
        None; checkpoint 0 outlives pruning."""
        cp = self.genesis if seqno == 0 else self.get(seqno)
        if cp is None or (cp.digest(), cp.ledger_size, cp.ledger_root) != (
                digest, ledger_size, ledger_root):
            return None
        return cp

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
        """Forget the records and checkpoints of batches later than
        ``seqno`` (an undone batch, a view change).  A record *at*
        ``seqno`` survives: rolling back to the first batch of a new
        configuration must not forget the checkpoint it itself recorded.
        """
        keep = bisect_left(self._seqnos, seqno + 1)
        del self._records[keep:]
        del self._seqnos[keep:]
        for s in [s for s in self._held if s > seqno]:
            del self._held[s]

    def prune_below(self, horizon: int, frontier: int) -> None:
        """Drop held checkpoints below ``horizon`` but the newest of them
        and the newest stable one at ``frontier``, which state sync
        serves."""
        served = next(self.stable(frontier, newest_first=True), None)
        old = sorted(s for s in self._held if s < horizon)
        for s in old[:-1]:
            if served is None or s != served.seqno:
                del self._held[s]

    def prune_records_below(self, record_seqno: int) -> None:
        """Drop records from batches below ``record_seqno`` (ledger prefix
        GC): they can never be referenced again, and keeping them would
        make the stable scan O(total history), not O(retention window)."""
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
            return (0, self.genesis_digest)
        chosen = self._records[index - 1]
        return (chosen.cp_seqno, chosen.digest)

    def stable(self, frontier: int, newest_first: bool = False) -> Iterator[Checkpoint]:
        """Held checkpoints whose record sits in a batch at or below the
        commit ``frontier`` (a quorum signed the roots covering it) and
        names their digest, in record order or ``newest_first``."""
        records = self._records[:bisect_right(self._seqnos, frontier)]
        for record in reversed(records) if newest_first else records:
            held = self._held.get(record.cp_seqno)
            if held is not None and held[0].digest() == record.digest:
                yield held[0]

    def oldest_stable(self, frontier: int) -> Checkpoint | None:
        """The oldest stable checkpoint past genesis, which supersedes a
        collected ledger prefix."""
        return next((cp for cp in self.stable(frontier) if cp.seqno > 0), None)

    def gc_boundary(self, ledger: Ledger, frontier: int, now: float, min_age: float,
                    floor: int | None) -> int | None:
        """Where ledger prefix GC may cut, or None: the ledger size bound
        into the oldest stable checkpoint once it is ``min_age`` old
        (recent history stays fetchable for replyx rebuilds and audit
        packages), clamped by the pin ``floor`` (the lowest index a
        retention pin holds, None without pins), rounded down to a batch
        end (pins may sit anywhere)."""
        stable = self.oldest_stable(frontier)
        if stable is None or now - self._held[stable.seqno][1] < min_age:
            return None
        boundary = stable.ledger_size if floor is None else min(stable.ledger_size, floor)
        best = ledger.base_index
        for info in ledger.batches():
            if info.end > boundary:
                break
            best = max(best, info.end)
        return best if best > ledger.base_index else None


def checkpoint_due(seqno: int, flags: int, params, reconfig) -> bool:
    """Is a checkpoint taken once the batch at ``seqno`` executes?  After
    a regular batch at a multiple of C, and after the last
    end-of-configuration batch of a passed referendum (``reconfig``, a
    :class:`~repro.lpbft.batch.ReconfigState` or None).  Executing a
    batch and replaying it in a ledger install take the same ones."""
    if not params.checkpoints:
        return False
    if flags == BATCH_REGULAR:
        return seqno % params.checkpoint_interval == 0
    return (flags == BATCH_END_OF_CONFIG and reconfig is not None
            and seqno == reconfig.checkpoint_seqno(params.pipeline))


def reference_checkpoint_seqno(seqno: int, interval: int, config_start: int = 0) -> int:
    """Closed-form dC reference (§B.1/§B.2): the penultimate checkpoint
    sequence number for a batch at ``seqno`` in a configuration whose
    first checkpoint is at ``config_start``.

    Matches :meth:`CheckpointStore.reference_for` on schedules without
    skipped checkpoints; the store is authoritative when reconfiguration
    sequences skip interval checkpoints.
    """
    relative = seqno - config_start
    if relative < 0:
        raise ValueError(f"seqno {seqno} precedes configuration start {config_start}")
    if relative <= interval:
        return config_start
    raw = interval * (math.ceil(relative / interval) - 2)
    return config_start + max(0, raw)
