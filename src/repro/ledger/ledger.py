"""The replica-side ledger: entries, Merkle tree M, and batch index.

Layout per committed batch at sequence number s (paper Fig. 3)::

    [evidence(s−P)] [nonces(s−P)] [pre-prepare(s)] [tx ...] [tx ...]

View changes insert ``[view-changes] [new-view]`` between batches.  The
ledger Merkle tree M appends the digest of every entry in ledger order,
and the ``root_m`` signed in each pre-prepare is the root of M over all
entries *before* that pre-prepare entry — so each signed batch commits the
replica to the entire preceding ledger.

Ledger *prefix garbage collection*: once audits can run from a stable
checkpoint, the entries below the oldest stable checkpoint are
dead weight — :meth:`Ledger.truncate_below` drops them, compacting the
tree M down to the boundary's frontier.  All indices stay *absolute*
(entry 1000 keeps index 1000 after the first 900 are collected); reads
below :attr:`Ledger.base_index` raise :class:`~repro.errors.LedgerError`.
A fetched fragment becomes a ledger one way, :meth:`LedgerFragment.to_ledger`:
at genesis, or born at a boundary from tree M's frontier there, holding
only the suffix.  It is a claim until :meth:`Ledger.unbound` finds
nothing: every signed ``root_m`` and ``root_g`` reproduced from the
entries, and the checkpoint the caller restores bound to them.  State
sync (:func:`repro.lpbft.adoption.verify_fetched_ledger`) and the audit
(:func:`repro.audit.package.check_package`) both ask it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import groupby, repeat
from typing import Iterator

from ..crypto.hashing import Digest
from ..errors import LedgerError
from ..merkle import MerkleTree
from ..merkle.proofs import frontier_from_wire
from .entries import (
    CheckpointTxEntry,
    GenesisEntry,
    LedgerEntry,
    NewViewEntry,
    PrePrepareEntry,
    TxEntry,
    TxRun,
    ViewChangesEntry,
    entry_from_wire,
)


@dataclass
class BatchInfo:
    """Locator for one batch inside the ledger."""

    seqno: int
    view: int
    pp_index: int  # ledger index of the pre-prepare entry
    first_tx: int  # ledger index of the first tx entry (== pp_index + 1)
    tx_count: int
    flags: int
    # Tree G over a decoded batch's entries, hashed as they were
    # appended, held until :meth:`Ledger.g_tree` hands it to its next
    # reader.
    g_tree: MerkleTree | None = field(default=None, repr=False, compare=False)

    @property
    def end(self) -> int:
        """Ledger index one past the batch's last entry."""
        return self.first_tx + self.tx_count


class Ledger:
    """Append-only ledger with the ledger Merkle tree M.

    Entries are indexed by absolute position; the tree has one leaf per
    entry, in order.  Rollback (Lemma 1) truncates both; prefix GC
    (:meth:`truncate_below`) drops entries below a checkpoint boundary
    while every retained index keeps its meaning.

    A batch's transaction entries are held as one :class:`TxRun`, whose
    positions in ``_entries`` each refer to it; every read of one builds
    a view.  A run continues while entries arrive with consecutive
    logical indices and nothing else in between.
    """

    def __init__(self, genesis: GenesisEntry | None = None) -> None:
        self._entries: list[LedgerEntry | TxRun] = []
        self._open: TxRun | None = None  # the tail run entry appends extend
        self._tree = MerkleTree()
        # One BatchInfo per pre-prepare entry, in ledger order; a seqno
        # re-proposed in a higher view has one for each, and _batches
        # finds the newest.
        self._batch_list: list[BatchInfo] = []
        self._batches: dict[int, BatchInfo] = {}
        self._last_g_tree: tuple[BatchInfo, MerkleTree] | None = None
        self._last_gov_index = 0
        # Prefix-GC state: _base is the absolute index of the first
        # retained entry; _logical_base counts the logical indices the
        # pruned prefix consumed; _gov_floor remembers the last governance
        # logical index that was garbage-collected, so rollbacks that find
        # no retained governance entry still report the right ig.
        self._base = 0
        self._logical_base = 0
        self._gov_floor = 0
        # Governance transaction entries survive prefix GC: clients gate
        # receipt completion on governance *coverage* (§5.2) and fetch
        # these member-signed entries to verify governance activity the
        # chain has no link for (failed proposals, in-flight
        # referendums).  Governance is rare, so retaining every
        # ``(logical_index, entry_wire)`` pair is a few tuples per
        # reconfiguration attempt.
        self._gov_entries: list[tuple[int, tuple]] = []
        # Logical indices: every entry except view-change/new-view records
        # consumes one.  Transactions keep their logical index across view
        # changes even though the vc/nv entries shift physical positions,
        # so re-executed batches reproduce the original ⟨t, i, o⟩ triples
        # (§3.2: re-execution must match the original ¯G).
        # _logical_to_position[k] is the absolute position of logical
        # index _logical_base + k: increasing, 8 bytes an entry.
        self._logical_to_position = array("q")
        if genesis is not None:
            self.append(genesis)

    # -- append / read ---------------------------------------------------

    def append(self, entry: LedgerEntry) -> int:
        """Append an entry; returns its absolute position."""
        index = len(self)
        if isinstance(entry, (TxEntry, CheckpointTxEntry)):
            self._append_txs((entry,))
            return index
        self._close_run()
        self._entries.append(entry)
        self._tree.append(entry.digest())
        if not isinstance(entry, (ViewChangesEntry, NewViewEntry)):
            self._logical_to_position.append(index)
        if isinstance(entry, PrePrepareEntry):
            pp = entry.pre_prepare()
            info = BatchInfo(
                seqno=pp.seqno,
                view=pp.view,
                pp_index=index,
                first_tx=index + 1,
                tx_count=0,
                flags=pp.flags,
            )
            self._batch_list.append(info)
            self._batches[pp.seqno] = info
        elif isinstance(entry, GenesisEntry):
            self._last_gov_index = self.logical_size() - 1
        return index

    def append_run(self, run: TxRun, m_leaves: list[Digest]) -> None:
        """Append an executed batch's transaction entries: ``run``, which
        the ledger then holds packed, with the M leaf execution hashed
        for each of its entries."""
        self._close_run()
        run.position = len(self)
        self._place(run.close(), m_leaves)

    def _append_txs(self, entries: list[TxEntry | CheckpointTxEntry]) -> list[Digest]:
        """Append transaction entries to the open tail run, or to a new
        one where an entry does not continue it; returns their G leaves."""
        run, m_leaves, g_leaves = self._open, [], []
        for entry in entries:
            if type(entry.index) is not int:
                raise LedgerError(f"transaction entry index {entry.index!r} is not an int")
            if run is None or run.first_index + len(run) != entry.index:
                if m_leaves:
                    self._place(run, m_leaves)
                    m_leaves = []
                self._close_run()
                run = self._open = TxRun(entry.index, len(self))
            m_leaf, g_leaf = run.add_entry(entry)
            m_leaves.append(m_leaf)
            g_leaves.append(g_leaf)
        if m_leaves:
            self._place(run, m_leaves)
        return g_leaves

    def _close_run(self) -> None:
        if self._open is not None:
            self._open.close()
            self._open = None

    def _place(self, run: TxRun, m_leaves) -> None:
        """Index the last ``len(m_leaves)`` entries of ``run``, which
        continue the ledger: one position, M leaf and logical index
        each, the open batch's count and the governance log."""
        position, count = len(self), len(m_leaves)
        self._entries.extend(repeat(run, count))
        for leaf in m_leaves:
            self._tree.append(leaf)
        self._logical_to_position.extend(range(position, position + count))
        if self._batch_list:
            info = self._batch_list[-1]
            if info.end == position:
                info.tx_count += count
        first, logical = position - run.position, self.logical_size() - count
        for k in range(first, first + count):
            if run.is_governance(k):
                self._last_gov_index = logical + k - first
                self._gov_entries.append((self._last_gov_index, run.wire(k)))

    def _append_decoded(self, entries: list[LedgerEntry]) -> None:
        """Append a fragment's decoded entries.  Each transaction entry's
        one ``(t, i, o)`` encoding gives its M leaf and its G leaf; the
        G leaves of the transaction entries that make up a batch are its
        tree G, kept for the readers of :meth:`g_tree`."""
        for is_tx, group in groupby(entries, lambda entry: isinstance(entry, (TxEntry, CheckpointTxEntry))):
            if not is_tx:
                for entry in group:
                    self.append(entry)
                continue
            txs = list(group)
            info = self._batch_list[-1] if self._batch_list else None
            g_leaves = self._append_txs(txs)
            if info is not None and info.end == len(self) and info.tx_count == len(txs):
                info.g_tree = MerkleTree(g_leaves)
        self._close_run()

    def __len__(self) -> int:
        """Total (absolute) ledger length, garbage-collected prefix included."""
        return self._base + len(self._entries)

    @property
    def base_index(self) -> int:
        """Absolute index of the first retained entry (0 when no prefix
        has been garbage-collected)."""
        return self._base

    def resident_entries(self) -> int:
        """How many entries are actually held in memory."""
        return len(self._entries)

    def logical_size(self) -> int:
        """Number of logical indices consumed (excludes vc/nv entries)."""
        return self._logical_base + len(self._logical_to_position)

    @property
    def logical_base(self) -> int:
        """First retained *logical* index (0 when no prefix has been
        garbage-collected)."""
        return self._logical_base

    def gov_entries_after(self, anchor: int) -> tuple:
        """Governance transaction entries with logical index above
        ``anchor``, as ``(logical_index, entry_wire)`` pairs.  Retained
        across prefix GC (clients need them to extend governance
        coverage past the chain's last link); a replica built from a
        suffix fragment only knows the entries in its suffix."""
        return tuple((i, w) for i, w in self._gov_entries if i > anchor)

    def entry_at_index(self, logical_index: int) -> LedgerEntry:
        """The entry with the given *logical* index (the index space
        transactions and receipts use)."""
        offset = logical_index - self._logical_base
        if not 0 <= offset < len(self._logical_to_position):
            raise LedgerError(
                f"logical index {logical_index} outside retained range "
                f"[{self._logical_base}, {self.logical_size()})"
            )
        return self._view(self._logical_to_position[offset])

    def entry(self, index: int) -> LedgerEntry:
        if not self._base <= index < len(self):
            raise LedgerError(
                f"ledger index {index} outside retained range [{self._base}, {len(self)})"
            )
        return self._view(index)

    def _view(self, position: int) -> LedgerEntry:
        held = self._entries[position - self._base]
        return held.entry(position - held.position) if type(held) is TxRun else held

    def entries(self, start: int | None = None, end: int | None = None) -> list[LedgerEntry]:
        """Entries in ``[start, end)``; ``start`` defaults to the retained
        base, ``end`` to the ledger length.  Asking for a start below the
        retained base raises — callers that need the pruned prefix must go
        through the governance archive or a checkpoint."""
        start, end = self._bounds(start, end)
        return [
            held.entry(position - held.position) if type(held) is TxRun else held
            for position, held in enumerate(self._entries[start - self._base : end - self._base], start)
        ]

    def outline(self) -> list[LedgerEntry | int]:
        """The retained entries in order, each transaction entry (a
        checkpoint transaction's too) as its logical index: what a
        structural check reads, with no view built."""
        return [
            held.first_index + position - held.position if type(held) is TxRun else held
            for position, held in enumerate(self._entries, self._base)
        ]

    def entries_of(self, kind: type, start: int | None = None, end: int | None = None) -> list[LedgerEntry]:
        """The entries of class ``kind`` in ``[start, end)`` (bounds as
        :meth:`entries`), found without building a transaction entry's
        view; ``kind`` is not :class:`TxEntry`."""
        start, end = self._bounds(start, end)
        found = []
        for position, held in enumerate(self._entries[start - self._base : end - self._base], start):
            if type(held) is TxRun:
                # A checkpoint transaction is held as itself, a request is no entry.
                held = held.requests[position - held.position]
            if isinstance(held, kind):
                found.append(held)
        return found

    def _bounds(self, start: int | None, end: int | None) -> tuple[int, int]:
        start = self._base if start is None else start
        end = len(self) if end is None else end
        if start < self._base:
            raise LedgerError(
                f"entries from {start} were garbage-collected (retained from {self._base})"
            )
        if not start <= end <= len(self):
            raise LedgerError(f"bad entry range [{start}, {end}) for ledger of {len(self)}")
        return start, end

    def __iter__(self) -> Iterator[LedgerEntry]:
        return (self._view(position) for position in range(self._base, len(self)))

    # -- Merkle tree -------------------------------------------------------

    def root(self) -> Digest:
        """Current root of the ledger tree M."""
        return self._tree.root()

    def root_at(self, size: int) -> Digest:
        """Root of M when the ledger had ``size`` entries."""
        return self._tree.root_at(size)

    def tree(self) -> MerkleTree:
        """The underlying tree (do not mutate)."""
        return self._tree

    # -- batches -----------------------------------------------------------

    def batch(self, seqno: int) -> BatchInfo | None:
        """Locator for the newest batch at ``seqno`` (None if absent or
        pruned)."""
        return self._batches.get(seqno)

    def batches(self) -> list[BatchInfo]:
        """All retained batches in ledger order, one per pre-prepare
        entry: a seqno re-proposed in a higher view appears once per
        view."""
        return list(self._batch_list)

    def last_seqno(self) -> int:
        """Sequence number of the newest batch (0 if none)."""
        return self._batch_list[-1].seqno if self._batch_list else 0

    def oldest_retained_seqno(self) -> int | None:
        """Sequence number of the oldest retained batch (None if none)."""
        return self._batch_list[0].seqno if self._batch_list else None

    def batch_entries(self, seqno: int) -> list[LedgerEntry]:
        """The tx/checkpoint entries of the batch at ``seqno``."""
        info = self._batches.get(seqno)
        if info is None:
            raise LedgerError(f"no batch at seqno {seqno}")
        return self.entries(info.first_tx, info.end)

    def batch_run(self, info: BatchInfo) -> TxRun:
        """The run holding the transaction entries of the batch ``info``
        locates (an empty one for a batch without any).  Raises when
        they are not one run, which no correct replica appends."""
        if not info.tx_count:
            return TxRun(0).close()
        run = self._entries[info.first_tx - self._base]
        if run.position != info.first_tx or len(run) != info.tx_count:
            raise LedgerError(f"batch {info.seqno}: its transaction entries are not one run")
        if run is self._open:
            self._close_run()
        return run

    def batch_pre_prepare(self, seqno: int):
        """The pre-prepare message of the newest batch at ``seqno``."""
        info = self._batches.get(seqno)
        if info is None:
            raise LedgerError(f"no batch at seqno {seqno}")
        return self.pre_prepare(info)

    def pre_prepare(self, info: BatchInfo):
        """The pre-prepare message of the batch ``info`` locates."""
        entry = self._entries[info.pp_index - self._base]
        assert isinstance(entry, PrePrepareEntry)
        return entry.pre_prepare()

    def _g_leaves(self, start: int, end: int) -> list[Digest]:
        """The G leaves of the transaction entries in ``[start, end)``,
        from their runs' bytes."""
        leaves: list[Digest] = []
        while start < end:
            run = self._entries[start - self._base]
            k = start - run.position
            count = min(len(run) - k, end - start)
            leaves += run.g_leaves(k, k + count)
            start += count
        return leaves

    def g_tree(self, info: BatchInfo) -> MerkleTree:
        """Tree G over the entries of the batch ``info`` locates (§3.1).
        A tree :meth:`unbound` built is handed to the next reader and no
        longer held here: the ledger install moves it into the batch
        record, the replay reads it.  Otherwise the ledger keeps only the
        last tree it built, so a burst of receipts rebuilt from one
        collected batch record builds it once."""
        tree, info.g_tree = info.g_tree, None
        if tree is None and self._last_g_tree is not None and self._last_g_tree[0] is info:
            tree = self._last_g_tree[1]
        if tree is None or len(tree) != info.tx_count:
            tree = MerkleTree(self._g_leaves(info.first_tx, info.end))
            self._last_g_tree = (info, tree)
        return tree

    def unbound(self, checkpoint=None) -> list[tuple[int, str]]:
        """Where the entries fail to reproduce what was signed, as
        ``(seqno, detail)`` pairs in ledger order (empty when bound).

        Every batch's pre-prepare signs ``root_m``, tree M over the
        entries before it, and ``root_g``, tree G over the batch's own
        entry leaves (§3.1).  A ``checkpoint`` past genesis (a
        :class:`~repro.kvstore.Checkpoint`) must be bound too: its
        ``ledger_size`` inside the ledger, tree M's root there equal to
        its ``ledger_root``, and a checkpoint transaction at or after
        that size recording its seqno, digest, size and root — otherwise
        a peer could widen the prefix the checkpoint claims to cover.
        """
        found = []
        for info in self._batch_list:
            pp = self.pre_prepare(info)
            if self.root_at(info.pp_index) != pp.root_m:
                found.append((info.seqno, f"batch {info.seqno}: the entries before its "
                              f"pre-prepare do not reproduce the signed root_m"))
            info.g_tree = self.g_tree(info)
            if info.g_tree.root() != pp.root_g:
                found.append((info.seqno, f"batch {info.seqno}: its entries do not "
                              f"reproduce the signed root_g"))
        if checkpoint is None or checkpoint.seqno <= 0:
            return found
        seqno, size = checkpoint.seqno, checkpoint.ledger_size
        if not self._base <= size <= len(self):
            found.append((seqno, f"checkpoint {seqno}: ledger size {size} lies outside "
                          f"the ledger [{self._base}, {len(self)})"))
        elif self.root_at(size) != checkpoint.ledger_root:
            found.append((seqno, f"checkpoint {seqno}: tree M's root at size {size} "
                          f"is not its ledger root"))
        elif (seqno, checkpoint.digest(), size, checkpoint.ledger_root) not in {
            (entry.cp_seqno, entry.cp_digest, entry.ledger_size, entry.ledger_root)
            for entry in self.entries_of(CheckpointTxEntry, size)
        }:
            found.append((seqno, f"checkpoint {seqno}: no checkpoint transaction "
                          f"records its digest and ledger binding"))
        return found

    # -- governance ----------------------------------------------------------

    @property
    def last_gov_index(self) -> int:
        """Ledger index of the most recent governance transaction (ig)."""
        return self._last_gov_index

    def governance_entries(
        self, start: int | None = None, end: int | None = None
    ) -> list[tuple[int, LedgerEntry]]:
        """The retained entries in ``[start, end)`` that the governance
        sub-ledger reads, as ``(absolute index, entry)`` pairs in ledger
        order: genesis, every pre-prepare and every governance
        transaction.  Read off what :meth:`append` indexes (the batches
        and the governance log), not by a walk of the entries; bounds as
        :meth:`entries`."""
        start = self._base if start is None else start
        end = len(self) if end is None else end
        if start < self._base or not start <= end <= len(self):
            raise LedgerError(f"bad range [{start}, {end}) for ledger retaining [{self._base}, {len(self)})")
        positions = [info.pp_index for info in self._batch_list if start <= info.pp_index < end]
        base, logical = self._logical_base, self._logical_to_position
        positions += [
            position
            for position in (logical[i - base] for i, _ in self._gov_entries if i >= base)
            if start <= position < end
        ]
        if start == 0 < end and isinstance(self._entries[0], GenesisEntry):
            positions.append(0)
        return [(position, self._view(position)) for position in sorted(positions)]

    def governance_indices(self) -> list[int]:
        """Absolute indices of retained governance transactions (genesis
        included when retained)."""
        return [i for i, entry in self.governance_entries() if not isinstance(entry, PrePrepareEntry)]

    # -- rollback (Lemma 1) ----------------------------------------------------

    def truncate(self, size: int) -> list[LedgerEntry]:
        """Roll back to the first ``size`` entries; returns removed entries
        (oldest first) so the caller can undo kv-store effects.  ``size``
        must be at or above the retained base: rollback only ever undoes
        uncommitted batches, which sit above every stable checkpoint the
        GC boundary is allowed to reach."""
        if not self._base <= size <= len(self):
            raise LedgerError(
                f"cannot truncate to {size}, ledger retains [{self._base}, {len(self)})"
            )
        removed = self.entries(size)
        self._cut_run_at(size)
        del self._entries[size - self._base :]
        if self._open is not None and self._open.position >= size:
            self._open = None
        self._tree.truncate(size)
        # The removed batches, logical indices and governance entries are
        # each a suffix of their index: cut them from the tail.
        order, batches = self._batch_list, self._batches
        while order and order[-1].pp_index >= size:
            info = order.pop()
            if batches.get(info.seqno) is info:
                del batches[info.seqno]
        if len(batches) < len(order):
            # A removed batch re-proposed an older one's seqno: the older
            # is that seqno's newest again.
            for info in order:
                batches[info.seqno] = info
        positions = self._logical_to_position
        del positions[bisect_left(positions, size) :]
        # Repair tx counts of a batch that lost a suffix of its entries.
        if order:
            info = order[-1]
            info.tx_count = min(info.tx_count, max(0, size - info.first_tx))
            info.g_tree = self._last_g_tree = None
        gov = self._gov_entries
        while gov and gov[-1][0] >= self.logical_size():
            gov.pop()
        # The last governance index (logical) is the newest governance
        # entry left, or the pruned prefix's floor when none is newer.
        self._last_gov_index = max(gov[-1][0] if gov else 0, self._gov_floor)
        return removed

    # -- prefix garbage collection ---------------------------------------------

    def truncate_below(self, boundary: int) -> int:
        """Garbage-collect every entry below absolute index ``boundary``.

        ``boundary`` must sit on a batch boundary — in practice a stable
        checkpoint's ``ledger_size``, which is captured right after its
        batch's last entry — so no batch is ever split.  The tree M is
        compacted to the boundary's frontier (roots and inclusion paths
        for the retained suffix keep working; reads below raise).  Returns
        the number of entries dropped.
        """
        if not self._base <= boundary <= len(self):
            raise LedgerError(
                f"cannot truncate below {boundary}, ledger retains [{self._base}, {len(self)})"
            )
        if boundary == self._base:
            return 0
        for info in self._batch_list:
            if info.pp_index < boundary < info.end:
                raise LedgerError(
                    f"boundary {boundary} splits batch {info.seqno} "
                    f"[{info.pp_index}, {info.end})"
                )
        dropped = boundary - self._base
        self._cut_run_at(boundary)
        if self._open is not None and self._open.position < boundary:
            self._open = None
        # Remember the newest pruned governance logical index before the
        # entries disappear (rollback recomputation falls back to it):
        # the governance log's, or a genesis entry's.
        positions = self._logical_to_position
        keep_from = bisect_left(positions, boundary)
        pruned = [i for i, _ in self._gov_entries if self._logical_base <= i < self._logical_base + keep_from]
        pruned += [
            self._logical_base + k for k in range(keep_from)
            if isinstance(self._entries[positions[k] - self._base], GenesisEntry)
        ]
        if pruned:
            self._gov_floor = max(pruned)
        del self._entries[:dropped]
        self._tree.compact_below(boundary)
        self._batch_list = [info for info in self._batch_list if info.end > boundary]
        self._batches = {info.seqno: info for info in self._batch_list}
        if self._last_g_tree is not None and self._last_g_tree[0].end <= boundary:
            self._last_g_tree = None
        del positions[:keep_from]
        self._logical_base += keep_from
        self._base = boundary
        return dropped

    def _cut_run_at(self, position: int) -> None:
        """Split the run across ``position`` (if any) into two closed
        runs, so that truncating either side leaves whole runs."""
        if not self._base < position < len(self):
            return
        run = self._entries[position - self._base]
        if type(run) is not TxRun or run.position == position:
            return
        cut, end = position - run.position, run.position + len(run)
        head, tail = run.slice(0, cut), run.slice(cut, len(run))
        self._entries[run.position - self._base : position - self._base] = repeat(head, cut)
        self._entries[position - self._base : end - self._base] = repeat(tail, len(run) - cut)
        if run is self._open:
            self._open = None

    # -- fragments -----------------------------------------------------------

    def fragment(self, start: int | None = None, end: int | None = None) -> "LedgerFragment":
        """A serializable slice ``[start, end)`` for auditors; ``start``
        defaults to the retained base (the whole ledger when nothing has
        been garbage-collected)."""
        start = self._base if start is None else start
        end = len(self) if end is None else end
        if start < self._base:
            raise LedgerError(
                f"fragment from {start} was garbage-collected (retained from {self._base})"
            )
        if not start <= end <= len(self):
            raise LedgerError(f"bad fragment range [{start}, {end})")
        return LedgerFragment(
            start=start,
            entry_wires=tuple([
                held.wire(position - held.position) if type(held) is TxRun else held.to_wire()
                for position, held in enumerate(self._entries[start - self._base : end - self._base], start)
            ]),
        )


@dataclass(frozen=True)
class LedgerFragment:
    """A contiguous slice of a ledger, as shipped to an auditor.

    ``start`` is the ledger index of the first entry.  Fragments are pure
    data (wire forms); :meth:`entries` re-types them.
    """

    start: int
    entry_wires: tuple

    def __len__(self) -> int:
        return len(self.entry_wires)

    @property
    def end(self) -> int:
        return self.start + len(self.entry_wires)

    def entries(self) -> list[LedgerEntry]:
        """Typed entries (raises :class:`LedgerError` on malformed data)."""
        return [entry_from_wire(w) for w in self.entry_wires]

    def entry(self, index: int) -> LedgerEntry:
        """The entry at absolute ledger index ``index``."""
        if not self.start <= index < self.end:
            raise LedgerError(f"index {index} outside fragment [{self.start}, {self.end})")
        return entry_from_wire(self.entry_wires[index - self.start])

    def to_ledger(self, frontier: tuple = ()) -> Ledger:
        """Materialize the fragment into a :class:`Ledger` rooted at its
        start: ``frontier`` is tree M's peak decomposition at
        ``self.start`` (wire form accepted; empty for a fragment that
        starts at genesis), and its implied size must equal the start.
        The logical index base is recovered from the fragment's own
        indexed entries.  Nothing here checks a signed root: that is
        :meth:`Ledger.unbound`'s job.  Raises on malformed data."""
        tree = MerkleTree.from_frontier(frontier_from_wire(frontier))
        if len(tree) != self.start:
            raise LedgerError(
                f"frontier implies {len(tree)} pruned entries, fragment starts at {self.start}"
            )
        entries = self.entries()
        ledger = Ledger()
        if self.start == 0:
            ledger._append_decoded(entries)
            return ledger
        # Back out the logical base from the first entry that carries an
        # explicit logical index: every non-vc/nv entry before it in the
        # suffix consumed one logical slot.
        consumed = 0
        for entry in entries:
            if isinstance(entry, (TxEntry, CheckpointTxEntry)):
                ledger._logical_base = entry.index - consumed
                break
            if not isinstance(entry, (ViewChangesEntry, NewViewEntry)):
                consumed += 1
        else:
            raise LedgerError("suffix fragment carries no indexed entry to anchor logical indices")
        ledger._tree = tree
        ledger._base = self.start
        ledger._append_decoded(entries)
        # The pruned prefix's last governance index is signed into the
        # first suffix batch's pre-prepare (ig covers everything strictly
        # before it).  Anchor the floor there unconditionally: a rollback
        # past a governance transaction *inside* the suffix must fall back
        # to the prefix's ig, not to 0.
        if ledger._batch_list:
            ledger._gov_floor = ledger.pre_prepare(ledger._batch_list[0]).gov_index
            ledger._last_gov_index = max(ledger._last_gov_index, ledger._gov_floor)
        return ledger
