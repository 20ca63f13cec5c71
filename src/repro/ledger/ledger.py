"""The replica-side ledger: entries, Merkle tree M, and batch index.

Layout per committed batch at sequence number s (paper Fig. 3)::

    [evidence(s−P)] [nonces(s−P)] [pre-prepare(s)] [tx ...] [tx ...]

View changes insert ``[view-changes] [new-view]`` between batches.  The
ledger Merkle tree M appends the digest of every entry in ledger order,
and the ``root_m`` signed in each pre-prepare is the root of M over all
entries *before* that pre-prepare entry — so each signed batch commits the
replica to the entire preceding ledger.

Ledger *prefix garbage collection*: once audits can run from a stable
checkpoint (PR 5), the entries below the oldest stable checkpoint are
dead weight — :meth:`Ledger.truncate_below` drops them, compacting the
tree M down to the boundary's frontier.  All indices stay *absolute*
(entry 1000 keeps index 1000 after the first 900 are collected); reads
below :attr:`Ledger.base_index` raise :class:`~repro.errors.LedgerError`.
A ledger can also be *born* at a boundary
(:meth:`Ledger.from_fragment_suffix`): seeded from a checkpoint's
frontier, it holds only the suffix — how state-synced replicas and
checkpoint-rooted auditors materialize fetched fragments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..crypto.hashing import Digest
from ..errors import LedgerError
from ..merkle import MerkleTree
from .entries import (
    CheckpointTxEntry,
    EvidenceEntry,
    GenesisEntry,
    LedgerEntry,
    NewViewEntry,
    NoncesEntry,
    PrePrepareEntry,
    TxEntry,
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

    @property
    def end(self) -> int:
        """Ledger index one past the batch's last entry."""
        return self.first_tx + self.tx_count


def _is_gov_entry(entry: LedgerEntry) -> bool:
    return isinstance(entry, GenesisEntry) or (
        isinstance(entry, TxEntry) and entry.request_wire[1].startswith("gov.")
    )


class Ledger:
    """Append-only ledger with the ledger Merkle tree M.

    Entries are indexed by absolute position; the tree has one leaf per
    entry, in order.  Rollback (Lemma 1) truncates both; prefix GC
    (:meth:`truncate_below`) drops entries below a checkpoint boundary
    while every retained index keeps its meaning.
    """

    def __init__(self, genesis: GenesisEntry | None = None) -> None:
        self._entries: list[LedgerEntry] = []
        self._tree = MerkleTree()
        self._batches: dict[int, BatchInfo] = {}
        self._batch_order: list[int] = []
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
        # index _logical_base + k.
        self._logical_to_position: list[int] = []
        if genesis is not None:
            self.append(genesis)

    @staticmethod
    def from_fragment_suffix(fragment: "LedgerFragment", frontier: tuple) -> "Ledger":
        """Materialize a suffix fragment into a boundary-rooted ledger.

        ``frontier`` is the tree M's peak decomposition at
        ``fragment.start`` (as shipped in sync manifests and audit
        packages); its implied size must equal the fragment start.  The
        resulting ledger answers ``root_at``/``path`` for every size at or
        past the boundary — the caller verifies those roots against signed
        pre-prepares, which is what binds the suffix to the collected
        prefix.  The logical index base is recovered from the suffix's own
        indexed entries.
        """
        if fragment.start == 0:
            return fragment.to_ledger()
        tree = MerkleTree.from_frontier(frontier)
        if len(tree) != fragment.start:
            raise LedgerError(
                f"frontier implies {len(tree)} pruned entries, fragment starts at {fragment.start}"
            )
        entries = fragment.entries()
        # Back out the logical base from the first entry that carries an
        # explicit logical index: every non-vc/nv entry before it in the
        # suffix consumed one logical slot.
        logical_base = None
        consumed = 0
        for entry in entries:
            if isinstance(entry, (ViewChangesEntry, NewViewEntry)):
                continue
            if isinstance(entry, (TxEntry, CheckpointTxEntry)):
                logical_base = entry.index - consumed
                break
            consumed += 1
        if logical_base is None:
            raise LedgerError("suffix fragment carries no indexed entry to anchor logical indices")
        ledger = Ledger()
        ledger._tree = tree
        ledger._base = fragment.start
        ledger._logical_base = logical_base
        for entry in entries:
            ledger.append(entry)
        # The pruned prefix's last governance index is signed into the
        # first suffix batch's pre-prepare (ig covers everything strictly
        # before it).  Anchor the floor there unconditionally: a rollback
        # past a governance transaction *inside* the suffix must fall back
        # to the prefix's ig, not to 0.
        if ledger._batch_order:
            ledger._gov_floor = ledger.batch_pre_prepare(ledger._batch_order[0]).gov_index
            ledger._last_gov_index = max(ledger._last_gov_index, ledger._gov_floor)
        return ledger

    # -- append / read ---------------------------------------------------

    def append(self, entry: LedgerEntry, leaf: Digest | None = None) -> int:
        """Append an entry; returns its absolute position.  ``leaf`` is
        ``entry.digest()`` when the caller already hashed it."""
        index = len(self)
        self._entries.append(entry)
        self._tree.append(entry.digest() if leaf is None else leaf)
        if not isinstance(entry, (ViewChangesEntry, NewViewEntry)):
            self._logical_to_position.append(index)
        if isinstance(entry, PrePrepareEntry):
            pp = entry.pre_prepare()
            self._batches[pp.seqno] = BatchInfo(
                seqno=pp.seqno,
                view=pp.view,
                pp_index=index,
                first_tx=index + 1,
                tx_count=0,
                flags=pp.flags,
            )
            self._batch_order.append(pp.seqno)
        elif isinstance(entry, (TxEntry, CheckpointTxEntry)):
            if self._batch_order:
                info = self._batches[self._batch_order[-1]]
                if info.end == index:
                    info.tx_count += 1
            if isinstance(entry, TxEntry) and entry.request_wire[1].startswith("gov."):
                self._last_gov_index = self.logical_size() - 1
                self._gov_entries.append((self._last_gov_index, entry.to_wire()))
        elif isinstance(entry, GenesisEntry):
            self._last_gov_index = self.logical_size() - 1
        return index

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
        return self._entries[self._logical_to_position[offset] - self._base]

    def entry(self, index: int) -> LedgerEntry:
        if not self._base <= index < len(self):
            raise LedgerError(
                f"ledger index {index} outside retained range [{self._base}, {len(self)})"
            )
        return self._entries[index - self._base]

    def entries(self, start: int | None = None, end: int | None = None) -> list[LedgerEntry]:
        """Entries in ``[start, end)``; ``start`` defaults to the retained
        base, ``end`` to the ledger length.  Asking for a start below the
        retained base raises — callers that need the pruned prefix must go
        through the governance archive or a checkpoint."""
        start = self._base if start is None else start
        end = len(self) if end is None else end
        if start < self._base:
            raise LedgerError(
                f"entries from {start} were garbage-collected (retained from {self._base})"
            )
        if not start <= end <= len(self):
            raise LedgerError(f"bad entry range [{start}, {end}) for ledger of {len(self)}")
        return self._entries[start - self._base : end - self._base]

    def __iter__(self) -> Iterator[LedgerEntry]:
        return iter(self._entries)

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
        """Locator for the batch at ``seqno`` (None if absent or pruned)."""
        return self._batches.get(seqno)

    def batches(self) -> list[BatchInfo]:
        """All retained batches in ledger order."""
        return [self._batches[s] for s in self._batch_order]

    def last_seqno(self) -> int:
        """Sequence number of the newest batch (0 if none)."""
        return self._batch_order[-1] if self._batch_order else 0

    def oldest_retained_seqno(self) -> int | None:
        """Sequence number of the oldest retained batch (None if none)."""
        return self._batch_order[0] if self._batch_order else None

    def batch_entries(self, seqno: int) -> list[LedgerEntry]:
        """The tx/checkpoint entries of the batch at ``seqno``."""
        info = self._batches.get(seqno)
        if info is None:
            raise LedgerError(f"no batch at seqno {seqno}")
        return self._entries[info.first_tx - self._base : info.end - self._base]

    def batch_pre_prepare(self, seqno: int):
        """The pre-prepare message of the batch at ``seqno``."""
        info = self._batches.get(seqno)
        if info is None:
            raise LedgerError(f"no batch at seqno {seqno}")
        entry = self._entries[info.pp_index - self._base]
        assert isinstance(entry, PrePrepareEntry)
        return entry.pre_prepare()

    # -- governance ----------------------------------------------------------

    @property
    def last_gov_index(self) -> int:
        """Ledger index of the most recent governance transaction (ig)."""
        return self._last_gov_index

    def governance_indices(self) -> list[int]:
        """Absolute indices of retained governance transactions (genesis
        included when retained)."""
        result = []
        for i, entry in enumerate(self._entries):
            if _is_gov_entry(entry):
                result.append(self._base + i)
        return result

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
        removed = self._entries[size - self._base :]
        del self._entries[size - self._base :]
        self._tree.truncate(size)
        # Rebuild batch index for the removed suffix.
        for entry in removed:
            if isinstance(entry, PrePrepareEntry):
                self._batches.pop(entry.pre_prepare().seqno, None)
        self._batch_order = [s for s in self._batch_order if s in self._batches]
        self._logical_to_position = [p for p in self._logical_to_position if p < size]
        # Repair tx counts of a batch that lost a suffix of its entries.
        if self._batch_order:
            info = self._batches[self._batch_order[-1]]
            info.tx_count = min(info.tx_count, max(0, size - info.first_tx))
        # Recompute last governance index (logical); when no governance
        # entry survives in the retained window, the pruned prefix's
        # floor is the answer.
        self._last_gov_index = self._gov_floor
        for offset in range(len(self._logical_to_position) - 1, -1, -1):
            entry = self._entries[self._logical_to_position[offset] - self._base]
            if _is_gov_entry(entry):
                self._last_gov_index = self._logical_base + offset
                break
        self._gov_entries = [
            (i, w) for i, w in self._gov_entries if i < self.logical_size()
        ]
        return removed

    # -- prefix garbage collection (PR 5) ---------------------------------------

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
        for info in self._batches.values():
            if info.pp_index < boundary < info.end:
                raise LedgerError(
                    f"boundary {boundary} splits batch {info.seqno} "
                    f"[{info.pp_index}, {info.end})"
                )
        dropped = self._entries[: boundary - self._base]
        # Remember the newest pruned governance logical index before the
        # entries disappear (rollback recomputation falls back to it).
        logical = self._logical_base
        for entry in dropped:
            if isinstance(entry, (ViewChangesEntry, NewViewEntry)):
                continue
            if _is_gov_entry(entry):
                self._gov_floor = logical
            logical += 1
        del self._entries[: boundary - self._base]
        self._tree.compact_below(boundary)
        pruned_seqnos = [s for s, info in self._batches.items() if info.end <= boundary]
        for seqno in pruned_seqnos:
            del self._batches[seqno]
        self._batch_order = [s for s in self._batch_order if s in self._batches]
        keep_from = 0
        for keep_from, position in enumerate(self._logical_to_position):
            if position >= boundary:
                break
        else:
            keep_from = len(self._logical_to_position)
        del self._logical_to_position[:keep_from]
        self._logical_base += keep_from
        self._base = boundary
        return len(dropped)

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
            entry_wires=tuple(
                e.to_wire() for e in self._entries[start - self._base : end - self._base]
            ),
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

    def to_ledger(self) -> Ledger:
        """Materialize a fragment that starts at 0 into a :class:`Ledger`
        (suffix fragments need :meth:`Ledger.from_fragment_suffix` and a
        boundary frontier)."""
        if self.start != 0:
            raise LedgerError("only full-prefix fragments can be materialized")
        ledger = Ledger()
        for entry in self.entries():
            ledger.append(entry)
        return ledger
