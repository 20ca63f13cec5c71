"""What a replica keeps past garbage collection (paper §3.4, §5.2).

After each checkpoint a replica releases the batch records and slot
messages older than the previous checkpoint (their evidence is in the
ledger now) and cuts the ledger prefix where its checkpoint store allows
(:meth:`~repro.lpbft.checkpointing.CheckpointStore.gc_boundary`): below
the oldest stable checkpoint, which audits and state transfers replay
from, and below every **pin**.  The state-sync server pins the
checkpoint it serves; an audit collection would pin the same way (this
simulator's audits run synchronously, so tests model a pending audit
with an explicit pin).  The governance history survives: a region is
fed into the governance archive before it is cut.
"""

from __future__ import annotations

from ..ledger import TxEntry


class Retention:
    """A replica's pins, its governance archive and the collection that
    honours both: :meth:`collect` runs after each checkpoint."""

    def __init__(self, replica) -> None:
        self.replica = replica
        # Token (a sync session, an audit id) -> the lowest absolute
        # ledger index its holder still needs.
        self._pins: dict[object, int] = {}
        # The governance sub-ledger of the pruned prefix, created at the
        # first truncation; None also marks a suffix-installed replica
        # that never held the genesis prefix.
        self._archive = None

    def pin(self, token: object, index: int) -> None:
        """Hold the ledger at or above ``index`` until ``token`` releases.
        Re-pinning the same token moves its hold."""
        self._pins[token] = index

    def release(self, token: object) -> None:
        self._pins.pop(token, None)

    def floor(self) -> int | None:
        """The lowest pinned index (None when nothing is pinned)."""
        return min(self._pins.values()) if self._pins else None

    def adopted(self) -> None:
        """The replica installed a fetched ledger, so the archive of the
        old ledger's prefix goes: until it archives its own truncations,
        a suffix-rooted ledger reports the schedule-only sub-ledger."""
        self._archive = None

    # -- collection -----------------------------------------------------------

    def collect(self, stable_seqno: int) -> None:
        """After the checkpoint at ``stable_seqno``: release the batch
        records and slot messages older than the previous checkpoint
        (their evidence lives in the ledger now), then truncate the
        ledger prefix."""
        r = self.replica
        horizon = stable_seqno - r.params.checkpoint_interval
        if horizon > 0:
            # Batches holding governance transactions (and the pending
            # EOC batch) stay pinned until activation assembles their
            # receipts into the governance link: a referendum easily
            # spans more than a checkpoint window under load, and pruning
            # the records first would leave every replica unable to build
            # the link — clients could then never verify the new
            # configuration (§5.2).
            pinned = {seqno for seqno, _, _ in r.gov_tx_log}
            if r.reconfig is not None:
                pinned.add(r.reconfig.eoc_receipt_seqno(r.params.pipeline))
            for record in r.batches.release_below(horizon, pinned):
                r.admission.forget(record)
            r.checkpoints.prune_below(horizon, r.committed_upto)
            # A rollback targets a retained batch (``rollback_to_batch``
            # raises on an unknown one), so undo records below every kept
            # mark are dead.
            r.kv.forget_before(min(record.kv_mark for record in r.batches.values()))
        self.truncate_ledger()

    def truncate_ledger(self) -> None:
        """Garbage-collect the ledger prefix below the boundary the
        checkpoint store allows, the governance sub-ledger of the pruned
        region archived first so audits keep a complete configuration
        history."""
        r = self.replica
        if not (r.params.checkpoints and r.params.ledger):
            return
        # A completed/abandoned state transfer must not hold its serve pin
        # forever; the server releases it once clients go quiet.
        r.sync_server.release_stale_pin()
        boundary = r.checkpoints.gc_boundary(
            r.ledger, r.committed_upto, r.now, r.params.ledger_gc_min_age, self.floor())
        if boundary is None:
            return
        self._archive_governance(boundary)
        dropped = r.ledger.truncate_below(boundary)
        if dropped:
            # Truncation is cheap but not free: pinning the boundary
            # frontier folds O(log n) cached peaks, and dropping the
            # prefix is one storage operation (a chunk-file unlink in a
            # real ledger).  O(log n) per C batches — far below any knee,
            # so pinned bench rates are unaffected.
            r.submit("hash", boundary.bit_length() * r.costs.hash_fixed)
            r.submit("append", r.costs.ledger_append)
            # Records for pruned batches can never be referenced again;
            # dropping them keeps the oldest-stable scan O(window).
            oldest = r.ledger.oldest_retained_seqno()
            if oldest is not None:
                r.checkpoints.prune_records_below(oldest)
            r.metrics.bump("ledger_truncations")
            r.metrics.bump("ledger_entries_gced", dropped)

    # -- the governance history ------------------------------------------------

    def _archive_governance(self, boundary: int) -> None:
        """Feed the about-to-be-pruned region into the governance archive
        (the sub-ledger must survive the entries it was derived from)."""
        # Imported lazily: repro.governance.subledger imports the lpbft
        # message types, so a module-level import would be circular.
        from ..governance.subledger import GovernanceExtractor

        r = self.replica
        if self._archive is None:
            if r.ledger.base_index > 0:
                return  # suffix-installed: the genesis prefix never existed here
            self._archive = GovernanceExtractor(r.params.pipeline)
        start = self._archive.next_index
        if start < boundary:
            # Archiving replays the region's governance transactions on
            # the extractor's scratch store — real (rare) execute work.
            gov_txs = sum(
                1 for _, entry in r.ledger.governance_entries(start, boundary) if isinstance(entry, TxEntry))
            if gov_txs:
                r.submit("execute", gov_txs * r.costs.execute_tx(3, 8))
            self._archive.feed_ledger(r.ledger, boundary)

    def governance_subledger(self):
        """The replica's committed governance sub-ledger, complete from
        genesis even after ledger prefix GC (archive + retained suffix).
        A replica that *joined* from a checkpoint-rooted transfer never
        held the genesis prefix; it reports the retained governance
        entries under its own schedule (best effort — such replicas serve
        state sync, not audits)."""
        from ..governance.subledger import GovernanceExtractor, GovernanceSubLedger

        r = self.replica
        base = r.ledger.base_index
        if base == 0:
            return GovernanceExtractor(r.params.pipeline).feed_ledger(r.ledger).subledger()
        if self._archive is not None and self._archive.next_index == base:
            return self._archive.copy().feed_ledger(r.ledger).subledger()
        entries = [
            (index, entry.to_wire())
            for index, entry in r.ledger.governance_entries()
            if isinstance(entry, TxEntry)
        ]
        return GovernanceSubLedger(entries=entries, schedule=r.schedule.copy(), reconfigs=[])

    def governance_suffix(self) -> tuple:
        """Member-signed governance transactions past the last link of
        the replica's governance chain, as ``(logical_index, entry_wire)``
        pairs (§5.2): a client gating receipts on governance coverage
        needs the ones that did not reconfigure (failed proposals,
        in-flight referendums) too, or a rejected ``gov.propose`` would
        wedge completion.  Entries below the GC horizon are absent (their
        receipts completed long ago)."""
        ledger = self.replica.ledger
        anchor = 0
        for link in self.replica.gov_chain.links:
            for receipt in (link.propose_receipt, *link.vote_receipts):
                if receipt.index is not None and receipt.index > anchor:
                    anchor = receipt.index
        if ledger.last_gov_index <= anchor:
            return ()
        if self._archive is None and anchor < ledger.logical_base:
            return ()  # suffix-installed: a hole below the base could hide a passed referendum
        return ledger.gov_entries_after(anchor)
