"""Auditable view changes (paper §3.2, Alg. 2).

When the primary appears faulty, replicas send signed ``view-change``
messages listing the last P pre-prepares that prepared locally.  The new
primary collects N−f of them, picks the view-change with the latest
prepared batch (``pplp`` at ``slp``), fetches the ledger if behind,
resets the ledger to ``slp − P`` (those batches are guaranteed committed),
and re-pre-prepares the batches in ``(slp − P, slp]`` in the new view —
with identical contents, so re-execution reproduces the same per-batch
Merkle roots.  The accepted view-change set and the signed new-view are
appended to the ledger, which is what makes view changes auditable: a
replica that prepared a batch and omits it from its view-change can be
blamed (§4.1, case analysis of Lemma 5).

:class:`ViewManager` is the replica's component for all of it: the
failure-detection timer, the collected view-changes, and the rollback a
new view implies.  ``view`` and ``ready`` stay plain replica fields — the
normal-case path reads them on every message.
"""

from __future__ import annotations

from ..errors import ProtocolError
from ..ledger import EvidenceEntry, NewViewEntry, NoncesEntry, ViewChangesEntry
from .messages import NewView, PrePrepare, ViewChange, bitmap_members, bitmap_of


class ViewManager:
    """Alg. 2 for one replica; the only code that touches the timer, the
    progress mark and the view-change store."""

    def __init__(self, replica) -> None:
        self.replica = replica
        self.view_changes: dict[int, dict[int, ViewChange]] = {}
        self._vc_span = None  # open "view-change" Span while tracing
        self._vc_timer: int | None = None
        self._progress_mark = -1
        self._sent_new_view_for: set[int] = set()

    # -- hooks for the replica's other components ---------------------------------------

    def mark_progress(self) -> None:
        """Restart the no-progress window (a state transfer just ended)."""
        self._progress_mark = self.replica.committed_upto

    def adopted(self, view: int) -> None:
        """A ledger install moved us to ``view``: view-changes at or below
        it are history."""
        self.view_changes = {v: m for v, m in self.view_changes.items() if v > view}

    def reset(self) -> None:
        """Forget what a process restart would lose."""
        self._close_span(aborted=True)
        self.view_changes = {}

    def _close_span(self, **attrs) -> None:
        if self._vc_span is not None:
            self._vc_span.set(**attrs)
            self._vc_span.finish(self.replica.now)
            self._vc_span = None

    # -- failure detection --------------------------------------------------------

    def arm_timer(self) -> None:
        if self._vc_timer is not None:
            return

        def fire() -> None:
            self._vc_timer = None
            self.on_timer()

        self._vc_timer = self.replica.set_timer(self.replica.params.view_change_timeout, fire)

    def on_timer(self) -> None:
        """Suspect the primary when work is pending but no batch committed
        since the previous check (the timer samples progress each period);
        catch up when the rest of the service has visibly moved to a
        higher view without us."""
        r = self.replica
        if r.syncing:
            # A state transfer is already recovering us; do not also
            # suspect the primary or fight over views meanwhile.
            self._progress_mark = r.committed_upto
            self.arm_timer()
            return
        progressed = r.committed_upto > self._progress_mark
        self._progress_mark = r.committed_upto
        if not progressed:
            # Stashed pre-prepares from a higher view mean we missed a
            # new-view (e.g. we were partitioned away): adopt the ledger
            # from that view's primary instead of fighting it.
            if any(item[0][1] > r.view for item in r.pending_pps):
                r.sync_client.start("missed_view")
                self.arm_timer()
                return
            # Conversely, if we over-advanced our view while isolated and
            # keep dropping traffic from the (lower) service view, sync
            # back down instead of staying stranded.
            if r._last_lower_view_drop is not None:
                r._last_lower_view_drop = None
                r.sync_client.start("over_advanced")
                self.arm_timer()
                return
        r._retry_pending_pps()  # drop stale stash before judging pendancy
        if not progressed and r.pending_pps:
            # Stuck with a deep stash despite a whole timer period of no
            # progress (e.g. the evidence for the next batch was
            # garbage-collected at every peer): a transfer is the only
            # way forward, gap or no gap.
            horizon = max(item[0][2] for item in r.pending_pps)
            if horizon - max(r.committed_upto, 0) > r.sync_client.lag_threshold():
                r.sync_client.start("stuck")
                self.arm_timer()
                return
        has_pending = (
            bool(r.admission)
            or r.prepared_upto > r.committed_upto
            or bool(r.pending_pps)
            # Batches emitted or accepted beyond the commit frontier that
            # never even prepared: at quiescence the frontier catches up,
            # so a whole no-progress period in this state means the
            # batches are stuck (e.g. the primary's view lost its quorum
            # while we proposed) and only a view change frees them.
            or r.next_seqno - 1 > r.committed_upto
        )
        if has_pending and not progressed and r.is_member() and not r.is_primary():
            self.suspect_primary()
        self.arm_timer()

    def suspect_primary(self) -> None:
        self.start_view_change(self.replica.view + 1)

    # -- sending view changes (Alg. 2 line 1) --------------------------------------------

    def _last_prepared_pps(self) -> tuple:
        """The last P locally-prepared pre-prepares, oldest first."""
        batches = self.replica.batches
        prepared = sorted(s for s, record in batches.items() if record.prepared)
        recent = prepared[-self.replica.params.pipeline :]
        return tuple(batches[s].pp.to_wire() for s in recent)

    def start_view_change(self, new_view: int) -> None:
        r = self.replica
        if new_view <= r.view or not r.is_member():
            return
        if r.tracer.enabled and self._vc_span is None:
            self._vc_span = r.tracer.span(
                "view-change", r.address, r.now, from_view=r.view, to_view=new_view)
        r.view = new_view
        r.ready = False
        vc = ViewChange(view=new_view, replica=r.id, prepared=self._last_prepared_pps())
        vc = vc.with_signature(r._sign(vc.signed_payload()))
        self.view_changes.setdefault(new_view, {})[r.id] = vc
        payload = ("view-change", vc.to_wire())
        for dst in r.peer_addresses():
            out = payload if r.behavior is None else r.behavior.outgoing_view_change(r, dst, payload)
            if out is not None:
                r.send(dst, out)
        r.metrics.bump("view_changes_sent")
        self._maybe_send_new_view(new_view)

    # -- receiving view changes (Alg. 2 line 6) -------------------------------------------

    def on_view_change(self, src: str, msg: tuple) -> None:
        r = self.replica
        vc = ViewChange.from_wire(msg[1])
        if vc.view < r.view:
            return
        config = r.current_config()
        if not config.has_replica(vc.replica):
            return
        if not r._verify(config.replica_key(vc.replica), vc.signed_payload(), vc.signature):
            r.metrics.bump("bad_view_change_signatures")
            return
        self.view_changes.setdefault(vc.view, {})[vc.replica] = vc
        # f+1 replicas moving to a higher view drag us along (line 9).
        if vc.view > r.view and len(self.view_changes[vc.view]) > config.f:
            self.start_view_change(vc.view)
        self._maybe_send_new_view(vc.view)

    # -- the new primary (Alg. 2 line 12) ----------------------------------------------

    def _maybe_send_new_view(self, view: int) -> None:
        r = self.replica
        config = r.current_config()
        if config.primary_for_view(view) != r.id or view != r.view or r.ready:
            return
        if view in self._sent_new_view_for:
            return
        vcs = self.view_changes.get(view, {})
        if len(vcs) < config.quorum:
            return
        chosen = {rid: vcs[rid] for rid in sorted(vcs)[: config.quorum]}
        root_m, slp, pplp, source = self._process_view_changes(chosen)
        if slp > 0 and (slp not in r.batches or r.batches[slp].pp_digest != pplp.digest()):
            # We are behind the latest prepared batch: fetch the ledger
            # from a replica that prepared it (Alg. 2 "fetching missing
            # ledger entries from replicas that sent matching prepare
            # messages").
            addr = r.replica_directory.get(source)
            if addr:
                r._send_fetch_ledger(addr)
            return
        self._emit_new_view(view, chosen, root_m, slp)

    def _emit_new_view(self, view: int, vcs: dict[int, ViewChange], root_m, slp: int) -> None:
        r = self.replica
        reissue = self._rollback_for_new_view(slp)
        vc_entry = ViewChangesEntry(
            view=view, vc_wires=tuple(vcs[rid].to_wire() for rid in sorted(vcs))
        )
        nv = NewView(
            view=view,
            root_m=root_m,
            vc_bitmap=bitmap_of(sorted(vcs)),
            vc_digest=vc_entry.digest(),
        )
        nv = nv.with_signature(r._sign(nv.signed_payload()))
        r.ledger.append(vc_entry)
        r.ledger.append(NewViewEntry(nv_wire=nv.to_wire()))
        payload = ("new-view", nv.to_wire(), vc_entry.vc_wires)
        for dst in r.peer_addresses():
            r.send(dst, payload)
        r.ready = True
        self._sent_new_view_for.add(view)
        r.metrics.bump("new_views_sent")
        self._close_span(new_view=view, primary=True)
        # Re-pre-prepare the prepared-but-uncommitted batches in the new
        # view, with identical composition (resendPreparesInNewView).
        for seqno, flags, digests in reissue:
            missing = [d for d in digests if d not in r.admission]
            if missing:
                break  # cannot reconstitute; clients will retransmit
            r._emit_batch(seqno, flags, list(digests))
        r.maybe_send_pre_prepare()

    def _process_view_changes(self, vcs: dict[int, ViewChange]):
        """Pick the view-change carrying the latest prepared batch.

        Returns ``(root_m, slp, pplp, source_replica)``; ``slp == 0`` when
        no batch had prepared anywhere."""
        best: PrePrepare | None = None
        source = -1
        for replica_id in sorted(vcs):
            prepared = vcs[replica_id].prepared
            if not prepared:
                continue
            candidate = PrePrepare.from_wire(prepared[-1])
            if best is None or (candidate.view, candidate.seqno) > (best.view, best.seqno):
                best = candidate
                source = replica_id
        if best is None:
            return (self.replica.ledger.root(), 0, None, -1)
        return (best.root_m, best.seqno, best, source)

    def _rollback_for_new_view(self, slp: int) -> list[tuple[int, int, tuple]]:
        """Reset the ledger to the end of batch ``slp − P`` (guaranteed
        committed) and return the composition of the batches to re-issue,
        oldest first (PPov)."""
        batches = self.replica.batches
        target = max(0, slp - self.replica.params.pipeline)
        reissue: list[tuple[int, int, tuple]] = []
        for seqno in sorted(s for s in batches if target < s <= slp):
            record = batches[seqno]
            reissue.append(
                (seqno, record.flags, tuple(d for d in record.tx_digests if d is not None))
            )
        self.rollback_to_batch(target)
        return reissue

    def rollback_to_batch(self, target: int) -> None:
        """Truncate ledger and KV state back to the end of batch
        ``target`` (0 = just after genesis), harvesting evidence entries
        from the removed region back into the message stores so the
        batches can be re-issued with their original evidence."""
        r = self.replica
        if target <= 0:
            truncate_to = 1  # keep the genesis entry
        else:
            record = r.batches.get(target)
            if record is None:
                raise ProtocolError(f"cannot roll back to unknown batch {target}")
            truncate_to = record.ledger_end
        kv_target = None
        first_removed = min((s for s in r.batches if s > target), default=None)
        if first_removed is not None:
            kv_target = r.batches[first_removed].kv_mark
            truncate_to = min(truncate_to, r.batches[first_removed].ledger_start)
        removed = r.ledger.truncate(truncate_to) if truncate_to <= len(r.ledger) else []
        if kv_target is not None:
            r.kv.rollback_to(kv_target)
        # Harvest evidence from the removed suffix back into the stores.
        for entry in removed:
            if isinstance(entry, EvidenceEntry):
                for prepare in entry.prepares():
                    r._store_prepare(prepare)
            elif isinstance(entry, NoncesEntry):
                store = r.commit_nonces.setdefault((entry.view, entry.seqno), {})
                for replica_id, nonce in zip(bitmap_members(entry.bitmap), entry.nonces):
                    store.setdefault(replica_id, nonce)
        # Drop batch records above the target.
        for seqno in sorted(s for s in r.batches if s > target):
            record = r.batches.pop(seqno)
            r.pps.pop((record.view, seqno), None)
            if record.pp_digest is not None:
                r.ppd_index.pop(record.pp_digest, None)
                r.prepares_by_ppd.pop(record.pp_digest, None)
            # No arrival time: the requests are not aged out of the queue
            # before the new view re-issues their batch.
            r._unexecute(record)
        r.prepared_upto = min(r.prepared_upto, target)
        r.committed_upto = min(r.committed_upto, target)
        r.next_seqno = target + 1
        # Checkpoint bookkeeping.
        r.cp_directory.rollback_after(target)
        for seqno in [s for s in r.checkpoints if s > target]:
            del r.checkpoints[seqno]
        r.last_taken_cp = max(r.checkpoints) if r.checkpoints else 0
        records = r.cp_directory.records()
        r.last_recorded_cp = records[-1].cp_seqno if records else -1
        # Reconfiguration state rolled back with the vote (re-derived on
        # re-execution).
        r.gov_tx_log = [g for g in r.gov_tx_log if g[0] <= target]
        if r.reconfig is not None and r.reconfig.vote_seqno > target:
            r.reconfig = None

    # -- backups: accepting a new view (Alg. 2 line 18) -----------------------------------

    def on_new_view(self, src: str, msg: tuple) -> None:
        r = self.replica
        nv = NewView.from_wire(msg[1])
        vc_wires = tuple(msg[2])
        if nv.view < r.view or (nv.view == r.view and r.ready):
            return
        config = r.current_config()
        primary_id = config.primary_for_view(nv.view)
        if primary_id == r.id:
            return
        if not r._verify(config.replica_key(primary_id), nv.signed_payload(), nv.signature):
            return
        # Verify the certificate sequentially with early exit: charging all
        # signatures up front would inflate simulated CPU on the (Byzantine)
        # invalid-certificate path relative to the pre-cache baseline.  The
        # verify cache still applies per triple via _verify.
        vcs: dict[int, ViewChange] = {}
        for wire in vc_wires:
            vc = ViewChange.from_wire(wire)
            if vc.view != nv.view or not config.has_replica(vc.replica):
                return
            if not r._verify(config.replica_key(vc.replica), vc.signed_payload(), vc.signature):
                return
            vcs[vc.replica] = vc
        if len(vcs) < config.quorum:
            return
        vc_entry = ViewChangesEntry(
            view=nv.view, vc_wires=tuple(vcs[rid].to_wire() for rid in sorted(vcs))
        )
        if vc_entry.digest() != nv.vc_digest:
            return
        root_m, slp, pplp, source = self._process_view_changes(vcs)
        if root_m != nv.root_m:
            r.metrics.bump("bad_new_views")
            return
        if slp > 0 and slp - r.params.pipeline > r.committed_upto and (
            slp not in r.batches or r.batches[slp].pp_digest != pplp.digest()
        ):
            # Behind the committed frontier implied by the new view: fetch.
            r._send_fetch_ledger(src)
            return
        target = max(0, slp - r.params.pipeline)
        target = min(target, max(r.committed_upto, r.prepared_upto))
        # Never past the newest batch we hold locally: re-issued
        # pre-prepares from the new primary rebuild anything newer.
        self.rollback_to_batch(min(target, max(r.batches, default=0)))
        r.ledger.append(vc_entry)
        r.ledger.append(NewViewEntry(nv_wire=nv.to_wire()))
        r.view = nv.view
        r.ready = True
        r.metrics.bump("new_views_accepted")
        self._close_span(new_view=nv.view)
        r._retry_pending_pps()
