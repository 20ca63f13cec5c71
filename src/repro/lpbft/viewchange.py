"""Auditable view changes and state sync (paper §3.2, Alg. 2).

When the primary appears faulty, replicas send signed ``view-change``
messages listing the last P pre-prepares that prepared locally.  The new
primary collects N−f of them, picks the view-change with the latest
prepared batch (``pplp`` at ``slp``), synchronizes its ledger if behind,
resets the ledger to ``slp − P`` (those batches are guaranteed committed),
and re-pre-prepares the batches in ``(slp − P, slp]`` in the new view —
with identical contents, so re-execution reproduces the same per-batch
Merkle roots.  The accepted view-change set and the signed new-view are
appended to the ledger, which is what makes view changes auditable: a
replica that prepared a batch and omits it from its view-change can be
blamed (§4.1, case analysis of Lemma 5).

The mixin also implements ledger adoption: :meth:`handle_ledger_bundle`
for a replica behind a new view's latest prepared batch (everything else
that lags recovers through :mod:`repro.statesync`), and the atomic
:meth:`_install_ledger_state` both paths end in.
"""

from __future__ import annotations

from ..crypto.nonces import commit_nonce
from ..errors import ProtocolError
from ..governance.configuration import Configuration
from ..governance.transactions import install_configuration
from ..kvstore import Checkpoint, KVStore
from ..ledger import (
    CheckpointTxEntry,
    EvidenceEntry,
    GenesisEntry,
    Ledger,
    NewViewEntry,
    NoncesEntry,
    PrePrepareEntry,
    TxEntry,
    ViewChangesEntry,
    entry_from_wire,
)
from ..receipts.chain import GovernanceChain
from ..statesync.integration import STATESYNC_DISPATCH, StateSyncMixin
from .messages import (
    BATCH_CHECKPOINT,
    NewView,
    Prepare,
    PrePrepare,
    ViewChange,
    bitmap_members,
    bitmap_of,
)
from .replica import BatchRecord, LPBFTReplicaCore, execute_procedure


class ViewChangeMixin:
    """Alg. 2 plus ledger adoption; mixed into :class:`LPBFTReplica`."""

    # -- state ------------------------------------------------------------------

    def _init_view_change_state(self) -> None:
        self.view_changes: dict[int, dict[int, ViewChange]] = {}
        self._vc_span = None  # open "view-change" Span while tracing
        self._vc_timer: int | None = None
        self._progress_mark = -1
        self._pending_new_view: int | None = None
        self._stashed_new_view: tuple | None = None
        self._sent_new_view_for: set[int] = set()

    # -- failure detection --------------------------------------------------------

    def _arm_view_change_timer(self) -> None:
        if self._vc_timer is not None:
            return

        def fire() -> None:
            self._vc_timer = None
            self._on_view_change_timer()

        self._vc_timer = self.set_timer(self.params.view_change_timeout, fire)

    def _on_view_change_timer(self) -> None:
        """Suspect the primary when work is pending but no batch committed
        since the previous check (the timer samples progress each period);
        catch up when the rest of the service has visibly moved to a
        higher view without us."""
        if self.syncing:
            # A state transfer is already recovering us; do not also
            # suspect the primary or fight over views meanwhile.
            self._progress_mark = self.committed_upto
            self._arm_view_change_timer()
            return
        progressed = self.committed_upto > self._progress_mark
        self._progress_mark = self.committed_upto
        if not progressed:
            # Stashed pre-prepares from a higher view mean we missed a
            # new-view (e.g. we were partitioned away): adopt the ledger
            # from that view's primary instead of fighting it.
            if any(item[0][1] > self.view for item in self.pending_pps):
                self.start_state_sync("missed_view")
                self._arm_view_change_timer()
                return
            # Conversely, if we over-advanced our view while isolated and
            # keep dropping traffic from the (lower) service view, sync
            # back down instead of staying stranded.
            if self._last_lower_view_drop is not None:
                self._last_lower_view_drop = None
                self.start_state_sync("over_advanced")
                self._arm_view_change_timer()
                return
        self._retry_pending_pps()  # drop stale stash before judging pendancy
        if not progressed and self.pending_pps:
            # Stuck with a deep stash despite a whole timer period of no
            # progress (e.g. the evidence for the next batch was
            # garbage-collected at every peer): a transfer is the only
            # way forward, gap or no gap.
            horizon = max(item[0][2] for item in self.pending_pps)
            if horizon - max(self.committed_upto, 0) > self._lag_threshold():
                self.start_state_sync("stuck")
                self._arm_view_change_timer()
                return
        has_pending = (
            bool(self.admission)
            or self.prepared_upto > self.committed_upto
            or bool(self.pending_pps)
            # Batches emitted or accepted beyond the commit frontier that
            # never even prepared: at quiescence the frontier catches up,
            # so a whole no-progress period in this state means the
            # batches are stuck (e.g. the primary's view lost its quorum
            # while we proposed) and only a view change frees them.
            or self.next_seqno - 1 > self.committed_upto
        )
        if has_pending and not progressed and self.is_member() and not self.is_primary():
            self._suspect_primary()
        self._arm_view_change_timer()

    def _suspect_primary(self) -> None:
        self._start_view_change(self.view + 1)

    # -- sending view changes (Alg. 2 line 1) --------------------------------------------

    def _last_prepared_pps(self) -> tuple:
        """The last P locally-prepared pre-prepares, oldest first."""
        prepared = sorted(s for s, r in self.batches.items() if r.prepared)
        recent = prepared[-self.params.pipeline :]
        return tuple(self.batches[s].pp.to_wire() for s in recent)

    def _start_view_change(self, new_view: int) -> None:
        if new_view <= self.view or not self.is_member():
            return
        if self.tracer.enabled and self._vc_span is None:
            self._vc_span = self.tracer.span(
                "view-change", self.address, self.now,
                from_view=self.view, to_view=new_view)
        self.view = new_view
        self.ready = False
        vc = ViewChange(view=new_view, replica=self.id, prepared=self._last_prepared_pps())
        vc = vc.with_signature(self._sign(vc.signed_payload()))
        self.view_changes.setdefault(new_view, {})[self.id] = vc
        payload = ("view-change", vc.to_wire())
        for dst in self.peer_addresses():
            out = payload if self.behavior is None else self.behavior.outgoing_view_change(self, dst, payload)
            if out is not None:
                self.send(dst, out)
        self.metrics.bump("view_changes_sent")
        self._maybe_send_new_view(new_view)

    # -- receiving view changes (Alg. 2 line 6) -------------------------------------------

    def handle_view_change(self, src: str, msg: tuple) -> None:
        vc = ViewChange.from_wire(msg[1])
        if vc.view < self.view:
            return
        config = self.current_config()
        if not config.has_replica(vc.replica):
            return
        if not self._verify(config.replica_key(vc.replica), vc.signed_payload(), vc.signature):
            self.metrics.bump("bad_view_change_signatures")
            return
        self.view_changes.setdefault(vc.view, {})[vc.replica] = vc
        # f+1 replicas moving to a higher view drag us along (line 9).
        if vc.view > self.view and len(self.view_changes[vc.view]) > config.f:
            self._start_view_change(vc.view)
        self._maybe_send_new_view(vc.view)

    # -- the new primary (Alg. 2 line 12) ----------------------------------------------

    def _maybe_send_new_view(self, view: int) -> None:
        config = self.current_config()
        if config.primary_for_view(view) != self.id or view != self.view or self.ready:
            return
        if view in self._sent_new_view_for:
            return
        vcs = self.view_changes.get(view, {})
        if len(vcs) < config.quorum:
            return
        chosen = {r: vcs[r] for r in sorted(vcs)[: config.quorum]}
        root_m, slp, pplp, source = self._process_view_changes(chosen)
        if slp > 0 and (slp not in self.batches or self.batches[slp].pp_digest != pplp.digest()):
            # We are behind the latest prepared batch: sync from a replica
            # that prepared it, then retry (Alg. 2 "fetching missing ledger
            # entries from replicas that sent matching prepare messages").
            self._pending_new_view = view
            addr = self.replica_directory.get(source)
            if addr:
                self._send_fetch_ledger(addr)
            return
        self._emit_new_view(view, chosen, root_m, slp)

    def _emit_new_view(self, view: int, vcs: dict[int, ViewChange], root_m, slp: int) -> None:
        config = self.current_config()
        reissue = self._rollback_for_new_view(slp)
        vc_entry = ViewChangesEntry(
            view=view, vc_wires=tuple(vcs[r].to_wire() for r in sorted(vcs))
        )
        nv = NewView(
            view=view,
            root_m=root_m,
            vc_bitmap=bitmap_of(sorted(vcs)),
            vc_digest=vc_entry.digest(),
        )
        nv = nv.with_signature(self._sign(nv.signed_payload()))
        self.ledger.append(vc_entry)
        self.ledger.append(NewViewEntry(nv_wire=nv.to_wire()))
        payload = ("new-view", nv.to_wire(), vc_entry.vc_wires)
        for dst in self.peer_addresses():
            self.send(dst, payload)
        self.ready = True
        self._sent_new_view_for.add(view)
        self._pending_new_view = None
        self.metrics.bump("new_views_sent")
        if self._vc_span is not None:
            self._vc_span.set(new_view=view, primary=True)
            self._vc_span.finish(self.now)
            self._vc_span = None
        # Re-pre-prepare the prepared-but-uncommitted batches in the new
        # view, with identical composition (resendPreparesInNewView).
        for seqno, flags, digests in reissue:
            missing = [d for d in digests if d not in self.admission]
            if missing:
                break  # cannot reconstitute; clients will retransmit
            self._emit_batch(seqno, flags, list(digests))
        self.maybe_send_pre_prepare()

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
            return (self.ledger.root(), 0, None, -1)
        return (best.root_m, best.seqno, best, source)

    def _rollback_for_new_view(self, slp: int) -> list[tuple[int, int, tuple]]:
        """Reset the ledger to the end of batch ``slp − P`` (guaranteed
        committed) and return the composition of the batches to re-issue,
        oldest first (PPov)."""
        target = max(0, slp - self.params.pipeline)
        reissue: list[tuple[int, int, tuple]] = []
        for seqno in sorted(s for s in self.batches if target < s <= slp):
            record = self.batches[seqno]
            reissue.append(
                (seqno, record.flags, tuple(d for d in record.tx_digests if d is not None))
            )
        self._rollback_to_batch(target)
        return reissue

    def _rollback_to_batch(self, target: int) -> None:
        """Truncate ledger and KV state back to the end of batch
        ``target`` (0 = just after genesis), harvesting evidence entries
        from the removed region back into the message stores so the
        batches can be re-issued with their original evidence."""
        if target <= 0:
            truncate_to = 1  # keep the genesis entry
            kv_target = None
        else:
            record = self.batches.get(target)
            if record is None:
                raise ProtocolError(f"cannot roll back to unknown batch {target}")
            truncate_to = record.ledger_end
            kv_target = None
        first_removed = None
        for seqno in sorted(self.batches):
            if seqno > target:
                first_removed = seqno
                break
        if first_removed is not None:
            kv_target = self.batches[first_removed].kv_mark
            truncate_to = min(truncate_to, self.batches[first_removed].ledger_start)
        removed = self.ledger.truncate(truncate_to) if truncate_to <= len(self.ledger) else []
        if kv_target is not None:
            self.kv.rollback_to(kv_target)
        # Harvest evidence from the removed suffix back into the stores.
        for entry in removed:
            if isinstance(entry, EvidenceEntry):
                for prepare in entry.prepares():
                    self._store_prepare(prepare)
            elif isinstance(entry, NoncesEntry):
                store = self.commit_nonces.setdefault((entry.view, entry.seqno), {})
                for replica_id, nonce in zip(bitmap_members(entry.bitmap), entry.nonces):
                    store.setdefault(replica_id, nonce)
        # Drop batch records above the target.
        for seqno in [s for s in sorted(self.batches) if s > target]:
            record = self.batches.pop(seqno)
            self.pps.pop((record.view, seqno), None)
            if record.pp_digest is not None:
                self.ppd_index.pop(record.pp_digest, None)
                self.prepares_by_ppd.pop(record.pp_digest, None)
            # No arrival time: the requests are not aged out of the queue
            # before the new view re-issues their batch.
            self._unexecute(record)
        self.prepared_upto = min(self.prepared_upto, target)
        self.committed_upto = min(self.committed_upto, target)
        self.next_seqno = target + 1
        # Checkpoint bookkeeping.
        self.cp_directory.rollback_after(target)
        for seqno in [s for s in self.checkpoints if s > target]:
            del self.checkpoints[seqno]
        self.last_taken_cp = max(self.checkpoints) if self.checkpoints else 0
        records = self.cp_directory.records()
        self.last_recorded_cp = records[-1].cp_seqno if records else -1
        # Reconfiguration state rolled back with the vote (re-derived on
        # re-execution).
        self.gov_tx_log = [g for g in self.gov_tx_log if g[0] <= target]
        if self.reconfig is not None and self.reconfig.vote_seqno > target:
            self.reconfig = None

    # -- backups: accepting a new view (Alg. 2 line 18) -----------------------------------

    def handle_new_view(self, src: str, msg: tuple) -> None:
        nv = NewView.from_wire(msg[1])
        vc_wires = tuple(msg[2])
        if nv.view < self.view or (nv.view == self.view and self.ready):
            return
        config = self.current_config()
        primary_id = config.primary_for_view(nv.view)
        if primary_id == self.id:
            return
        if not self._verify(config.replica_key(primary_id), nv.signed_payload(), nv.signature):
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
            if not self._verify(config.replica_key(vc.replica), vc.signed_payload(), vc.signature):
                return
            vcs[vc.replica] = vc
        if len(vcs) < config.quorum:
            return
        vc_entry = ViewChangesEntry(view=nv.view, vc_wires=tuple(vcs[r].to_wire() for r in sorted(vcs)))
        if vc_entry.digest() != nv.vc_digest:
            return
        root_m, slp, pplp, source = self._process_view_changes(vcs)
        if root_m != nv.root_m:
            self.metrics.bump("bad_new_views")
            return
        if slp > 0 and slp - self.params.pipeline > self.committed_upto and (
            slp not in self.batches or self.batches[slp].pp_digest != pplp.digest()
        ):
            # Behind the committed frontier implied by the new view: sync.
            self._stashed_new_view = (src, msg)
            self._send_fetch_ledger(src)
            return
        target = max(0, slp - self.params.pipeline)
        target = min(target, max(self.committed_upto, self.prepared_upto))
        self._rollback_to_batch(min(target, self._last_complete_batch()))
        self.ledger.append(vc_entry)
        self.ledger.append(NewViewEntry(nv_wire=nv.to_wire()))
        self.view = nv.view
        self.ready = True
        self._stashed_new_view = None
        self.metrics.bump("new_views_accepted")
        if self._vc_span is not None:
            self._vc_span.set(new_view=nv.view)
            self._vc_span.finish(self.now)
            self._vc_span = None
        self._retry_pending_pps()

    def _last_complete_batch(self) -> int:
        """The newest batch we hold locally (re-issued pre-prepares from
        the new primary rebuild anything newer)."""
        return max(self.batches) if self.batches else 0

    # -- ledger adoption (join §5.1 / primary sync §3.2) -----------------------------------

    def handle_ledger_bundle(self, src: str, msg: tuple) -> None:
        # The fetch is answered; src no longer holds a license to report
        # `ledger-gone` for it.
        self._fetch_ledger_pending.discard(src)
        _, start, entry_wires, cp_wire, view, next_seqno = msg
        if start != 0 or len(entry_wires) <= len(self.ledger):
            self._resume_after_sync(src)
            return
        from ..errors import KVError, LedgerError, MerkleError

        try:
            self._adopt_ledger(entry_wires, cp_wire, view)
        except (ProtocolError, LedgerError, KVError, MerkleError, TypeError):
            self.metrics.bump("bad_ledger_bundles")
            return
        self.send(src, ("get-gov-chain",))
        self._resume_after_sync(src)
        self._retry_pending_pps()  # prune stash entries the adoption covered

    def _resume_after_sync(self, src: str) -> None:
        if self._pending_new_view is not None:
            view = self._pending_new_view
            self._pending_new_view = None
            self._maybe_send_new_view(view)
        if self._stashed_new_view is not None:
            stash_src, stash_msg = self._stashed_new_view
            self._stashed_new_view = None
            self.handle_new_view(stash_src, stash_msg)

    def handle_gov_chain_resp(self, src: str, msg: tuple) -> None:
        chain = GovernanceChain.from_wire(msg[1])
        if len(chain) > len(self.gov_chain):
            self.gov_chain = chain

    def _adopt_ledger(self, entry_wires: tuple, cp_wire, view: int) -> None:
        """Replace local state with a fetched whole ledger (legacy bundle
        path); :meth:`_install_ledger_state` does the real work."""
        entries = [entry_from_wire(w) for w in entry_wires]
        ledger = Ledger()
        for entry in entries:
            ledger.append(entry)
        checkpoint = None if cp_wire is None else Checkpoint.from_wire(cp_wire)
        self._install_ledger_state(ledger, checkpoint, view)

    def _install_ledger_state(
        self,
        ledger: Ledger,
        checkpoint: Checkpoint | None,
        view: int,
        trusted_schedule=None,
    ) -> int:
        """Adopt ``ledger`` wholesale: restore the KV store from
        ``checkpoint``, replay only the batches after it, and reconstruct
        per-batch records.  Returns the number of replayed batches.

        The paper's fetch verifies checkpoint receipts and per-interval
        Merkle roots instead of replaying everything (§3.4); we verify the
        structure while rebuilding, replay only from the checkpoint, and
        check every replayed batch against its signed ``root_g`` —
        raising :class:`ProtocolError` *before* any replica state changes,
        so a failed install leaves the replica untouched.
        """
        # Imported lazily: repro.governance.subledger itself imports the
        # lpbft message types, so a module-level import would be circular.
        from ..governance.subledger import extract_governance_subledger

        entries = ledger.entries()
        if ledger.base_index == 0:
            subledger = extract_governance_subledger(entries, self.params.pipeline)
            schedule = subledger.schedule.copy()
        else:
            # Suffix-rooted adoption (the server garbage-collected its
            # prefix): the governance history below the checkpoint is not
            # in the fetched entries, so the schedule comes from the
            # caller — the sync client's chain-verified schedule when the
            # server proved reconfigurations we missed (late join), our
            # own genesis-anchored schedule otherwise.  The sync client
            # has already verified each fetched pre-prepare's signature
            # against this same schedule.
            if checkpoint is None or checkpoint.seqno <= 0:
                raise ProtocolError("suffix-rooted ledger requires a checkpoint")
            schedule = trusted_schedule if trusted_schedule is not None else self.schedule.copy()
            if schedule.spans()[0].config.number != 0:
                raise ProtocolError("adopted schedule is not genesis-anchored")
        cp_seqno = 0 if checkpoint is None else checkpoint.seqno
        kv = KVStore()
        if checkpoint is not None:
            # The genesis checkpoint (seqno 0) restores too: it carries any
            # pre-populated initial state that a bare config install lacks.
            checkpoint.restore_into(kv)
            self.submit("hash", len(checkpoint.state) * self.costs.checkpoint_per_entry)
        else:
            if not entries or not isinstance(entries[0], GenesisEntry):
                raise ProtocolError("adopted ledger does not start with genesis")
            config0 = Configuration.from_wire(entries[0].config_wire)
            kv.execute(lambda tx: install_configuration(tx, config0))

        checkpoints: dict[int, Checkpoint] = {cp_seqno: checkpoint} if checkpoint is not None else {}
        last_taken = cp_seqno
        batches: dict[int, BatchRecord] = {}
        tx_locations: dict = {}
        new_pps: dict = {}
        new_ppd: dict = {}
        activations = {
            span.start_seqno: span.config
            for span in schedule.spans()
            if span.config.number > 0
        }
        last_recorded = -1
        replayed = 0
        for info in ledger.batches():
            seqno = info.seqno
            pp = ledger.batch_pre_prepare(seqno)
            record = BatchRecord(seqno=seqno, view=pp.view, flags=pp.flags)
            record.pp = pp
            record.pp_digest = pp.digest()
            record.ledger_start = info.pp_index
            record.ledger_end = info.end
            replaying = seqno > cp_seqno
            # Live execution installs an activated configuration *before*
            # capturing the batch's kv mark (handle_pre_prepare activates,
            # then _accept_pre_prepare marks) — match that order here, or a
            # later view-change rollback to this batch's mark silently
            # undoes the install and the replica's KV state diverges from
            # replicas that executed the activation live.
            if replaying and seqno in activations:
                kv.execute(lambda tx, c=activations[seqno]: install_configuration(tx, c))
            record.kv_mark = kv.tx_count
            for entry in ledger.entries(info.first_tx, info.end):
                if isinstance(entry, CheckpointTxEntry):
                    record.entries.append(entry)
                    record.g_tree.append(entry.leaf_digest())
                    record.tx_digests.append(None)
                    last_recorded = entry.cp_seqno
                    continue
                if not isinstance(entry, TxEntry):
                    raise ProtocolError(f"unexpected {entry.kind!r} entry inside batch {seqno}")
                request = entry.request()
                tx_digest = request.request_digest()
                if replaying:
                    output, ops = execute_procedure(kv, self.registry, request)
                    # Replay is real CPU: catching up from an old (or no)
                    # checkpoint costs proportionally more than restoring
                    # a recent one — the §3.4 argument for checkpoints.
                    self.submit("execute", self.costs.execute_tx(ops, len(kv)))
                    entry = TxEntry(request_wire=request.to_wire(), index=entry.index, output=output)
                record.entries.append(entry)
                record.g_tree.append(entry.leaf_digest())
                record.tx_digests.append(tx_digest)
                tx_locations[tx_digest] = (seqno, entry.index)
            if replaying:
                replayed += 1
                if record.g_tree.root() != pp.root_g:
                    # Divergent replay or a ledger with doctored outputs.
                    raise ProtocolError(f"replayed batch {seqno} mismatches signed root_g")
            record.prepared = True
            record.committed = True
            batches[seqno] = record
            new_pps[(record.view, seqno)] = pp
            new_ppd[record.pp_digest] = (record.view, seqno)
            # Take interval checkpoints passed during replay so the next
            # checkpoint transaction finds its state.
            if (
                replaying
                and self.params.checkpoints
                and record.flags != BATCH_CHECKPOINT
                and seqno % self.params.checkpoint_interval == 0
            ):
                checkpoints[seqno] = Checkpoint.capture(kv, seqno, info.end, ledger.root_at(info.end))
                last_taken = seqno

        # Everything verified and built — commit to the replica atomically.
        self.schedule = schedule
        self.ledger = ledger
        self.kv = kv
        # Keep our genesis checkpoint: it is identical on every replica
        # (derived from the genesis configuration + initial state) and
        # stays the replay anchor for peers without a stable checkpoint.
        if 0 in self.checkpoints:
            checkpoints.setdefault(0, self.checkpoints[0])
        self.checkpoints = checkpoints
        # Adopted checkpoints count as fresh for the GC age floor.
        self._cp_taken_at = {s: (0.0 if s == 0 else self.now) for s in checkpoints}
        self.last_taken_cp = last_taken
        self.last_recorded_cp = last_recorded
        self.cp_directory = CheckpointDirectoryFromLedger(entries, self)
        # The governance archive described the *old* ledger's pruned
        # prefix; a full-prefix adoption can re-derive everything from the
        # entries, a suffix-rooted one falls back to the degraded
        # (schedule-only) sub-ledger until it archives its own truncations.
        self._gov_archive = None
        self.batches = batches
        self.tx_locations = tx_locations
        # The adopted ledger's batches are the only ones indexed now;
        # prepares for a pre-prepare that lost its index go with it.
        for digest in self.ppd_index.keys() - new_ppd.keys():
            self.prepares_by_ppd.pop(digest, None)
        for digest, (_, seqno) in new_ppd.items():
            if digest not in self.ppd_index:
                self._verify_early_prepares(digest, seqno)
        self.pps = new_pps
        self.ppd_index = new_ppd
        self.admission.discard(tx_locations)
        last_seqno = ledger.last_seqno()
        self.prepared_upto = last_seqno
        self.committed_upto = last_seqno
        self.next_seqno = last_seqno + 1
        # Adopt the sender's view wholesale, even if we had optimistically
        # advanced further while partitioned away — the adopted ledger is
        # the service's actual history.
        self.view = view
        self.ready = True
        self.view_changes = {v: m for v, m in self.view_changes.items() if v > view}
        self.gov_tx_log = []
        self.reconfig = None
        self.metrics.bump("ledger_adoptions")
        return replayed

    _DISPATCH = dict(LPBFTReplicaCore._DISPATCH)
    _DISPATCH["gov-chain-resp"] = "handle_gov_chain_resp"


def CheckpointDirectoryFromLedger(entries, replica) -> "object":
    """Rebuild a :class:`~repro.lpbft.checkpointing.CheckpointDirectory`
    from checkpoint transactions found in a fetched ledger.

    ``entries`` may be a retained *suffix* (the server garbage-collected
    its prefix): the genesis digest then comes from the replica's own
    directory — every replica derives it from the genesis configuration
    it was constructed with — and the directory simply lacks records for
    pruned batches, which can never be re-proposed."""
    from .checkpointing import CheckpointDirectory

    if entries and isinstance(entries[0], GenesisEntry):
        # The genesis checkpoint digest is recomputable from the genesis
        # config (plus any pre-populated initial state, which the replica's
        # own genesis checkpoint carries).
        genesis_cp = replica.checkpoints.get(0)
        if genesis_cp is not None:
            genesis_digest = genesis_cp.digest()
        else:
            scratch = KVStore()
            config0 = Configuration.from_wire(entries[0].config_wire)
            scratch.execute(lambda tx: install_configuration(tx, config0))
            genesis_digest = scratch.state_digest()
    else:
        genesis_digest = replica.cp_directory.genesis_digest()
    directory = CheckpointDirectory(genesis_digest)

    current_seqno = 0
    for entry in entries:
        if isinstance(entry, PrePrepareEntry):
            current_seqno = entry.pre_prepare().seqno
        elif isinstance(entry, CheckpointTxEntry):
            directory.note_record(current_seqno, entry.cp_seqno, entry.cp_digest)
    return directory


class LPBFTReplica(StateSyncMixin, ViewChangeMixin, LPBFTReplicaCore):
    """The deployable L-PBFT replica: Alg. 1 + Alg. 2 + reconfiguration +
    state sync (checkpoint transfer and ledger catch-up)."""

    _DISPATCH = {**ViewChangeMixin._DISPATCH, **STATESYNC_DISPATCH}
