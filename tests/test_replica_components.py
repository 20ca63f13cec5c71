"""The replica's shape and its view manager, on a constructed and
unstarted deployment: nothing runs, the tests call the component's
methods directly (the ``TestRequestQueue`` idiom)."""

import pytest

import repro.lpbft.replica
from repro.errors import ProtocolError
from repro.kvstore import KVStore
from repro.ledger import LedgerFragment, PrePrepareEntry, TxEntry
from repro.lpbft import LPBFTReplica, PrePrepare, TransactionRequest, execute_procedure
from repro.lpbft.adoption import install_ledger, verify_fetched_ledger
from repro.merkle import MerkleTree
from repro.network import Node
from repro.statesync.messages import SyncOffer

from helpers import FAST_PARAMS, build_deployment, forge_checkpoint_record, run_waves

# Every message kind the three dispatch tables held before the replica
# became one class, and the component that must own its handler.
OWNERS = {
    "request": None, "pre-prepare": None, "prepare": None, "commit": None,
    "get-replyx": None, "fetch-requests": None, "requests-bundle": None,
    "fetch-evidence": None, "evidence-bundle": None, "get-gov-chain": None,
    "gov-chain-resp": None, "ack": None,
    "view-change": "views", "new-view": "views",
    "sync-probe": "sync_server", "sync-get-manifest": "sync_server",
    "sync-get-chunk": "sync_server", "sync-get-ledger": "sync_server",
    "sync-offer": "sync_client", "sync-manifest": "sync_client",
    "sync-chunk": "sync_client", "sync-ledger": "sync_client",
}


class TestShape:
    def test_one_class_over_node(self):
        assert LPBFTReplica.__mro__[1] is Node
        assert repro.lpbft.replica.LPBFTReplicaCore is LPBFTReplica
        assert "on_message" in vars(LPBFTReplica)

    def test_every_kind_dispatches_to_its_owner(self):
        replica = build_deployment().replicas[1]
        assert set(replica._handlers) == set(OWNERS)
        for kind, owner in OWNERS.items():
            expected = replica if owner is None else getattr(replica, owner)
            assert replica._handlers[kind].__self__ is expected, kind

    def test_unknown_kind_is_dropped_and_counted(self):
        replica = build_deployment().replicas[1]
        replica.on_message("replica-0", ("no-such-kind",))
        assert replica.metrics.registry.counter("malformed_messages").value(kind="unknown") == 1
        assert replica.metrics.counters["messages_received"] == 1


class TestViewChangeTimer:
    """One case per row of ``ViewManager.on_timer``'s decision table,
    read off the backup's counters."""

    @staticmethod
    def build():
        dep = build_deployment(accounts=20)
        backup = dep.replicas[1]
        backup.views.on_timer()  # the first period always counts as progress
        return dep, backup

    @staticmethod
    def fire(replica):
        before = dict(replica.metrics.counters)
        replica.views.on_timer()
        after = replica.metrics.counters
        return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}

    @staticmethod
    def stash(replica, view, seqno, digests=()):
        pp = PrePrepare(view=view, seqno=seqno, root_m=b"", root_g=b"", nonce_commitment=b"",
                        evidence_bitmap=0, gov_index=0, checkpoint_digest=b"")
        replica.pending_pps.append((pp, digests, None))

    @staticmethod
    def queue_request(dep, replica):
        client = dep.add_client()
        req = TransactionRequest(
            procedure="smallbank.balance", args={"customer": 1},
            client=client.keypair.public_key, service=dep.service_name, min_index=0, nonce=1,
        )
        req = req.with_signature(client.backend.sign(client.keypair, req.signed_payload()))
        replica.handle_request(client.address, ("request", req.to_wire()))
        assert replica.admission

    def test_syncing_only_rearms(self):
        dep, backup = self.build()
        self.queue_request(dep, backup)
        backup.syncing = True
        backup.views._vc_timer = None
        assert self.fire(backup) == {}
        assert backup.views._vc_timer is not None

    def test_stash_from_a_higher_view_means_we_missed_it(self):
        _, backup = self.build()
        self.stash(backup, view=1, seqno=1)
        delta = self.fire(backup)
        assert delta["sync_started_missed_view"] == 1 and "view_changes_sent" not in delta
        assert backup.syncing

    def test_dropping_lower_view_traffic_means_we_over_advanced(self):
        _, backup = self.build()
        backup._last_lower_view_drop = 0
        delta = self.fire(backup)
        assert delta["sync_started_over_advanced"] == 1 and "view_changes_sent" not in delta
        assert backup._last_lower_view_drop is None

    def test_deep_stash_without_progress_is_stuck(self):
        _, backup = self.build()
        # The next batch is stashed but names a request nobody holds, so
        # the stash has no gap (not "lag") and still cannot drain.
        self.stash(backup, view=0, seqno=1, digests=(b"\x01" * 32,))
        self.stash(backup, view=0, seqno=backup.sync_client.lag_threshold() + 1)
        delta = self.fire(backup)
        assert delta["sync_started_stuck"] == 1 and "sync_lag_detected" not in delta

    def test_pending_work_without_progress_suspects_the_primary(self):
        dep, backup = self.build()
        self.queue_request(dep, backup)
        delta = self.fire(backup)
        assert delta["view_changes_sent"] == 1 and "sync_sessions_started" not in delta
        assert backup.view == 1 and not backup.ready
        assert backup.id in backup.views.view_changes[1]

    def test_commits_made_during_a_session_that_installed_nothing_count_as_progress(self):
        dep, backup = self.build()
        self.queue_request(dep, backup)
        backup.committed_upto += 1  # committed while a session ran
        backup.views.synced(backup.ledger, None, None)
        assert self.fire(backup) == {}
        assert backup.view == 0

    def test_progress_does_nothing(self):
        dep = build_deployment(accounts=20)
        backup = dep.replicas[1]
        self.queue_request(dep, backup)
        assert self.fire(backup) == {}  # first period: the mark starts below zero
        assert backup.view == 0


class TestHonestInstall:
    """``install_ledger`` commits only what the installed ledger proves:
    batch s's commitment evidence is ordered in batch s + P (§3.1), so the
    last P batches of a fetched ledger install pre-prepared, and commit
    once their evidence arrives."""

    def test_tail_installs_pre_prepared_until_its_evidence_arrives(self):
        dep = build_deployment(accounts=20)
        victim, primary = dep.replicas[3], dep.primary()
        dep.net.add_drop_rule(lambda src, dst, msg: victim.address in (src, dst))
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        run_waves(dep, client, waves=3, per_wave=20, gap=0.05)
        ledger = primary.ledger.fragment(0).to_ledger()
        tip, depth = ledger.last_seqno(), FAST_PARAMS.pipeline
        assert tip > depth and primary.committed_upto == tip
        genesis = victim.checkpoints[0]
        schedule = victim.schedule.copy()
        verify_fetched_ledger(victim, ledger, len(ledger), 1, genesis, schedule)
        install_ledger(victim, ledger, genesis, schedule)
        assert victim.committed_upto == victim.prepared_upto == tip - depth
        assert victim.next_seqno == tip + 1
        for seqno, record in victim.batches.items():
            assert record.prepared == record.committed == (seqno <= tip - depth), seqno
        for seqno in range(tip - depth + 1, tip + 1):
            evidence, nonces = primary.batches.evidence(seqno, primary.config_for(seqno))
            victim.on_message(
                primary.address,
                ("evidence-bundle", seqno, evidence.to_wire(), nonces.to_wire()))
        assert victim.committed_upto == victim.prepared_upto == tip
        assert all(record.committed for record in victim.batches.values())

    def test_install_keeps_what_we_committed(self):
        """A replica that committed through X and installs a ledger ending
        before X + P keeps X committed: no batch commits a second time."""
        dep = build_deployment(accounts=20)
        replica, primary = dep.replicas[3], dep.primary()
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        run_waves(dep, client, waves=3, per_wave=20, gap=0.05)
        ledger = primary.ledger.fragment(0).to_ledger()
        tip = ledger.last_seqno()
        assert replica.committed_upto == tip > FAST_PARAMS.pipeline
        committed = replica.metrics.counters["batches_committed"]
        genesis = replica.checkpoints[0]
        schedule = replica.schedule.copy()
        verify_fetched_ledger(replica, ledger, len(ledger), 1, genesis, schedule)
        install_ledger(replica, ledger, genesis, schedule)
        assert replica.committed_upto == replica.prepared_upto == tip
        assert all(record.committed for record in replica.batches.values())
        assert replica.metrics.counters["batches_committed"] == committed


class TestSyncSuffix:
    """A ledger suffix reaches replica state only from the session's own
    server and only through the verifier; a new-view session takes only
    a suffix that holds the view-change quorum's latest prepared batch."""

    @staticmethod
    def state(replica):
        return (replica.committed_upto, replica.prepared_upto, replica.view,
                len(replica.ledger), replica.ledger.root(), replica.kv.state_digest(),
                sorted(replica.batches))

    @staticmethod
    def paused_session(dep, victim, behind=False, target=None):
        """One committed batch, then a session whose only server is
        replica-0, held just before the suffix arrives.  Returns the
        honest ``sync-ledger`` message.  ``behind``: the victim heard
        nothing before the session; ``target``: ``(view, slp, pplp,
        stash)`` of a new-view catch-up, else a lag session."""
        cut_off = [behind]
        held = []

        def rule(src, dst, msg):
            if cut_off[0]:
                return victim.address in (src, dst)
            if dst != victim.address:
                return False
            if msg[0] == "sync-ledger":
                if src == "replica-0":
                    held.append(msg)
                return True  # every suffix is held back
            return msg[0] == "sync-offer" and src != "replica-0"  # one server

        dep.net.add_drop_rule(rule)
        dep.start()
        dep.add_client().submit("smallbank.balance", {"customer": 1}, min_index=0)
        dep.run(until=0.5)
        assert dep.replicas[0].committed_upto == 1
        assert victim.committed_upto == (0 if behind else 1)
        cut_off[0] = False
        if target is None:
            victim.sync_client.start("lag")
        else:
            victim.views._catch_up(*target)
        dep.run(until=0.55)
        assert victim.sync_client.phase == "ledger" and len(held) == 1
        return held[0]

    @staticmethod
    def forged(victim, honest):
        """The honest suffix plus a batch nobody proposed: an unsigned
        request under a pre-prepare with a made-up signature, its roots
        exactly what the victim computes, so only the signature fails."""
        request = TransactionRequest(
            procedure="smallbank.deposit_checking", args={"customer": 1, "amount": 10**9},
            client=b"nobody", service=victim.service_name, min_index=0, nonce=1,
        )
        output, _ = execute_procedure(
            KVStore(initial=victim.kv.snapshot()), victim.registry, request)
        entry = TxEntry(request_wire=request.to_wire(),
                        index=victim.ledger.logical_size() + 1, output=output)
        g_tree = MerkleTree()
        g_tree.append(entry.leaf_digest())
        pp = PrePrepare(view=0, seqno=2, root_m=victim.ledger.root(), root_g=g_tree.root(),
                        nonce_commitment=b"\0" * 32, evidence_bitmap=0, gov_index=0,
                        checkpoint_digest=b"", signature=b"forged")
        wires = honest[2] + (PrePrepareEntry(pp_wire=pp.to_wire()).to_wire(), entry.to_wire())
        return honest[:2] + (wires,) + honest[3:]

    def test_forged_suffix_from_an_unsolicited_peer_is_ignored(self):
        dep = build_deployment(accounts=20)
        victim = dep.replicas[1]
        forged = self.forged(victim, self.paused_session(dep, victim))
        before = self.state(victim)
        victim.on_message("replica-2", forged)
        assert self.state(victim) == before
        assert victim.sync_client.phase == "ledger" and victim.sync_client.server == "replica-0"
        assert "sync_verification_failures" not in victim.metrics.counters

    def test_forged_suffix_from_the_server_fails_the_verifier(self):
        dep = build_deployment(accounts=20)
        victim = dep.replicas[1]
        forged = self.forged(victim, self.paused_session(dep, victim))
        before = self.state(victim)
        victim.on_message("replica-0", forged)
        assert self.state(victim) == before
        assert victim.metrics.counters["sync_verification_failures"] == 1
        assert "ledger_adoptions" not in victim.metrics.counters

    def test_suffix_without_the_prepared_batch_is_refused(self):
        dep = build_deployment(accounts=20)
        victim = dep.replicas[1]
        other = PrePrepare(view=0, seqno=1, root_m=b"", root_g=b"", nonce_commitment=b"\0" * 32,
                           evidence_bitmap=0, gov_index=0, checkpoint_digest=b"", signature=b"")
        stash = ("replica-2", ("new-view",))  # held back while catching up
        honest = self.paused_session(dep, victim, behind=True, target=(1, 1, other, stash))
        before = self.state(victim)
        victim.on_message("replica-0", honest)
        assert self.state(victim) == before
        counters = victim.metrics.counters
        assert "ledger_adoptions" not in counters and "sync_verification_failures" not in counters
        # The only server missed: the session ends, the view-change timer
        # takes over, and the held-back new-view goes with the session.
        assert counters["sync_sessions_abandoned"] == 1 and not victim.syncing
        assert victim.sync_client.target is None

    @pytest.mark.parametrize("waves", [3, 8])
    def test_sync_serves_a_checkpoint_its_ledger_records(self, waves):
        """Between taking checkpoint C and recording it (at 2C) the newest
        checkpoint has no binding in the ledger yet: the server offers the
        newest *recorded* one (still the genesis checkpoint before 2C)."""
        dep = build_deployment(params=FAST_PARAMS.variant(checkpoint_interval=4))
        backup, primary = dep.replicas[3], dep.primary()
        cut_off = [True]
        dep.net.add_drop_rule(
            lambda src, dst, msg: cut_off[0] and backup.address in (src, dst))
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        run_waves(dep, client, waves=waves, per_wave=20, gap=0.05)
        recorded = [r.cp_seqno for r in primary.checkpoints.records()]
        assert max(primary.checkpoints) not in recorded  # taken, not recorded yet
        assert (max(recorded) > 0) == (waves == 8)
        cut_off[0] = False
        backup.sync_client.start("lag")
        dep.run(until=dep.net.scheduler.now + 0.5)
        assert backup.metrics.counters["ledger_adoptions"] == 1
        assert backup.sync_client.last_result["cp_seqno"] == max(recorded)
        assert backup.committed_upto == primary.committed_upto
        assert backup.kv.state_digest() == primary.kv.state_digest()


class TestVerifierBindsTheLedger:
    """The verifier asks the audit's binding check, so a served ledger
    whose entries miss a signed root fails before the install replays
    it."""

    def test_last_batch_that_misses_its_root_g_fails_the_verifier(self):
        dep = build_deployment(accounts=20)
        victim, primary = dep.replicas[3], dep.primary()
        dep.net.add_drop_rule(lambda src, dst, msg: victim.address in (src, dst))
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        run_waves(dep, client, waves=3, per_wave=20, gap=0.05)
        wires = list(primary.ledger.fragment(0).entry_wires)
        # The last transaction sits in the last batch: no later root_m
        # covers it, only that batch's root_g.
        last = max(i for i, wire in enumerate(wires) if wire[0] == "tx")
        tag, request, index, _ = wires[last]
        wires[last] = (tag, request, index, {"reply": {"ok": True}, "ws": b"\0" * 32})
        ledger = LedgerFragment(start=0, entry_wires=tuple(wires)).to_ledger()
        with pytest.raises(ProtocolError, match=f"batch {ledger.last_seqno()}: .* root_g"):
            verify_fetched_ledger(
                victim, ledger, len(ledger), 1, victim.checkpoints[0], victim.schedule)


class TestInstallReplaysLikeTheAudit:
    """The install replays through the audit's loop, so a ledger whose
    signers re-signed a forged checkpoint transaction fails it before any
    replica state changes.  With C = 10, batch 20 records checkpoint 10,
    and a victim that heard nothing replays it from genesis."""

    @staticmethod
    def lagging_run(rule=None):
        dep = build_deployment(accounts=20)
        victim = dep.replicas[3]
        cut_off = [True]
        dep.net.add_drop_rule(
            lambda src, dst, msg: victim.address in (src, dst) if cut_off[0]
            else rule is not None and rule(dst, msg))
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        run_waves(dep, client, waves=30, per_wave=10, gap=0.05)
        cut_off[0] = False
        return dep, victim, dep.primary()

    @pytest.mark.parametrize("forgery", ["digest", "size", "root"])
    def test_forged_checkpoint_record_fails_the_install(self, forgery):
        dep, victim, primary = self.lagging_run()
        ledger = forge_checkpoint_record(primary.ledger.fragment(0).to_ledger(), dep, forgery)
        genesis = victim.checkpoints[0]
        schedule = victim.schedule.copy()
        verify_fetched_ledger(victim, ledger, len(ledger), 1, genesis, schedule)
        before = TestSyncSuffix.state(victim)
        with pytest.raises(ProtocolError, match="replayed batch 20: checkpoint transaction"):
            install_ledger(victim, ledger, genesis, schedule)
        assert TestSyncSuffix.state(victim) == before
        assert victim.checkpoints.records() == []

    def test_forged_checkpoint_digest_fails_a_session(self):
        held = []

        def rule(dst, msg):
            # Offers are dropped (the primary's is injected below) and
            # the suffix is held back.
            if dst == victim.address and msg[0] == "sync-ledger":
                held.append(msg)
            return dst == victim.address and msg[0] in ("sync-offer", "sync-ledger")

        dep, victim, primary = self.lagging_run(rule)
        victim.sync_client.start("lag")
        # The primary offers checkpoint 0, genesis: the victim replays
        # every batch, batch 20 included.
        offer = SyncOffer(
            cp_seqno=0, cp_digest=primary.checkpoints.genesis_digest, cp_ledger_size=1,
            cp_ledger_root=primary.ledger.root_at(1),
            n_chunks=0, tip_seqno=primary.committed_upto, view=primary.view)
        victim.on_message(primary.address, offer.to_wire())
        dep.run(until=dep.net.scheduler.now + 0.05)
        assert victim.sync_client.phase == "ledger" and len(held) == 1
        honest = held[0]
        served = LedgerFragment(
            start=0, entry_wires=(victim.ledger.entry(0).to_wire(),) + honest[2]).to_ledger()
        forged = forge_checkpoint_record(served, dep, "digest")
        wires = tuple(entry.to_wire() for entry in forged.entries(honest[1]))
        before = TestSyncSuffix.state(victim)
        victim.on_message(primary.address, honest[:2] + (wires,) + honest[3:])
        assert TestSyncSuffix.state(victim) == before
        counters = victim.metrics.counters
        assert counters["sync_verification_failures"] == 1 and counters["sync_failovers"] == 1
        assert "ledger_adoptions" not in counters


class TestNewViewCatchUp:
    """Alg. 2's "fetch missing ledger entries" is a state-sync session:
    a new primary behind the latest prepared batch installs it and sends
    its new-view at once, not a view-change timeout later."""

    def test_new_primary_behind_slp_sends_new_view_after_the_install(self):
        dep = build_deployment(accounts=20)
        new_primary = dep.replicas[1]
        cut_off = [True]
        dep.net.add_drop_rule(
            lambda src, dst, msg: cut_off[0] and new_primary.address in (src, dst))
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        run_waves(dep, client, waves=3, per_wave=20, gap=0.05)
        assert new_primary.committed_upto == 0 < dep.replicas[2].committed_upto
        cut_off[0] = False
        dep.crash_replica(0)
        for replica in dep.replicas[1:]:
            replica.views.suspect_primary()
        dep.run(until=dep.net.scheduler.now + FAST_PARAMS.view_change_timeout / 10)
        counters = new_primary.metrics.counters
        assert counters["sync_started_new_view"] == 1
        assert counters["ledger_adoptions"] == 1
        assert counters["new_views_sent"] == 1
        live = dep.replicas[1:]
        assert all(replica.view == 1 and replica.ready for replica in live)
        assert len({replica.ledger.root() for replica in live}) == 1
