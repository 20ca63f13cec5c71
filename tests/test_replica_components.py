"""The replica's shape and its view manager, on a constructed and
unstarted deployment: nothing runs, the tests call the component's
methods directly (the ``TestRequestQueue`` idiom)."""

import pytest

import repro.lpbft.replica
from repro.errors import ProtocolError
from repro.kvstore import KVStore
from repro.ledger import PrePrepareEntry, TxEntry
from repro.lpbft import LPBFTReplica, PrePrepare, TransactionRequest, execute_procedure
from repro.merkle import MerkleTree
from repro.network import Node

from helpers import FAST_PARAMS, build_deployment, run_waves

# Every message kind the three dispatch tables held before the replica
# became one class, and the component that must own its handler.
OWNERS = {
    "request": None, "pre-prepare": None, "prepare": None, "commit": None,
    "get-replyx": None, "fetch-requests": None, "requests-bundle": None,
    "fetch-evidence": None, "evidence-bundle": None, "fetch-ledger": None,
    "ledger-bundle": None, "ledger-gone": None, "get-gov-chain": None,
    "gov-chain-resp": None, "ack": None,
    "view-change": "views", "new-view": "views",
    "sync-probe": "sync_server", "sync-get-manifest": "sync_server",
    "sync-get-chunk": "sync_server", "sync-get-ledger": "sync_server",
    "sync-offer": "sync_client", "sync-manifest": "sync_client",
    "sync-chunk": "sync_client", "sync-ledger": "sync_client",
    "sync-ledger-refused": "sync_client",
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

    def test_unknown_kind_raises(self):
        replica = build_deployment().replicas[1]
        with pytest.raises(ProtocolError, match="unknown message kind"):
            replica.on_message("replica-0", ("no-such-kind",))


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
        replica.pending_pps.append((pp.to_wire(), digests, None))

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

    def test_progress_does_nothing(self):
        dep = build_deployment(accounts=20)
        backup = dep.replicas[1]
        self.queue_request(dep, backup)
        assert self.fire(backup) == {}  # first period: the mark starts below zero
        assert backup.view == 0


class TestLedgerBundle:
    """A ``ledger-bundle`` reaches replica state only when it was asked
    for and only through the verifier a sync suffix passes."""

    @staticmethod
    def state(replica):
        return replica.committed_upto, len(replica.ledger), replica.kv.state_digest()

    @staticmethod
    def forged_bundle(dep, victim):
        """The honest ledger after one committed batch, plus a batch
        nobody proposed: an unsigned request under a pre-prepare with a
        made-up signature, its output exactly what a replay computes."""
        dep.start()
        dep.add_client().submit("smallbank.balance", {"customer": 1}, min_index=0)
        dep.run(until=0.5)
        honest = dep.replicas[0]
        assert honest.committed_upto == victim.committed_upto == 1
        request = TransactionRequest(
            procedure="smallbank.deposit_checking", args={"customer": 1, "amount": 10**9},
            client=b"nobody", service=dep.service_name, min_index=0, nonce=1,
        )
        output, _ = execute_procedure(
            KVStore(initial=victim.kv.snapshot()), victim.registry, request)
        entry = TxEntry(request_wire=request.to_wire(),
                        index=honest.ledger.logical_size() + 1, output=output)
        g_tree = MerkleTree()
        g_tree.append(entry.leaf_digest())
        pp = PrePrepare(view=0, seqno=2, root_m=b"\0" * 32, root_g=g_tree.root(),
                        nonce_commitment=b"\0" * 32, evidence_bitmap=0, gov_index=0,
                        checkpoint_digest=b"", signature=b"forged")
        wires = honest.ledger.fragment(0).entry_wires + (
            PrePrepareEntry(pp_wire=pp.to_wire()).to_wire(), entry.to_wire())
        newest = honest.checkpoints[max(honest.checkpoints)]
        return ("ledger-bundle", 0, wires, newest.to_wire(), 0, 3)

    def test_unsolicited_forged_bundle_is_dropped(self):
        dep = build_deployment(accounts=20)
        victim = dep.replicas[1]
        bundle = self.forged_bundle(dep, victim)
        before = self.state(victim)
        victim.on_message("client-0", bundle)
        assert self.state(victim) == before
        assert "bad_ledger_bundles" not in victim.metrics.counters

    def test_solicited_forged_bundle_fails_the_verifier(self):
        dep = build_deployment(accounts=20)
        victim = dep.replicas[1]
        bundle = self.forged_bundle(dep, victim)
        before = self.state(victim)
        victim._send_fetch_ledger("replica-0")
        victim.on_message("replica-0", bundle)
        assert self.state(victim) == before
        assert victim.metrics.counters["bad_ledger_bundles"] == 1
        assert "ledger_adoptions" not in victim.metrics.counters

    @pytest.mark.parametrize("waves", [3, 8])
    def test_honest_bundle_ships_a_checkpoint_its_ledger_records(self, waves):
        """Between taking checkpoint C and recording it (at 2C) the newest
        checkpoint has no binding in the ledger yet: the server ships the
        newest *recorded* one (still the genesis checkpoint before 2C)."""
        dep = build_deployment(params=FAST_PARAMS.variant(checkpoint_interval=4))
        backup, primary = dep.replicas[3], dep.primary()
        cut_off = [True]
        dep.net.add_drop_rule(
            lambda src, dst, msg: cut_off[0] and backup.address in (src, dst))
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        run_waves(dep, client, waves=waves, per_wave=20, gap=0.05)
        recorded = [r.cp_seqno for r in primary.cp_directory.records()]
        assert max(primary.checkpoints) not in recorded  # taken, not recorded yet
        assert (max(recorded) > 0) == (waves == 8)
        cut_off[0] = False
        backup._send_fetch_ledger(primary.address)
        dep.run(until=dep.net.scheduler.now + 0.5)
        assert backup.metrics.counters["ledger_adoptions"] == 1
        assert "bad_ledger_bundles" not in backup.metrics.counters
        assert backup.kv.state_digest() == primary.kv.state_digest()
