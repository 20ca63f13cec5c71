"""Ledger prefix GC (PR 5): tree compaction, truncation + retention,
checkpoint-rooted audits, GC'd-batch receipt fallback, and state sync
against servers that no longer hold the genesis prefix."""

import hashlib

import pytest

from repro.audit import Auditor, build_ledger_package, check_package_completeness
from repro.byzantine import TamperExecution
from repro.enforcement import make_enforcer
from repro.errors import KVError, LedgerError, MerkleError, ProtocolError
from repro.governance.subledger import GovernanceExtractor, extract_governance_subledger
from repro.kvstore import KVStore
from repro.ledger import Ledger, RetentionPolicy, TxEntry
from repro.lpbft import ProtocolParams, execute_procedure
from repro.merkle.proofs import frontier_root, verify_path
from repro.merkle.tree import MerkleTree
from repro.workloads import SmallBankWorkload

from helpers import build_deployment, run_waves

# Aggressive GC: truncate as soon as a checkpoint stabilizes.
GC_PARAMS = ProtocolParams(
    pipeline=2, max_batch=10, checkpoint_interval=10,
    batch_delay=0.0005, view_change_timeout=2.0,
    ledger_gc_min_age=0.0,
)


def _leaves(n):
    return [hashlib.sha256(i.to_bytes(4, "big")).digest() for i in range(n)]


def force_gc(dep):
    """Run every replica's truncation hook once (the deployments in these
    tests use ledger_gc_min_age=0, so the boundary is the oldest stable
    checkpoint)."""
    for replica in dep.replicas:
        replica._maybe_truncate_ledger()


class TestMerkleCompaction:
    def test_roots_paths_and_frontiers_survive_compaction(self):
        leaves = _leaves(53)
        reference = MerkleTree(leaves)
        roots = {s: reference.root_at(s) for s in range(54)}
        for base in (1, 2, 7, 16, 31, 52, 53):
            tree = MerkleTree(leaves)
            assert tree.compact_below(base) == base
            assert len(tree) == 53 and tree.base == base
            for size in range(base, 54):
                assert tree.root_at(size) == roots[size]
                assert frontier_root(tree.frontier_at(size)) == roots[size]
            for index in range(base, 53):
                assert verify_path(leaves[index], tree.path(index), roots[53])

    def test_compacted_regions_raise(self):
        tree = MerkleTree(_leaves(20))
        tree.compact_below(12)
        with pytest.raises(MerkleError):
            tree.path(5, 20)
        with pytest.raises(MerkleError):
            tree.frontier_at(7)
        with pytest.raises(MerkleError):
            tree.truncate(8)
        # A root cached before compaction stays answerable.
        tree2 = MerkleTree(_leaves(20))
        cached = tree2.root_at(7)
        tree2.compact_below(12)
        with pytest.raises(MerkleError):
            tree2.root_at(7)  # cache for sizes below the base is dropped
        assert cached == MerkleTree(_leaves(7)).root()

    def test_appends_and_truncate_after_compaction(self):
        leaves = _leaves(40)
        reference = MerkleTree(leaves)
        tree = MerkleTree(leaves[:25])
        tree.compact_below(21)
        for leaf in leaves[25:]:
            tree.append(leaf)
        assert tree.root() == reference.root()
        tree.truncate(33)
        assert tree.root() == reference.root_at(33)

    def test_from_frontier_reproduces_roots(self):
        leaves = _leaves(29)
        reference = MerkleTree(leaves)
        tree = MerkleTree.from_frontier(reference.frontier_at(13))
        assert len(tree) == 13 and tree.base == 13
        for leaf in leaves[13:]:
            tree.append(leaf)
        assert tree.root() == reference.root()
        assert tree.root_at(13) == reference.root_at(13)


class TestRetentionPolicy:
    def test_pins_clamp_the_boundary(self):
        policy = RetentionPolicy()
        assert policy.boundary(500) == 500
        policy.pin("sync", 200)
        policy.pin("audit", 350)
        assert policy.floor() == 200
        assert policy.boundary(500) == 200
        policy.release("sync")
        assert policy.boundary(500) == 350
        policy.release("audit")
        assert policy.boundary(500) == 500


@pytest.fixture(scope="module")
def gc_run():
    """A long honest run with aggressive GC: every replica has truncated
    its ledger prefix at least once by the end."""
    dep = build_deployment(params=GC_PARAMS, seed=b"gc")
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    digests = run_waves(dep, client, waves=12, per_wave=25, gap=0.25)
    return dep, client, digests


class TestLedgerTruncation:
    def test_prefix_collected_and_indices_stay_absolute(self, gc_run):
        dep, client, digests = gc_run
        for replica in dep.replicas:
            ledger = replica.ledger
            assert ledger.base_index > 0, "no truncation happened"
            assert ledger.resident_entries() == len(ledger) - ledger.base_index
            counters = replica.metrics.summary()["counters"]
            assert counters.get("ledger_truncations", 0) >= 1
            assert counters.get("ledger_entries_gced", 0) == ledger.base_index
            # Reads below the base raise; retained reads keep their
            # absolute indices (the first retained entry's batch locator
            # agrees with the index space).
            with pytest.raises(LedgerError):
                ledger.entry(0)
            oldest = ledger.oldest_retained_seqno()
            info = ledger.batch(oldest)
            assert info.pp_index >= ledger.base_index
            assert ledger.batch_pre_prepare(oldest).seqno == oldest
        assert dep.ledgers_agree()

    def test_boundary_is_the_oldest_stable_checkpoint(self, gc_run):
        dep, _, _ = gc_run
        for replica in dep.replicas:
            stable = replica._oldest_stable_checkpoint()
            assert stable is not None
            boundary = replica.retention.boundary(stable.ledger_size)
            assert replica.ledger.base_index <= boundary
            # Everything the oldest stable checkpoint covers is collected
            # eventually; the retained suffix still verifies against it.
            assert replica.ledger.root_at(stable.ledger_size) == stable.ledger_root

    def test_reply_routing_is_released_with_the_batch_records(self, gc_run):
        """Reply routing lives as long as the batch record it serves:
        after several checkpoints only the retained window's requests
        have an entry (one per executed transaction used to stay for the
        life of the replica)."""
        dep, client, digests = gc_run
        for replica in dep.replicas:
            queue = replica.admission
            retained = {
                d for record in replica.batches.values() for d in record.tx_digests if d
            }
            assert len(retained) < len(digests) / 2  # batch GC did run
            assert queue.sources and set(queue.sources) <= retained | set(queue.requests)

    def test_retention_pin_blocks_and_release_unblocks(self):
        dep = build_deployment(params=GC_PARAMS, seed=b"gc-pin")
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        run_waves(dep, client, waves=4, per_wave=25, gap=0.25)
        primary = dep.primary()
        held = primary.ledger.base_index
        primary.retention.pin("pending-audit", held)  # model an open audit
        run_waves(dep, client, waves=6, per_wave=25, gap=0.25)
        assert primary.ledger.base_index == held, "pin did not hold the prefix"
        primary.retention.release("pending-audit")
        primary._maybe_truncate_ledger()
        assert primary.ledger.base_index > held

    def test_governance_subledger_survives_truncation(self, gc_run):
        dep, _, _ = gc_run
        replica = dep.primary()
        subledger = replica.governance_subledger()
        # The genesis entry (index 0) is long collected, yet the archive
        # still reports it — and the schedule still starts at config 0.
        assert subledger.entries[0][0] == 0
        assert subledger.schedule.spans()[0].config.number == 0

    def test_extractor_chunked_feed_matches_one_shot(self):
        dep = build_deployment(params=GC_PARAMS.variant(ledger_gc=False), seed=b"gc-x")
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        run_waves(dep, client, waves=4, per_wave=25, gap=0.25)
        entries = dep.primary().ledger.entries()
        one_shot = extract_governance_subledger(entries, GC_PARAMS.pipeline)
        chunked = GovernanceExtractor(GC_PARAMS.pipeline)
        cut = len(entries) // 3
        chunked.feed(entries[:cut], 0)
        snapshot = chunked.copy()  # archive semantics: copy stays usable
        chunked.feed(entries[cut:], cut)
        assert chunked.subledger().entries == one_shot.entries
        assert snapshot.feed(entries[cut:], cut).subledger().entries == one_shot.entries


class TestCheckpointRootedAudit:
    """The acceptance property: a checkpoint-rooted audit of the retained
    suffix reaches the same verdicts — including uPoM blame on injected
    Byzantine execution — as the genesis audit did before truncation."""

    @pytest.fixture(scope="class")
    def tampered(self):
        behaviors = {
            i: TamperExecution(
                procedure="smallbank.send_payment",
                mutate=lambda reply: {**reply, "src_balance": 10**9},
            )
            for i in range(4)
        }
        # GC deferred (huge age floor) so the genesis audit sees the full
        # ledger; truncation is then forced for the checkpoint-rooted one.
        dep = build_deployment(
            params=GC_PARAMS.variant(ledger_gc_min_age=1e9), behaviors=behaviors, seed=b"gc-tamper"
        )
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        digests = run_waves(dep, client, waves=12, per_wave=25, gap=0.25)
        receipts = [client.receipts[d] for d in digests if d in client.receipts]
        return dep, client, receipts

    @staticmethod
    def _verdicts(result):
        return sorted((u.kind, u.seqno, u.blamed_replicas) for u in result.upoms)

    def test_same_verdicts_before_and_after_truncation(self, tampered):
        dep, client, receipts = tampered
        # Audit the receipts whose reference checkpoint dC the replicas
        # still hold (receipt collection has always been bounded by the
        # checkpoint GC of §3.4; ledger GC reuses exactly that horizon).
        primary = dep.primary()
        retained_dcs = {cp.digest() for cp in primary.checkpoints.values()}
        suffix_receipts = [r for r in receipts if r.checkpoint_digest in retained_dcs]
        assert len(suffix_receipts) > 20
        auditor = Auditor(dep.registry, dep.params)

        genesis_result = auditor.audit(
            suffix_receipts, [client.gov_chain], make_enforcer(dep)
        )
        assert not genesis_result.consistent
        assert dep.primary().ledger.base_index == 0

        for replica in dep.replicas:
            replica.params = replica.params.variant(ledger_gc_min_age=0.0)
        force_gc(dep)
        assert all(r.ledger.base_index > 0 for r in dep.replicas)

        cp_result = auditor.audit(suffix_receipts, [client.gov_chain], make_enforcer(dep))
        assert not cp_result.consistent
        assert self._verdicts(cp_result) == self._verdicts(genesis_result)
        blamed = cp_result.blamed_replicas()
        assert len(blamed) >= dep.genesis_config.f + 1

    def test_checkpoint_rooted_package_is_complete(self, tampered):
        dep, client, receipts = tampered
        primary = dep.primary()
        assert primary.ledger.base_index > 0  # truncated by the test above
        retained_dcs = {cp.digest() for cp in primary.checkpoints.values()}
        # These receipts' replay checkpoint IS the truncation boundary:
        # the audit spans the whole retained suffix from its first entry.
        spanning = [r for r in receipts if r.checkpoint_digest in retained_dcs]
        package = build_ledger_package(primary, min(spanning, key=lambda r: r.seqno))
        assert package.fragment.start == primary.ledger.base_index
        assert package.frontier is not None
        assert check_package_completeness(package, spanning) == []

    def test_receipt_below_retention_yields_note_not_blame(self, tampered):
        dep, client, receipts = tampered
        primary = dep.primary()
        assert primary.ledger.base_index > 0
        oldest_batch = primary.ledger.oldest_retained_seqno()
        stale = [r for r in receipts if r.seqno < oldest_batch]
        assert stale, "expected some receipts below the retention horizon"
        enforcer = make_enforcer(dep)
        result = Auditor(dep.registry, dep.params).audit(
            stale[:3], [client.gov_chain], enforcer
        )
        assert result.upoms == []
        assert any("retention:" in note for note in result.notes)
        assert enforcer.punished_members() == set()

    def test_stale_receipt_with_missing_checkpoint_is_noted_not_crashed(self, tampered):
        """A checkpoint-rooted package with no checkpoint at all (e.g. a
        responder that cannot match a below-retention dC) must classify as
        retention-excused, not crash or blame."""
        dep, client, receipts = tampered
        primary = dep.primary()
        assert primary.ledger.base_index > 0
        stale = [r for r in receipts if r.seqno < primary.ledger.oldest_retained_seqno()]
        package = build_ledger_package(primary, stale[0])
        package.checkpoint = None
        problems = check_package_completeness(package, stale[:1])
        assert problems and all(p.startswith("retention:") for p in problems)

    def test_mixed_stale_and_fresh_receipts_still_audited(self, tampered):
        """Receipts below retention are noted and dropped, but the ones
        the suffix still covers get the full audit — the stale subset
        must not shield in-window misbehavior."""
        from repro.audit import UPOM_WRONG_EXECUTION

        dep, client, receipts = tampered
        primary = dep.primary()
        assert primary.ledger.base_index > 0
        retained_dcs = {cp.digest() for cp in primary.checkpoints.values()}
        fresh = [r for r in receipts if r.checkpoint_digest in retained_dcs]
        stale = [r for r in receipts if r.seqno < primary.ledger.oldest_retained_seqno()]
        assert fresh and stale
        result = Auditor(dep.registry, dep.params).audit(
            stale[:2] + fresh, [client.gov_chain], make_enforcer(dep)
        )
        assert any("retention:" in note for note in result.notes)
        assert any(u.kind == UPOM_WRONG_EXECUTION for u in result.upoms)
        assert len(result.blamed_replicas()) >= dep.genesis_config.f + 1

    def test_tampered_frontier_is_attributable(self, tampered):
        dep, client, receipts = tampered
        primary = dep.primary()
        retained_dcs = {cp.digest() for cp in primary.checkpoints.values()}
        good = [r for r in receipts if r.checkpoint_digest in retained_dcs]
        package = build_ledger_package(primary, min(good, key=lambda r: r.seqno))
        peaks = list(package.frontier)
        height, _ = peaks[0]
        peaks[0] = (height, b"\x13" * 32)
        package.frontier = tuple(peaks)
        problems = check_package_completeness(package, good)
        assert any("root_m" in p for p in problems)


class TestReplyxForCollectedBatch:
    def test_gc_fallback_reports_vouching_checkpoint(self, gc_run):
        dep, client, digests = gc_run
        replica = dep.primary()
        oldest = replica.ledger.oldest_retained_seqno()
        victim = next(
            d for d in digests
            if d in replica.tx_locations and replica.tx_locations[d][0] < oldest - 1
        )
        # Model a client that lost (or never completed) the receipt and
        # asks for the replyx long after the batch was collected.  One
        # replica's word is not enough (a lone Byzantine replica must not
        # kill a live receipt); f + 1 reports are.
        wire = client.receipts[victim].request_wire
        del client.receipts[victim]
        client.collector._done.pop(victim, None)
        client.collector.track(victim, wire, now=dep.net.scheduler.now)
        client.send(replica.address, ("get-replyx", victim))
        # Window shorter than the client's retry timer: exactly one
        # replica has reported so far — not believed yet.
        dep.run(until=dep.net.scheduler.now + 0.2)
        assert victim not in client.gc_unavailable
        assert len(client._gone_reports.get(victim, {})) == 1
        for other in dep.replicas[:dep.genesis_config.f + 1]:
            client.send(other.address, ("get-replyx", victim))
        dep.run(until=dep.net.scheduler.now + 0.2)
        assert victim in client.gc_unavailable
        cp_seqno, cp_digest = client.gc_unavailable[victim]
        assert cp_seqno >= replica.tx_locations[victim][0]
        assert cp_digest == replica.checkpoints[cp_seqno].digest()
        counters = replica.metrics.summary()["counters"]
        assert counters.get("receipts_gone_gc", 0) >= 1

    def test_retained_batches_still_rebuild_from_ledger(self, gc_run):
        dep, client, digests = gc_run
        replica = dep.primary()
        oldest = replica.ledger.oldest_retained_seqno()
        kept = next(
            d for d in reversed(digests)
            if d in replica.tx_locations
            and oldest <= replica.tx_locations[d][0] <= replica.committed_upto
            and replica.batches.get(replica.tx_locations[d][0]) is None
        )
        wire = client.receipts[kept].request_wire
        del client.receipts[kept]
        client.collector._done.pop(kept, None)
        client.collector.track(kept, wire, now=dep.net.scheduler.now)
        before = replica.metrics.summary()["counters"].get("receipts_rebuilt_from_ledger", 0)
        client.send(replica.address, ("get-replyx", kept))
        dep.run(until=dep.net.scheduler.now + 1.0)
        after = replica.metrics.summary()["counters"].get("receipts_rebuilt_from_ledger", 0)
        assert after == before + 1


class TestStateSyncBelowRetention:
    def _partitioned_run(self, seed):
        dep = build_deployment(params=GC_PARAMS, seed=seed)
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        wl = SmallBankWorkload(n_accounts=200, seed=9)

        def wave():
            for _ in range(10):
                client.submit(*wl.next_transaction(), min_index=0)

        for i in range(45):
            dep.net.scheduler.at(0.05 + i * 0.1, wave)
        # The victim freezes almost immediately; by heal time the others
        # have checkpointed *and truncated* far past its whole ledger.
        dep.partition_replicas([3], start=0.2, duration=3.0)
        dep.run(until=9.0)
        return dep, client, dep.replicas[3]

    def test_refused_splice_falls_back_to_checkpoint_rooted_transfer(self):
        dep, client, victim = self._partitioned_run(b"gc-sync")
        servers_retained = min(r.ledger.base_index for r in dep.replicas[:3])
        assert servers_retained > 0, "servers never truncated; scenario is vacuous"
        counters = victim.metrics.summary()["counters"]
        assert counters.get("sync_sessions_completed", 0) >= 1
        assert counters.get("sync_cp_rooted_transfers", 0) >= 1
        server_counters = [
            r.metrics.summary()["counters"].get("sync_suffix_refusals", 0)
            for r in dep.replicas[:3]
        ]
        assert sum(server_counters) >= 1
        # The victim is checkpoint-rooted now: no genesis prefix, yet it
        # rejoined consensus and agrees with everyone.
        assert victim.ledger.base_index > 0
        frontier = max(r.committed_upto for r in dep.replicas)
        assert victim.committed_upto == frontier
        assert dep.ledgers_agree()
        assert len({r.kv.state_digest() for r in dep.replicas}) == 1

    def test_checkpoint_rooted_replica_keeps_committing(self):
        dep, client, victim = self._partitioned_run(b"gc-sync2")
        assert victim.ledger.base_index > 0
        before = victim.committed_upto
        wl = SmallBankWorkload(n_accounts=200, seed=17)
        for _ in range(30):
            client.submit(*wl.next_transaction(), min_index=0)
        dep.run(until=dep.net.scheduler.now + 2.0)
        assert victim.committed_upto > before
        assert dep.ledgers_agree()


class TestLegacyFetchAfterGC:
    def test_fetch_ledger_on_collected_prefix_falls_back_to_state_sync(self, gc_run):
        """The legacy whole-ledger fetch (view-change catch-up path) gets
        an explicit `ledger-gone` from a GC'd peer and recovers through
        the checkpoint-rooted sync protocol instead of waiting forever."""
        dep, client, _ = gc_run
        requester, server = dep.replicas[1], dep.primary()
        assert server.ledger.base_index > 0
        # An *unsolicited* ledger-gone must be ignored (a Byzantine peer
        # cannot suspend honest replicas into transfers at will)...
        server.send(requester.address, ("ledger-gone",))
        dep.run(until=dep.net.scheduler.now + 0.5)
        assert requester.metrics.summary()["counters"].get("sync_started_ledger_gone", 0) == 0
        assert requester.ready
        # ...while the tracked legacy fetch gets the answer and recovers
        # through state sync.
        requester._send_fetch_ledger(server.address)
        dep.run(until=dep.net.scheduler.now + 2.0)
        counters = requester.metrics.summary()["counters"]
        assert counters.get("sync_started_ledger_gone", 0) >= 1
        # The requester was already caught up, so the session resolves and
        # normal operation resumes.
        assert requester.ready and not requester.syncing
        assert dep.ledgers_agree()


class TestUndoLogRetention:
    """The KV undo log is trimmed with the batch records: a rollback only
    ever targets a retained batch, so the records below the oldest
    retained ``kv_mark`` are dead (they used to stay for the life of the
    replica)."""

    @pytest.fixture(scope="class")
    def long_run(self):
        params = GC_PARAMS.variant(max_batch=2, checkpoint_interval=50)
        dep = build_deployment(params=params, seed=b"gc-undo")
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        digests = run_waves(dep, client, waves=12, per_wave=40, gap=0.25)
        return dep, digests

    @staticmethod
    def _digest_after(replica, seqno):
        """The state digest at the end of batch ``seqno``, recomputed from
        the newest checkpoint at or below it — independent of the undo log."""
        cp_seqno = max(s for s in replica.checkpoints if s <= seqno)
        kv = KVStore(replica.checkpoints[cp_seqno].state)
        for info in replica.ledger.batches():
            if cp_seqno < info.seqno <= seqno:
                for entry in replica.ledger.entries(info.first_tx, info.end):
                    if isinstance(entry, TxEntry):
                        execute_procedure(kv, replica.registry, entry.request())
        return kv.state_digest()

    def test_undo_log_is_bounded_by_the_retained_batches(self, long_run):
        dep, digests = long_run
        for replica in dep.replicas:
            assert len(replica.checkpoints) >= 3  # several checkpoints at C=50
            kv = replica.kv
            assert kv.tx_count > len(digests)
            oldest_mark = min(record.kv_mark for record in replica.batches.values())
            assert len(kv._log) == kv.tx_count - oldest_mark
            assert len(kv._log) < kv.tx_count / 2
            with pytest.raises(KVError):
                kv.rollback_to(oldest_mark - 1)

    def test_rollback_to_each_retained_batch_reproduces_its_state(self, long_run):
        dep, _ = long_run
        replica = dep.replicas[1]
        retained = sorted(replica.batches)
        expected = {s: self._digest_after(replica, s) for s in retained}
        assert expected[retained[-1]] == replica.kv.state_digest()
        assert len(set(expected.values())) > len(retained) / 2  # states really differ
        for seqno in reversed(retained):
            replica.views.rollback_to_batch(seqno)
            assert replica.kv.state_digest() == expected[seqno]
        with pytest.raises(ProtocolError):
            replica.views.rollback_to_batch(retained[0] - 2)
