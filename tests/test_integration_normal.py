"""Normal-case integration: commits, agreement, receipts, dedupe, ordering."""

from repro.lpbft import ProtocolParams, designated_replica
from repro.receipts import verify_receipt

from helpers import FAST_PARAMS, build_deployment, run_workload


class TestCommitFlow:
    def test_all_transactions_get_receipts(self, committed_deployment):
        dep, client, digests = committed_deployment
        assert len(client.receipts) == len(digests)

    def test_all_replicas_commit_same_frontier(self, committed_deployment):
        dep, _, _ = committed_deployment
        assert len(set(dep.committed_seqnos())) == 1

    def test_ledgers_agree(self, committed_deployment):
        dep, _, _ = committed_deployment
        assert dep.ledgers_agree()

    def test_kv_state_identical_across_replicas(self, committed_deployment):
        dep, _, _ = committed_deployment
        digests = {r.kv.state_digest() for r in dep.replicas}
        assert len(digests) == 1

    def test_receipts_verify_under_genesis_config(self, committed_deployment):
        dep, client, digests = committed_deployment
        for d in digests:
            assert verify_receipt(client.receipts[d], dep.genesis_config)

    def test_indices_unique_and_increasing_in_ledger(self, committed_deployment):
        dep, client, digests = committed_deployment
        indices = sorted(client.receipts[d].index for d in digests)
        assert len(set(indices)) == len(indices)

    def test_outputs_match_across_designated_replicas(self, committed_deployment):
        dep, client, digests = committed_deployment
        # Replay each receipt's output against the primary's ledger entry.
        primary = dep.primary()
        for d in digests:
            receipt = client.receipts[d]
            entry = primary.ledger.entry_at_index(receipt.index)
            assert entry.output == receipt.output


class TestRequestHandling:
    def test_duplicate_request_executes_once(self, small_deployment):
        dep, client = small_deployment
        d1 = client.submit("smallbank.deposit_checking", {"customer": 1, "amount": 10}, min_index=0)
        dep.run(until=0.5)
        # Re-submitting the identical signed request is deduplicated.
        payload = ("request", client.receipts[d1].request_wire)
        for replica in dep.replicas:
            replica.handle_request("client-x", payload)
        dep.run(until=1.0)
        locations = [r.tx_locations.get(d1) for r in dep.replicas]
        assert len(set(locations)) == 1
        executed = dep.replicas[0].kv.get("checking:1")
        assert executed == 1010  # exactly one deposit applied

    def test_bad_client_signature_rejected(self, small_deployment):
        dep, client = small_deployment
        from repro.lpbft.messages import TransactionRequest

        req = TransactionRequest(
            procedure="smallbank.balance", args={"customer": 1},
            client=client.keypair.public_key, service=dep.service_name,
            min_index=0, nonce=999, signature=b"\x00" * 64,
        )
        dep.replicas[0].handle_request(client.address, ("request", req.to_wire()))
        assert dep.replicas[0].metrics.counters.get("bad_client_signatures", 0) >= 1
        assert req.request_digest() not in dep.replicas[0].admission

    def test_wrong_service_rejected(self, small_deployment):
        dep, client = small_deployment
        from repro.lpbft.messages import TransactionRequest

        req = TransactionRequest(
            procedure="smallbank.balance", args={"customer": 1},
            client=client.keypair.public_key, service=b"\x42" * 32,
            min_index=0, nonce=1,
        )
        dep.replicas[0].handle_request(client.address, ("request", req.to_wire()))
        assert req.request_digest() not in dep.replicas[0].admission

    def test_min_index_defers_execution(self, small_deployment):
        dep, client = small_deployment
        far = client.submit("smallbank.balance", {"customer": 1}, min_index=10_000)
        near = client.submit("smallbank.balance", {"customer": 2}, min_index=0)
        dep.run(until=1.0)
        assert near in client.receipts
        assert far not in client.receipts  # deferred until the ledger reaches 10k

    def test_aborted_transaction_gets_receipt_with_error(self, small_deployment):
        dep, client = small_deployment
        d = client.submit("smallbank.balance", {"customer": 999_999}, min_index=0)
        dep.run(until=1.0)
        receipt = client.receipts[d]
        assert receipt.output["reply"]["ok"] is False
        assert verify_receipt(receipt, dep.genesis_config)

    def test_unknown_procedure_receipt(self, small_deployment):
        # A name with no procedure is an aborted transaction: every
        # replica (and an auditor's replay) records the same abort.
        dep, client = small_deployment
        d = client.submit("no.such.procedure", {}, min_index=0)
        dep.run(until=1.0)
        receipt = client.receipts[d]
        assert receipt.output["reply"] == {"ok": False, "error": "KVError"}
        assert verify_receipt(receipt, dep.genesis_config)


class TestCheckpoints:
    def test_checkpoints_taken_at_interval(self, checkpointed_deployment):
        dep, _, _ = checkpointed_deployment
        primary = dep.primary()
        interval = dep.params.checkpoint_interval
        assert any(s > 0 and s % interval == 0 for s in primary.checkpoints)

    def test_checkpoint_digests_agree(self, checkpointed_deployment):
        dep, _, _ = checkpointed_deployment
        common = set.intersection(*(set(r.checkpoints) for r in dep.replicas))
        for seqno in common:
            digests = {r.checkpoints[seqno].digest() for r in dep.replicas}
            assert len(digests) == 1, f"checkpoint {seqno} diverges"

    def test_checkpoint_tx_recorded_in_ledger(self, checkpointed_deployment):
        dep, _, _ = checkpointed_deployment
        from repro.ledger import CheckpointTxEntry

        entries = [e for e in dep.primary().ledger if isinstance(e, CheckpointTxEntry)]
        assert entries, "no checkpoint transactions recorded"

    def test_garbage_collection_prunes_old_batches(self):
        dep = build_deployment(params=FAST_PARAMS.variant(checkpoint_interval=5))
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        run_workload(dep, client, n_tx=200, until=10.0)
        primary = dep.primary()
        assert min(primary.batches) > 1, "old batches never pruned"


class TestDesignatedReplica:
    def test_designation_deterministic(self, committed_deployment):
        dep, client, digests = committed_deployment
        config = dep.genesis_config
        for d in digests[:10]:
            assert designated_replica(d, config) == designated_replica(d, config)

    def test_designation_spreads_load(self, committed_deployment):
        dep, client, digests = committed_deployment
        config = dep.genesis_config
        owners = {designated_replica(d, config) for d in digests}
        assert len(owners) > 1

    def test_get_replyx_failover(self, committed_deployment):
        dep, client, digests = committed_deployment
        # Ask a non-designated replica directly; it must serve the receipt.
        d = digests[0]
        replica = dep.replicas[0]
        before = replica.metrics.counters.get("receipts_sent", 0)
        replica.handle_get_replyx(client.address, ("get-replyx", d))
        assert replica.metrics.counters.get("receipts_sent", 0) == before + 1


class TestFeatureToggles:
    def test_noreceipt_variant_commits_without_replyx(self):
        dep = build_deployment(params=FAST_PARAMS.variant(receipts=False))
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        run_workload(dep, client, n_tx=20, until=3.0)
        assert dep.committed_seqnos()[0] > 0
        assert len(client.receipts) == 0  # no replyx → no full receipts

    def test_unsigned_clients_variant(self):
        dep = build_deployment(params=FAST_PARAMS.variant(sign_client_requests=False))
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        digests = run_workload(dep, client, n_tx=20, until=3.0)
        assert len(client.receipts) == len(digests)

    def test_mac_only_variant_commits(self):
        dep = build_deployment(params=FAST_PARAMS.variant(use_signatures=False))
        client = dep.add_client(retry_timeout=0.5, verify_receipts=False)
        dep.start()
        run_workload(dep, client, n_tx=20, until=3.0)
        assert dep.committed_seqnos()[0] > 0

    def test_no_execution_variant(self):
        dep = build_deployment(params=FAST_PARAMS.variant(execute_transactions=False))
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        digests = run_workload(dep, client, n_tx=20, until=3.0)
        assert len(client.receipts) == len(digests)
        # No state was touched.
        assert dep.replicas[0].kv.get("checking:1") == 1000

    def test_peer_review_variant_commits_with_extra_crypto(self):
        dep = build_deployment(params=FAST_PARAMS.variant(peer_review=True))
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        digests = run_workload(dep, client, n_tx=20, until=3.0)
        assert len(client.receipts) == len(digests)
