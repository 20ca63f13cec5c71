"""PR 9: a deep sequencing window and aggregate receipt signatures.

The pipeline depth P is the window (PR 19 deleted the separate
``W`` knob: it was P under a second name).  Edge cases a deep
window must survive: a view change with 4 rounds in flight (no lost or
duplicated sequence numbers) and a checkpoint boundary landing inside
the depth.  Aggregation: one ``verify_aggregate`` op per receipt,
smaller wire encodings, and the individual-share fallback that assigns
blame when an aggregate fails.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chaos import ChaosParams, generate_schedule, run_schedule
from repro.crypto import signatures
from repro.errors import CryptoError
from repro.lpbft import ProtocolParams
from repro.lpbft.messages import Reply, ReplyX
from repro.obs import PeriodicSampler, perfetto_trace
from repro.receipts import Receipt, ReceiptCollector, verify_receipt
from repro.workloads import SmallBankWorkload

from helpers import build_deployment, run_workload

WINDOW_PARAMS = ProtocolParams(
    pipeline=4, max_batch=20, checkpoint_interval=20,
    batch_delay=0.0005, view_change_timeout=0.3,
)

# Bounded like tests/test_chaos.py FAST, one round deeper than its P=2.
FAST_P3 = ChaosParams(
    fault_end=1.5, quiescence=4.0, load_rate=150.0, n_events=6, pipeline=3,
)


class CountingBackend:
    """Wraps a backend and counts individual vs aggregate verify ops."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self.supports_aggregation = inner.supports_aggregation
        self.verifies = 0
        self.agg_verifies = 0

    def verify(self, public_key, message, signature):
        self.verifies += 1
        return self._inner.verify(public_key, message, signature)

    def verify_aggregate(self, pairs, agg):
        self.agg_verifies += 1
        return self._inner.verify_aggregate(pairs, agg)


# -- parameter arithmetic -------------------------------------------------------


class TestEffectivePipeline:
    def test_checkpoint_interval_clamps_window(self):
        # C must exceed the pipeline depth.
        with pytest.raises(ValueError):
            ProtocolParams(pipeline=5, checkpoint_interval=5)
        ProtocolParams(pipeline=5, checkpoint_interval=6)

    def test_chaos_replay_flag_round_trips(self):
        assert "--pipeline 3" in FAST_P3.cli_args()
        assert "--pipeline" not in ChaosParams(fault_end=1.5).cli_args()


# -- windowed sequencing --------------------------------------------------------


def _max_occupancy(params, n_tx=200, until=3.0):
    """Run a burst and sample every replica's window occupancy densely."""
    dep = build_deployment(params=params, seed=b"pr9-occ")
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    peak = [0]

    def sample():
        peak[0] = max(peak[0], max(r.window_occupancy() for r in dep.replicas))

    dep.net.scheduler.every(0.001, sample)
    digests = run_workload(dep, client, n_tx=n_tx, until=until)
    assert len(client.receipts) == len(digests)
    assert dep.ledgers_agree()
    return peak[0]


class TestWindowedSequencing:
    def test_occupancy_bounded_by_pipeline(self):
        # P=2: never more than P rounds in flight.
        assert _max_occupancy(WINDOW_PARAMS.variant(pipeline=2)) <= 2

    def test_window_overlaps_more_rounds(self):
        # P=4: the primary provably keeps more than 2 rounds in flight,
        # and never more than P.
        peak = _max_occupancy(WINDOW_PARAMS)
        assert peak > 2
        assert peak <= WINDOW_PARAMS.pipeline


class TestViewChangeWithWindowInFlight:
    @pytest.fixture(scope="class")
    def failover_run(self):
        """Primary partitioned with 4 rounds in flight: the view change
        must drain the window without losing or duplicating seqnos."""
        dep = build_deployment(params=WINDOW_PARAMS, seed=b"pr9-vc")
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        wl = SmallBankWorkload(n_accounts=200, seed=11)
        digests = [client.submit(*wl.next_transaction(), min_index=0) for _ in range(60)]
        dep.run(until=0.2)
        dep.net.partition(
            {"replica-0"}, {"replica-1", "replica-2", "replica-3", client.address}
        )
        digests += [client.submit(*wl.next_transaction(), min_index=0) for _ in range(30)]
        dep.run(until=4.0)
        dep.net.heal_partitions()
        digests += [client.submit(*wl.next_transaction(), min_index=0) for _ in range(20)]
        dep.run(until=12.0)
        return dep, client, digests

    def test_view_advanced(self, failover_run):
        dep, _, _ = failover_run
        assert all(r.view >= 1 for r in dep.replicas[1:])

    def test_all_receipts_complete(self, failover_run):
        dep, client, digests = failover_run
        assert len(client.receipts) == len(digests)

    def test_no_seqno_lost_or_duplicated(self, failover_run):
        """Every committed batch occupies exactly one slot: seqnos of
        stored batches are unique and gapless up to the commit frontier,
        and every receipt's ledger index resolves to its output."""
        dep, client, digests = failover_run
        replica = dep.replicas[1]
        committed = replica.committed_upto
        seqnos = sorted(s for s in replica.batches if s <= committed)
        assert seqnos == list(range(1, committed + 1))
        ledger = replica.ledger
        for d in digests:
            receipt = client.receipts[d]
            assert ledger.entry_at_index(receipt.index).output == receipt.output

    def test_ledgers_agree(self, failover_run):
        dep, _, _ = failover_run
        assert dep.ledgers_agree()

    def test_old_primary_caught_up(self, failover_run):
        dep, _, _ = failover_run
        frontier = max(r.committed_upto for r in dep.replicas)
        assert dep.replicas[0].committed_upto == frontier


class TestCheckpointBoundaryAtWindowEdge:
    def test_window_crosses_checkpoint_boundaries(self):
        """A small checkpoint interval forces the open window to span
        checkpoint boundaries repeatedly; stabilization must not stall
        the pipeline or wedge the window."""
        params = WINDOW_PARAMS.variant(checkpoint_interval=6)
        dep = build_deployment(params=params, seed=b"pr9-cp")
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        digests = run_workload(dep, client, n_tx=400, until=8.0)
        assert len(client.receipts) == len(digests)
        replica = dep.replicas[0]
        # Several boundaries crossed, checkpoints taken past them.
        assert replica.committed_upto >= 3 * params.checkpoint_interval
        assert replica.last_taken_cp >= 2 * params.checkpoint_interval
        assert dep.ledgers_agree()


class TestW1Identity:
    def test_pipeline_3_digest_pinned(self):
        """``python -m repro.chaos --seed 1 --pipeline 3``.  The commit
        that deleted the window knob W pinned ``9c191cdbf0d62225`` here —
        the digest PR 18 printed for this seed at P=2, W=2: W was pipeline
        depth under a second name.  The early-prepare fix that followed it
        charges verification for 99 early prepares on this seed, which
        moved the trace to the digest pinned now."""
        result = run_schedule(generate_schedule(1, ChaosParams(pipeline=3)))
        assert result.ok, f"oracle violations: {result.violations}"
        assert result.trace_digest[:16] == "5418e907f4dd3658"

    @pytest.mark.parametrize("seed", [1, 2])
    def test_pinned_window_seed_runs_clean(self, seed):
        """The fuzzer's param space includes pipeline depth: pinned seeds
        run the full fault matrix one round deeper than the default."""
        result = run_schedule(generate_schedule(seed, FAST_P3))
        assert result.ok, (
            f"oracle violations: {result.violations}; "
            f"replay with: {result.replay_command}"
        )


# -- aggregate signatures -------------------------------------------------------


class TestAggregateOps:
    def test_aggregate_round_trip(self):
        backend = signatures.HashSigBackend()
        pairs = []
        sigs = []
        for i in range(3):
            kp = backend.generate(seed=bytes([i]))
            message = b"msg-%d" % i
            sigs.append(backend.sign(kp, message))
            pairs.append((kp.public_key, message))
        agg = backend.aggregate(sigs)
        assert len(agg.value) == signatures.SIGNATURE_SIZE
        assert agg.n_shares == 3
        assert backend.verify_aggregate(pairs, agg)

    def test_wrong_message_rejected(self):
        backend = signatures.HashSigBackend()
        kp0 = backend.generate(seed=b"\x00")
        kp1 = backend.generate(seed=b"\x01")
        agg = backend.aggregate(
            [backend.sign(kp0, b"alpha"), backend.sign(kp1, b"beta")]
        )
        assert backend.verify_aggregate(
            [(kp0.public_key, b"alpha"), (kp1.public_key, b"beta")], agg
        )
        assert not backend.verify_aggregate(
            [(kp0.public_key, b"alpha"), (kp1.public_key, b"gamma")], agg
        )

    def test_share_count_must_match(self):
        backend = signatures.HashSigBackend()
        kp = backend.generate(seed=b"\x07")
        agg = backend.aggregate([backend.sign(kp, b"only")])
        assert not backend.verify_aggregate(
            [(kp.public_key, b"only"), (kp.public_key, b"only")], agg
        )

    def test_empty_aggregate_rejected(self):
        with pytest.raises(CryptoError):
            signatures.HashSigBackend().aggregate([])

    def test_wire_round_trip(self):
        agg = signatures.AggregateSignature(value=b"\x55" * 64, n_shares=3)
        assert signatures.AggregateSignature.from_wire(agg.to_wire()) == agg

    def test_ed25519_has_no_aggregation(self):
        try:
            backend = signatures.Ed25519Backend()
        except CryptoError:
            pytest.skip("cryptography package not available")
        assert not backend.supports_aggregation
        with pytest.raises(CryptoError):
            backend.aggregate([b"\x00" * 64])


class TestAggregatedReceipts:
    @pytest.fixture(scope="class")
    def agg_run(self):
        params = WINDOW_PARAMS.variant(pipeline=2, aggregate_signatures=True)
        dep = build_deployment(params=params, seed=b"pr9-agg")
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        digests = run_workload(dep, client, n_tx=40)
        return dep, client, digests

    def test_receipts_carry_aggregate(self, agg_run):
        dep, client, digests = agg_run
        assert len(client.receipts) == len(digests)
        for d in digests:
            receipt = client.receipts[d]
            assert receipt.aggregate is not None
            assert receipt.prepare_signatures == ()
            # uPoM still identifies the signer set.
            assert len(receipt.signers()) >= dep.genesis_config.quorum

    def test_one_verify_op_per_receipt(self, agg_run):
        """The acceptance criterion: client receipt verification drops
        from f+1 signature checks to a single aggregate check."""
        dep, client, digests = agg_run
        counting = CountingBackend(dep.backend)
        receipt = client.receipts[digests[0]]
        assert verify_receipt(receipt, dep.genesis_config, counting)
        assert counting.agg_verifies == 1
        assert counting.verifies == 0

    def test_wire_round_trip(self, agg_run):
        _, client, digests = agg_run
        receipt = client.receipts[digests[0]]
        back = Receipt.from_wire(receipt.to_wire())
        assert back == receipt

    def test_aggregate_shrinks_receipts(self, agg_run):
        """Tab. 1 effect: f individual prepare-signature strings leave
        the wire; one 64-byte aggregate replaces them."""
        dep, client, digests = agg_run
        params = WINDOW_PARAMS.variant(pipeline=2)
        dep2 = build_deployment(params=params, seed=b"pr9-agg")
        client2 = dep2.add_client(retry_timeout=0.5)
        dep2.start()
        digests2 = run_workload(dep2, client2, n_tx=40)
        agg_size = client.receipts[digests[0]].encoded_size()
        plain_size = client2.receipts[digests2[0]].encoded_size()
        f = dep.genesis_config.f
        assert agg_size < plain_size
        # At least (f − 1) × 64-byte signature strings net savings.
        assert plain_size - agg_size >= (f - 1) * signatures.SIGNATURE_SIZE

    def test_batch_receipt_from_ledger_aggregated(self, agg_run):
        dep, _, _ = agg_run
        replica = dep.replicas[0]
        seqno = replica.committed_upto
        receipt = replica.receipt_from_ledger(seqno, None)
        assert receipt is not None and receipt.aggregate is not None
        assert verify_receipt(receipt, dep.genesis_config, dep.backend)

    def test_fallback_assigns_blame(self, agg_run):
        """A corrupted share breaks the aggregate; the collector falls
        back to individual shares, drops the culprit, and re-aggregates
        the surviving quorum."""
        dep, client, digests = agg_run
        receipt = client.receipts[digests[0]]
        replies, replyx = _reply_messages(dep, receipt, digests[0])
        config = dep.genesis_config
        primary_id = config.primary_for_view(receipt.view)
        bad = max(r for r in replies if r != primary_id)
        replies[bad] = dataclasses.replace(replies[bad], signature=b"\x00" * 64)
        collector = ReceiptCollector(config, backend=dep.backend, aggregate=True)
        collector.track(digests[0], receipt.request_wire)
        collector.add_replyx(digests[0], replyx)
        done = None
        for r in sorted(replies):
            done = collector.add_reply(digests[0], replies[r])
        assert done is not None
        assert done.aggregate is not None
        assert bad not in done.signers()
        assert verify_receipt(done, config, dep.backend)


def _reply_messages(dep, receipt, tx_digest):
    """Rebuild the raw reply/replyx messages for a committed transaction."""
    replies = {}
    for replica in dep.replicas:
        record = replica.batches[receipt.seqno]
        nonce = replica.own_nonces[(record.view, record.seqno)]
        config = replica.config_for(record.seqno)
        if replica.id == config.primary_for_view(record.view):
            signature = record.pp.signature
        else:
            signature = replica.prepares_by_ppd[record.pp_digest][replica.id].signature
        replies[replica.id] = Reply(
            view=record.view, seqno=record.seqno, replica=replica.id,
            signature=signature, nonce=nonce.nonce,
        )
    primary = dep.primary()
    record = primary.batches[receipt.seqno]
    position = record.tx_digests.index(tx_digest)
    replyx = ReplyX(
        view=record.view, seqno=record.seqno, root_m=record.pp.root_m,
        primary_nonce_commitment=record.pp.nonce_commitment,
        evidence_bitmap=record.pp.evidence_bitmap, gov_index=record.pp.gov_index,
        checkpoint_digest=record.pp.checkpoint_digest, flags=record.pp.flags,
        committed_root=record.pp.committed_root, tx_digest=tx_digest,
        index=record.entries[position].index, output=record.entries[position].output,
        path=record.g_tree.path(position).to_wire(),
    )
    return replies, replyx


# -- observability --------------------------------------------------------------


class TestWindowObservability:
    def test_sampler_reports_window_occupancy(self):
        dep = build_deployment(params=WINDOW_PARAMS, seed=b"pr9-obs")
        sampler = PeriodicSampler(dep, interval=0.05).install()
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        run_workload(dep, client, n_tx=60, until=3.0)
        rows = sampler.series(kind="replica")
        assert rows
        assert all("window_occupancy" in row for row in rows)
        assert all(row["window_occupancy"] >= 0 for row in rows)

    def test_perfetto_window_counter_track(self):
        dep = build_deployment(params=WINDOW_PARAMS, seed=b"pr9-obs")
        tracer = dep.enable_tracing()
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        run_workload(dep, client, n_tx=40, until=3.0)
        trace = perfetto_trace(tracer)
        counters = [
            e for e in trace["traceEvents"]
            if e.get("ph") == "C" and e["name"] == "window_occupancy"
        ]
        assert counters, "expected a window_occupancy counter track"
        peaks = [e["args"]["rounds_in_flight"] for e in counters]
        assert max(peaks) >= 1
        assert min(peaks) >= 0
