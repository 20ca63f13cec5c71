"""A deep sequencing window.

The pipeline depth P is the window (there is no separate ``W`` knob:
it was P under a second name).  Edge cases a deep window must survive:
a view change with 4 rounds in flight (no lost or duplicated sequence
numbers) and a checkpoint boundary landing inside the depth.
"""

from __future__ import annotations

import pytest

from repro.chaos import ChaosParams, generate_schedule, run_schedule
from repro.lpbft import ProtocolParams
from repro.obs import PeriodicSampler, perfetto_trace
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
        assert replica.checkpoints.last_taken >= 2 * params.checkpoint_interval
        assert dep.ledgers_agree()


class TestW1Identity:
    def test_pipeline_3_digest_pinned(self):
        """``python -m repro.chaos --seed 1 --pipeline 3``.  The commit
        that deleted the window knob W pinned ``9c191cdbf0d62225`` here —
        the digest PR 18 printed for this seed at P=2, W=2: W was pipeline
        depth under a second name.  The early-prepare fix that followed it
        charges verification for 99 early prepares on this seed, which
        moved the trace to ``5418e907f4dd3658``.  The honest ledger
        install moved it to the digest pinned now: the late joiner's
        install commits through batch 441 of 444, not 444, and fetches
        the evidence for the last three (``1466829d3209c524``).  State
        sync as one transfer, the suffix past the offered checkpoint, moved
        it to the digest pinned now: the joiner no longer fetches the
        ledger below that checkpoint."""
        result = run_schedule(generate_schedule(1, ChaosParams(pipeline=3)))
        assert result.ok, f"oracle violations: {result.violations}"
        assert result.trace_digest[:16] == "a4d63ec8c6faac1f"

    @pytest.mark.parametrize("seed", [1, 2])
    def test_pinned_window_seed_runs_clean(self, seed):
        """The fuzzer's param space includes pipeline depth: pinned seeds
        run the full fault matrix one round deeper than the default."""
        result = run_schedule(generate_schedule(seed, FAST_P3))
        assert result.ok, (
            f"oracle violations: {result.violations}; "
            f"replay with: {result.replay_command}"
        )


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
