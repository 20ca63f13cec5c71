"""Retained-state budget: what one committed transaction leaves behind.

Per transaction a deployment keeps one ledger entry and one undo record
per replica and one receipt at the client (paper Tab. 1, §3.3).  The
budget counts the objects the cyclic collector tracks — every one of
them is walked by each full collection — and pins that the long-lived
per-transaction records carry no instance ``__dict__``.
"""

import gc

import pytest

from helpers import build_deployment
from repro.ledger.entries import TxEntry
from repro.lpbft import ProtocolParams
from repro.workloads import SmallBankWorkload

# Measured 16.97 tracked objects per committed transaction on this
# deployment, plus one of slack; 29.58 when undo records kept a copy of
# the write set, entries cached into a ``__dict__`` and path steps were
# objects.
TRACKED_PER_TX_BUDGET = 18.0

# Checkpoints (and so ledger and batch-record collection) never come due.
PARAMS = ProtocolParams(
    pipeline=2, max_batch=100, checkpoint_interval=10_000,
    batch_delay=0.0005, view_change_timeout=2.0,
)


def _tracked() -> int:
    gc.collect()
    gc.collect()
    return len(gc.get_objects())


def _measure():
    """Commit 400 transactions after a warm-up; return the deployment,
    the client, the transactions committed and the tracked objects they
    left behind."""
    dep = build_deployment(params=PARAMS, seed=b"retained")
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    workload = SmallBankWorkload(n_accounts=200, seed=3)

    def wave(n):
        for _ in range(n):
            client.submit(*workload.next_transaction(), min_index=0)
        dep.run(until=dep.net.scheduler.now + 0.5)

    wave(50)  # warm up: per-deployment state reaches its steady shape
    committed_before, tracked_before = len(client.collector._done), _tracked()
    for _ in range(4):
        wave(100)
    committed = len(client.collector._done) - committed_before
    tracked = _tracked() - tracked_before
    return dep, client, committed, tracked


@pytest.fixture(scope="module")
def run():
    return _measure()


def test_tracked_objects_per_committed_transaction(run):
    dep, _, committed, tracked = run
    assert committed == 400
    assert {r.kv.tx_count for r in dep.replicas} == {r.kv.tx_count for r in dep.replicas[:1]}
    assert tracked / committed <= TRACKED_PER_TX_BUDGET


def test_per_transaction_records_have_no_instance_dict(run):
    dep, client, _, _ = run
    receipts = list(client.collector._done.values())
    entries = [e for r in dep.replicas for e in r.ledger.entries() if isinstance(e, TxEntry)]
    records = [record for r in dep.replicas for record in r.kv._log]
    paths = [receipt.path for receipt in receipts]
    assert len(records) >= len(entries) == 4 * len(receipts)
    for obj in (*receipts, *entries, *records, *paths):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    # Memos live in declared slots: asking for them creates no dict.
    entries[0].leaf_digest(), receipts[0].reconstructed_pre_prepare()
    assert not hasattr(entries[0], "__dict__") and not hasattr(receipts[0], "__dict__")
    # Undo tuples and path steps hold atoms only: the collector drops them.
    gc.collect()
    for record in records:
        assert type(record.undo) is tuple and not gc.is_tracked(record.undo)
    for path in paths:
        assert not gc.is_tracked(path.steps)
        assert all(type(step) is tuple and not gc.is_tracked(step) for step in path.steps)
