"""Retained-state budget: what one committed transaction leaves behind.

Per transaction a deployment keeps one ledger entry and one undo tuple
per replica and one receipt at the client (paper Tab. 1, §3.3).  One
budget counts the bytes still allocated, another the objects the cyclic
collector tracks — every one of them is walked by each full collection.
The long-lived per-transaction records carry no instance ``__dict__``,
and every ledger entry holds its output sealed, at its encoded size.
"""

import gc
import tracemalloc

import pytest

from helpers import build_deployment
from repro.codec import SealedMap
from repro.ledger.entries import TxEntry
from repro.lpbft import ProtocolParams
from repro.workloads import SmallBankWorkload
from test_integration_viewchange import VC_PARAMS

# Measured 5,541 bytes per committed transaction on this deployment (CPython
# 3.11), plus 2 %; 5,914 when each executed entry also memoised its G leaf
# and latency samples were a list of floats, 6,544 when Merkle nodes, path
# steps and the ledger's logical index were objects, 8,048 when outputs
# were also dicts and undo records objects.
RETAINED_BYTES_PER_TX_BUDGET = 5_650

# Measured 12.66 tracked objects per committed transaction on this
# deployment, plus one of slack; 12.97 when requests kept a ``__dict__``,
# 16.97 when undo records were objects, 29.58 when they also kept a copy
# of the write set, entries cached into a ``__dict__`` and path steps
# were objects.
TRACKED_PER_TX_BUDGET = 13.7

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
    the client, the transactions committed, the tracked objects they
    left behind and the bytes allocated while they ran that are still
    allocated after a collection."""
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
    tracemalloc.start()
    try:
        for _ in range(4):
            wave(100)
        committed = len(client.collector._done) - committed_before
        tracked = _tracked() - tracked_before
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return dep, client, committed, tracked, retained


@pytest.fixture(scope="module")
def run():
    return _measure()


def test_retained_bytes_per_committed_transaction(run):
    _, _, committed, _, retained = run
    assert committed == 400
    assert retained / committed <= RETAINED_BYTES_PER_TX_BUDGET


def test_tracked_objects_per_committed_transaction(run):
    dep, _, committed, tracked, _ = run
    assert committed == 400
    assert {r.kv.tx_count for r in dep.replicas} == {r.kv.tx_count for r in dep.replicas[:1]}
    assert tracked / committed <= TRACKED_PER_TX_BUDGET


def test_per_transaction_records_have_no_instance_dict(run):
    dep, client, _, _, _ = run
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
    # A decoded request memoises its seal in a slot.
    for request in (receipt.request() for receipt in receipts[:10]):
        request.to_wire()
        assert not hasattr(request, "__dict__")
    # Undo tuples hold atoms only: the collector drops them.  A path's
    # steps are one packed bytes object, not a tuple of step tuples.
    gc.collect()
    for record in records:
        assert type(record) is tuple and not gc.is_tracked(record)
    for path in paths:
        assert type(path.siblings) is bytes and len(path.siblings) == 32 * len(path)
        assert type(path.lefts) is int


def test_executed_entries_leave_their_g_leaf_to_the_batch_tree():
    """Execution keeps each transaction's G leaf once, in its batch
    record's tree G; the entry holds no memo of it.  A ledger decoded
    from a fragment remembers it, for the replay that reads it next."""
    dep = build_deployment(params=PARAMS, seed=b"g-leaf")
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    workload = SmallBankWorkload(n_accounts=200, seed=5)
    for _ in range(60):
        client.submit(*workload.next_transaction(), min_index=0)
    dep.run(until=0.5)
    assert len(client.collector._done) == 60
    executed = [
        (record, position, entry)
        for replica in dep.replicas for record in replica.batches.values()
        for position, entry in enumerate(record.entries) if isinstance(entry, TxEntry)
    ]
    assert len(executed) == 4 * 60
    assert all(entry._leaf_digest is None for _, _, entry in executed)
    for record, position, entry in executed:
        assert record.g_tree.leaf(position) == entry.leaf_digest()
    decoded = dep.replicas[0].ledger.fragment().to_ledger()
    entries = [e for e in decoded.entries() if isinstance(e, TxEntry)]
    assert entries and all(e._leaf_digest is not None for e in entries)


def _assert_outputs_sealed(dep):
    """Every transaction entry a replica retains, in its ledger and in
    its batch records, holds its output as a seal."""
    for replica in dep.replicas:
        entries = [e for e in replica.ledger.entries() if isinstance(e, TxEntry)]
        entries += [
            e for record in replica.batches.values() for e in record.entries if isinstance(e, TxEntry)]
        assert entries
        for entry in entries:
            assert type(entry.output) is SealedMap, (replica.address, entry.index)


def test_ledger_outputs_are_sealed(run):
    dep, client, _, _, _ = run
    _assert_outputs_sealed(dep)
    # A client's receipt holds the designated replica's seal, not a copy.
    held = {id(e.output) for r in dep.replicas for e in r.ledger.entries() if isinstance(e, TxEntry)}
    assert all(id(receipt.output) in held for receipt in client.collector._done.values())


def test_ledger_outputs_are_sealed_after_crash_and_resync():
    """The primary crashes, the others change view and commit on; the
    recovered replica installs what it fetched.  Every path that builds
    a retained entry — execution, re-execution after the view change,
    the fetched ledger and the replay behind its install — seals."""
    dep = build_deployment(params=VC_PARAMS, seed=b"vc")
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    workload = SmallBankWorkload(n_accounts=200, seed=11)
    for _ in range(40):
        client.submit(*workload.next_transaction(), min_index=0)
    dep.run(until=0.2)
    dep.crash_replica(0)
    for _ in range(60):
        client.submit(*workload.next_transaction(), min_index=0)
    dep.run(until=4.0)
    dep.recover_replica(0)
    for _ in range(20):
        client.submit(*workload.next_transaction(), min_index=0)
    dep.run(until=12.0)
    assert all(r.view >= 1 for r in dep.replicas)
    assert dep.replicas[0].sync_client.last_result is not None
    frontier = max(r.committed_upto for r in dep.replicas)
    assert dep.replicas[0].committed_upto == frontier
    assert dep.ledgers_agree()
    _assert_outputs_sealed(dep)
