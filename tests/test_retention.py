"""What survives garbage collection: a replica's retention pins, the pin
floor that clamps where ledger prefix GC may cut, and the governance
archive that outlives the collected prefix."""

from helpers import build_deployment, run_waves
from test_ledger_gc import GC_PARAMS
from test_wellformed_audit_units import FakeLedger, checkpoint

from repro.lpbft.checkpointing import CheckpointStore
from repro.lpbft.retention import Retention


def test_pins_clamp_the_boundary():
    retention = Retention(replica=None)
    assert retention.floor() is None
    retention.pin("sync", 200)
    retention.pin("audit", 350)
    assert retention.floor() == 200
    retention.release("sync")
    assert retention.floor() == 350
    retention.pin("audit", 400)  # re-pinning a token moves its hold
    assert retention.floor() == 400
    retention.release("audit")
    retention.release("audit")  # a second release is a no-op
    assert retention.floor() is None


def test_gc_boundary_rounds_a_pin_down_to_a_batch_end():
    store = CheckpointStore(b"\x00" * 32)
    store.take(checkpoint(0, ledger_size=1), 0.0)
    store.take(checkpoint(10, ledger_size=31), 2.0)
    store.note_record(10, 0, store[0].digest())
    store.note_record(20, 10, store[10].digest())
    retention = Retention(replica=None)
    ledger = FakeLedger([5, 12, 20, 31, 40])
    # No stable checkpoint past genesis at this frontier.
    assert store.gc_boundary(ledger, 19, 10.0, 1.0, retention.floor()) is None
    # Too young for the age floor.
    assert store.gc_boundary(ledger, 20, 2.5, 1.0, retention.floor()) is None
    assert store.gc_boundary(ledger, 20, 3.0, 1.0, retention.floor()) == 31
    retention.pin("audit", 17)
    assert store.gc_boundary(ledger, 20, 3.0, 1.0, retention.floor()) == 12
    retention.pin("audit", 4)
    assert store.gc_boundary(ledger, 20, 3.0, 1.0, retention.floor()) is None
    ledger.base_index = 12
    retention.pin("audit", 25)
    assert store.gc_boundary(ledger, 20, 3.0, 1.0, retention.floor()) == 20


def test_the_archive_keeps_the_genesis_history_until_a_ledger_is_adopted():
    dep = build_deployment(params=GC_PARAMS, seed=b"gc-archive")
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    run_waves(dep, client, waves=12, per_wave=25, gap=0.25)
    replica = dep.primary()
    retention = replica.retention
    assert replica.ledger.base_index > 0, "no truncation happened"
    full = retention.governance_subledger()
    assert full.entries[0][0] == 0  # the genesis entry, collected long ago
    assert retention.governance_suffix() == ()
    # After an install the archive describes a ledger the replica no
    # longer has: a suffix reports only what it retains.
    retention.adopted()
    degraded = retention.governance_subledger()
    assert all(index >= replica.ledger.base_index for index, _ in degraded.entries)
    assert degraded.reconfigs == []
    assert degraded.schedule.spans()[0].config.number == 0
