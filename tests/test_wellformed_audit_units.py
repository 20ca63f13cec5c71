"""Well-formedness checker, checkpoint arithmetic, and audit-unit pieces."""

from types import SimpleNamespace

import pytest

from repro.audit.package import build_ledger_package
from repro.kvstore import Checkpoint, KVStore
from repro.ledger import LedgerFragment
from repro.ledger.wellformed import check_well_formed, parse_fragment
from repro.lpbft.checkpointing import CheckpointStore, reference_checkpoint_seqno
from repro.errors import WellFormednessError

from helpers import build_deployment, run_workload


@pytest.fixture(scope="module")
def honest_ledger():
    from helpers import FAST_PARAMS, run_waves

    dep = build_deployment(seed=b"wf", params=FAST_PARAMS.variant(checkpoint_interval=4))
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    run_waves(dep, client, waves=6, per_wave=20)
    return dep, dep.primary()


class TestParseFragment:
    def test_honest_fragment_parses(self, honest_ledger):
        dep, replica = honest_ledger
        parsed = parse_fragment(replica.ledger.fragment(0))
        assert parsed.genesis is not None
        assert parsed.last_seqno() == replica.committed_upto
        assert parsed.batch_order == sorted(parsed.batch_order)

    def test_evidence_lags_pipeline(self, honest_ledger):
        dep, replica = honest_ledger
        parsed = parse_fragment(replica.ledger.fragment(0))
        last = parsed.last_seqno()
        # The newest P batches cannot have in-ledger evidence yet.
        for seqno in range(last - dep.params.pipeline + 1, last + 1):
            assert seqno not in parsed.evidence_for

    def test_orphan_nonces_rejected(self, honest_ledger):
        dep, replica = honest_ledger
        wires = replica.ledger.fragment(0).entry_wires
        nonces_wire = next(w for w in wires if w[0] == "nonces")
        bad = LedgerFragment(start=0, entry_wires=(wires[0], nonces_wire))
        with pytest.raises(WellFormednessError):
            parse_fragment(bad)

    def test_tx_outside_batch_rejected(self, honest_ledger):
        dep, replica = honest_ledger
        wires = replica.ledger.fragment(0).entry_wires
        tx_wire = next(w for w in wires if w[0] == "tx")
        bad = LedgerFragment(start=0, entry_wires=(wires[0], tx_wire))
        with pytest.raises(WellFormednessError):
            parse_fragment(bad)


class TestCheckWellFormed:
    def test_honest_ledger_clean(self, honest_ledger):
        dep, replica = honest_ledger
        issues = check_well_formed(replica.ledger.fragment(0), replica.schedule, dep.params.pipeline)
        assert issues == []

    def test_doctored_tx_output_creates_findings(self, honest_ledger):
        dep, replica = honest_ledger
        wires = list(replica.ledger.fragment(0).entry_wires)
        for i, w in enumerate(wires):
            if w[0] == "tx":
                wires[i] = ("tx", w[1], w[2], {"reply": {"ok": True, "balance": 1}, "ws": b"\x00" * 32})
                break
        # Changing an entry invalidates nothing structural by itself (the
        # pre-prepare binding is caught by receipt checks / replay), so the
        # structure may still parse — but forging the *pre-prepare* fails.
        ppe = next(i for i, w in enumerate(wires) if w[0] == "pre-prepare-entry")
        pp = list(wires[ppe][1])
        pp[3] = b"\x13" * 32  # root_m
        wires[ppe] = ("pre-prepare-entry", tuple(pp))
        issues = check_well_formed(
            LedgerFragment(start=0, entry_wires=tuple(wires)), replica.schedule, dep.params.pipeline
        )
        assert any(issue.kind == "bad-pp-signature" for issue in issues)

    def test_truncated_ledger_has_seqno_gap(self, honest_ledger):
        dep, replica = honest_ledger
        wires = replica.ledger.fragment(0).entry_wires
        # Drop the second batch's pre-prepare and entries crudely: remove
        # everything between the 2nd and 3rd pre-prepare entries.
        pp_positions = [i for i, w in enumerate(wires) if w[0] == "pre-prepare-entry"]
        cut = wires[: pp_positions[1]] + wires[pp_positions[2]:]
        # Evidence pairing may now straddle the cut; only assert that the
        # checker reports *something* (gap or evidence mismatch).
        try:
            issues = check_well_formed(
                LedgerFragment(start=0, entry_wires=cut), replica.schedule, dep.params.pipeline
            )
            assert issues
        except WellFormednessError:
            pass  # structurally unreadable is also an acceptable outcome


class TestCheckpointArithmetic:
    def test_reference_before_first_interval(self):
        assert reference_checkpoint_seqno(5, 10) == 0
        assert reference_checkpoint_seqno(10, 10) == 0

    def test_reference_is_penultimate(self):
        assert reference_checkpoint_seqno(25, 10) == 10
        assert reference_checkpoint_seqno(20, 10) == 0
        assert reference_checkpoint_seqno(31, 10) == 20

    def test_reference_with_config_start(self):
        assert reference_checkpoint_seqno(105, 10, config_start=100) == 100
        assert reference_checkpoint_seqno(125, 10, config_start=100) == 110

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            reference_checkpoint_seqno(5, 10, config_start=10)

    def test_directory_matches_closed_form(self):
        directory = CheckpointStore(b"\x00" * 32)
        # Record checkpoint txs the way batches do: at s (mult of C),
        # recording cp at s − C.
        C = 10
        for s in range(C, 60, C):
            directory.note_record(s, s - C, bytes([s]) * 32)
        for s in range(1, 55):
            cp_seqno, _ = directory.reference_for(s)
            assert cp_seqno == reference_checkpoint_seqno(s, C), f"s={s}"

    def test_directory_rollback(self):
        directory = CheckpointStore(b"\x00" * 32)
        directory.note_record(10, 0, b"\x01" * 32)
        directory.note_record(20, 10, b"\x02" * 32)
        directory.rollback_after(15)
        assert directory.reference_for(100) == (0, b"\x01" * 32)

    def test_replica_pp_dc_matches_directory(self, honest_ledger):
        dep, replica = honest_ledger
        for info in replica.ledger.batches():
            pp = replica.ledger.batch_pre_prepare(info.seqno)
            _, expected = replica.checkpoints.reference_for(info.seqno)
            assert pp.checkpoint_digest == expected


class TestCheckpointDirectoryEdgeCases:
    """Latent boundary cases fixed in the state-sync PR."""

    def test_reference_at_exact_record_boundary(self):
        # A checkpoint tx inside the batch at s itself is not yet
        # committed, so reference_for(s) must exclude it; s + 1 sees it.
        directory = CheckpointStore(b"\x00" * 32)
        directory.note_record(10, 0, b"\x01" * 32)
        directory.note_record(20, 10, b"\x02" * 32)
        assert directory.reference_for(10) == (0, b"\x00" * 32)
        assert directory.reference_for(11) == (0, b"\x01" * 32)
        assert directory.reference_for(20) == (0, b"\x01" * 32)
        assert directory.reference_for(21) == (10, b"\x02" * 32)

    def test_out_of_order_notes_are_sorted(self):
        # A forced configuration-start record can be noted while older
        # interval records are replayed afterwards; reference_for must
        # not depend on call order.
        directory = CheckpointStore(b"\x00" * 32)
        directory.note_record(30, 22, b"\x03" * 32)
        directory.note_record(10, 0, b"\x01" * 32)
        directory.note_record(20, 10, b"\x02" * 32)
        assert [r.record_seqno for r in directory.records()] == [10, 20, 30]
        assert directory.reference_for(25) == (10, b"\x02" * 32)
        assert directory.reference_for(31) == (22, b"\x03" * 32)

    def test_renote_same_batch_replaces(self):
        # An undone batch re-executed in a later view re-notes its record;
        # the stale one must not survive alongside it.
        directory = CheckpointStore(b"\x00" * 32)
        directory.note_record(10, 0, b"\x01" * 32)
        directory.note_record(10, 0, b"\x09" * 32)
        assert len(directory.records()) == 1
        assert directory.reference_for(11) == (0, b"\x09" * 32)

    def test_rollback_after_keeps_record_at_boundary(self):
        # Rolling back *to* the batch that carries a forced
        # configuration-start checkpoint record keeps that record.
        directory = CheckpointStore(b"\x00" * 32)
        directory.note_record(10, 0, b"\x01" * 32)
        directory.note_record(23, 22, b"\x02" * 32)  # config-start record
        directory.note_record(33, 30, b"\x03" * 32)
        directory.rollback_after(23)
        assert [r.record_seqno for r in directory.records()] == [10, 23]
        assert directory.reference_for(24) == (22, b"\x02" * 32)
        # Re-noting after the rollback (replayed interval record) stays sorted.
        directory.note_record(33, 30, b"\x04" * 32)
        assert directory.reference_for(34) == (30, b"\x04" * 32)


def checkpoint(seqno: int, ledger_size: int = 0) -> Checkpoint:
    """A checkpoint whose state (and so digest) differs per seqno."""
    kv = KVStore()
    kv.execute(lambda tx: tx.put("seqno", seqno))
    return Checkpoint.capture(kv, seqno, ledger_size, b"\x00" * 32)


class FakeLedger:
    """What ``CheckpointStore.gc_boundary`` reads of a ledger."""

    def __init__(self, ends: list[int], base_index: int = 0) -> None:
        self.base_index = base_index
        self._infos = [SimpleNamespace(end=end) for end in ends]

    def batches(self):
        return self._infos


class TestCheckpointStore:
    """The bookkeeping the store owns beyond the records: held
    checkpoints, their taken-at times, the derived counters, the stable
    scan and the ledger GC boundary (with pins: ``test_retention.py``)."""

    def test_rollback_after_drops_held_checkpoints_and_their_times(self):
        store = CheckpointStore(b"\x00" * 32)
        for seqno in (0, 10, 20, 30):
            store.take(checkpoint(seqno), float(seqno))
        store.note_record(20, 10, store[10].digest())
        store.note_record(30, 20, store[20].digest())
        store.rollback_after(20)
        assert list(store) == [0, 10, 20]
        assert set(store._held) == {0, 10, 20}  # each time goes with its checkpoint
        assert [r.record_seqno for r in store.records()] == [20]
        store.rollback_after(15)
        assert list(store) == [0, 10]
        assert set(store._held) == {0, 10}
        assert store.records() == []
        # Taken again later, checkpoint 20 ages from its new time.
        store.take(checkpoint(20, ledger_size=7), 50.0)
        store.note_record(25, 20, store[20].digest())
        ledger = FakeLedger([7])
        assert store.gc_boundary(ledger, 25, 50.5, 1.0, None) is None
        assert store.gc_boundary(ledger, 25, 51.0, 1.0, None) == 7

    def test_derived_counters_follow_undo_and_renote(self):
        store = CheckpointStore(b"\x00" * 32)
        store.take(checkpoint(0), 0.0)
        assert (store.last_taken, store.last_recorded) == (0, -1)
        store.take(checkpoint(10), 1.0)
        store.note_record(10, 0, store[0].digest())
        assert (store.last_taken, store.last_recorded) == (10, 0)
        # Batch 20 records checkpoint 10, then is undone (root mismatch).
        store.note_record(20, 10, store[10].digest())
        assert (store.last_taken, store.last_recorded) == (10, 10)
        store.rollback_after(19)
        assert (store.last_taken, store.last_recorded) == (10, 0)
        # Re-executed in a later view: the re-noted record counts once.
        store.note_record(20, 10, store[10].digest())
        store.note_record(20, 10, store[10].digest())
        assert (store.last_taken, store.last_recorded) == (10, 10)
        assert len(store.records()) == 2
        assert (CheckpointStore(b"\x00" * 32).last_taken,
                CheckpointStore(b"\x00" * 32).last_recorded) == (0, -1)

    def test_newest_and_oldest_stable(self):
        store = CheckpointStore(b"\x00" * 32)
        for seqno in (0, 10, 20, 30):
            store.take(checkpoint(seqno), 0.0)
        store.note_record(10, 0, store[0].digest())
        store.note_record(20, 10, store[10].digest())
        store.note_record(25, 20, b"\x07" * 32)  # names another digest
        store.note_record(30, 20, store[20].digest())
        store.note_record(40, 30, store[30].digest())  # above the frontier
        frontier = 35
        assert [cp.seqno for cp in store.stable(frontier)] == [0, 10, 20]
        assert [cp.seqno for cp in store.stable(frontier, newest_first=True)] == [20, 10, 0]
        # Genesis is stable (state sync serves it) but never supersedes a prefix.
        assert store.oldest_stable(frontier).seqno == 10
        assert store.oldest_stable(15) is None
        assert next(store.stable(15, newest_first=True)).seqno == 0
        assert next(store.stable(9), None) is None


class TestLedgerPackage:
    def test_package_wire_roundtrip(self, honest_ledger):
        dep, replica = honest_ledger
        from repro.audit.package import LedgerPackage

        package = build_ledger_package(replica)
        again = LedgerPackage.from_wire(package.to_wire())
        assert len(again.fragment) == len(package.fragment)
        assert again.source_replica == replica.id
        assert again.checkpoint.digest() == package.checkpoint.digest()

    def test_replay_of_honest_ledger_is_clean(self, honest_ledger):
        dep, replica = honest_ledger
        from repro.audit import replay_ledger
        from repro.governance.subledger import extract_governance_subledger

        package = build_ledger_package(replica)
        subledger = extract_governance_subledger(replica.ledger.entries(), dep.params.pipeline)
        findings = replay_ledger(
            package.fragment.to_ledger(),
            package.checkpoint,
            dep.registry,
            subledger.schedule,
        )
        assert findings == []

    def test_replay_from_midpoint_checkpoint(self, honest_ledger):
        dep, replica = honest_ledger
        from repro.audit import replay_ledger
        from repro.governance.subledger import extract_governance_subledger

        cp_seqno = max(s for s in replica.checkpoints if s > 0)
        checkpoint = replica.checkpoints[cp_seqno]
        subledger = extract_governance_subledger(replica.ledger.entries(), dep.params.pipeline)
        findings = replay_ledger(
            replica.ledger.fragment(0).to_ledger(),
            checkpoint,
            dep.registry,
            subledger.schedule,
        )
        assert findings == []
