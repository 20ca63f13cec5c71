"""Transactional KV store: semantics, rollback, digests, procedures."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import KVError, TransactionAborted
from repro.kvstore import Checkpoint, KVStore, ProcedureRegistry, checkpoint_digest
from repro.kvstore.store import Snapshot, state_accumulator

from helpers import counting_entry_hashes


class TestTransactions:
    def test_commit_applies_writes(self):
        kv = KVStore()
        result, record = kv.execute(lambda tx: tx.put("a", 1))
        assert kv.get("a") == 1
        assert record is not None

    def test_read_your_writes(self):
        kv = KVStore({"a": 1})

        def fn(tx):
            tx.put("a", 2)
            return tx.get("a")

        result, _ = kv.execute(fn)
        assert result == 2

    def test_abort_rolls_back(self):
        kv = KVStore({"a": 1})

        def fn(tx):
            tx.put("a", 99)
            tx.abort("nope")

        result, record = kv.execute(fn)
        assert record is None
        assert result == {"ok": False, "error": "nope"}
        assert kv.get("a") == 1

    def test_exception_rolls_back_and_propagates(self):
        kv = KVStore({"a": 1})
        with pytest.raises(ZeroDivisionError):
            kv.execute(lambda tx: (tx.put("a", 2), 1 / 0))
        assert kv.get("a") == 1

    def test_delete(self):
        kv = KVStore({"a": 1})
        kv.execute(lambda tx: tx.delete("a"))
        assert "a" not in kv

    def test_has_and_get_default(self):
        kv = KVStore({"a": 1})

        def fn(tx):
            assert tx.has("a")
            assert not tx.has("b")
            assert tx.get("b", "dflt") == "dflt"
            tx.delete("a")
            assert not tx.has("a")

        kv.execute(fn)

    def test_keys_with_prefix_sees_buffered_writes(self):
        kv = KVStore({"p:1": 1, "p:2": 2, "q:1": 3})

        def fn(tx):
            tx.put("p:3", 3)
            tx.delete("p:1")
            return tx.keys_with_prefix("p:")

        result, _ = kv.execute(fn)
        assert result == ["p:2", "p:3"]

    def test_handle_unusable_after_commit(self):
        kv = KVStore()
        tx = kv.begin()
        tx.put("a", 1)
        tx._commit()
        with pytest.raises(KVError):
            tx.get("a")

    def test_op_count(self):
        kv = KVStore({"a": 1})
        tx = kv.begin()
        tx.get("a")
        tx.put("b", 2)
        assert tx.op_count == 2
        tx._discard()

    def test_non_string_key_rejected(self):
        kv = KVStore()
        tx = kv.begin()
        with pytest.raises(KVError):
            tx.put(5, "x")

    def test_unencodable_value_rejected_eagerly(self):
        from repro.errors import CodecError

        kv = KVStore()
        tx = kv.begin()
        with pytest.raises(CodecError):
            tx.put("a", object())


class TestRollback:
    def test_rollback_last(self):
        kv = KVStore()
        kv.execute(lambda tx: tx.put("a", 1))
        kv.execute(lambda tx: tx.put("a", 2))
        kv.rollback_last()
        assert kv.get("a") == 1

    def test_rollback_to_restores_deletes(self):
        kv = KVStore({"a": 1})
        kv.execute(lambda tx: tx.delete("a"))
        kv.rollback_to(0)
        assert kv.get("a") == 1

    def test_rollback_suffix(self):
        kv = KVStore()
        for i in range(5):
            kv.execute(lambda tx, i=i: tx.put(f"k{i}", i))
        kv.rollback_to(2)
        assert kv.get("k1") == 1
        assert kv.get("k2") is None
        assert kv.tx_count == 2

    def test_rollback_out_of_range(self):
        kv = KVStore()
        with pytest.raises(KVError):
            kv.rollback_to(1)

    def test_rollback_restores_state_digest(self):
        kv = KVStore({"a": 1, "b": 2})
        before = kv.state_digest()
        kv.execute(lambda tx: (tx.put("a", 9), tx.delete("b"), tx.put("c", 3)))
        kv.rollback_last()
        assert kv.state_digest() == before


class TestDigests:
    def test_digest_independent_of_history(self):
        kv1 = KVStore()
        kv1.execute(lambda tx: tx.put("a", 1))
        kv1.execute(lambda tx: tx.put("b", 2))
        kv2 = KVStore({"b": 2, "a": 1})
        assert kv1.state_digest() == kv2.state_digest()

    def test_checkpoint_digest_matches_store(self):
        kv = KVStore({"x": 1, "y": (1, 2)})
        assert checkpoint_digest(kv.snapshot()) == kv.state_digest()

    def test_digest_changes_with_state(self):
        kv = KVStore({"a": 1})
        before = kv.state_digest()
        kv.execute(lambda tx: tx.put("a", 2))
        assert kv.state_digest() != before

    def test_acc_hint_matches_computed(self):
        state = {"a": 1, "b": 2}
        acc = state_accumulator(state.items())
        assert KVStore(Snapshot(state, acc=acc)).state_digest() == KVStore(state).state_digest()
        with pytest.raises(TypeError):
            KVStore(state, acc_hint=acc)

    def test_restore_recomputes_digest(self):
        kv = KVStore({"a": 1})
        snap = kv.snapshot()
        kv.execute(lambda tx: tx.put("b", 2))
        kv.restore(snap)
        assert kv.state_digest() == KVStore({"a": 1}).state_digest()


class TestCheckpoint:
    def test_capture_and_restore(self):
        kv = KVStore({"a": 1})
        cp = Checkpoint.capture(kv, seqno=5, ledger_size=10, ledger_root=b"\x01" * 32)
        kv.execute(lambda tx: tx.put("a", 2))
        cp.restore_into(kv)
        assert kv.get("a") == 1
        assert cp.digest() == kv.state_digest()

    def test_capture_digest_cached(self):
        kv = KVStore({"a": 1})
        cp = Checkpoint.capture(kv, 0, 0, b"\x00" * 32)
        assert cp.digest() == checkpoint_digest(cp.state)

    def test_negative_seqno_rejected(self):
        with pytest.raises(KVError):
            Checkpoint.capture(KVStore(), -1, 0, b"\x00" * 32)


class TestStructuralSharing:
    """State is a value: stores and checkpoints built from a Snapshot share
    its base and carry its accumulator — no copy, no re-hash.  (The
    deployment test is the tier-1 memory guard: deterministic, no RSS read.)"""

    def test_deployment_shares_one_table(self):
        """Absolute ceilings, independent of the table's size: building
        the genesis state at two sizes retains a few hundred bytes each
        (single hashing range, so no worker imports), and a deployment
        on it adds its own structures but no copy of the table."""
        import tracemalloc

        from repro.lpbft import Deployment
        from repro.workloads import initial_state, register_smallbank

        tables, retained = [], []
        tracemalloc.start()
        try:
            for n in (20_000, 39_999):
                start = tracemalloc.get_traced_memory()[0]
                tables.append(initial_state.__wrapped__(n))  # uncached: allocated under the trace
                retained.append(tracemalloc.get_traced_memory()[0] - start)
            table = tables[-1]
            start = tracemalloc.get_traced_memory()[0]
            dep = Deployment(registry_setup=register_smallbank, initial_state=table)
            deployment_bytes = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        for replica in dep.replicas:
            assert replica.kv._base is table._base
            assert replica.checkpoints[0].state._base is table._base
            assert len(replica.kv) == len(table) + 1  # + the genesis configuration
        assert max(retained) <= 4 * 1024, retained
        assert deployment_bytes <= 256 * 1024, deployment_bytes

    def test_adopting_a_snapshot_hashes_no_entry(self):
        origin = KVStore({f"k{i}": i for i in range(50)})
        origin.execute(lambda tx: (tx.put("k1", "new"), tx.delete("k2")))
        snapshot = origin.snapshot()
        with counting_entry_hashes() as hashed:
            built = KVStore(initial=snapshot)
            restored = KVStore()
            restored.restore(snapshot)
            cp = Checkpoint.capture(built, 3, 7, b"\x01" * 32)
            cp.restore_into(restored)
            assert cp.digest() == built.state_digest() == restored.state_digest()
            assert hashed.call_count == 0
        assert restored.state_digest() == origin.state_digest() == checkpoint_digest(snapshot)

    def test_dict_argument_is_copied_not_adopted(self):
        state = {"a": 1}
        kv = KVStore(state)
        state["a"] = 2
        state["b"] = 3
        assert kv.get("a") == 1 and "b" not in kv and len(kv) == 1
        assert kv.state_digest() == checkpoint_digest({"a": 1})

    def test_snapshot_is_a_read_only_mapping(self):
        kv = KVStore({"a": 1, "b": 2})
        kv.execute(lambda tx: (tx.delete("a"), tx.put("c", 3)))
        snapshot = kv.snapshot()
        assert snapshot == {"b": 2, "c": 3} and len(snapshot) == 2
        assert snapshot["c"] == 3 and snapshot.get("a") is None and "a" not in snapshot
        with pytest.raises(KeyError):
            snapshot["a"]
        with pytest.raises(TypeError):
            snapshot["d"] = 4
        for mutator in ("update", "pop", "clear", "setdefault", "popitem"):
            assert not hasattr(snapshot, mutator)

    def test_checkpoint_wire_roundtrip_recomputes_the_digest(self):
        kv = KVStore({"x": 1, "y": (1, 2)})
        kv.execute(lambda tx: tx.delete("x"))
        cp = Checkpoint.capture(kv, 4, 10, b"\x01" * 32)
        wire = cp.to_wire()
        assert wire == (4, (("y", (1, 2)),), 10, b"\x01" * 32)
        again = Checkpoint.from_wire(wire)
        assert again == cp and again.digest() == cp.digest()
        with pytest.raises(KVError):
            Checkpoint.from_wire((4, 5, 10))


class TestProcedures:
    def test_register_and_invoke(self):
        reg = ProcedureRegistry()
        reg.register("inc", lambda tx, args: tx.put("n", (tx.get("n") or 0) + args["by"]))
        kv = KVStore()
        kv.execute(lambda tx: reg.invoke("inc", tx, {"by": 5}))
        assert kv.get("n") == 5

    def test_unknown_procedure(self):
        reg = ProcedureRegistry()
        with pytest.raises(KVError):
            reg.get("missing")

    def test_code_digest_changes_on_update(self):
        reg = ProcedureRegistry()
        reg.register("p", lambda tx, args: None)
        before = reg.code_digest()
        reg.register("p", lambda tx, args: 1)
        assert reg.code_digest() != before

    def test_names_sorted(self):
        reg = ProcedureRegistry()
        reg.register("b", lambda tx, a: None)
        reg.register("a", lambda tx, a: None)
        assert reg.names() == ["a", "b"]

    def test_copy_independent(self):
        reg = ProcedureRegistry()
        reg.register("p", lambda tx, a: None)
        clone = reg.copy()
        clone.register("q", lambda tx, a: None)
        assert not reg.has("q") and clone.has("p")

    def test_empty_name_rejected(self):
        reg = ProcedureRegistry()
        with pytest.raises(KVError):
            reg.register("", lambda tx, a: None)


# -- property-based -----------------------------------------------------------

ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "delete"]),
        st.sampled_from(["a", "b", "c", "d"]),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=50, deadline=None)
@given(ops, ops)
def test_property_rollback_is_inverse(first, second):
    kv = KVStore({"a": 0})

    def apply(batch):
        def fn(tx):
            for op, key, value in batch:
                if op == "put":
                    tx.put(key, value)
                else:
                    tx.delete(key)

        kv.execute(fn)

    apply(first)
    snapshot = kv.snapshot()
    digest_before = kv.state_digest()
    apply(second)
    kv.rollback_last()
    assert kv.snapshot() == snapshot
    assert kv.state_digest() == digest_before


MODEL_BASE = {"k:a": 0, "k:b": 1, "j:c": 2}
MODEL_KEYS = ["k:a", "k:b", "j:c", "k:d", "j:e"]  # three base keys, two that are not

model_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["put", "put", "delete", "delete", "abort", "rollback", "snapshot", "restore", "forget"]
        ),
        st.sampled_from(MODEL_KEYS),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(model_steps)
def test_property_layered_store_matches_dict_model(steps):
    """The base + delta store against a plain dict with whole-copy
    snapshots: every read agrees after every step, and no write ever
    shows through an earlier snapshot or a sibling store on the same base."""
    base = Snapshot(dict(MODEL_BASE))
    kv = KVStore(base)
    model = dict(MODEL_BASE)
    history = [dict(model)]  # history[n]: the model after n transactions
    floor = 0  # transactions below this were forgotten
    taken = []  # (snapshot, sibling store, model copy, sibling's model)

    def write(key, value):
        kv.execute(lambda tx: tx.delete(key) if value is None else tx.put(key, value))
        model.pop(key, None) if value is None else model.update({key: value})
        history.append(dict(model))

    for op, key, n in steps:
        if op == "put":
            write(key, n)
        elif op == "delete":
            write(key, None)
        elif op == "abort":
            kv.execute(lambda tx: (tx.put(key, n), tx.delete("k:a"), tx.abort("no")))
        elif op == "rollback":
            target = floor + n % (len(history) - floor)
            kv.rollback_to(target)
            del history[target + 1:]
            model = dict(history[target])
        elif op == "snapshot":
            sibling = KVStore(kv.snapshot())
            sibling.execute(lambda tx: (tx.put("sibling", n), tx.delete(key)))
            sibling_model = {k: v for k, v in model.items() if k != key} | {"sibling": n}
            taken.append((kv.snapshot(), sibling, dict(model), sibling_model))
        elif op == "restore" and taken:
            snapshot, _, copy, _ = taken[n % len(taken)]
            kv.restore(snapshot)
            model, history, floor = dict(copy), [dict(copy)], 0
        elif op == "forget":
            floor += n % (len(history) - floor)
            kv.forget_before(floor)
            if floor:
                with pytest.raises(KVError):
                    kv.rollback_to(floor - 1)

        assert kv.tx_count == len(history) - 1
        assert len(kv) == len(model)  # a re-created deleted key counts once
        for k in MODEL_KEYS + ["sibling"]:
            assert kv.get(k) == model.get(k) and (k in kv) == (k in model)
        assert list(kv.items()) == sorted(model.items())
        assert kv.begin().keys_with_prefix("k:") == sorted(k for k in model if k.startswith("k:"))
        assert kv.state_digest() == checkpoint_digest(dict(model))
        for snapshot, sibling, copy, sibling_model in taken:
            assert snapshot == copy and len(snapshot) == len(copy)
            assert sorted(snapshot) == sorted(copy)
            assert snapshot.digest() == checkpoint_digest(copy)
            assert dict(sibling.items()) == sibling_model
            assert sibling.state_digest() == checkpoint_digest(sibling_model)
    assert base == MODEL_BASE and base.digest() == checkpoint_digest(MODEL_BASE)


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.text(min_size=1, max_size=4), st.integers(), max_size=8))
def test_property_digest_is_content_function(state):
    assert KVStore(dict(state)).state_digest() == KVStore(dict(reversed(list(state.items())))).state_digest()
