"""SmallBank's genesis table is generated on read: ``GenesisTable``
answers every read exactly as the dict of its entries would, and a store
on it behaves as a store on that dict."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kvstore import KVStore
from repro.kvstore.store import Snapshot
from repro.workloads.smallbank import GenesisTable, _accounts

SIZES = [0, 1, 7, 1000]
# Everything ``int()`` or ``str.isdigit()`` would take besides a plain
# ASCII decimal: signs, underscores, spaces, Arabic-Indic and fullwidth
# digits, a superscript, and a second separator.
ALPHABET = "0123456789+-_ :" + "٣１²"


class Key(str):
    """A ``str`` subclass: a dict finds it under the equal plain key."""


suffixes = st.one_of(
    st.integers(min_value=-3, max_value=1003).map(str),
    st.integers(min_value=0, max_value=1003).map(lambda i: "0" + str(i)),
    st.text(alphabet=ALPHABET, max_size=6),
)
str_keys = st.one_of(
    st.builds(
        lambda prefix, suffix: f"{prefix}:{suffix}",
        st.sampled_from(["checking", "savings", "check", "saving", "checkings", ""]),
        suffixes,
    ),
    st.text(alphabet=ALPHABET + "cehiknsgav", max_size=12),
)
keys = st.one_of(
    str_keys,
    str_keys.map(Key),
    st.integers(),
    st.binary(max_size=12),
    st.tuples(st.sampled_from(["checking", "savings"]), st.integers(0, 9)),
    st.none(),
    st.floats(allow_nan=False),
)
values = st.integers(min_value=-(2**63), max_value=2**63)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SIZES), values, values, st.lists(keys, max_size=40))
def test_table_reads_as_the_dict_of_its_entries(n, checking, savings, probes):
    table = GenesisTable(n, checking, savings)
    entries = dict(_accounts(0, n, checking, savings))
    assert len(table) == len(entries) == 2 * n
    assert list(table) == list(entries)
    items = table.items()
    assert list(items) == list(entries.items()) == list(items)  # a view: iterates twice
    assert table == entries
    for key in probes:
        assert table.get(key) == entries.get(key)
        assert table.get(key, "absent") == entries.get(key, "absent")
        assert (key in table) == (key in entries)
        if key in entries:
            assert table[key] == entries[key]
        else:
            with pytest.raises(KeyError):
                table[key]


def test_strict_parsing_rejects_what_int_accepts():
    table = GenesisTable(1000, 1, 2)
    for digits in (" 7", "+7", "0_7", "٧", "07", "-0", "7 ", "", "１", "²"):
        assert f"checking:{digits}" not in table and table.get(f"savings:{digits}") is None
    assert table["checking:7"] == 1 and table[Key("savings:999")] == 2
    assert "savings:1000" not in table and "checking:" + "9" * 5000 not in table


def test_table_stores_nothing_per_entry():
    table = GenesisTable(10**6, 1000, 1000)
    assert not hasattr(table, "__dict__")
    assert len(table) == 2 * 10**6


store_keys = st.one_of(
    st.builds(
        lambda prefix, suffix: f"{prefix}:{suffix}",
        st.sampled_from(["checking", "savings"]),
        st.one_of(st.integers(min_value=0, max_value=8).map(str), st.sampled_from(["07", "+1", " 2"])),
    ),
    st.sampled_from(["other", "checking"]),
)
store_steps = st.lists(
    st.tuples(
        st.sampled_from(["put", "put", "delete", "delete", "abort", "rollback", "snapshot"]),
        store_keys,
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SIZES), store_steps, st.lists(keys, max_size=10))
def test_store_on_the_table_matches_a_store_on_its_dict(n, steps, probes):
    table = GenesisTable(n, 1000, -7)
    generated, plain = KVStore(Snapshot(table)), KVStore(dict(table.items()))
    assert generated._base is table
    marks = [0]  # tx_count after each committed step
    taken = []

    for op, key, value in steps:
        for kv in (generated, plain):
            if op == "put":
                kv.execute(lambda tx: tx.put(key, value))
            elif op == "delete":
                kv.execute(lambda tx: tx.delete(key))
            elif op == "abort":
                kv.execute(lambda tx: (tx.put(key, value), tx.abort("no")))
            elif op == "rollback":
                kv.rollback_to(marks[value % len(marks)])
        if op in ("put", "delete"):
            marks.append(generated.tx_count)
        elif op == "rollback":
            del marks[value % len(marks) + 1:]
        elif op == "snapshot":
            taken.append((generated.snapshot(), plain.snapshot()))

        assert generated.tx_count == plain.tx_count
        assert len(generated) == len(plain)
        assert generated.state_digest() == plain.state_digest()
        for probe in [key, *probes]:
            assert generated.get(probe) == plain.get(probe)
            assert (probe in generated) == (probe in plain)
        for ours, theirs in taken:
            assert sorted(ours.items()) == sorted(theirs.items())
            assert ours.digest() == theirs.digest()
