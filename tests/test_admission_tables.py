"""The admission tables under churn: compaction keeps each one sized by
its live entries, in the queue's order, with nothing left behind.

A CPython dict or set keeps the table its peak needed; the queue of a
backup under overload churns through tens of thousands of digests while
only a few thousand are live.  :class:`repro.lpbft.admission.Admission`
rebuilds ``requests``, ``arrivals`` and ``verified`` in place once its
removals outrun the live count (``COMPACT_SLACK``).
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from types import SimpleNamespace

import pytest
from helpers import build_deployment
from hypothesis import given, settings, strategies as st

from repro.lpbft import ProtocolParams, admission
from repro.lpbft.messages import TransactionRequest

PARAMS = ProtocolParams(
    pipeline=2, max_batch=100, checkpoint_interval=10_000,
    batch_delay=0.0005, view_change_timeout=30.0,
)
TABLES = ("requests", "arrivals", "verified")

@pytest.fixture(scope="module")
def backup():
    """A deployment, a backup, a client address and one signed request
    that every queued digest stands for (the tables key by digest; the
    request is opaque to them).  Each test resets the backup's queue."""
    dep = build_deployment(params=PARAMS, accounts=20)
    client = dep.add_client()
    request = TransactionRequest(
        procedure="smallbank.balance", args={"customer": 1},
        client=client.keypair.public_key, service=dep.service_name,
        min_index=0, nonce=1,
    )
    request = request.with_signature(client.backend.sign(client.keypair, request.signed_payload()))
    return dep, dep.replicas[1], client.address, request


def _key(n: int) -> bytes:
    return n.to_bytes(32, "big")


def _record(request, digests, src):
    """The three fields of a batch record that :meth:`Admission.requeue`
    reads, every request's reply address ``src``."""
    entry = SimpleNamespace(request=lambda: request)
    return SimpleNamespace(
        run=SimpleNamespace(entry=lambda position: entry), tx_digests=list(digests),
        sources=[src] * len(digests))


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), st.lists(st.integers(0, 40), min_size=1, max_size=12)),
        st.tuples(st.just("take"), st.integers(0, 1000), st.integers(1, 6)),
        st.tuples(st.just("drop"), st.integers(0, 1000), st.integers(1, 6)),
        st.tuples(st.just("requeue"), st.lists(st.integers(0, 40), max_size=4), st.booleans()),
        st.tuples(st.just("evict_expired"), st.floats(0.0, 1.5)),
    ),
    max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(ops=_OPS, slack=st.sampled_from([0, 1, 3, 1024]))
def test_property_tables_follow_an_ordered_dict_model(backup, ops, slack):
    """Any sequence of admissions, takes, drops, requeues and expiry
    evictions leaves the queue in the model's order with the model's
    arrival times, whatever the compaction slack; no mark or reply
    address outlives its queue entry, and every table is still the
    object ``__init__`` built."""
    dep, replica, src, request = backup
    queue = replica.admission
    queue.reset()
    ids = {name: id(getattr(queue, name)) for name in TABLES}
    model: OrderedDict[bytes, float | None] = OrderedDict()  # digest -> arrival
    verified = set()  # whatever admission verified stays marked while queued
    original = admission.COMPACT_SLACK
    admission.COMPACT_SLACK = slack
    try:
        for op in ops:
            now = replica.now
            if op[0] == "admit":
                for digest in map(_key, op[1]):
                    if digest not in model:
                        assert queue.admit(src, request, digest, force=True)
                        model[digest] = now
                        if digest in queue.verified:
                            verified.add(digest)
            elif op[0] in ("take", "drop"):
                for _ in range(op[2]):
                    if not model:
                        break
                    digest = list(model)[op[1] % len(model)]
                    if op[0] == "take":
                        assert queue.take(digest) == (request, model[digest], src)
                    else:
                        queue.drop(digest, None)
                    del model[digest]
            elif op[0] == "requeue":
                arrival = now if op[2] else None
                digests = [_key(k) for k in op[1]]
                queue.requeue(_record(request, digests, src), arrival)
                for digest in digests:
                    if digest not in model:
                        model[digest] = arrival
                        verified.add(digest)
            elif op[0] == "evict_expired":
                dep.net.scheduler.clock.advance_to(now + op[1])
                later = replica.now
                queue.evict_expired()
                for digest, arrival in list(model.items()):
                    if arrival is not None and later - arrival > admission.CLIENT_TIMEOUT:
                        del model[digest]
            assert type(queue.requests) is OrderedDict
            assert list(queue.requests) == list(model)
            assert queue.arrivals == {d: a for d, a in model.items() if a is not None}
            assert list(queue.arrivals) == [d for d, a in model.items() if a is not None]
            verified &= model.keys()
            assert queue.verified == verified
            assert queue.sources == dict.fromkeys(model, src)
            assert not queue.orphans()
    finally:
        admission.COMPACT_SLACK = original
    assert {name: id(getattr(queue, name)) for name in TABLES} == ids


def _fresh(table):
    return type(table)(table.items()) if isinstance(table, dict) else set(table)


def test_fifo_churn_keeps_each_table_sized_by_its_live_entries(backup):
    """20,000 admit/take cycles, at most 300 requests live: each table
    ends within twice the size of a fresh one holding the same entries.
    The first ``max_batch`` arrivals are verified on arrival, so without
    compaction ``verified`` keeps their table after they are all taken."""
    _, replica, src, request = backup
    queue = replica.admission
    queue.reset()
    for n in range(20_000):
        queue.admit(src, request, _key(n), force=True)
        if len(queue) > 300:
            queue.take(next(iter(queue.requests)))
    assert len(queue) == 300 and not queue.orphans()
    assert list(queue.requests) == [_key(n) for n in range(19_700, 20_000)]
    for name in TABLES:
        table = getattr(queue, name)
        assert sys.getsizeof(table) <= 2 * sys.getsizeof(_fresh(table)), name
