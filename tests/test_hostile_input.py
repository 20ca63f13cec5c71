"""Junk messages never stop a replica or a client.

Every kind a replica dispatches has one envelope length
(``lpbft.messages.ENVELOPE_ARITY``).  ``LPBFTReplica.on_message`` drops a
message of another length, or one whose handler cannot parse a record in
it (:class:`~repro.errors.MalformedMessage`, raised before the handler
changes any state), and counts it under ``malformed_messages`` by kind;
a message that is not a tuple envelope of a known kind is dropped and
counted under the kind ``"unknown"``.  The run goes on.  An error past
the parse still raises: it is a bug.
A client keeps the same rule with its own table
(``lpbft.messages.CLIENT_ARITY``).
The junk travels the simulated network, whose delivery catches nothing,
so a message that escaped the replica would end ``dep.run``.
"""

import pytest

from helpers import build_deployment, run_waves
from repro.errors import LedgerError
from repro.lpbft.messages import CLIENT_ARITY, ENVELOPE_ARITY, PrePrepare, Prepare


def malformed(replica, kind: str) -> int:
    return replica.metrics.registry.counter("malformed_messages").value(kind=kind)


def pre_prepare_wire(**fields) -> tuple:
    return PrePrepare(**{
        "view": 0, "seqno": 1, "root_m": b"", "root_g": b"", "nonce_commitment": b"",
        "evidence_bitmap": 0, "gov_index": 0, "checkpoint_digest": b"", **fields}).to_wire()


# Envelopes of the right length whose records do not parse.
REFUSED = [
    ("commit", "x"), ("prepare", ()), ("request", 7), ("view-change", "x"),
    ("new-view", "x", ()), ("evidence-bundle", 1, "x", "x"),
    ("pre-prepare", "x", ()), ("pre-prepare", (0, 0, 0), ()),
    ("pre-prepare", pre_prepare_wire(seqno="x"), ()), ("pre-prepare", pre_prepare_wire(view=None), ()),
    ("pre-prepare", pre_prepare_wire(), "x"), ("pre-prepare", pre_prepare_wire(), ("x",)),
]


# Not a tuple envelope of a kind the replica dispatches, by name.
UNKNOWN = {
    "list": ["request", 7], "empty": (), "str": "request", "none": None,
    "unknown-kind": ("no-such-kind", 1), "list-kind": (["request"], 1), "int-kind": (7,), "dict-kind": ({},),
}


def junk(kind: str) -> list[tuple]:
    """``kind``'s envelope one item short (when it has an item to lose)
    and one item long."""
    items = ("x",) * (ENVELOPE_ARITY[kind] - 1)
    short = [(kind,) + items[:-1]] if items else []
    return short + [(kind,) + items + ("x",)]


def test_the_table_covers_every_kind_the_replica_dispatches():
    replica = build_deployment().replicas[1]
    assert set(ENVELOPE_ARITY) == set(replica._handlers)


def test_honest_envelopes_have_their_arity():
    """What honest nodes send is never dropped: on a run with traffic, a
    view change and state sync, no replica counts a malformed message."""
    dep = build_deployment()
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    run_waves(dep, client, waves=2, per_wave=10, gap=0.1)
    dep.crash_replica(0)
    run_waves(dep, client, waves=2, per_wave=10, gap=0.1)
    dep.recover_replica(0)
    run_waves(dep, client, waves=2, per_wave=10, gap=0.1)
    assert all(replica.view > 0 for replica in dep.replicas)
    assert dep.replicas[0].metrics.counters["ledger_adoptions"] >= 1
    for replica in dep.replicas:
        assert "malformed_messages" not in replica.metrics.counters
    assert "malformed_messages" not in client.metrics.counters


def test_junk_of_every_kind_is_dropped_and_counted_and_the_service_goes_on():
    dep = build_deployment()
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    run_waves(dep, client, waves=1, per_wave=10, gap=0.1)
    committed = [replica.committed_upto for replica in dep.replicas]
    messages = [msg for kind in ENVELOPE_ARITY for msg in junk(kind)] + REFUSED
    for replica in dep.replicas:
        for msg in messages + list(UNKNOWN.values()):
            client.send(replica.address, msg)
    dep.run(until=dep.net.scheduler.now + 0.1)
    for replica in dep.replicas:
        for kind in ENVELOPE_ARITY:
            count = sum(1 for msg in messages if msg[0] == kind)
            assert malformed(replica, kind) == count, (replica.id, kind)
        assert malformed(replica, "unknown") == len(UNKNOWN)
    # The deployment still orders and commits afterwards.
    digests = run_waves(dep, client, waves=2, per_wave=10, gap=0.1, seed=11)
    assert all(digest in client.receipts for digest in digests)
    assert all(replica.committed_upto > before for replica, before in zip(dep.replicas, committed))


@pytest.mark.parametrize("msg", REFUSED, ids=lambda msg: msg[0])
def test_a_handler_that_cannot_parse_its_record_drops_the_message(msg):
    replica = build_deployment().replicas[1]
    replica.on_message("anyone", msg)
    assert malformed(replica, msg[0]) == 1
    assert not replica.pending_pps  # nothing stashed


def test_an_error_past_the_parse_still_raises(monkeypatch):
    """Only a parse failure is dropped: a library error from the
    replica's own state, once the record has parsed, is a bug."""
    replica = build_deployment().replicas[1]

    def fault(prepare):
        raise LedgerError("a fault in the replica's own state")

    monkeypatch.setattr(replica.batches, "add_prepare", fault)
    prepare = Prepare(replica=2, nonce_commitment=bytes(32), pp_digest=bytes(32), signature=b"s")
    with pytest.raises(LedgerError):
        replica.on_message("replica-2", ("prepare", prepare.to_wire()))
    assert "malformed_messages" not in replica.metrics.counters


@pytest.mark.parametrize("msg", UNKNOWN.values(), ids=UNKNOWN)
def test_an_unknown_kind_or_a_non_envelope_is_dropped_and_counted(msg):
    replica = build_deployment().replicas[1]
    replica.on_message("anyone", msg)
    assert malformed(replica, "unknown") == 1
    assert replica.metrics.counters["malformed_messages"] == 1


# What a replica could send a client that does not parse: every one of
# these once raised out of ``LPBFTClient.on_message`` and ended the run.
CLIENT_JUNK = [
    ("reply",), ("replyx",), ("reject", "x"), ("replyx-gone",), ("gov-chain-resp",), (), ["reply"],
    ("reply", "junk", ()), ("reply", "junk", 5), ("reject", ["x"], "busy"),
    ("replyx-gone", b"d", "x", b"c"), ("gov-chain-resp", (), ("x",)),
    ("gov-chain-resp", (), ((1, "a"), (1, (1,)))),
]


def test_the_client_table_covers_every_kind_the_client_dispatches():
    client = build_deployment().add_client()
    assert set(CLIENT_ARITY) == set(client._handlers)


@pytest.mark.parametrize("msg", CLIENT_JUNK, ids=repr)
def test_a_client_drops_and_counts_junk_and_its_receipts_complete(msg):
    dep = build_deployment()
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    dep.replicas[1].send(client.address, msg)
    digests = run_waves(dep, client, waves=1, per_wave=10, gap=0.1)
    assert client.metrics.counters["malformed_messages"] == 1
    assert all(digest in client.receipts for digest in digests)


def test_a_suffix_with_a_repeated_index_under_a_valid_chain_is_dropped():
    # The genesis-only chain verifies on any client, so the suffix is
    # what gets read; two entries at one index do not even sort.
    dep = build_deployment()
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    chain = dep.replicas[1].gov_chain.to_wire()
    dep.replicas[1].send(client.address, ("gov-chain-resp", chain, ((1, "a"), (1, (1,)))))
    digests = run_waves(dep, client, waves=1, per_wave=10, gap=0.1)
    assert client.metrics.counters["malformed_messages"] == 1
    assert all(digest in client.receipts for digest in digests)
