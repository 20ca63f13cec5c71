"""The batch store: a replica's batch records and their slots' messages.

One table-driven case per release rule (garbage collection, view-change
rollback, ledger install, restart), a property over random sequences of
them, and the replica-level guard a rollback keeps: Alg. 1 line 16's
"already prepared (v, s)".  Then what the store builds from a slot's
messages: commitment evidence, a replica's reply, the signer a commit
nonce opens, and where a request executed, on a held record and on the
ledger once the record is collected.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from unittest import mock

import pytest
from helpers import build_deployment, run_waves
from hypothesis import given, settings, strategies as st

from repro import codec
from repro.crypto.nonces import new_nonce
from repro.ledger import CheckpointTxEntry
from repro.lpbft import ProtocolParams
from repro.lpbft.batch import BatchRecord, BatchStore, split_location
from repro.lpbft.messages import (
    Commit, Prepare, ReplyX, TransactionRequest, bitmap_members, bitmap_of, pre_prepare_payload)
from repro.merkle import MerklePath
from repro.receipts import Receipt, verify_receipt


def record(seqno: int, view: int = 0, committed: bool = False) -> BatchRecord:
    return BatchRecord(seqno=seqno, view=view, flags=0, pp_digest=digest(seqno, view),
                       committed=committed)


def digest(seqno: int, view: int = 0) -> bytes:
    return bytes([seqno, view]) * 16


def prepare(pp_digest: bytes, replica: int = 1) -> Prepare:
    return Prepare(replica=replica, nonce_commitment=b"c" * 32, pp_digest=pp_digest)


EARLY = b"e" * 24  # a pre-prepare digest no record ever had

# (seqno, view, committed) of the populated store's records.
RECORDS = [(1, 0, True), (2, 0, True), (3, 0, False), (4, 1, True), (5, 1, False)]


def populated() -> BatchStore:
    """Five records with every message of their slots, an early prepare
    under a digest never indexed, and the nonces a rollback left for
    slot 4 under view 0."""
    store = BatchStore()
    for seqno, view, committed in RECORDS:
        store.install(record(seqno, view, committed))
    for (view, seqno) in [(v, s) for s, v, _ in RECORDS] + [(0, 4)]:
        store.add_prepare(prepare(digest(seqno, view)))
        store.commit_nonces[(view, seqno)] = {1: b"n"}
        store.pending_commits[(view, seqno)] = [Commit(view=view, seqno=seqno, replica=2, nonce=b"n")]
        store.own_nonces[(view, seqno)] = object()
    store.add_prepare(prepare(EARLY))
    return store


ALL_SLOTS = {(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (0, 4)}


def gc(store):
    return store.release_below(5, pinned={2})


def rollback(store):
    return store.remove_above(3)


def install(store):
    # Records 1 and 2 stay (the same digests), 6 is new and has an early
    # prepare waiting under its digest; 3, 4 and 5 lose their index.
    store.add_prepare(prepare(digest(6)))
    return store.adopt([store[1], store[2], record(6)])


def restart(store):
    store.forget_messages()
    return []


# rule, returned seqnos, held seqnos, digests with prepares, slots left in
# each of the three slot-keyed tables.
RELEASE_RULES = [
    # Committed, unpinned records below the horizon go with their
    # prepares; pinned and uncommitted ones keep everything, and a slot
    # below the horizon with no record loses its messages under any view.
    ("gc", gc, [1, 4], {2, 3, 5}, {digest(2), digest(3), digest(5, 1), digest(4), EARLY},
     {(0, 2), (0, 3), (1, 5)}),
    # Records above the target go, oldest first, with their prepares; the
    # commit nonces, pending commits and own nonces of their slots stay.
    ("rollback", rollback, [4, 5], {1, 2, 3},
     {digest(1), digest(2), digest(3), digest(4), EARLY}, ALL_SLOTS),
    # Prepares of a digest that stays indexed stay, those of one that
    # lost its index go; never-indexed early prepares stay, and the newly
    # indexed records come back for their early prepares to be verified.
    ("install", install, [6], {1, 2, 6}, {digest(1), digest(2), digest(4), digest(6), EARLY},
     ALL_SLOTS),
    # A restart loses every message and keeps every record.
    ("restart", restart, [], {1, 2, 3, 4, 5}, set(), set()),
]


@pytest.mark.parametrize(
    "release, returned, held, prepared, slots", [case[1:] for case in RELEASE_RULES],
    ids=[case[0] for case in RELEASE_RULES])
def test_release_rule(release, returned, held, prepared, slots):
    store = populated()
    before = {seqno: store[seqno] for seqno in store}
    released = release(store)
    assert [r.seqno for r in released] == returned
    assert set(store) == held
    assert set(store.prepares_by_ppd) == prepared
    for table in (store.commit_nonces, store.pending_commits, store.own_nonces):
        assert set(table) == slots
    for seqno, kept in store.items():
        assert store.by_digest(kept.pp_digest) is kept
        assert store.pre_prepared(kept.view, seqno) is kept
        assert store.pre_prepared(kept.view + 1, seqno) is None
    for seqno in before.keys() - held:
        assert store.by_digest(before[seqno].pp_digest) is None


def test_gc_sets_the_horizon_and_restart_keeps_it():
    store = populated()
    gc(store)
    assert store.gc_horizon == 5
    store.forget_messages()
    assert store.gc_horizon == 5


def test_install_indexes_and_finds_by_view_and_seqno():
    store = BatchStore()
    store.install(record(3, view=2))
    assert store[3].view == 2 and store.get(4) is None
    assert store.pre_prepared(2, 3) is store[3]
    assert store.pre_prepared(1, 3) is None and store.pre_prepared(2, 4) is None
    assert store.by_digest(digest(3, 2)) is store[3] and store.by_digest(EARLY) is None


# -- property: the digest index follows the records ---------------------------------------

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("install"), st.integers(1, 12), st.integers(0, 3)),
        st.tuples(st.just("remove_above"), st.integers(0, 12)),
        st.tuples(st.just("release_below"), st.integers(0, 14), st.frozensets(st.integers(1, 12))),
        st.tuples(st.just("adopt"), st.frozensets(st.integers(1, 12)), st.frozensets(st.integers(1, 12))),
        st.tuples(st.just("forget")),
        st.tuples(st.just("prepare"), st.integers(1, 12)),
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(OPS)
def test_digest_index_follows_the_records(ops):
    store = BatchStore()
    digests = iter(range(10_000))  # every record gets a digest of its own
    seen: list[BatchRecord] = []

    def fresh(seqno: int, view: int = 0) -> BatchRecord:
        made = BatchRecord(seqno=seqno, view=view, flags=0, committed=bool(seqno % 2),
                           pp_digest=next(digests).to_bytes(8, "big"))
        seen.append(made)
        # An early prepare under the digest, before the record is held.
        store.add_prepare(prepare(made.pp_digest))
        return made

    for op in ops:
        if op[0] == "install" and op[1] not in store:  # a slot is installed free
            store.install(fresh(op[1], op[2]))
        elif op[0] == "remove_above":
            store.remove_above(op[1])
        elif op[0] == "release_below":
            store.release_below(op[1], set(op[2]))
        elif op[0] == "adopt":
            kept = [store[s] for s in sorted(op[1]) if s in store]
            new = [fresh(s) for s in sorted(op[2] - {r.seqno for r in kept})]
            store.adopt(sorted(kept + new, key=lambda r: r.seqno))
        elif op[0] == "forget":
            store.forget_messages()
        elif op[0] == "prepare" and op[1] in store:
            store.add_prepare(prepare(store[op[1]].pp_digest, replica=2))
        held = {id(r) for r in store.values()}
        for made in seen:  # every one was indexed once
            if id(made) in held:
                assert store.by_digest(made.pp_digest) is made
            else:
                assert store.by_digest(made.pp_digest) is None
                assert made.pp_digest not in store.prepares_by_ppd
        assert len(store.digest_index) == len(store)


# -- the replica keeps the "already prepared (v, s)" guard across a rollback ---------------


def test_rolled_back_slot_is_not_prepared_twice():
    """A backup prepared (0, 1), and a view-change rollback dropped the
    batch.  The pre-prepare for (0, 1), delivered again, is consumed
    without a second prepare: the own nonce for the slot outlives its
    record (Alg. 1 line 16)."""
    params = ProtocolParams(pipeline=2, max_batch=20, checkpoint_interval=10, batch_delay=0.0005)
    dep = build_deployment(params=params, accounts=20)
    client = dep.add_client()
    primary, backup = dep.primary(), dep.replicas[1]
    req = TransactionRequest(
        procedure="smallbank.balance", args={"customer": 1}, client=client.keypair.public_key,
        service=dep.service_name, min_index=0, nonce=1)
    req = req.with_signature(client.backend.sign(client.keypair, req.signed_payload()))
    for replica in (primary, backup):
        replica.handle_request(client.address, ("request", req.to_wire()), force=True)
    primary.maybe_send_pre_prepare()
    pp = primary.batches[1].pp
    payload, _ = pre_prepare_payload(pp, (req.request_digest(),))

    with mock.patch.object(backup, "send", wraps=backup.send) as sent:
        backup.handle_pre_prepare(primary.address, payload)
        assert backup.batches.pre_prepared(0, 1) is not None
        prepares = sum(call.args[1][0] == "prepare" for call in sent.call_args_list)
        assert prepares == len(backup.peer_addresses())
        nonce = backup.batches.own_nonces[(0, 1)]

        backup.views.rollback_to_batch(0)
        assert 1 not in backup.batches and req.request_digest() in backup.admission
        assert pp.digest() not in backup.batches.prepares_by_ppd

        backup.handle_pre_prepare(primary.address, payload)
    assert not backup.pending_pps  # consumed, not stashed
    assert 1 not in backup.batches and backup.batches.own_nonces[(0, 1)] is nonce
    assert sum(call.args[1][0] == "prepare" for call in sent.call_args_list) == prepares
    assert backup.metrics.counters["batches_accepted"] == 1


# -- what the store builds from a slot's messages ------------------------------------------

PRIMARY = 0
CONFIG = SimpleNamespace(quorum=3, primary_for_view=lambda view: PRIMARY)


def slot(nonces: set[int], prepares: set[int], own: bool = True) -> BatchStore:
    """The store's slot (0, 7): its record signed by the primary, the
    commit nonces of ``nonces``, the prepares of ``prepares`` and, with
    ``own``, this replica's own nonce."""
    store = BatchStore()
    store.install(record(7))
    store[7].pp = SimpleNamespace(signature=b"pp-sig")
    for r in prepares:
        store.add_prepare(prepare(digest(7), replica=r).with_signature(b"sig-%d" % r))
    store.commit_nonces[(0, 7)] = {r: b"n%d" % r for r in nonces}
    if own:
        store.own_nonces[(0, 7)] = new_nonce(b"own")
    return store


# nonces, prepares, given bitmap -> chosen signers (None: no evidence)
EVIDENCE = [
    ("primary's choice", {0, 1, 2, 3}, {1, 2, 3}, None, [0, 1, 2]),
    ("skips a nonce without a prepare", {0, 1, 2, 3}, {2, 3}, None, [0, 2, 3]),
    ("no primary nonce", {1, 2, 3}, {1, 2, 3}, None, None),
    ("below quorum", {0, 1, 3}, {1}, None, None),
    ("given bitmap", {0, 1, 2, 3}, {1, 2, 3}, bitmap_of([0, 1, 3]), [0, 1, 3]),
    ("chosen signer without a nonce", {0, 1, 2}, {1, 2, 3}, bitmap_of([0, 1, 3]), None),
    ("chosen signer without a prepare", {0, 1, 2, 3}, {1, 2}, bitmap_of([0, 1, 3]), None),
]


@pytest.mark.parametrize("nonces, prepares, bitmap, chosen", [case[1:] for case in EVIDENCE],
                         ids=[case[0] for case in EVIDENCE])
def test_evidence(nonces, prepares, bitmap, chosen):
    store = slot(nonces, prepares)
    built = store.evidence(7, CONFIG, bitmap)
    signers = store.evidence_signers(7, CONFIG, bitmap)
    if chosen is None:
        assert built is None and signers is None
        return
    assert signers == bitmap_of(chosen)
    evidence, ks = built
    assert (evidence.seqno, evidence.view, ks.seqno, ks.view) == (7, 0, 7, 0)
    assert bitmap_members(ks.bitmap) == chosen
    assert ks.nonces == tuple(b"n%d" % r for r in chosen)
    assert [(p.replica, p.signature) for p in evidence.prepares()] == [
        (r, b"sig-%d" % r) for r in chosen if r != PRIMARY]
    assert store.evidence(8, CONFIG) is None  # no record


def test_signer_is_the_pre_prepare_for_the_primary_else_the_prepare():
    store = slot({0, 1}, {1})
    assert store.signer(store[7], PRIMARY, PRIMARY) is store[7].pp
    assert store.signer(store[7], 1, PRIMARY) is store.prepares_by_ppd[digest(7)][1]
    assert store.signer(store[7], 2, PRIMARY) is None


# replica, prepares held, own nonce -> the reply's signature (None: no reply)
REPLIES = [
    ("primary signs with its pre-prepare", PRIMARY, set(), True, b"pp-sig"),
    ("backup signs with its prepare", 1, {1}, True, b"sig-1"),
    ("backup without its own prepare", 2, {1}, True, None),
    ("no own nonce", PRIMARY, set(), False, None),
]


@pytest.mark.parametrize("replica, prepares, own, signature", [case[1:] for case in REPLIES],
                         ids=[case[0] for case in REPLIES])
def test_reply(replica, prepares, own, signature):
    store = slot({0}, prepares, own)
    reply = store.reply(store[7], replica, CONFIG)
    if signature is None:
        assert reply is None
        return
    assert (reply.view, reply.seqno, reply.replica) == (0, 7, replica)
    assert (reply.signature, reply.nonce) == (signature, store.own_nonces[(0, 7)].nonce)


@pytest.fixture(scope="module")
def collected():
    """An honest run whose ledger is never truncated, so early batches
    are collected from the batch store but stay in the ledger."""
    params = ProtocolParams(
        pipeline=2, max_batch=20, checkpoint_interval=4, batch_delay=0.0005,
        view_change_timeout=2.0, ledger_gc_min_age=math.inf)
    dep = build_deployment(params=params, seed=b"cp-led")
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    run_waves(dep, client, waves=12, per_wave=25, gap=0.25)
    return dep, client


@pytest.mark.parametrize("held", [True, False], ids=["record", "ledger"])
def test_get_replyx_in_a_checkpoint_led_batch(collected, held):
    """In a batch led by a checkpoint transaction a request's position
    is one past its place among the batch's requests: the replyx is
    served from the entry at its logical index minus the batch's first,
    on the held record and on the ledger, and makes a receipt that
    verifies."""
    dep, client = collected
    replica = dep.replicas[1]
    tx_digest, located = next(
        (d, located) for d, located in replica.tx_locations.items()
        if (split_location(located)[0] in replica.batches) == held
        and isinstance(replica.ledger.batch_entries(split_location(located)[0])[0], CheckpointTxEntry)
        and split_location(located)[0] <= replica.committed_upto)
    seqno, index = split_location(located)
    found, position = replica.batches.executed(tx_digest, located, replica.ledger)
    assert position >= 1 and (found is replica.batches.get(seqno)) == held
    with mock.patch.object(replica, "send") as sent:
        replica.on_message(client.address, ("get-replyx", tx_digest))
    (dst, (kind, wire), *_), _ = sent.call_args
    assert (dst, kind) == (client.address, "replyx")
    replyx = ReplyX.from_wire(wire)
    assert (replyx.seqno, replyx.index, replyx.tx_digest) == (seqno, index, tx_digest)
    kept = client.receipts[tx_digest]
    receipt = Receipt(kept.request_wire, replyx.index, codec.encoding_of(replyx.output), MerklePath.from_wire(replyx.path),
                      kept.certificate)
    assert verify_receipt(receipt, dep.genesis_config, dep.backend)
    assert replica.batches.executed(bytes(32), located, replica.ledger) is None  # another digest


def test_a_reply_goes_to_the_address_of_its_clients_first_request(collected):
    """One reply per client lists its transactions of the batch and goes
    where the first of them came from.  A request fetched from the
    primary has no address of its own and rides with its client's
    first; while the first has none, the client gets no reply."""
    dep, client = collected
    replica = dep.replicas[1]
    record = next(r for r in replica.batches.values() if r.request_count() >= 3)
    requests = tuple(d for d in record.tx_digests if d is not None)
    assert replica.batches.reply_groups(record) == [(client.address, requests)]
    first, second = (record.tx_digests.index(d) for d in requests[:2])
    saved = list(record.sources)
    try:
        record.sources[second] = None
        assert replica.batches.reply_groups(record) == [(client.address, requests)]
        record.sources[first] = None
        assert replica.batches.reply_groups(record) == []
    finally:
        record.sources[:] = saved


def test_a_record_held_past_the_ledgers_collection_takes_tree_g_from_its_run():
    """A committed record holds no tree G; while the ledger has its batch
    the tree is the ledger's, and once the ledger collected the batch (a
    governance batch stays pinned for its receipts) it is built from the
    record's own run.  Either way it is the tree the pre-prepare signed."""
    params = ProtocolParams(
        pipeline=2, max_batch=20, checkpoint_interval=4, batch_delay=0.0005,
        view_change_timeout=2.0, ledger_gc_min_age=math.inf)
    dep = build_deployment(params=params, seed=b"pinned-g")
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    run_waves(dep, client, waves=2, per_wave=25, gap=0.25)
    replica = dep.replicas[1]
    ledger = replica.ledger
    record = next(r for r in replica.batches.values() if r.committed and r.request_count())
    assert record.g_tree is None
    assert replica.batches.g_tree(record, ledger) is ledger.g_tree(ledger.batch(record.seqno))
    ledger.truncate_below(ledger.batch(record.seqno).end)
    assert ledger.batch(record.seqno) is None
    tree = replica.batches.g_tree(record, ledger)
    assert len(tree) == len(record.run) and tree.root() == record.pp.root_g
