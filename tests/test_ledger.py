"""Ledger entries, append/truncate, fragments, and batch indexing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import codec
from repro.errors import LedgerError
from repro.crypto import generate_keypair, default_backend
from repro.ledger import (
    CheckpointTxEntry,
    EvidenceEntry,
    GenesisEntry,
    Ledger,
    LedgerFragment,
    NewViewEntry,
    NoncesEntry,
    PrePrepareEntry,
    TxEntry,
    ViewChangesEntry,
    entry_from_wire,
)
from repro.lpbft.messages import PrePrepare, Prepare, TransactionRequest
from repro.merkle import MerkleTree


def make_request(n=0):
    kp = generate_keypair(b"client")
    req = TransactionRequest(
        procedure="p", args={"n": n}, client=kp.public_key,
        service=b"\x01" * 32, min_index=0, nonce=n,
    )
    return req.with_signature(default_backend().sign(kp, req.signed_payload()))


def make_pp(view=0, seqno=1, **kw):
    fields = dict(
        view=view, seqno=seqno, root_m=b"\x02" * 32, root_g=b"\x03" * 32,
        nonce_commitment=b"\x04" * 32, evidence_bitmap=0, gov_index=0,
        checkpoint_digest=b"\x05" * 32,
    )
    fields.update(kw)
    return PrePrepare(**fields)


class TestEntries:
    def test_genesis_service_name_is_digest(self):
        entry = GenesisEntry(config_wire=("configuration", 0, (), (), 1))
        assert entry.service_name() == entry.digest()

    @pytest.mark.parametrize(
        "entry",
        [
            GenesisEntry(config_wire=("c",)),
            TxEntry(request_wire=make_request().to_wire(), index=3, output={"reply": 1, "ws": b"\x00" * 32}),
            CheckpointTxEntry(cp_seqno=10, cp_digest=b"\x06" * 32, ledger_size=40, ledger_root=b"\x07" * 32, index=5),
            EvidenceEntry(seqno=4, view=0, prepare_wires=(Prepare(1, b"\x08" * 32, b"\x09" * 32, b"sig").to_wire(),)),
            NoncesEntry(seqno=4, view=0, bitmap=0b111, nonces=(b"\x0a" * 32,) * 3),
            PrePrepareEntry(pp_wire=make_pp().to_wire()),
        ],
        ids=["genesis", "tx", "checkpoint-tx", "evidence", "nonces", "pre-prepare"],
    )
    def test_wire_roundtrip(self, entry):
        again = entry_from_wire(entry.to_wire())
        assert again == entry
        assert again.digest() == entry.digest()

    def test_unknown_tag_rejected(self):
        with pytest.raises(LedgerError):
            entry_from_wire(("bogus", 1))

    def test_malformed_entry_rejected(self):
        with pytest.raises(LedgerError):
            entry_from_wire(("tx",))

    def test_tx_entry_tio(self):
        req = make_request()
        entry = TxEntry(request_wire=req.to_wire(), index=7, output={"reply": "ok", "ws": b"\x00" * 32})
        t, i, o = entry.tio()
        assert t == req.to_wire() and i == 7

    def test_encoded_size_positive(self):
        assert GenesisEntry(config_wire=("c",)).encoded_size() > 0


class TestLedger:
    def build(self, n_batches=3, txs_per_batch=2):
        ledger = Ledger(GenesisEntry(config_wire=("c",)))
        counter = 0
        for s in range(1, n_batches + 1):
            ledger.append(PrePrepareEntry(pp_wire=make_pp(seqno=s).to_wire()))
            for _ in range(txs_per_batch):
                counter += 1
                ledger.append(
                    TxEntry(
                        request_wire=make_request(counter).to_wire(),
                        index=len(ledger),
                        output={"reply": counter, "ws": b"\x00" * 32},
                    )
                )
        return ledger

    def test_append_and_index(self):
        ledger = self.build()
        assert len(ledger) == 1 + 3 * 3
        assert ledger.last_seqno() == 3
        info = ledger.batch(2)
        assert info.tx_count == 2
        assert ledger.batch_pre_prepare(2).seqno == 2

    def test_batch_entries(self):
        ledger = self.build()
        entries = ledger.batch_entries(1)
        assert len(entries) == 2
        assert all(isinstance(e, TxEntry) for e in entries)

    def test_root_changes_per_append(self):
        ledger = Ledger(GenesisEntry(config_wire=("c",)))
        r0 = ledger.root()
        ledger.append(PrePrepareEntry(pp_wire=make_pp().to_wire()))
        assert ledger.root() != r0

    def test_root_at_history(self):
        ledger = self.build()
        full_root = ledger.root()
        mid = ledger.root_at(4)
        assert mid != full_root
        assert ledger.root_at(len(ledger)) == full_root

    def test_truncate_removes_batches(self):
        ledger = self.build(n_batches=3)
        size_after_two = ledger.batch(2).end
        removed = ledger.truncate(size_after_two)
        assert ledger.last_seqno() == 2
        assert len(removed) == 3  # pp + 2 txs of batch 3
        assert ledger.batch(3) is None

    def test_truncate_bad_size(self):
        with pytest.raises(LedgerError):
            self.build().truncate(999)

    def test_out_of_range_entry(self):
        with pytest.raises(LedgerError):
            self.build().entry(999)

    def test_unknown_batch(self):
        with pytest.raises(LedgerError):
            self.build().batch_entries(9)


def _reproposed(tamper_v0=False):
    """genesis, pp(v0, s1), tx, view-changes, new-view, pp(v1, s1), tx,
    each pre-prepare signing the real root_m and root_g.  With
    ``tamper_v0`` the v0 batch's transaction is swapped after its
    pre-prepare signed it (the v1 batch, appended after, stays bound)."""
    ledger = Ledger(GenesisEntry(config_wire=("c",)))

    def batch(view, tx):
        root_g = MerkleTree([tx.leaf_digest()]).root()
        pp = make_pp(view=view, seqno=1, root_m=ledger.root(), root_g=root_g)
        ledger.append(PrePrepareEntry(pp_wire=pp.to_wire()))

    batch(0, _tx("p", 2))
    ledger.append(_tx("p", 2) if not tamper_v0 else _tx("tampered", 2))
    ledger.append(ViewChangesEntry(view=1, vc_wires=()))
    ledger.append(NewViewEntry(nv_wire=("new-view", 1)))
    batch(1, _tx("p", 3))
    ledger.append(_tx("p", 3))
    return ledger


class TestReproposedSeqno:
    """A seqno pre-prepared again in a higher view (which
    ``ledger/wellformed.py`` accepts) keeps a batch per pre-prepare."""

    def test_both_batches_listed_in_ledger_order(self):
        ledger = _reproposed()
        assert [(b.seqno, b.view, b.pp_index, b.tx_count) for b in ledger.batches()] == [
            (1, 0, 1, 1), (1, 1, 5, 1)]
        assert ledger.batch(1).view == 1 and ledger.batch_pre_prepare(1).view == 1
        assert [ledger.pre_prepare(b).view for b in ledger.batches()] == [0, 1]
        assert ledger.last_seqno() == ledger.oldest_retained_seqno() == 1
        assert ledger.unbound() == []

    @pytest.mark.parametrize("decoded", [False, True])
    def test_tampered_older_batch_is_unbound(self, decoded):
        ledger = _reproposed(tamper_v0=True)
        if decoded:  # as the auditor and a state-sync client hold it
            ledger = ledger.fragment().to_ledger()
        assert ledger.unbound() == [
            (1, "batch 1: its entries do not reproduce the signed root_g")]

    def test_rollback_past_the_newer_batch_finds_the_older(self):
        ledger = _reproposed()
        ledger.truncate(ledger.batch(1).pp_index)
        assert [(b.seqno, b.view) for b in ledger.batches()] == [(1, 0)]
        assert ledger.batch(1).view == 0 and ledger.batch_pre_prepare(1).view == 0
        ledger.truncate(1)
        assert ledger.batches() == [] and ledger.batch(1) is None


class TestFragments:
    def test_fragment_roundtrip(self):
        ledger = TestLedger().build()
        frag = ledger.fragment(0)
        entries = frag.entries()
        assert len(entries) == len(ledger)
        assert entries[0] == ledger.entry(0)

    def test_fragment_to_ledger(self):
        ledger = TestLedger().build()
        again = ledger.fragment(0).to_ledger()
        assert again.root() == ledger.root()
        assert again.last_seqno() == ledger.last_seqno()

    def test_partial_fragment_cannot_materialize(self):
        ledger = TestLedger().build()
        with pytest.raises(LedgerError):
            ledger.fragment(2).to_ledger()

    def test_fragment_entry_by_absolute_index(self):
        ledger = TestLedger().build()
        frag = ledger.fragment(2, 6)
        assert frag.entry(3) == ledger.entry(3)
        with pytest.raises(LedgerError):
            frag.entry(0)

    def test_bad_range(self):
        with pytest.raises(LedgerError):
            TestLedger().build().fragment(5, 2)

    def test_gov_index_tracking(self):
        ledger = Ledger(GenesisEntry(config_wire=("c",)))
        assert ledger.last_gov_index == 0
        ledger.append(PrePrepareEntry(pp_wire=make_pp().to_wire()))
        kp = generate_keypair(b"m")
        gov_req = TransactionRequest(
            procedure="gov.vote", args={}, client=kp.public_key,
            service=b"\x01" * 32, min_index=0, nonce=1,
        )
        ledger.append(TxEntry(request_wire=gov_req.to_wire(), index=2, output={}))
        assert ledger.last_gov_index == 2
        assert ledger.governance_indices() == [0, 2]


# -- rollback and prefix GC against a ledger rebuilt from scratch ------------------


def _tx(procedure, index):
    request = TransactionRequest(
        procedure=procedure, args={}, client=b"\x0c" * 32,
        service=b"\x01" * 32, min_index=0, nonce=index,
    )
    return TxEntry(request_wire=request.to_wire(), index=index,
                   output={"reply": index, "ws": b"\x00" * 32})


class _History:
    """Every entry a ledger has ever held and not rolled back, from
    genesis: the ledger rebuilt from scratch is these entries appended
    to an empty one."""

    def __init__(self):
        self.entries = [GenesisEntry(config_wire=("c",))]
        self.seqno = 0

    def rebuilt(self):
        ledger = Ledger()
        for entry in self.entries:
            ledger.append(entry)
        return ledger

    def add_batch(self, gov_flags, view_change, ledgers, repropose=False):
        """Append one batch (after a view change's two entries, if asked,
        and then under the last seqno again if ``repropose``) to the
        history and to every ledger of ``ledgers``."""
        reference = self.rebuilt()
        if not (view_change and repropose and self.seqno):
            self.seqno += 1
        group = [ViewChangesEntry(view=self.seqno, vc_wires=()),
                 NewViewEntry(nv_wire=("new-view", self.seqno))] if view_change else []
        group.append(PrePrepareEntry(pp_wire=make_pp(
            seqno=self.seqno, gov_index=reference.last_gov_index).to_wire()))
        logical = reference.logical_size() + 1
        for k, gov in enumerate(gov_flags):
            group.append(_tx("gov.vote" if gov else "p", logical + k))
        self.entries += group
        for ledger in ledgers:
            for entry in group:
                ledger.append(entry)


def _encoded_pairs(pairs):
    return [(i, codec.encode(wire)) for i, wire in pairs]


def _check_rebuilt(ledger, history, first_logical):
    """``ledger`` (possibly garbage-collected, possibly rooted at a
    suffix whose first logical index is ``first_logical``) answers as the
    ledger rebuilt from ``history``."""
    reference = history.rebuilt()
    assert len(ledger) == len(reference) and ledger.root() == reference.root()
    assert ledger.logical_size() == reference.logical_size()
    assert ledger.last_gov_index == reference.last_gov_index
    for anchor in (-1, 0, ledger.logical_base, ledger.logical_size() // 2):
        expected = [(i, w) for i, w in reference.gov_entries_after(anchor) if i >= first_logical]
        assert _encoded_pairs(ledger.gov_entries_after(anchor)) == _encoded_pairs(expected)
    for i in range(ledger.logical_base, ledger.logical_size()):
        assert codec.encode(ledger.entry_at_index(i).to_wire()) == codec.encode(
            reference.entry_at_index(i).to_wire())
    for outside in (ledger.logical_base - 1, ledger.logical_size()):
        if outside >= 0:
            with pytest.raises(LedgerError):
                ledger.entry_at_index(outside)
    assert ledger.batches() == [b for b in reference.batches() if b.pp_index >= ledger.base_index]
    # The governance sub-ledger's entries, read off the indices, are the
    # ones a walk of the retained entries finds.
    walked = [
        (i, codec.encode(entry.to_wire()))
        for i, entry in enumerate(reference.entries())
        if i >= ledger.base_index and (
            isinstance(entry, (GenesisEntry, PrePrepareEntry))
            or (isinstance(entry, TxEntry) and entry.is_governance()))
    ]
    assert [(i, codec.encode(e.to_wire())) for i, e in ledger.governance_entries()] == walked
    for info in ledger.batches():  # a seqno answers with its newest batch
        assert ledger.batch(info.seqno) is [b for b in ledger.batches() if b.seqno == info.seqno][-1]
    assert ledger.last_seqno() == (reference.last_seqno() if ledger.batches() else 0)


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.lists(st.booleans(), max_size=3), st.booleans(), st.booleans()),
        st.tuples(st.just("truncate"), st.integers(0, 1000)),
        st.tuples(st.just("truncate_below"), st.integers(0, 1000)),
    ),
    max_size=14,
)


@settings(max_examples=150, deadline=None)
@given(
    prefix=st.lists(st.lists(st.booleans(), min_size=1, max_size=3), min_size=1, max_size=4),
    suffix_at=st.one_of(st.none(), st.integers(0, 1000)),
    ops=_OPS,
)
def test_property_rollback_and_gc_match_a_rebuilt_ledger(prefix, suffix_at, ops):
    """Random appends (with governance transactions, view changes and
    seqnos re-proposed after one),
    rollbacks (``truncate``) and prefix GC (``truncate_below``), on a
    genesis-rooted or a suffix-rooted ledger, each checked against the
    ledger rebuilt from every entry not rolled back."""
    history = _History()
    ledger = Ledger(history.entries[0])
    for gov_flags in prefix:
        history.add_batch(gov_flags, False, [ledger])
    first_logical = 0
    if suffix_at is not None:
        # Born at a batch boundary from tree M's frontier there, holding
        # only the suffix (every prefix batch has a transaction to anchor it).
        starts = [b.pp_index for b in ledger.batches()]
        start = starts[suffix_at % len(starts)]
        ledger = ledger.fragment(start).to_ledger(ledger.tree().frontier_at(start))
        first_logical = ledger.logical_base
    _check_rebuilt(ledger, history, first_logical)
    for op in ops:
        base, size = ledger.base_index, len(ledger)
        if op[0] == "append":
            history.add_batch(op[1], op[2], [ledger], repropose=op[3])
        elif op[0] == "truncate":
            cut = base + op[1] % (size - base + 1)
            removed = ledger.truncate(cut)
            assert [codec.encode(e.to_wire()) for e in removed] == [
                codec.encode(e.to_wire()) for e in history.entries[cut:]]
            del history.entries[cut:]
        else:
            # Prefix GC happens only on a boundary no batch straddles.
            boundaries = sorted({size, *(b.pp_index for b in ledger.batches()),
                                 *(b.end for b in ledger.batches())})
            ledger.truncate_below(boundaries[op[1] % len(boundaries)])
        _check_rebuilt(ledger, history, first_logical)


@pytest.mark.parametrize(
    "procedure", ["smallbank.send_payment", "gov.propose", "gov", "go", "", "g" * 200, "gov." + "x" * 200])
def test_governance_test_reads_a_packed_request_like_a_decoded_one(procedure):
    """``TxEntry.is_governance`` compares a packed request's bytes; it
    answers as the sealed and the decoded wire do, names of 128 bytes and
    more included."""
    from repro.ledger import TxEntry

    wire = TransactionRequest(procedure, {"a": 1}, b"c" * 32, b"s" * 32, 0, 1, b"x" * 64).to_wire()
    forms = (wire, codec.pack(wire), codec.decode(wire.wire_bytes))
    answers = {TxEntry(request_wire=t, index=1, output=None).is_governance() for t in forms}
    assert answers == {procedure.startswith("gov.")}


_BATCHES = st.lists(
    st.tuples(
        st.booleans(),  # a checkpoint transaction leads the batch
        st.integers(0, 4),  # regular transactions
        st.booleans(),  # a governance transaction ends it
        st.booleans(),  # appended as execution does (one run), else entry by entry
        st.one_of(st.none(), st.tuples(st.sampled_from(["truncate", "truncate_below"]), st.integers(0, 1000))),
    ),
    min_size=1, max_size=7,
)


@settings(max_examples=150, deadline=None)
@given(batches=_BATCHES)
def test_property_run_views_equal_the_entries_appended(batches):
    """A ledger packs each batch's transaction entries into a run; every
    entry read back is a view whose wire form, M leaf and G leaf are
    those of the entry appended, and fragments encode the same bytes —
    through rollbacks (mid-run ones included) and prefix truncation."""
    from repro.ledger import TxRun

    appended = [GenesisEntry(config_wire=("c",))]  # by absolute position
    ledger = Ledger(appended[0])
    seqno = 0
    for leads, count, gov, executed, cut in batches:
        seqno += 1
        pp = PrePrepareEntry(pp_wire=make_pp(seqno=seqno, gov_index=ledger.last_gov_index).to_wire())
        ledger.append(pp)
        first = ledger.logical_size()
        body = [CheckpointTxEntry(cp_seqno=seqno - 1, cp_digest=bytes([seqno]) * 32, ledger_size=len(ledger) - 1,
                                  ledger_root=b"\x07" * 32, index=first)] if leads else []
        body += [_tx("p", first + len(body) + k) for k in range(count)]
        body += [_tx("gov.vote", first + len(body))] if gov else []
        if executed:
            run = TxRun(first)
            ledger.append_run(run, [run.add_entry(entry)[0] for entry in body])
        else:
            for entry in body:
                ledger.append(entry)
        appended += [pp, *body]
        if cut is not None and cut[0] == "truncate":
            size = ledger.base_index + cut[1] % (len(ledger) - ledger.base_index + 1)
            ledger.truncate(max(size, 1))
            del appended[max(size, 1):]
        elif cut is not None:
            boundaries = sorted({len(ledger), *(b.pp_index for b in ledger.batches())})
            ledger.truncate_below(boundaries[cut[1] % len(boundaries)])
        base = ledger.base_index
        assert len(ledger) == len(appended)
        for position in range(base, len(ledger)):
            view, entry = ledger.entry(position), appended[position]
            assert type(view) is type(entry)
            assert codec.encode(view.to_wire()) == codec.encode(entry.to_wire())
            assert view.digest() == entry.digest() == ledger.tree().leaf(position)
            if isinstance(entry, (TxEntry, CheckpointTxEntry)):
                assert view.leaf_digest() == entry.leaf_digest()
        assert codec.encode(ledger.fragment().entry_wires) == codec.encode(
            tuple(entry.to_wire() for entry in appended[base:]))
        for info in ledger.batches():
            leaves = [appended[p].leaf_digest() for p in range(info.first_tx, info.end)]
            assert ledger.g_tree(info).leaves() == leaves
            assert len(ledger.batch_run(info)) == info.tx_count
