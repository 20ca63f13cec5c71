"""Wire forms: every protocol record's bytes pinned, every parse total.

A record's wire form is a protocol decision: it is signed, logged and
Merkle-hashed (paper §3.1, Fig. 3).  Each record class has one fixed
instance below, whose encoding and signed payload are pinned by SHA-256,
so a byte change shows here before any fingerprint moves.  Every class
in ``repro`` with a ``from_wire`` is found by introspection: it must have
a pinned instance, read its own wire form back, and, fed anything a peer
could send, return a record or raise a :class:`~repro.errors.ReproError`.
"""

import hashlib
import importlib
import inspect
import pkgutil

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import codec
from repro.audit.package import LedgerPackage
from repro.errors import LedgerError, ProtocolError, ReproError
from repro.governance.configuration import Configuration, MemberInfo, ReplicaInfo
from repro.governance.schedule import ConfigSchedule, ConfigSpan
from repro.governance.subledger import GovernanceSubLedger
from repro.kvstore import Checkpoint, Snapshot
from repro.ledger import (
    CheckpointTxEntry,
    EvidenceEntry,
    GenesisEntry,
    LedgerFragment,
    NewViewEntry,
    NoncesEntry,
    PrePrepareEntry,
    TxEntry,
    ViewChangesEntry,
    entry_from_wire,
)
from repro.lpbft.messages import (
    Commit,
    NewView,
    Prepare,
    PrePrepare,
    Reply,
    ReplyX,
    TransactionRequest,
    ViewChange,
)
from repro.merkle import MerklePath, MerkleTree
from repro.receipts.chain import GovernanceChain, GovernanceLink
from repro.receipts.receipt import Certificate, Receipt
from repro.statesync.messages import SyncManifest, SyncOffer


def _d(n: int) -> bytes:
    return bytes([n]) * 32


def _config(number: int) -> Configuration:
    members = tuple(MemberInfo(f"m{i}", b"\x03" + _d(40 + i)) for i in range(3))
    replicas = tuple(
        ReplicaInfo(i, b"\x02" + _d(50 + i), f"m{i % 3}", bytes([60 + i]) * 64) for i in range(4))
    return Configuration(number=number, members=members, replicas=replicas, vote_threshold=2)


def _receipt(request: TransactionRequest, path: MerklePath) -> Receipt:
    certificate = Certificate(
        view=1, seqno=12, root_m=_d(20), primary_nonce_commitment=_d(21), evidence_bitmap=0b1101,
        gov_index=3, checkpoint_digest=_d(22), flags=0, committed_root=b"",
        primary_signature=b"\x07" * 64, signer_bitmap=0b0111,
        prepare_signatures=(b"\x08" * 64, b"\x09" * 64), nonces=(_d(23), _d(24), _d(25)))
    return Receipt(request.to_wire(), 17, codec.encode({"reply": {"ok": True}, "ws": _d(26)}), path, certificate)


def records() -> dict[str, object]:
    """One fixed instance of every record class, by class name."""
    request = TransactionRequest(
        procedure="transact_savings", args={"account": "a17", "amount": 5},
        client=b"\x02" + _d(1), service=_d(2), min_index=3, nonce=7, signature=b"\x04" * 64)
    pp = PrePrepare(
        view=1, seqno=12, root_m=_d(5), root_g=_d(6), nonce_commitment=_d(7), evidence_bitmap=0b1011,
        gov_index=4, checkpoint_digest=_d(8), flags=1, committed_root=_d(9), signature=b"\x0a" * 64)
    prepare = Prepare(replica=2, nonce_commitment=_d(11), pp_digest=pp.digest(), signature=b"\x0b" * 64)
    view_change = ViewChange(view=2, replica=3, prepared=(pp.to_wire(),), signature=b"\x0c" * 64)
    new_view = NewView(view=2, root_m=_d(12), vc_bitmap=0b1110, vc_digest=_d(13), signature=b"\x0d" * 64)
    tree = MerkleTree([_d(30 + i) for i in range(5)])
    path = tree.path(2)
    config = _config(0)
    schedule = ConfigSchedule([
        ConfigSpan(config=config, start_seqno=1, start_index=0),
        ConfigSpan(config=_config(1), start_seqno=9, start_index=40),
    ])
    genesis = GenesisEntry(config_wire=config.to_wire())
    evidence = EvidenceEntry(seqno=10, view=1, prepare_wires=(prepare.to_wire(),))
    nonces = NoncesEntry(seqno=10, view=1, bitmap=0b101, nonces=(_d(14), _d(15)))
    subledger = GovernanceSubLedger(entries=[(0, genesis.to_wire())], schedule=schedule, reconfigs=[])
    receipt = _receipt(request, path)
    link = GovernanceLink(propose_receipt=receipt, vote_receipts=(receipt, receipt), eoc_receipt=receipt)
    checkpoint = Checkpoint(10, Snapshot({"a17": 40, "b3": 2}), 40, _d(16))
    made = [
        request,
        pp,
        prepare,
        Commit(view=1, seqno=12, replica=2, nonce=_d(17)),
        Reply(view=1, seqno=12, replica=2, signature=b"\x0e" * 64, nonce=_d(17)),
        ReplyX(
            **pp.receipt_fields(), tx_digest=request.request_digest(), index=17,
            output={"reply": {"ok": True}, "ws": _d(26)}, path=path.to_wire()),
        view_change,
        new_view,
        SyncOffer(cp_seqno=10, cp_digest=_d(16), cp_ledger_size=40, cp_ledger_root=_d(18),
                  n_chunks=3, tip_seqno=12, view=1),
        SyncManifest(cp_seqno=10, cp_digest=_d(16), cp_ledger_size=40, cp_ledger_root=_d(18),
                     chunk_digests=(_d(27), _d(28)), frontier=((5, _d(29)), (3, _d(30)))),
        genesis,
        TxEntry(request_wire=request.to_wire(), index=17, output={"reply": {"ok": True}, "ws": _d(26)}),
        CheckpointTxEntry(cp_seqno=10, cp_digest=_d(16), ledger_size=40, ledger_root=_d(18), index=18),
        evidence,
        nonces,
        PrePrepareEntry(pp_wire=pp.to_wire()),
        ViewChangesEntry(view=2, vc_wires=(view_change.to_wire(),)),
        NewViewEntry(nv_wire=new_view.to_wire()),
        path,
        receipt,
        checkpoint,
        config.members[0],
        config.replicas[0],
        config,
        schedule.spans()[1],
        schedule,
        subledger,
        link,
        GovernanceChain(genesis_config_wire=config.to_wire(), links=(link,)),
        LedgerPackage(
            fragment=LedgerFragment(start=0, entry_wires=(genesis.to_wire(), evidence.to_wire())),
            checkpoint=checkpoint, subledger=subledger, source_replica=1,
            extra_evidence={10: (evidence.to_wire(), nonces.to_wire())}, frontier=((3, _d(31)),)),
    ]
    return {type(x).__name__: x for x in made}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def fingerprints() -> dict[str, tuple[str, str | None]]:
    """Class name -> (SHA-256 prefix of the encoded wire form, of the
    signed payload or None)."""
    out = {}
    for name, record in records().items():
        signed = getattr(record, "signed_payload", None)
        out[name] = (_sha(codec.encode(record.to_wire())), None if signed is None else _sha(signed()))
    return out


# Taken from the parent of the change that gave every record one wire rule.
GOLDEN = {
    "Checkpoint": ("3ead9c58ba1ad7a9", None),
    "CheckpointTxEntry": ("4dc48756f88d3b14", None),
    "Commit": ("ac877351c6d130a6", None),
    "ConfigSchedule": ("722894cb281a64f9", None),
    "ConfigSpan": ("f8c0e071bbb3e72b", None),
    "Configuration": ("60949256d626e85e", None),
    "EvidenceEntry": ("a589f87881b51e53", None),
    "GenesisEntry": ("90fabff2fd1cea1c", None),
    "GovernanceChain": ("a041bc3ee0362aab", None),
    "GovernanceLink": ("1f082b92503986fd", None),
    "GovernanceSubLedger": ("82db9f860fd5965c", None),
    "LedgerPackage": ("e0b6371c799b2a84", None),
    "MemberInfo": ("5ad78dd25613f83b", None),
    "MerklePath": ("f1f36a8ae967735e", None),
    "NewView": ("94f29e8a399ed950", "945950a6ae027c7b"),
    "NewViewEntry": ("755274c92c482a3b", None),
    "NoncesEntry": ("ad1e72dc3fe49396", None),
    "PrePrepare": ("f367429cf680e857", "a254179aa188c9c3"),
    "PrePrepareEntry": ("6cef0d7a8c1f691a", None),
    "Prepare": ("ba47aa755847112e", "b5d99c3c6e5ea35a"),
    "Receipt": ("78dbb3c1c7cc43e5", None),
    "ReplicaInfo": ("d595a1bf4c578b65", None),
    "Reply": ("b966f4373c926a1b", None),
    "ReplyX": ("b929fe9bdcc7574c", None),
    "SyncManifest": ("a29e4b4f03d66f39", None),
    "SyncOffer": ("757c121a22139f97", None),
    "TransactionRequest": ("b74159851c8d3326", "b1de614458828dab"),
    "TxEntry": ("c1f46bcb61d73487", None),
    "ViewChange": ("2c2fd87442dd8ff9", "4c210db43f8743b5"),
    "ViewChangesEntry": ("86d858ccd60473ad", None),
}


def _record_classes() -> dict[str, type]:
    """Every class defined in ``repro`` that has a ``from_wire``."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == info.name and hasattr(cls, "from_wire"):
                found[cls.__name__] = cls
    return found


RECORD_CLASSES = _record_classes()


def test_every_record_class_has_a_pinned_instance():
    assert sorted(RECORD_CLASSES) == sorted(records()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_wire_bytes_and_signed_payload_are_pinned(name):
    assert fingerprints()[name] == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_from_wire_reads_to_wire_back(name):
    record = records()[name]
    cls = RECORD_CLASSES[name]
    # Over the network a wire form arrives decoded: tuples, never lists.
    for wire in (record.to_wire(), codec.decode(codec.encode(record.to_wire()))):
        back = cls.from_wire(wire)
        assert codec.encode(back.to_wire()) == codec.encode(record.to_wire())
        assert back == record


def test_a_schedule_compares_by_its_spans():
    schedule = records()["ConfigSchedule"]
    copy = schedule.copy()
    assert copy == schedule and copy is not schedule
    copy.pop()
    assert copy != schedule and schedule != schedule.spans()


# -- every parse is total ----------------------------------------------------

_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.binary(max_size=40), st.text(max_size=12))
JUNK = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=8,
)


@st.composite
def _mutated(draw, wire):
    """``wire`` with one node, found by a random walk, replaced by junk,
    cut short, lengthened or sent as a list."""
    if isinstance(wire, tuple) and wire and draw(st.integers(0, 3)):
        at = draw(st.integers(0, len(wire) - 1))
        return wire[:at] + (draw(_mutated(wire[at])),) + wire[at + 1 :]
    if not isinstance(wire, tuple):
        return draw(JUNK)
    how = draw(st.sampled_from(("junk", "short", "long", "list")))
    if how == "junk":
        return draw(JUNK)
    if how == "short":
        return wire[: draw(st.integers(0, max(0, len(wire) - 1)))]
    if how == "long":
        return wire + (draw(JUNK),)
    return list(wire)


# Every parse, with a wire form to mutate: each record's own, and a
# transaction entry's for ``entry_from_wire``.
_RECORDS = records()
PARSES = {
    name: (cls.from_wire, codec.decode(codec.encode(_RECORDS[name].to_wire())))
    for name, cls in RECORD_CLASSES.items()
}
PARSES["entry_from_wire"] = (entry_from_wire, PARSES["TxEntry"][1])


@pytest.mark.parametrize("name", sorted(PARSES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_parse_returns_or_raises_a_repro_error(name, data):
    parse, wire = PARSES[name]
    value = data.draw(st.one_of(JUNK, _mutated(wire)))
    try:
        parse(value)
    except ReproError:
        pass


def test_an_entry_with_a_trailing_item_is_refused():
    tx = records()["TxEntry"].to_wire()
    with pytest.raises(LedgerError):
        entry_from_wire(tuple(tx) + (b"junk",))


def test_a_prepare_sent_as_a_list_is_refused():
    with pytest.raises(ProtocolError):
        Prepare.from_wire(list(records()["Prepare"].to_wire()))
