"""Encode once, digest once: sealed wire values, memoised digests, and the
pins that hold the wire format still.

The golden vectors and the run fingerprint were produced by the recursive
``isinstance`` encoder this codec replaced; they fail within seconds when
an edit changes a byte of the wire format.
"""

import hashlib
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from helpers import FAST_PARAMS, build_deployment
from repro import codec
from repro.byzantine import TamperExecution
from repro.chaos import __main__ as chaos_cli
from repro.chaos.harness import ChaosResult
from repro.chaos.schedule import ChaosParams, generate_schedule
from repro.crypto import signatures
from repro.crypto.hashing import digest_value
from repro.errors import CodecError
from repro.kvstore import EMPTY_WS, KVStore
from repro.ledger.entries import PrePrepareEntry, TxEntry, TxRun, entry_from_wire
from repro.lpbft.messages import PrePrepare, TransactionRequest
from repro.merkle import MerklePath
from repro.obs import Tracer
from repro.receipts import Certificate, Receipt
from repro.workloads import SmallBankWorkload

# -- sealed values ---------------------------------------------------------------


def _random_value(rng: random.Random, depth: int = 0):
    """A random encodable value; sequences are sealed at random depths."""
    roll = rng.random()
    if depth >= 4 or roll < 0.45:
        return rng.choice([
            None, True, False, 0, 63, 64, -1, rng.randrange(-(2**70), 2**70),
            rng.randbytes(rng.choice([0, 32, 127, 128, 300])),
            "".join(rng.choice("abé漢") for _ in range(rng.randrange(0, 140))),
        ])
    if roll < 0.85:
        items = tuple(_random_value(rng, depth + 1) for _ in range(rng.randrange(0, 6)))
        return codec.seal(items) if rng.random() < 0.5 else items
    return {f"k{rng.randrange(50)}": _random_value(rng, depth + 1) for _ in range(rng.randrange(4))}


def _unsealed(value):
    """The same value rebuilt from plain tuples and dicts only."""
    if isinstance(value, tuple):
        return tuple(_unsealed(item) for item in value)
    if isinstance(value, dict):
        return {key: _unsealed(item) for key, item in value.items()}
    return value


def _has_seal(value) -> bool:
    if type(value) is codec.Sealed:
        return True
    children = value.values() if isinstance(value, dict) else value if isinstance(value, tuple) else ()
    return any(_has_seal(child) for child in children)


@pytest.mark.parametrize("seed", range(8))
def test_sealing_never_changes_the_bytes(seed):
    rng = random.Random(seed)
    sealed_somewhere = 0
    for _ in range(300):
        value = _random_value(rng)
        plain = _unsealed(value)
        sealed_somewhere += _has_seal(value)
        assert not _has_seal(plain)
        encoded = codec.encode(value)
        assert encoded == codec.encode(plain)
        assert codec.decode(encoded) == value == plain
        assert codec.encoded_size(value) == len(encoded)
        assert digest_value(value) == hashlib.sha256(encoded).digest()
    assert sealed_somewhere > 50


def test_sealed_value_is_a_tuple_that_carries_its_encoding():
    plain = ("request", "p", {"a": 1}, b"\x01" * 33)
    sealed = codec.seal(plain)
    assert sealed == plain and isinstance(sealed, tuple)
    assert hash(codec.seal((1, b"x"))) == hash((1, b"x"))
    assert sealed.wire_bytes == codec.encode(plain)
    assert codec.seal(sealed) is sealed
    tag, procedure, args, client = sealed
    assert (tag, procedure, args, client) == plain
    # Anything derived from a sealed value is plain again.
    assert type(sealed[1:]) is tuple and type(sealed + (1,)) is tuple
    # The digest is computed once and remembered on the value.
    assert sealed.digest is None
    assert digest_value(sealed) == digest_value(plain)
    assert sealed.digest == digest_value(plain)


def test_seal_goes_through_the_public_encoder(monkeypatch):
    """No side-door encoder: wrapping ``codec.encode`` sees the seal."""
    seen = []
    original = codec.encode
    monkeypatch.setattr(codec, "encode", lambda value: seen.append(value) or original(value))
    sealed = codec.seal((1, 2, 3))
    assert seen == [(1, 2, 3)]
    assert codec.encoded_size(sealed) == len(sealed.wire_bytes)
    assert seen == [(1, 2, 3)]  # sizing a sealed value encodes nothing


def test_subclasses_encode_like_their_base_and_unknown_types_fail():
    class Index(int):
        pass

    class Wire(tuple):
        pass

    assert codec.encode(Wire((Index(7), "x"))) == codec.encode((7, "x"))
    for bad in (1.5, {1: 2}, (1, {"a": object()}), {"a": 1, 2: 3}, {1, 2}):
        with pytest.raises(CodecError):
            codec.encode(bad)
        with pytest.raises(CodecError):
            codec.check_encodable(bad)
    codec.check_encodable({"a": (1, [b"x", None, True]), "b": codec.seal(("s",))})


def test_kv_put_validates_without_encoding(monkeypatch):
    calls = []
    original = codec.encode
    monkeypatch.setattr(codec, "encode", lambda value: calls.append(value) or original(value))
    store = KVStore()
    store.execute(lambda tx: tx.put("k", {"balance": 5, "history": (1, 2)}))
    puts = [value for value in calls if value == {"balance": 5, "history": (1, 2)}]
    assert puts == []
    with pytest.raises(CodecError):
        store.execute(lambda tx: tx.put("k", 1.5))


_encodable = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(2**130), max_value=2**130)
    | st.binary(max_size=40) | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=16,
)
_maps = st.dictionaries(st.text(max_size=6), _encodable, max_size=5)


@settings(max_examples=200, deadline=None)
@given(_maps)
def test_sealed_map_encodes_compares_and_reads_as_its_dict(d):
    x = codec.seal(d)
    assert type(x) is codec.SealedMap and codec.seal(x) is x
    assert codec.encode(x) == codec.encode(d) == x.wire_bytes
    assert codec.encoded_size(x) == len(codec.encode(d))
    t = REQUEST.to_wire()
    assert codec.encode((t, 7, x)) == codec.encode((t, 7, d))
    assert x == d and d == x
    assert dict(x) == codec.decode(codec.encode(d))
    assert len(x) == len(d) and list(x) == sorted(d)


def test_sealed_map_is_a_read_only_view_with_mapping_equality():
    x = codec.seal({"ok": False, "n": (1, 2)})
    assert x == {"ok": 0, "n": (1, 2)}  # False == 0, as for dicts
    assert codec.encode(x) != codec.encode({"ok": 0, "n": (1, 2)})
    assert x != {"ok": False} and x != [("ok", False)]
    assert repr(x) == "{'n': (1, 2), 'ok': False}"  # canonical key order
    with pytest.raises(TypeError):
        x["ok"] = True
    with pytest.raises(AttributeError):
        x.extra = 1  # slotted: the encoding is all it holds


@pytest.mark.parametrize("sealed_request", [True, False])
def test_tx_entry_seals_a_dict_output_from_its_own_encoding(monkeypatch, sealed_request):
    """A run keeps a dict output as the bytes its one ``(t, i, o)``
    encoding produced, and an entry read back is a view whose output is
    sealed from them."""
    wire = REQUEST.to_wire() if sealed_request else tuple(REQUEST.to_wire())
    plain = {"reply": {"ok": True, "balance": 10**30}, "ws": OUTPUT["ws"]}
    appended = TxEntry(request_wire=wire, index=2**40, output=plain)
    expected = (digest_value(appended.to_wire()), digest_value(appended.tio()))
    run = TxRun(2**40)
    seen = []
    original = codec.encode
    monkeypatch.setattr(codec, "encode", lambda value: seen.append(value) or original(value))
    assert run.add(wire, plain) == expected
    assert len(seen) == (1 if sealed_request else 2)  # a plain t is sized by encoding it
    monkeypatch.setattr(codec, "encode", original)
    run.add(wire, (1, 2))
    run.close()
    assert type(run.outputs) is bytes and list(run.offsets) == [0, len(original(plain)), len(run.outputs)]
    entry = run.entry(0)
    assert type(entry.output) is codec.SealedMap and entry.output == plain
    assert entry.output.wire_bytes == original(plain)
    assert entry.leaves() == expected and entry == appended
    # An output that is not a dict reads back decoded.
    assert run.entry(1).output == (1, 2) and type(run.entry(1).output) is tuple


# -- golden byte vectors -----------------------------------------------------------

REQUEST = TransactionRequest(
    procedure="smallbank.send_payment",
    args={"src": 17, "dst": 4242, "amount": 130},
    client=bytes(range(33)),
    service=b"\x11" * 32,
    min_index=0,
    nonce=300,
    signature=b"\x22" * 64,
)
PRE_PREPARE = PrePrepare(
    view=1,
    seqno=70_000,
    root_m=b"\x01" * 32,
    root_g=b"\x02" * 32,
    nonce_commitment=b"\x03" * 32,
    evidence_bitmap=0b1011,
    gov_index=0,
    checkpoint_digest=b"\x04" * 32,
    signature=b"\x05" * 64,
)
OUTPUT = {"reply": {"ok": True, "balance": -5}, "ws": b"\x33" * 32}
TX_ENTRY = TxEntry(request_wire=REQUEST.to_wire(), index=2**40, output=OUTPUT)
RECEIPT = Receipt(
    request_wire=REQUEST.to_wire(),
    index=2**40,
    output_wire=codec.encode(OUTPUT),
    path=MerklePath.from_wire((5, 300, ((b"\x06" * 32, True), (b"\x07" * 32, False)))),
    certificate=Certificate(
        view=1,
        seqno=70_000,
        root_m=b"\x01" * 32,
        primary_nonce_commitment=b"\x03" * 32,
        evidence_bitmap=0b1011,
        gov_index=0,
        checkpoint_digest=b"\x04" * 32,
        flags=0,
        committed_root=b"",
        primary_signature=b"\x05" * 64,
        signer_bitmap=0b0111,
        prepare_signatures=(b"\x08" * 64, b"\x09" * 64),
        nonces=(b"\x0a" * 32, b"\x0b" * 32, b"\x0c" * 32),
    ),
)

GOLDEN_HEX = {
    "request": (
        "06080507726571756573740516736d616c6c62616e6b2e73656e645f7061796d656e74070306616d6f756e74"
        "03008402036473740300a442037372630300220421000102030405060708090a0b0c0d0e0f10111213141516"
        "1718191a1b1c1d1e1f2004201111111111111111111111111111111111111111111111111111111111111111"
        "0300000300d80404402222222222222222222222222222222222222222222222222222222222222222222222"
        "2222222222222222222222222222222222222222222222222222222222"
    ),
    "request_signed_payload": (
        "06070507726571756573740516736d616c6c62616e6b2e73656e645f7061796d656e74070306616d6f756e74"
        "03008402036473740300a442037372630300220421000102030405060708090a0b0c0d0e0f10111213141516"
        "1718191a1b1c1d1e1f2004201111111111111111111111111111111111111111111111111111111111111111"
        "0300000300d804"
    ),
    "pre_prepare": (
        "060c050b7072652d707265706172650300020300e0c508042001010101010101010101010101010101010101"
        "0101010101010101010101010104200202020202020202020202020202020202020202020202020202020202"
        "0202020420030303030303030303030303030303030303030303030303030303030303030303001603000004"
        "2004040404040404040404040404040404040404040404040404040404040404040300000400044005050505"
        "0505050505050505050505050505050505050505050505050505050505050505050505050505050505050505"
        "05050505050505050505050505050505"
    ),
    "tx_entry": (
        "06040502747806080507726571756573740516736d616c6c62616e6b2e73656e645f7061796d656e74070306"
        "616d6f756e7403008402036473740300a442037372630300220421000102030405060708090a0b0c0d0e0f10"
        "1112131415161718191a1b1c1d1e1f2004201111111111111111111111111111111111111111111111111111"
        "1111111111110300000300d80404402222222222222222222222222222222222222222222222222222222222"
        "2222222222222222222222222222222222222222222222222222222222222222222222030080808080804007"
        "02057265706c7907020762616c616e6365030009026f6b020277730420333333333333333333333333333333"
        "3333333333333333333333333333333333"
    ),
    "receipt": (
        "061305077265636569707406080507726571756573740516736d616c6c62616e6b2e73656e645f7061796d65"
        "6e74070306616d6f756e7403008402036473740300a442037372630300220421000102030405060708090a0b"
        "0c0d0e0f101112131415161718191a1b1c1d1e1f200420111111111111111111111111111111111111111111"
        "11111111111111111111110300000300d8040440222222222222222222222222222222222222222222222222"
        "2222222222222222222222222222222222222222222222222222222222222222222222222222222203008080"
        "808080400702057265706c7907020762616c616e6365030009026f6b02027773042033333333333333333333"
        "33333333333333333333333333333333333333333333060303000a0300d80406020602042006060606060606"
        "0606060606060606060606060606060606060606060606060602060204200707070707070707070707070707"
        "070707070707070707070707070707070707010300020300e0c5080420010101010101010101010101010101"
        "0101010101010101010101010101010101042003030303030303030303030303030303030303030303030303"
        "0303030303030303001603000004200404040404040404040404040404040404040404040404040404040404"
        "0404040300000400044005050505050505050505050505050505050505050505050505050505050505050505"
        "05050505050505050505050505050505050505050505050505050505050503000e0602044008080808080808"
        "0808080808080808080808080808080808080808080808080808080808080808080808080808080808080808"
        "0808080808080808080808080804400909090909090909090909090909090909090909090909090909090909"
        "0909090909090909090909090909090909090909090909090909090909090909090909060304200a0a0a0a0a"
        "0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a04200b0b0b0b0b0b0b0b0b0b0b0b0b0b0b"
        "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b04200c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c"
        "0c0c0c0c0c0c0c00"
    ),
}
GOLDEN_DIGESTS = {
    "request": "0b2aee4868d41d291b759347fe957525703e10f3b780ed765db61f6e0b2038e2",
    "pre_prepare": "d91f97ccaa4bc65582340cb82061f024f53e4dccc73814d8dda8ec254a26642c",
    "tx_entry": "efd82cd2a2b7e6db942fc59761f34a4f291ebb32bc357c68c9f60d9482b309de",
    "tx_leaf": "ff5cb3427ea8fc88178082105365d9bdf9d10f1b4049d33a0aedd3485359d3de",
    "receipt_leaf": "ff5cb3427ea8fc88178082105365d9bdf9d10f1b4049d33a0aedd3485359d3de",
}


def test_golden_wire_bytes():
    assert codec.encode(REQUEST.to_wire()).hex() == GOLDEN_HEX["request"]
    assert REQUEST.signed_payload().hex() == GOLDEN_HEX["request_signed_payload"]
    assert codec.encode(PRE_PREPARE.to_wire()).hex() == GOLDEN_HEX["pre_prepare"]
    assert codec.encode(TX_ENTRY.to_wire()).hex() == GOLDEN_HEX["tx_entry"]
    assert codec.encode(RECEIPT.to_wire()).hex() == GOLDEN_HEX["receipt"]
    for name in GOLDEN_HEX:
        blob = bytes.fromhex(GOLDEN_HEX[name])
        assert codec.encode(codec.decode(blob)) == blob


def test_golden_digests():
    assert REQUEST.request_digest().hex() == GOLDEN_DIGESTS["request"]
    assert PRE_PREPARE.digest().hex() == GOLDEN_DIGESTS["pre_prepare"]
    assert TX_ENTRY.digest().hex() == GOLDEN_DIGESTS["tx_entry"]
    assert TX_ENTRY.leaf_digest().hex() == GOLDEN_DIGESTS["tx_leaf"]
    assert RECEIPT.leaf_digest().hex() == GOLDEN_DIGESTS["receipt_leaf"]
    # The same values rebuilt from decoded (unsealed) wires agree.
    decoded = codec.decode(bytes.fromhex(GOLDEN_HEX["tx_entry"]))
    entry = entry_from_wire(decoded)
    assert type(entry.request_wire) is tuple
    assert entry.digest().hex() == GOLDEN_DIGESTS["tx_entry"]
    assert entry.leaf_digest().hex() == GOLDEN_DIGESTS["tx_leaf"]
    assert entry.request().request_digest().hex() == GOLDEN_DIGESTS["request"]
    receipt = Receipt.from_wire(codec.decode(bytes.fromhex(GOLDEN_HEX["receipt"])))
    assert receipt == RECEIPT
    assert receipt.leaf_digest().hex() == GOLDEN_DIGESTS["receipt_leaf"]


# -- the seal travels; caches do not outlive the value ---------------------------------


def test_request_wire_is_sealed_once_and_shared_by_its_receivers():
    wire = REQUEST.to_wire()
    assert type(wire) is codec.Sealed and REQUEST.to_wire() is wire
    received = [TransactionRequest.from_wire(wire) for _ in range(4)]
    assert all(request == REQUEST and request.to_wire() is wire for request in received)
    entry = TxEntry(request_wire=received[0].to_wire(), index=9, output=OUTPUT)
    assert entry.request_wire is wire and entry.tio()[0] is wire
    assert entry_from_wire(entry.to_wire()).request_wire is wire
    # A wire that was decoded from bytes is plain; its request seals anew.
    plain = codec.decode(wire.wire_bytes)
    assert type(plain) is tuple
    assert TransactionRequest.from_wire(plain).to_wire() == wire


def test_long_lived_objects_cache_digests_not_bytes():
    entry = TxEntry(request_wire=REQUEST.to_wire(), index=9, output=OUTPUT)
    pp_entry = PrePrepareEntry(pp_wire=PRE_PREPARE.to_wire())

    def cached(obj):
        """Every slot outside the value's own fields that holds something."""
        own = {f.name for f in fields(obj) if f.compare}
        return {k: getattr(obj, k) for k in obj.__slots__ if k not in own and getattr(obj, k) is not None}

    assert not hasattr(entry, "__dict__") and not hasattr(pp_entry, "__dict__")
    assert cached(entry) == {} and cached(pp_entry) == {}
    entry.digest(), entry.leaf_digest(), entry.leaves(), pp_entry.digest()
    # The G leaf is held by the batch's tree G, the M leaf by tree M:
    # a transaction entry memoises neither.
    assert cached(entry) == {} and cached(pp_entry) == {}


def test_resigned_copies_never_report_a_stale_digest():
    request_digest, payload = REQUEST.request_digest(), REQUEST.signed_payload()
    resigned = REQUEST.with_signature(b"\x99" * 64)
    assert resigned.signed_payload() == payload  # the signature is not signed over
    assert resigned.request_digest() != request_digest
    assert resigned.request_digest() == digest_value(tuple(resigned.to_wire()))
    assert resigned.to_wire()[-1] == b"\x99" * 64
    renonced = replace(REQUEST, nonce=301)
    assert renonced.signed_payload() != payload
    assert renonced.to_wire() is not REQUEST.to_wire()

    pp_digest, pp_payload = PRE_PREPARE.digest(), PRE_PREPARE.signed_payload()
    resigned_pp = PRE_PREPARE.with_signature(b"\x98" * 64)
    assert resigned_pp.signed_payload() == pp_payload
    assert resigned_pp.digest() != pp_digest
    assert resigned_pp.digest() == digest_value(resigned_pp.to_wire())
    assert replace(PRE_PREPARE, seqno=70_001).signed_payload() != pp_payload

    pp = RECEIPT.reconstructed_pre_prepare()
    assert RECEIPT.reconstructed_pre_prepare() is pp
    altered = replace(RECEIPT, output_wire=codec.encode({"reply": {"ok": False}, "ws": OUTPUT["ws"]}))
    assert altered.leaf_digest() != RECEIPT.leaf_digest()
    assert altered.reconstructed_pre_prepare().root_g != pp.root_g


def test_mutated_output_commits_to_the_mutated_digest():
    """A tampering replica's entries hash what it *wrote*, not what an
    honest execution produced."""
    behaviors = {i: TamperExecution() for i in range(4)}
    dep = build_deployment(behaviors=behaviors)
    honest = build_deployment()
    outputs = []
    for deployment in (dep, honest):
        client = deployment.add_client(retry_timeout=0.5, verify_receipts=False)
        deployment.start()
        workload = SmallBankWorkload(n_accounts=200, seed=5)
        for _ in range(5):
            client.submit(*workload.next_transaction(), min_index=0)
        deployment.run(until=2.0)
        entries = [e for e in deployment.replicas[0].ledger if isinstance(e, TxEntry)]
        assert len(entries) == 5
        outputs.append(entries)
    for tampered, clean in zip(*outputs):
        assert tampered.request_wire == clean.request_wire
        assert tampered.output["reply"].get("tampered") and "tampered" not in clean.output["reply"]
        assert tampered.leaf_digest() == digest_value(_unsealed(tampered.tio()))
        assert tampered.digest() == digest_value(_unsealed(tampered.to_wire()))
        assert tampered.leaf_digest() != clean.leaf_digest()
        assert tampered.digest() != clean.digest()


# -- a run fingerprint in tier-1 ---------------------------------------------------------

SMALL_RUN_FINGERPRINT = "cb6fca193f3cc8324f98be1a56eb745ff832b23f5e60a6490c33315df73db49a"


def test_small_run_fingerprint_is_pinned():
    """Everything a 0.02 s four-replica SmallBank run decides — committed
    seqnos, ledger root, KV digest, every latency — hashed like the perf
    benchmark's ``sim_fingerprint``.  A change to any encoded byte, digest
    or simulated cost moves it."""
    dep = build_deployment(params=FAST_PARAMS)
    latencies = []
    load = dep.add_load_generator(
        SmallBankWorkload(n_accounts=200, seed=3), rate=5000.0, stop_at=0.02,
        on_receipt=lambda digest, receipt, latency: latencies.append(latency),
    )
    dep.start()
    dep.run(until=0.5)
    assert load.submitted == len(latencies) == 95
    assert dep.committed_seqnos() == [21, 21, 21, 21]
    fingerprint = hashlib.sha256()
    fingerprint.update(repr(dep.committed_seqnos()).encode())
    fingerprint.update(dep.replicas[0].ledger.root())
    fingerprint.update(dep.replicas[0].kv.state_digest())
    fingerprint.update(repr(latencies).encode())
    assert fingerprint.hexdigest() == SMALL_RUN_FINGERPRINT


# -- satellites ----------------------------------------------------------------------------


def test_chaos_cli_writes_failure_traces_under_chaos_out(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    params = ChaosParams()
    tracer = Tracer()
    tracer.root_span("request", "c", 0.0).finish(1.0)
    failing = ChaosResult(
        schedule=generate_schedule(7, params), violations=["made up"], span_tracer=tracer)
    monkeypatch.setattr(chaos_cli, "run_schedule", lambda schedule, trace: failing)
    assert chaos_cli.main(["--seed", "7"]) == 1
    written = tmp_path / "chaos-out" / "chaos-trace-seed7.json"
    assert written.is_file()
    assert [p.name for p in tmp_path.iterdir()] == ["chaos-out"]
    assert "trace: chaos-out/chaos-trace-seed7.json" in capsys.readouterr().out


# -- one encoding per call site ---------------------------------------------------------

_pair_keys = st.one_of(
    st.text(max_size=40),
    st.sampled_from(["é" * 63, "a" * 127, "a" * 128, "漢" * 100, "b" * 300]),
    st.binary(max_size=4), st.none(), st.integers(-5, 5),
)
_pair_values = st.one_of(
    st.sampled_from([True, False, 0, 63, 64, -1, -64, -65, 2**62 - 1, 2**62, -(2**62) + 1, -(2**62), 2**200]),
    st.integers(), st.none(), st.binary(max_size=200), st.text(max_size=20),
    st.tuples(st.integers(), st.binary(max_size=8)),
    st.dictionaries(st.text(max_size=5), st.integers(), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(_pair_keys, _pair_values)
def test_encode_pair_is_the_generic_pair_encoding(key, value):
    expected = codec.encode((key, value))
    assert codec.encode_pair(key, value) == expected
    ints: dict = {}
    assert codec.encode_pair(key, value, ints) == codec.encode_pair(key, value, ints) == expected


def test_encode_pair_memo_never_confuses_bools_with_ints():
    ints: dict = {}
    for value in (1, True, 0, False, 1):
        assert codec.encode_pair("k", value, ints) == codec.encode(("k", value))
    assert set(map(type, ints)) == {int}


# -- the write-set digest ---------------------------------------------------------

EMPTY_WS_HEX = "b7de6bc49b7115c6cbe17780d06ec0e182d9c0f71b5a21b9332141a7e4dca68a"
_DELETE = object()


def _generic_write_set_digest(ops: dict) -> bytes:
    """The write-set digest as the generic encoder produces it: the
    formula ``codec.encode_write_set`` replaced."""
    writes = {k: (None if v is _DELETE else v) for k, v in sorted(ops.items())}
    deleted = tuple(sorted(k for k, v in ops.items() if v is _DELETE))
    return digest_value({"writes": writes, "deleted": deleted})


_ws_keys = st.one_of(
    st.text(max_size=20),
    st.sampled_from(["é" * 64, "a" * 127, "a" * 128, "漢" * 43, "b" * 300, "", "ü"]),
)
_ws_leaves = st.one_of(
    st.sampled_from([True, False, None, 0, 63, 64, -1, -64, -65, 2**62 - 1, 2**62,
                     -(2**62) + 1, -(2**62), 2**200, -(2**200)]),
    st.integers(), st.binary(max_size=200), st.text(max_size=20),
)
_ws_values = st.recursive(
    _ws_leaves,
    lambda inner: st.one_of(st.tuples(inner, inner), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_ws_keys, st.one_of(st.just(_DELETE), _ws_values), max_size=12))
def test_write_set_digest_is_the_generic_digest(ops):
    tx = KVStore().begin()
    for key, value in ops.items():
        if value is _DELETE:
            tx.delete(key)
        else:
            tx.put(key, value)
    assert tx.write_set_digest() == _generic_write_set_digest(ops)


def test_empty_write_set_digest_is_pinned():
    assert EMPTY_WS.hex() == EMPTY_WS_HEX
    assert _generic_write_set_digest({}) == EMPTY_WS == KVStore().begin().write_set_digest()


def _random_request(rng: random.Random) -> TransactionRequest:
    return TransactionRequest(
        procedure="".join(rng.choice("abé.") for _ in range(rng.randrange(1, 200))),
        args={f"k{i}": _random_value(rng) for i in range(rng.randrange(4))},
        client=rng.randbytes(33),
        service=rng.randbytes(32),
        min_index=rng.randrange(0, 2**70),
        nonce=rng.randrange(0, 2**40),
        signature=rng.randbytes(rng.choice([0, 64, 127, 128, 300])),
    )


def test_signed_payload_is_read_off_the_seal():
    rng = random.Random(11)
    for _ in range(200):
        request = _random_request(rng)
        old = codec.encode(("request", request.procedure, request.args, request.client,
                            request.service, request.min_index, request.nonce))
        assert request.signed_payload() == old
        received = TransactionRequest.from_wire(request.to_wire())
        assert received.signed_payload() == old
        unsealed = TransactionRequest.from_wire(codec.decode(request.to_wire().wire_bytes))
        assert unsealed.signed_payload() == old
        resigned = request.with_signature(rng.randbytes(64))
        assert resigned.to_wire().wire_bytes == codec.encode(tuple(resigned.to_wire()))
        assert resigned.signed_payload() == old
    for count in (1, 2, 127, 128, 129, 300):
        sealed = codec.seal(tuple(range(count)))
        assert codec.encode_all_but_last(sealed) == codec.encode(tuple(sealed)[:-1])
        assert codec.reseal_last(sealed, b"x").wire_bytes == codec.encode(tuple(sealed)[:-1] + (b"x",))
    with pytest.raises(CodecError):
        codec.encode_all_but_last(codec.seal(()))


def test_altered_signature_is_rejected_after_the_payload_was_verified():
    """The payload has verified under its signature already; a copy of the
    same request under another signature is still checked and refused."""
    backend = signatures.default_backend()
    keypair = backend.generate(b"client")
    unsigned = replace(REQUEST, client=keypair.public_key, signature=b"")
    signed = unsigned.with_signature(backend.sign(keypair, unsigned.signed_payload()))
    assert backend.verify(signed.client, signed.signed_payload(), signed.signature)
    wire = list(signed.to_wire())
    wire[-1] = bytes(64)
    forged = TransactionRequest.from_wire(codec.seal(tuple(wire)))
    assert forged.signed_payload() == signed.signed_payload()
    assert not backend.verify(forged.client, forged.signed_payload(), forged.signature)


def test_both_tx_entry_leaves_come_from_one_encoding(monkeypatch):
    rng = random.Random(5)
    for _ in range(100):
        request = _random_request(rng)
        wire = request.to_wire() if rng.random() < 0.5 else tuple(request.to_wire())
        entry = TxEntry(request_wire=wire, index=rng.randrange(2**70), output=_random_value(rng))
        assert entry.leaves() == (digest_value(entry.to_wire()), digest_value(entry.tio()))
        fresh = TxEntry(request_wire=wire, index=entry.index, output=entry.output)
        assert fresh.digest() == digest_value(entry.to_wire())
        assert fresh.leaf_digest() == digest_value(entry.tio())
    seen = []
    original = codec.encode
    monkeypatch.setattr(codec, "encode", lambda value: seen.append(value) or original(value))
    TxEntry(request_wire=REQUEST.to_wire(), index=3, output=OUTPUT).leaves()
    assert len(seen) == 1


def test_payload_sizes_from_parts_equal_the_encoded_size():
    from repro.lpbft.messages import pre_prepare_payload, replyx_payload
    from repro.merkle import MerkleTree

    rng = random.Random(9)
    for size in (1, 2, 3, 7, 64, 300):
        tree = MerkleTree()
        for _ in range(size):
            tree.append(rng.randbytes(32))
        for position in {0, size // 2, size - 1}:
            path = tree.path(position)
            assert path.encoded_size() == codec.encoded_size(path.to_wire())
            assert MerklePath.from_wire(path.to_wire()).encoded_size() == len(codec.encode(path.to_wire()))
            pp = replace(PRE_PREPARE, seqno=rng.randrange(2**40), committed_root=rng.randbytes(rng.choice([0, 32])),
                         signature=rng.randbytes(rng.choice([64, 200])))
            payload, sized = replyx_payload(pp, rng.randbytes(32), rng.randrange(2**62), _random_value(rng), path)
            assert sized == len(codec.encode(payload))
            digests = tuple(rng.randbytes(32) for _ in range(rng.randrange(0, 200)))
            payload, sized = pre_prepare_payload(pp, digests)
            assert sized == len(codec.encode(payload))


# 500K accounts: the table every perf workload but lan_overload uses.
INITIAL_STATE_DIGEST = "a356fce14df921cc499d223558d04eceacec34b0d392a7c51732c85414d4e168"


def test_initial_state_digest_is_pinned():
    """The generated table hashed in ranges has the digest the stored
    dict gave, and a small table's accumulator is the plain sum of
    per-entry terms over the generic encoder."""
    from repro.kvstore.store import accumulator_digest, state_accumulator
    from repro.workloads import initial_state

    assert initial_state(500_000).digest().hex() == INITIAL_STATE_DIGEST
    small = initial_state(300, checking=64, savings=-(2**63))
    assert list(small) == [f"{kind}:{c}" for c in range(300) for kind in ("checking", "savings")]
    reference = sum(
        int.from_bytes(hashlib.sha256(codec.encode((k, v))).digest(), "big") for k, v in small.items()
    ) % 2**256
    assert small.accumulator == reference == state_accumulator(dict(small).items())
    assert small.digest() == accumulator_digest(reference)


def test_encode_work_per_committed_transaction_is_bounded(monkeypatch):
    """Counted work, free of host-clock noise: the small run above makes
    47.2 ``codec.encode`` calls per receipted transaction before encodings
    were shared by call site (five of them a request's signed payload) and
    30.9 after, none of them a signed payload; 22.0 since the write-set
    digest is written directly (tests/test_counted_work.py pins the
    rest)."""
    dep = build_deployment(params=FAST_PARAMS)
    receipted = []
    dep.add_load_generator(
        SmallBankWorkload(n_accounts=200, seed=3), rate=5000.0, stop_at=0.02,
        on_receipt=lambda digest, receipt, latency: receipted.append(digest),
    )
    dep.start()
    encoded = []
    original = codec.encode
    monkeypatch.setattr(codec, "encode", lambda value: encoded.append(value) or original(value))
    dep.run(until=0.5)
    assert len(receipted) == 95
    assert len(encoded) / len(receipted) <= 23
    payloads = [v for v in encoded if type(v) is tuple and len(v) == 7 and v[:1] == ("request",)]
    assert payloads == []
