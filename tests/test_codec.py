"""Canonical codec: round-trips, canonicality, and malformed input."""

import pytest
from hypothesis import given, strategies as st

from repro import codec
from repro.errors import CodecError


SIMPLE_VALUES = [
    None,
    True,
    False,
    0,
    1,
    -1,
    127,
    128,
    -128,
    2**62,
    -(2**62),
    2**200,
    -(2**200),
    b"",
    b"\x00\xff" * 10,
    "",
    "hello",
    "unicode: ✓ é 漢",
    (),
    (1, 2, 3),
    ("a", (b"b", None)),
    {},
    {"k": 1},
    {"a": {"b": (1, 2)}, "z": b"bytes"},
]


@pytest.mark.parametrize("value", SIMPLE_VALUES, ids=repr)
def test_roundtrip(value):
    encoded = codec.encode(value)
    decoded = codec.decode(encoded)
    if isinstance(value, list):
        value = tuple(value)
    assert decoded == value


def test_lists_decode_as_tuples():
    assert codec.decode(codec.encode([1, 2])) == (1, 2)


def test_encoding_is_deterministic_across_dict_insertion_order():
    a = {"x": 1, "y": 2}
    b = {"y": 2, "x": 1}
    assert codec.encode(a) == codec.encode(b)


def test_distinct_values_encode_distinctly():
    seen = {}
    for value in SIMPLE_VALUES:
        blob = codec.encode(value)
        assert blob not in seen or seen[blob] == value
        seen[blob] = value


def test_bool_and_int_not_confused():
    assert codec.encode(True) != codec.encode(1)
    assert codec.encode(False) != codec.encode(0)


def test_bytes_and_str_not_confused():
    assert codec.encode(b"ab") != codec.encode("ab")


def test_trailing_garbage_rejected():
    blob = codec.encode(42) + b"\x00"
    with pytest.raises(CodecError):
        codec.decode(blob)


def test_truncated_input_rejected():
    blob = codec.encode("hello world")
    for cut in range(1, len(blob)):
        with pytest.raises(CodecError):
            codec.decode(blob[:cut])


def test_unknown_tag_rejected():
    with pytest.raises(CodecError):
        codec.decode(b"\x99")


def test_non_string_dict_keys_rejected():
    with pytest.raises(CodecError):
        codec.encode({1: "x"})


def test_unencodable_type_rejected():
    with pytest.raises(CodecError):
        codec.encode(object())

    with pytest.raises(CodecError):
        codec.encode(3.14)  # floats are not canonical; must be rejected


def test_non_canonical_map_order_rejected():
    # Hand-build a map with keys out of order: decode must reject it so
    # every value has exactly one accepted encoding.
    good = codec.encode({"a": 1, "b": 2})
    a_part = codec.encode({"a": 1})[2:]  # strip tag+count
    b_part = codec.encode({"b": 2})[2:]
    bad = bytes([good[0], good[1]]) + b_part + a_part
    with pytest.raises(CodecError):
        codec.decode(bad)


def test_decode_stream_yields_each_value():
    blob = codec.encode(1) + codec.encode("two") + codec.encode((3,))
    assert list(codec.decode_stream(blob)) == [1, "two", (3,)]


def test_encoded_size_matches_len():
    value = {"k": [1, 2, 3], "s": "abc"}
    assert codec.encoded_size(value) == len(codec.encode(value))


# -- property-based ---------------------------------------------------------

json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.binary(max_size=64)
    | st.text(max_size=32),
    lambda children: st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=20,
)


@given(json_like)
def test_property_roundtrip(value):
    assert codec.decode(codec.encode(value)) == _normalize(value)


@given(json_like, json_like)
def test_property_injective(a, b):
    if _normalize(a) != _normalize(b):
        assert codec.encode(a) != codec.encode(b)


def _normalize(value):
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(v) for v in value)
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    return value


# -- seeded randomized round-trips (deterministic, no hypothesis DB) ---------


def _random_value(rng, depth=0):
    """A random codec-encodable value (nested tuples/dicts of scalars)."""
    roll = rng.random()
    if depth >= 3 or roll < 0.55:
        kind = rng.randrange(5)
        if kind == 0:
            return None
        if kind == 1:
            return rng.random() < 0.5
        if kind == 2:
            return rng.randint(-(2**80), 2**80)
        if kind == 3:
            return rng.randbytes(rng.randrange(40))
        return "".join(chr(rng.randrange(32, 0x2FF)) for _ in range(rng.randrange(12)))
    if roll < 0.8:
        return tuple(_random_value(rng, depth + 1) for _ in range(rng.randrange(5)))
    return {
        "k%d" % i: _random_value(rng, depth + 1) for i in range(rng.randrange(4))
    }


def test_seeded_random_roundtrip():
    import random

    rng = random.Random(97)
    for _ in range(300):
        value = _random_value(rng)
        assert codec.decode(codec.encode(value)) == _normalize(value)


def test_seeded_random_encoding_canonical():
    """Encoding is a function of the (normalized) value: re-encoding a
    decoded value reproduces the exact bytes."""
    import random

    rng = random.Random(98)
    for _ in range(300):
        encoded = codec.encode(_random_value(rng))
        assert codec.encode(codec.decode(encoded)) == encoded


# -- packed seals -------------------------------------------------------------

long_items = st.lists(json_like, max_size=4) | st.lists(st.integers(0, 3), min_size=130, max_size=140)


@given(long_items)
def test_packed_seal_reads_like_the_decoded_tuple(items):
    """A :class:`codec.SealedSeq` holds only the seal's bytes: each item
    read (negative indices and slices too), ``len``, iteration, ``==`` and the
    encoding behave as the decoded tuple's, and unsealing gives the
    seal's bytes back."""
    sealed = codec.seal(items)
    packed = codec.pack(sealed)
    plain = codec.decode(sealed.wire_bytes)
    assert type(packed) is codec.SealedSeq and codec.pack(sealed) is packed
    assert len(packed) == len(plain) and tuple(packed) == plain
    for i in range(len(plain)):
        assert packed[i] == plain[i] and packed[-1 - i] == plain[-1 - i]
    assert packed[1:3] == plain[1:3]
    with pytest.raises(IndexError):
        packed[len(plain)]
    assert packed == plain and plain == packed and packed != plain + (None,)
    assert codec.encode(packed) == sealed.wire_bytes == codec.encode((packed,))[2:]
    assert codec.encoded_size(packed) == len(sealed.wire_bytes)
    unsealed = packed.unseal()
    assert type(unsealed) is codec.Sealed and unsealed == plain
    assert unsealed.wire_bytes is sealed.wire_bytes and codec.pack(unsealed) is packed
    assert codec._skip(sealed.wire_bytes, 0) == len(sealed.wire_bytes)


def test_packed_seal_shares_its_digest_and_takes_no_other_value():
    from repro.crypto.hashing import digest_value

    sealed = codec.seal(("request", "p", {"a": 1}))
    digest = digest_value(sealed)
    packed = codec.pack(sealed)
    assert packed.digest is digest and digest_value(packed) is digest
    assert not hasattr(packed, "__dict__")
    plain = ("x", 1)
    assert codec.pack(plain) is plain and codec.pack(packed) is packed
    assert codec.seal(packed) is packed


# -- the one-byte fast paths against the general loops ------------------------

# Where a varint grows a byte: lengths and counts at 127/128 and
# 16383/16384, and ints whose zig-zag form does (64, 8192) or that leave
# it for sign and magnitude (2**62).
_EDGES = (0, 1, 63, 64, 127, 128, 8191, 8192, 16383, 16384)
_edge_ints = st.sampled_from(
    _EDGES + tuple(-n for n in _EDGES) + (2**62 - 1, 2**62, 2**63 + 7, -(2**62), -(2**62) - 1, -(2**90)))
_edge_sizes = st.sampled_from((0, 1, 127, 128, 16383, 16384))
fast_path_values = st.recursive(
    st.none()
    | st.booleans()
    | _edge_ints
    | st.integers()
    | _edge_sizes.map(lambda n: b"\xab" * n)
    | _edge_sizes.map(lambda n: "a" * n)
    | st.text(alphabet="aé漢😀\x00", max_size=70),  # non-ASCII: UTF-8 lengths differ from len()
    lambda children: st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(alphabet="kéy", max_size=6), children, max_size=4)
    | st.sampled_from((127, 128)).map(lambda n: {f"k{i:03d}": i for i in range(n)})
    | st.sampled_from((127, 128)).map(lambda n: tuple(range(n))),
    max_leaves=12,
)


@given(st.lists(fast_path_values, max_size=6))
def test_fast_paths_read_what_the_general_decoder_reads(items):
    """For each value, stepping over it ends where decoding it ends; each
    packed read, item by item and in one walk, is the decoded tuple's."""
    sealed = codec.seal(items)
    data = sealed.wire_bytes
    plain = codec.decode(data)
    assert plain == _normalize(tuple(items))
    assert codec._skip(data, 0) == codec._decode_from(data, 0)[1] == len(data)
    for item in items:
        encoded = codec.encode(item)
        assert codec._skip(encoded, 0) == codec._decode_from(encoded, 0)[1] == len(encoded)
    packed = codec.pack(sealed)
    for i in range(len(plain)):
        assert packed[i] == plain[i]
        for j in range(i, len(plain) + 1):
            assert packed[i:j] == plain[i:j]
    assert packed[-2:] == plain[-2:] and packed[::2] == plain[::2]


@given(fast_path_values, st.data())
def test_truncated_input_raises_a_codec_error(value, data):
    encoded = codec.encode(value)
    cut = data.draw(st.integers(0, len(encoded) - 1))
    with pytest.raises(CodecError):
        codec.decode(encoded[:cut])
