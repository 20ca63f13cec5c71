"""Canonical, deterministic binary encoding.

IA-CCF requires every ledger entry and protocol message to have a single
canonical byte representation: Merkle leaves hash the encoded entry, replicas
must agree bit-for-bit on ledger contents, and Table 1 of the paper reports
entry sizes.  This module provides a small, self-describing TLV
(tag-length-value) codec for the value shapes the library uses:

``None``, ``bool``, ``int`` (signed, arbitrary precision), ``bytes``,
``str``, ``tuple``/``list`` (both decode as ``tuple``), and ``dict`` with
string keys (encoded with keys sorted, so encoding is canonical).

The encoding is deliberately simple rather than clever: a one-byte tag, a
varint length where needed, then the payload.  It is stable across Python
versions and platforms.
"""

from __future__ import annotations

import functools
from typing import Any, Iterator

from .errors import CodecError

# Tags (one byte each).
_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_BYTES = 0x04
_TAG_STR = 0x05
_TAG_SEQ = 0x06
_TAG_MAP = 0x07


class Sealed(tuple):
    """A sequence that carries its own canonical encoding.

    Invariant: ``wire_bytes == encode(tuple(self))``, and nothing reachable
    from the sequence is mutated after sealing.  :func:`seal` is the only
    constructor and produces the bytes by encoding the value — bytes
    arriving from outside are never trusted into a seal.  The encoder
    splices ``wire_bytes`` verbatim wherever the value is embedded, so a
    request sealed by its client is serialised once however many ledger
    entries, Merkle leaves and receipts carry it.

    Being a ``tuple``, a sealed value destructures, compares, hashes and
    round-trips through :func:`decode` exactly like the plain one; anything
    derived from it (a slice, a concatenation, ``tuple(v)``) is plain again.
    ``digest`` memoises :func:`repro.crypto.hashing.digest_value`.
    """

    wire_bytes: bytes
    digest: bytes | None = None


def seal(value: tuple | list) -> Sealed:
    """Encode ``value`` once and return it carrying those bytes."""
    if type(value) is Sealed:
        return value
    plain = tuple(value)
    sealed = Sealed(plain)
    sealed.wire_bytes = encode(plain)
    return sealed


def reseal_last(sealed: Sealed, last: Any) -> Sealed:
    """``seal(tuple(sealed)[:-1] + (last,))`` with only ``last`` encoded:
    the other items' bytes are ``sealed``'s.  How a signer seals its
    signed message from the seal it signed over."""
    plain = tuple(sealed)
    if not plain:
        raise CodecError("an empty sequence has no last item")
    wire = sealed.wire_bytes
    resealed = Sealed(plain[:-1] + (last,))
    resealed.wire_bytes = wire[: len(wire) - encoded_size(plain[-1])] + encode(last)
    return resealed


def encode_all_but_last(sealed: Sealed) -> bytes:
    """``encode(tuple(sealed)[:-1])``, read off ``sealed.wire_bytes``: a
    header one count lower, then every item's bytes but the last's.  A
    signed message puts its signature last, so this is the signed payload
    of a sealed one, produced without encoding any value.  Not memoised:
    a seal lives as long as the ledger entry that holds it, and the copy
    costs less than the memory."""
    wire, count = sealed.wire_bytes, len(sealed)
    if not count:
        raise CodecError("an empty sequence has no last item")
    if count <= len(_SEQ_HEADS):
        head = _SEQ_HEADS[count - 1]
    else:
        out = bytearray((_TAG_SEQ,))
        _write_varint(out, count - 1)
        head = bytes(out)
    return head + wire[1 + _varint_size(count) : len(wire) - encoded_size(sealed[-1])]


def memoised(method):
    """Compute a no-argument method of an immutable instance once (the
    method never returns ``None``).

    The result is stored under ``_<name>``.  A slotted class declares it
    as a field ``field(default=None, init=False, repr=False,
    compare=False)``, so caching creates no ``__dict__``; any other class
    gets it in the instance dict.  Either way ``==``, ``repr`` and
    ``dataclasses.replace`` never see it, so a re-signed or otherwise
    altered copy starts with nothing cached."""
    key = "_" + method.__name__

    @functools.wraps(method)
    def cached(self):
        value = getattr(self, key, None)
        if value is None:
            value = method(self)
            object.__setattr__(self, key, value)  # frozen instances too
        return value

    return cached


def _write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _varint_size(value: int) -> int:
    """Length of the unsigned LEB128 varint of ``value``."""
    size = 1
    while value > 0x7F:
        value >>= 7
        size += 1
    return size


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint, returning (value, new_pos)."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CodecError("varint too long")


# -- encoding: one encoder per type, found through ``_ENCODERS`` ---------------

_ZIGZAG_LIMIT = 2**62  # beyond it ints take the sign-and-magnitude form
_ZIGZAG = bytes((_TAG_INT, 0x00))
_SMALL_INTS = [_ZIGZAG + bytes((value << 1,)) for value in range(64)]


def _int_bytes(value: int) -> bytes:
    """``encode(value)`` for an ``int`` (not a ``bool``)."""
    if 0 <= value < 64:
        return _SMALL_INTS[value]
    out = bytearray()
    _encode_int(out, value)
    return bytes(out)


def _encode_none(out: bytearray, value: None) -> None:
    out.append(_TAG_NONE)


def _encode_bool(out: bytearray, value: bool) -> None:
    out.append(_TAG_TRUE if value else _TAG_FALSE)


def _encode_int(out: bytearray, value: int) -> None:
    if 0 <= value < 64:
        out += _SMALL_INTS[value]
    elif -_ZIGZAG_LIMIT < value < _ZIGZAG_LIMIT:
        out += _ZIGZAG
        # Zig-zag encode so negative ints get compact varints.
        _write_varint(out, (value << 1) ^ (value >> 63))
    else:
        magnitude = abs(value)
        raw = magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")
        out += bytes((_TAG_INT, 0xFF, value < 0))
        _write_varint(out, len(raw))
        out += raw


def _encode_bytes(out: bytearray, value: bytes | bytearray) -> None:
    out.append(_TAG_BYTES)
    _write_varint(out, len(value))
    out += value


def _encode_memoryview(out: bytearray, value: memoryview) -> None:
    _encode_bytes(out, bytes(value))  # len() of a view counts items, not bytes


def _encode_str(out: bytearray, value: str) -> None:
    raw = value.encode("utf-8")
    out.append(_TAG_STR)
    _write_varint(out, len(raw))
    out += raw


def _encode_seq(out: bytearray, value: tuple | list) -> None:
    out.append(_TAG_SEQ)
    _write_varint(out, len(value))
    for item in value:
        # The three leaf types that fill protocol messages are written
        # inline; a length below 128 is its own one-byte varint.
        kind = type(item)
        if kind is int and 0 <= item < _ZIGZAG_LIMIT:
            if item < 64:
                out += _SMALL_INTS[item]
            else:
                out += _ZIGZAG
                _write_varint(out, item << 1)
            continue
        if kind is bytes:
            out.append(_TAG_BYTES)
        elif kind is str:
            out.append(_TAG_STR)
            item = item.encode("utf-8")
        else:
            (_ENCODERS.get(kind) or _encoder_for(kind))(out, item)
            continue
        size = len(item)
        if size < 0x80:
            out.append(size)
        else:
            _write_varint(out, size)
        out += item


def _encode_map(out: bytearray, value: dict) -> None:
    out.append(_TAG_MAP)
    _write_varint(out, len(value))
    try:
        keys = sorted(value)
    except TypeError as exc:
        raise CodecError("map keys must be sortable strings") from exc
    for key in keys:
        if not isinstance(key, str):
            raise CodecError(f"map keys must be str, got {type(key).__name__}")
        raw = key.encode("utf-8")
        _write_varint(out, len(raw))
        out += raw
        item = value[key]
        (_ENCODERS.get(type(item)) or _encoder_for(type(item)))(out, item)


def _encode_sealed(out: bytearray, value: Sealed) -> None:
    out += value.wire_bytes


_ENCODERS = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    bytes: _encode_bytes,
    bytearray: _encode_bytes,
    memoryview: _encode_memoryview,
    str: _encode_str,
    tuple: _encode_seq,
    list: _encode_seq,
    dict: _encode_map,
    Sealed: _encode_sealed,
}


def _encoder_for(kind: type):
    """The encoder of the nearest encodable base class of ``kind``."""
    for base in kind.__mro__:
        encoder = _ENCODERS.get(base)
        if encoder is not None:
            return encoder
    raise CodecError(f"cannot encode value of type {kind.__name__}")


def encode(value: Any) -> bytes:
    """Encode ``value`` into its canonical byte representation."""
    kind = type(value)
    if kind is Sealed:
        return value.wire_bytes
    out = bytearray()
    (_ENCODERS.get(kind) or _encoder_for(kind))(out, value)
    return bytes(out)


_SEQ_HEADS = [bytes((_TAG_SEQ, count)) for count in range(0x80)]
_PAIR_HEADS = [bytes((_TAG_SEQ, 2, _TAG_STR, size)) for size in range(0x80)]


def encode_pair(key: Any, value: Any, ints: dict | None = None) -> bytes:
    """``encode((key, value))``: the preimage of one state-accumulator term.

    A ``str`` key under 128 UTF-8 bytes with an ``int`` value — the shape
    of every SmallBank entry — is written directly: ``SEQ 2``, the key's
    ``STR`` header and bytes, then the value's int encoding.  ``ints``, a
    dict the caller owns for the length of one loop, remembers int
    encodings across calls.  Anything else (``bool`` included) takes
    :func:`encode`."""
    if type(key) is str and type(value) is int:
        raw = key.encode()  # UTF-8
        size = len(raw)
        if size < 0x80:
            if ints is None:
                tail = _int_bytes(value)
            else:
                tail = ints.get(value)
                if tail is None:
                    tail = ints[value] = _int_bytes(value)
            return _PAIR_HEADS[size] + raw + tail
    return encode((key, value))


def check_encodable(value: Any) -> None:
    """Raise :class:`CodecError` unless :func:`encode` would accept
    ``value``; walks the types and produces no bytes."""
    encoder = _ENCODERS.get(type(value)) or _encoder_for(type(value))
    if encoder is _encode_seq:
        for item in value:
            check_encodable(item)
    elif encoder is _encode_map:
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"map keys must be str, got {type(key).__name__}")
            check_encodable(item)


def _decode_from(data: bytes, pos: int) -> tuple[Any, int]:
    if pos >= len(data):
        raise CodecError("truncated input")
    tag = data[pos]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_INT:
        if pos >= len(data):
            raise CodecError("truncated int")
        mode = data[pos]
        pos += 1
        if mode == 0x00:
            zz, pos = _read_varint(data, pos)
            return (zz >> 1) ^ -(zz & 1), pos
        if mode == 0xFF:
            if pos >= len(data):
                raise CodecError("truncated bigint")
            negative = data[pos] == 0x01
            pos += 1
            length, pos = _read_varint(data, pos)
            if pos + length > len(data):
                raise CodecError("truncated bigint magnitude")
            magnitude = int.from_bytes(data[pos : pos + length], "big")
            pos += length
            return -magnitude if negative else magnitude, pos
        raise CodecError(f"unknown int mode {mode:#x}")
    if tag == _TAG_BYTES:
        length, pos = _read_varint(data, pos)
        if pos + length > len(data):
            raise CodecError("truncated bytes")
        return data[pos : pos + length], pos + length
    if tag == _TAG_STR:
        length, pos = _read_varint(data, pos)
        if pos + length > len(data):
            raise CodecError("truncated str")
        try:
            return data[pos : pos + length].decode("utf-8"), pos + length
        except UnicodeDecodeError as exc:
            raise CodecError("invalid utf-8 in str") from exc
    if tag == _TAG_SEQ:
        count, pos = _read_varint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_from(data, pos)
            items.append(item)
        return tuple(items), pos
    if tag == _TAG_MAP:
        count, pos = _read_varint(data, pos)
        result: dict[str, Any] = {}
        previous_key: str | None = None
        for _ in range(count):
            key_len, pos = _read_varint(data, pos)
            if pos + key_len > len(data):
                raise CodecError("truncated map key")
            key = data[pos : pos + key_len].decode("utf-8")
            pos += key_len
            if previous_key is not None and key <= previous_key:
                raise CodecError("map keys not in canonical order")
            previous_key = key
            result[key], pos = _decode_from(data, pos)
        return result, pos
    raise CodecError(f"unknown tag {tag:#x}")


def decode(data: bytes) -> Any:
    """Decode a canonical byte string, rejecting trailing garbage."""
    value, pos = _decode_from(bytes(data), 0)
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after value")
    return value


def decode_stream(data: bytes) -> Iterator[Any]:
    """Decode a concatenation of canonical values, yielding each."""
    data = bytes(data)
    pos = 0
    while pos < len(data):
        value, pos = _decode_from(data, pos)
        yield value


def encode_stream(values) -> bytes:
    """Encode an iterable of values as a concatenation of canonical
    encodings (the inverse of :func:`decode_stream`).  Used for chunked
    state transfer, where a chunk is a self-delimiting stream of
    ``(key, value)`` pairs rather than one enclosing sequence."""
    return b"".join(encode(value) for value in values)


def encoded_size(value: Any) -> int:
    """Return the size in bytes of the canonical encoding of ``value``.
    A seal, ``bytes`` and an ``int`` are sized directly."""
    kind = type(value)
    if kind is Sealed:
        return len(value.wire_bytes)
    if kind is bytes:
        return 1 + _varint_size(len(value)) + len(value)
    if kind is int:
        return len(_int_bytes(value))
    return len(encode(value))


def sequence_size(count: int, items_size: int) -> int:
    """Size of a sequence of ``count`` items whose encodings total
    ``items_size`` bytes: what a sender sizes from parts it already has."""
    return 1 + _varint_size(count) + items_size
