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

import dataclasses
import functools
from collections.abc import Mapping, Sequence
from operator import attrgetter
from typing import Any, Callable, Iterator

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
    packed: "SealedSeq | None" = None  # memo of :func:`pack`


class SealedMap(Mapping):
    """A read-only map held as nothing but its canonical encoding.

    ``wire_bytes`` is ``encode`` of a ``dict``; every read decodes it, so
    keys come back in canonical (sorted) order and sequences as tuples.
    The encoder splices the bytes verbatim, as it does a :class:`Sealed`'s,
    and the same invariant holds: a seal is made only from bytes this
    process encoded (:func:`seal`, or :func:`value_of` reading an output
    a ledger run or a receipt holds at its encoded size), never from
    bytes that arrived.  ``==`` is ``Mapping`` equality, so ``False`` and
    ``0`` compare as they do in dicts.  A ledger entry's output reads as
    one.
    """

    __slots__ = ("wire_bytes",)

    def __init__(self, wire_bytes: bytes) -> None:
        self.wire_bytes = wire_bytes

    def __getitem__(self, key: str) -> Any:
        return decode(self.wire_bytes)[key]

    def __iter__(self) -> Iterator[str]:
        return iter(decode(self.wire_bytes))

    def __len__(self) -> int:
        return _read_varint(self.wire_bytes, 1)[0]

    def __repr__(self) -> str:
        return repr(decode(self.wire_bytes))


class SealedSeq(Sequence):
    """A read-only sequence held as nothing but its canonical encoding:
    the sequence sibling of :class:`SealedMap`.

    What a :class:`Sealed` becomes once its items are seldom read: an
    executed request, which every ledger entry and receipt of it holds
    this way.  :func:`pack` is the only constructor and takes only a
    :class:`Sealed`, so the seal's invariant carries over
    (``wire_bytes == encode(tuple(self))``), as does its ``digest``
    memo of :func:`repro.crypto.hashing.digest_value`.  The encoder
    splices the bytes verbatim.  Reading item ``i`` (a non-negative
    int) steps over the items before it and decodes that one alone, and
    a slice of step 1 decodes its run of items in the same one walk;
    any other read, iteration, ``==`` and ``hash`` decode the whole.
    All behave as the plain tuple's.  :meth:`unseal` gives the
    :class:`Sealed` back.
    """

    __slots__ = ("wire_bytes", "digest")

    def __init__(self, wire_bytes: bytes, digest: bytes | None) -> None:
        self.wire_bytes = wire_bytes
        self.digest = digest

    def __getitem__(self, index):
        data = self.wire_bytes
        count, pos = data[1], 2
        if count >= 0x80:
            count, pos = _read_varint(data, 1)
        if type(index) is int and 0 <= index < count:
            return _decode_from(data, _skip_items(data, pos, index))[0]
        if type(index) is not slice:
            return decode(data)[index]
        start, stop, step = index.indices(count)
        if step != 1:
            return decode(data)[index]
        # A run of items: one walk, stepping over those before it.
        pos = _skip_items(data, pos, start)
        items = []
        for _ in range(stop - start):
            item, pos = _decode_from(data, pos)
            items.append(item)
        return tuple(items)

    def __len__(self) -> int:
        return _read_varint(self.wire_bytes, 1)[0]

    def __iter__(self) -> Iterator[Any]:
        return iter(decode(self.wire_bytes))

    def __eq__(self, other: object) -> bool:
        if type(other) is SealedSeq:
            return self.wire_bytes == other.wire_bytes or decode(self.wire_bytes) == decode(other.wire_bytes)
        if isinstance(other, tuple):
            return decode(self.wire_bytes) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(decode(self.wire_bytes))

    def __repr__(self) -> str:
        return repr(decode(self.wire_bytes))

    def unseal(self) -> Sealed:
        """The :class:`Sealed` these bytes were packed from, decoded."""
        sealed = Sealed(decode(self.wire_bytes))
        sealed.wire_bytes, sealed.digest, sealed.packed = self.wire_bytes, self.digest, self
        return sealed


def pack(value: Any) -> Any:
    """A :class:`Sealed` as its :class:`SealedSeq`, made once per seal
    and shared by everything that packs it; any other value as it is."""
    if type(value) is not Sealed:
        return value
    packed = value.packed
    if packed is None:
        packed = value.packed = SealedSeq(value.wire_bytes, value.digest)
    return packed


# The types that carry their own encoding in ``wire_bytes``.
_SEALS = frozenset((Sealed, SealedMap, SealedSeq))
_MAP_TAG_BYTE = bytes((_TAG_MAP,))


def seal(value: tuple | list | dict) -> Sealed | SealedMap | SealedSeq:
    """Encode ``value`` once and return it carrying those bytes: a
    :class:`SealedMap` for a ``dict``, a :class:`Sealed` otherwise.  A
    value already sealed is returned as it is."""
    if type(value) in _SEALS:
        return value
    if type(value) is dict:
        return SealedMap(encode(value))
    plain = tuple(value)
    sealed = Sealed(plain)
    sealed.wire_bytes = encode(plain)
    return sealed


def encoding_of(value: Any) -> bytes:
    """``encode(value)``; a seal's own bytes, not a copy."""
    return value.wire_bytes if type(value) in _SEALS else encode(value)


def value_of(data: bytes) -> Any:
    """The value the held encoding ``data`` encodes: a map as a
    :class:`SealedMap` of these bytes, anything else decoded.  How a
    ledger run and a receipt, which hold an output at its encoded size,
    read it back."""
    return SealedMap(data) if data[:1] == _MAP_TAG_BYTE else decode(data)


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


# -- wire forms of records ---------------------------------------------------


def parse(raw: Any, tag: str | None, arity: int | None, error: type[Exception], build: Callable) -> Any:
    """The one shape check of a record's wire form: ``raw`` must be a
    tuple of ``arity`` items (any number for ``None``), led by ``tag``
    unless it is ``None``.  Returns ``build(*items)`` over the items after
    the tag.  A wrong shape, or a ``TypeError``/``ValueError`` out of
    ``build`` (a field of the wrong type), raises ``error``, the record
    module's :class:`~repro.errors.ReproError`."""
    if (
        not isinstance(raw, tuple)
        or (arity is not None and len(raw) != arity)
        or (tag is not None and (not raw or raw[0] != tag))
    ):
        raise error(f"malformed {tag or 'record'} wire form")
    try:
        return build(*raw) if tag is None else build(*raw[1:])
    except (TypeError, ValueError) as exc:
        raise error(f"malformed {tag or 'record'}: {exc}") from exc


def wire(tag: str, error: type[Exception], **coerce: Callable) -> Callable[[type], type]:
    """Class decorator giving a dataclass record the one wire rule: its
    wire form is ``(tag, *init fields)`` in declaration order
    (``to_wire``), read back positionally by :func:`parse`
    (``from_wire``), each item first passed through ``coerce[name]``
    where one is given.  ``wire_tag`` is the tag.  A record whose last
    field is ``signature`` is signed: it gets ``with_signature`` and,
    unless it defines its own, a ``signed_payload`` that encodes its wire
    form less the signature."""

    def apply(cls: type) -> type:
        names = [f.name for f in dataclasses.fields(cls) if f.init]
        get, arity = attrgetter(*names), len(names) + 1

        if arity > 2:
            def to_wire(self) -> tuple:
                return (tag,) + get(self)
        else:
            def to_wire(self) -> tuple:
                return (tag, get(self))

        build = cls
        if coerce:
            steps = [coerce.get(name) for name in names]

            def build(*items):
                return cls(*[item if step is None else step(item) for step, item in zip(steps, items)])

        cls.wire_tag = tag
        cls.to_wire = to_wire
        cls.from_wire = staticmethod(lambda raw: parse(raw, tag, arity, error, build))
        if names[-1] == "signature":
            cls.with_signature = _with_signature
            if "signed_payload" not in vars(cls):
                cls.signed_payload = _signed_payload
        return cls

    return apply


def _with_signature(self, signature: bytes):
    """This record signed: a copy with ``signature`` and no memo."""
    return dataclasses.replace(self, signature=signature)


def _signed_payload(self) -> bytes:
    """The bytes a record's signature covers: its wire form less the
    trailing signature."""
    return encode(self.to_wire()[:-1])


def _write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint.  Callers append one below 0x80
    themselves: it is its own one-byte varint."""
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
    end = len(data)
    if pos < end and data[pos] < 0x80:
        return data[pos], pos + 1
    if pos + 1 < end and data[pos + 1] < 0x80:
        return data[pos] & 0x7F | data[pos + 1] << 7, pos + 2
    result = shift = 0
    while pos < end:
        byte = data[pos]
        pos += 1
        if byte < 0x80:
            return result | byte << shift, pos
        result |= (byte & 0x7F) << shift
        shift += 7
        if shift > 63:
            raise CodecError("varint too long")
    raise CodecError("truncated varint")


def _skip(data: bytes, pos: int) -> int:
    """The position after the value encoded at ``pos``, found without
    building the value.  Reads only bytes this process encoded."""
    tag = data[pos]
    if tag <= _TAG_TRUE:
        return pos + 1
    if tag == _TAG_INT:
        if data[pos + 1] == 0x00:  # zig-zag: step over the varint's bytes
            pos += 2
            while data[pos] & 0x80:
                pos += 1
            return pos + 1
        length, pos = _read_varint(data, pos + 3)  # mode 0xFF, sign, length
        return pos + length
    length = data[pos + 1]
    if length < 0x80:
        pos += 2
    else:
        length, pos = _read_varint(data, pos + 1)
    if tag == _TAG_BYTES or tag == _TAG_STR:
        return pos + length
    if tag == _TAG_SEQ:
        return _skip_items(data, pos, length)
    if tag == _TAG_MAP:
        for _ in range(length):
            key_len = data[pos]
            if key_len < 0x80:
                pos += 1
            else:
                key_len, pos = _read_varint(data, pos)
            pos += key_len
            if data[pos] == _TAG_INT and data[pos + 1] == 0x00:  # a zig-zag value, inline
                pos += 2
                while data[pos] & 0x80:
                    pos += 1
                pos += 1
            else:
                pos = _skip(data, pos)
        return pos
    raise CodecError(f"unknown tag {tag:#x}")


def _skip_items(data: bytes, pos: int, count: int) -> int:
    """The position after ``count`` values encoded from ``pos``, as
    :func:`_skip` finds it; a ``str`` or ``bytes`` under 128 bytes and
    an int whose varint is one byte are stepped over inline."""
    for _ in range(count):
        tag = data[pos]
        if tag == _TAG_STR or tag == _TAG_BYTES:
            size = data[pos + 1]
            if size < 0x80:
                pos += 2 + size
                continue
        elif tag == _TAG_INT and data[pos + 1] == 0x00 and data[pos + 2] < 0x80:
            pos += 3
            continue
        pos = _skip(data, pos)
    return pos


# -- encoding: one encoder per type, found through ``_ENCODERS`` ---------------

_ZIGZAG_LIMIT = 2**62  # beyond it ints take the sign-and-magnitude form
_ZIGZAG = bytes((_TAG_INT, 0x00))
_SMALL_INTS = [_ZIGZAG + bytes((value << 1,)) for value in range(64)]
# A sequence's or map's header for a count below 128: the tag, then the
# count as its own one-byte varint.
_SEQ_HEADS = [bytes((_TAG_SEQ, count)) for count in range(0x80)]
_MAP_HEADS = [bytes((_TAG_MAP, count)) for count in range(0x80)]


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
    size = len(value)
    if size < 0x80:
        out.append(size)
    else:
        _write_varint(out, size)
    out += value


def _encode_memoryview(out: bytearray, value: memoryview) -> None:
    _encode_bytes(out, bytes(value))  # len() of a view counts items, not bytes


def _encode_str(out: bytearray, value: str) -> None:
    raw = value.encode("utf-8")
    out.append(_TAG_STR)
    size = len(raw)
    if size < 0x80:
        out.append(size)
    else:
        _write_varint(out, size)
    out += raw


def _encode_seq(out: bytearray, value: tuple | list) -> None:
    count = len(value)
    if count < 0x80:
        out += _SEQ_HEADS[count]
    else:
        out.append(_TAG_SEQ)
        _write_varint(out, count)
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
    count = len(value)
    if count < 0x80:
        out += _MAP_HEADS[count]
    else:
        out.append(_TAG_MAP)
        _write_varint(out, count)
    try:
        keys = sorted(value)
    except TypeError as exc:
        raise CodecError("map keys must be sortable strings") from exc
    for key in keys:
        if not isinstance(key, str):
            raise CodecError(f"map keys must be str, got {type(key).__name__}")
        raw = key.encode("utf-8")
        size = len(raw)
        if size < 0x80:
            out.append(size)
        else:
            _write_varint(out, size)
        out += raw
        item = value[key]
        (_ENCODERS.get(type(item)) or _encoder_for(type(item)))(out, item)


def _encode_sealed(out: bytearray, value: Sealed | SealedMap | SealedSeq) -> None:
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
    SealedMap: _encode_sealed,
    SealedSeq: _encode_sealed,
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
    if kind in _SEALS:
        return value.wire_bytes
    out = bytearray()
    (_ENCODERS.get(kind) or _encoder_for(kind))(out, value)
    return bytes(out)


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


# The bytes of a write-set preimage before each of its two values: the
# map header and the key "deleted", then the key "writes" (keys sort).
_WS_DELETED = bytes((_TAG_MAP, 2, 7)) + b"deleted"
_WS_WRITES = bytes((6,)) + b"writes"


def encode_write_set(writes: dict, missing: Any) -> bytes:
    """``encode({"deleted": deleted, "writes": {k: None if v is missing
    else v ...}})``, with ``deleted`` the sorted tuple of the keys whose
    value is ``missing``: the preimage of a write-set digest.

    Written directly: the ``str`` keys are sorted and UTF-8 encoded once,
    no dict or tuple copy is built, and ``int`` values are written
    inline."""
    keys = sorted(writes)
    raws = [key.encode() for key in keys]
    deleted = [raw for key, raw in zip(keys, raws) if writes[key] is missing]
    out = bytearray(_WS_DELETED)
    count = len(deleted)
    if count < 0x80:
        out += _SEQ_HEADS[count]
    else:
        out.append(_TAG_SEQ)
        _write_varint(out, count)
    for raw in deleted:
        out.append(_TAG_STR)
        size = len(raw)
        if size < 0x80:
            out.append(size)
        else:
            _write_varint(out, size)
        out += raw
    out += _WS_WRITES
    count = len(keys)
    if count < 0x80:
        out += _MAP_HEADS[count]
    else:
        out.append(_TAG_MAP)
        _write_varint(out, count)
    for key, raw in zip(keys, raws):
        size = len(raw)
        if size < 0x80:
            out.append(size)
        else:
            _write_varint(out, size)
        out += raw
        value = writes[key]
        kind = type(value)
        if kind is int:
            _encode_int(out, value)
        elif value is missing:
            out.append(_TAG_NONE)
        else:
            (_ENCODERS.get(kind) or _encoder_for(kind))(out, value)
    return bytes(out)


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
    """The value encoded at ``pos`` and the position after it.  Total:
    any byte string decodes or raises :class:`CodecError`.  A length or
    count whose varint is one byte is read inline, and a map's int value
    without a call."""
    end = len(data)
    if pos >= end:
        raise CodecError("truncated input")
    tag = data[pos]
    pos += 1
    if tag == _TAG_INT:
        if pos < end and data[pos] == 0x00:
            zigzag, pos = _read_varint(data, pos + 1)
            return (zigzag >> 1) ^ -(zigzag & 1), pos
        return _decode_int(data, pos)
    if _TAG_BYTES <= tag <= _TAG_MAP:
        if pos < end and data[pos] < 0x80:
            length = data[pos]
            pos += 1
        else:
            length, pos = _read_varint(data, pos)
        if tag == _TAG_STR:
            stop = pos + length
            if stop > end:
                raise CodecError("truncated str")
            try:
                return data[pos:stop].decode("utf-8"), stop
            except UnicodeDecodeError as exc:
                raise CodecError("invalid utf-8 in str") from exc
        if tag == _TAG_BYTES:
            stop = pos + length
            if stop > end:
                raise CodecError("truncated bytes")
            return data[pos:stop], stop
        if tag == _TAG_SEQ:
            items = []
            for _ in range(length):
                item, pos = _decode_from(data, pos)
                items.append(item)
            return tuple(items), pos
        result: dict[str, Any] = {}
        previous_key: str | None = None
        for _ in range(length):
            if pos < end and data[pos] < 0x80:
                stop = pos + 1 + data[pos]
                pos += 1
            else:
                key_len, pos = _read_varint(data, pos)
                stop = pos + key_len
            if stop > end:
                raise CodecError("truncated map key")
            try:
                key = data[pos:stop].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CodecError("invalid utf-8 in map key") from exc
            if previous_key is not None and key <= previous_key:
                raise CodecError("map keys not in canonical order")
            previous_key = key
            if stop + 1 < end and data[stop] == _TAG_INT and data[stop + 1] == 0x00:
                zigzag, pos = _read_varint(data, stop + 2)  # a zig-zag value, inline
                result[key] = (zigzag >> 1) ^ -(zigzag & 1)
            else:
                result[key], pos = _decode_from(data, stop)
        return result, pos
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    raise CodecError(f"unknown tag {tag:#x}")


def _decode_int(data: bytes, pos: int) -> tuple[int, int]:
    """An int whose mode byte is at ``pos`` and is not the zig-zag mode
    0x00: sign and magnitude (mode 0xFF), or an error."""
    if pos >= len(data):
        raise CodecError("truncated int")
    mode = data[pos]
    pos += 1
    if mode == 0xFF:
        if pos >= len(data):
            raise CodecError("truncated bigint")
        negative = data[pos] == 0x01
        pos += 1
        length, pos = _read_varint(data, pos)
        if pos + length > len(data):
            raise CodecError("truncated bigint magnitude")
        magnitude = int.from_bytes(data[pos : pos + length], "big")
        return -magnitude if negative else magnitude, pos + length
    raise CodecError(f"unknown int mode {mode:#x}")


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
    if kind in _SEALS:
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
