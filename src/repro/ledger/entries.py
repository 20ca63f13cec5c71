"""Typed ledger entries (paper Fig. 3, Tab. 1).

Each entry's wire form is ``(tag, *fields)`` (:func:`repro.codec.wire`);
the ledger Merkle tree M hashes the wire form of every entry.  Entry tags:

- ``genesis`` — the genesis governance transaction gt, whose digest is the
  service name;
- ``tx`` — a transaction entry ``⟨t, i, o⟩``: the signed request, its
  ledger index, and the output (client reply + write-set digest);
- ``checkpoint-tx`` — the special checkpoint transaction recording the
  digest of the checkpoint C sequence numbers earlier;
- ``evidence`` — ``Ps−P``: the N−f−1 prepare messages proving a batch
  prepared;
- ``nonces`` — ``Ks−P``: the revealed commit nonces for that batch;
- ``pre-prepare-entry`` — the primary's signed ordering decision;
- ``view-changes`` — the N−f view-change messages accepted by a new
  primary;
- ``new-view-entry`` — the new primary's signed new-view message.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, NamedTuple

from .. import codec
from ..codec import memoised
from ..crypto.hashing import Digest, digest, digest_value
from ..errors import LedgerError

# Message types are imported lazily inside accessors: repro.lpbft depends
# on repro.ledger, so a module-level import here would be circular.


class LedgerEntry:
    """Base class for ledger entries, each a :func:`codec.wire` record.
    Entries are slotted: a replica holds one per transaction, and a memo
    is a declared field, not a ``__dict__``."""

    __slots__ = ()

    def digest(self) -> Digest:
        """Digest of the canonical wire form (the Merkle leaf)."""
        return digest_value(self.to_wire())

    def encoded_size(self) -> int:
        """Size in bytes of the canonical encoding (Tab. 1)."""
        return len(codec.encode(self.to_wire()))


@codec.wire("genesis", LedgerError)
@dataclass(frozen=True, slots=True)
class GenesisEntry(LedgerEntry):
    """The genesis transaction gt: initial members, replicas, and rules.

    ``config_wire`` is the canonical wire form of the initial
    :class:`~repro.governance.configuration.Configuration`.  The digest of
    this entry is the service name (paper §2).
    """

    config_wire: tuple

    def service_name(self) -> Digest:
        """H(gt): the well-known service name."""
        return self.digest()


class Invocation(NamedTuple):
    """A request's ``procedure`` and ``args``: all that executing it reads."""

    procedure: str
    args: dict


# A request's encoding opens with its eight-item header, the "request"
# tag and its procedure name's STR tag; a name under 128 bytes follows
# its one-byte length.
_REQUEST_HEAD = codec.encode(("request", "", None, None, None, None, None, None))[:12]
_NAME_AT = len(_REQUEST_HEAD) + 1
_GOV_PREFIX = b"gov."
_TIO_HEAD = codec.encode((None, None, None))[:2]  # a three-item sequence's header
_TIO_HEAD_SIZE = len(_TIO_HEAD)


@codec.wire("tx", LedgerError)
@dataclass(frozen=True, slots=True)
class TxEntry(LedgerEntry):
    """A transaction entry ``⟨t, i, o⟩`` (Fig. 3).

    ``output`` is a map with the client-visible reply (``"reply"``) and
    the digest of the transaction's write set (``"ws"``), so replay can
    detect silently-dropped writes even when the reply matches.  A ledger
    holds no ``TxEntry``: it packs each batch's entries into a
    :class:`TxRun`, and an entry read from a ledger or a batch record is
    a view the run builds on demand, holding the packed request and its
    output as a :class:`~repro.codec.SealedMap` of the run's bytes.
    """

    request_wire: tuple
    index: int
    output: Any

    def request(self):
        from ..lpbft.messages import TransactionRequest

        return TransactionRequest.from_wire(self.request_wire)

    def invocation(self):
        """What replay executes: a packed request's ``procedure`` and
        ``args``, read in one walk of its bytes (the items around them
        stay encoded); any other request parsed whole (:meth:`request`)."""
        t = self.request_wire
        if type(t) is not codec.SealedSeq:
            return self.request()
        return Invocation(*t[1:3])

    def is_governance(self) -> bool:
        """Whether ``t`` invokes a governance procedure (``gov.*``, §5)."""
        return _is_governance(self.request_wire)

    def tio(self) -> tuple:
        """The ``(t, i, o)`` triple a receipt commits to — also the G-tree
        leaf preimage."""
        return (self.request_wire, self.index, self.output)

    def leaves(self) -> tuple[Digest, Digest]:
        """``(digest(), leaf_digest())`` from one encoding of ``(t, i, o)``,
        the G preimage."""
        encoded = self._encode_tio()
        return _wire_leaf(encoded), digest(encoded)

    def digest(self) -> Digest:
        """The M leaf; remembered by tree M, not here."""
        return _wire_leaf(self._encode_tio())

    def leaf_digest(self) -> Digest:
        """This entry's leaf in the per-batch tree G; remembered by the
        tree G of the entry's batch record or ledger batch, not here."""
        return digest(self._encode_tio())

    def _encode_tio(self) -> bytes:
        """``encode(tio())``; a view's sealed output is spliced as held."""
        t, i, o = self.request_wire, self.index, self.output
        if type(o) is codec.SealedMap:
            return _tio_bytes(t, i, o.wire_bytes)
        return codec.encode((t, i, o))


def _tio_bytes(t, i: int, o: bytes) -> bytes:
    """``encode((t, i, o))`` for an output held as its encoding ``o``; a
    packed request's bytes are spliced."""
    request = t.wire_bytes if type(t) is codec.SealedSeq else codec.encode(t)
    return b"".join((_TIO_HEAD, request, codec.encode(i), o))


def _is_governance(t) -> bool:
    """Whether request ``t`` invokes a governance procedure.  Asked of
    every transaction a ledger appends, so a packed request's procedure
    name is compared in its bytes, nothing decoded."""
    if type(t) is codec.SealedSeq:
        wire = t.wire_bytes
        if wire.startswith(_REQUEST_HEAD) and wire[_NAME_AT - 1] < 0x80:
            return wire.startswith(_GOV_PREFIX, _NAME_AT)
    return t[1].startswith("gov.")


_TX_WIRE_HEAD = codec.encode((TxEntry.wire_tag, None, None, None))[:-3]  # four-item header, tag


def _wire_leaf(tio_encoding: bytes) -> Digest:
    """A TxEntry's M leaf from its G preimage: the wire form is the same
    three items under a four-item header and its tag."""
    leaf = hashlib.sha256(_TX_WIRE_HEAD)
    leaf.update(memoryview(tio_encoding)[_TIO_HEAD_SIZE:])
    return leaf.digest()


@codec.wire("checkpoint-tx", LedgerError)
@dataclass(frozen=True, slots=True)
class CheckpointTxEntry(LedgerEntry):
    """The checkpoint transaction at seqno s recording the digest of the
    checkpoint taken at ``cp_seqno`` (paper §3.4).  Lives inside a batch
    (and its G tree) like a transaction, so it has an index and receipts.
    """

    cp_seqno: int
    cp_digest: Digest
    ledger_size: int
    ledger_root: Digest
    index: int
    _leaf_digest: Digest | None = field(default=None, init=False, repr=False, compare=False)

    def tio(self) -> tuple:
        """Checkpoint transactions appear in G with a synthetic (t, i, o)."""
        return (("__checkpoint__", self.cp_seqno, self.cp_digest, self.ledger_size, self.ledger_root), self.index, None)

    @memoised
    def leaf_digest(self) -> Digest:
        """This entry's leaf in the per-batch tree G."""
        return digest_value(self.tio())


@codec.wire("evidence", LedgerError)
@dataclass(frozen=True, slots=True)
class EvidenceEntry(LedgerEntry):
    """``Ps−P``: prepares proving the batch at ``seqno`` prepared (§3.1)."""

    seqno: int
    view: int
    prepare_wires: tuple  # tuple of Prepare.to_wire()

    def prepares(self) -> list:
        from ..lpbft.messages import Prepare

        return [Prepare.from_wire(w) for w in self.prepare_wires]


@codec.wire("nonces", LedgerError)
@dataclass(frozen=True, slots=True)
class NoncesEntry(LedgerEntry):
    """``Ks−P``: revealed commit nonces for the batch at ``seqno``.

    ``bitmap`` records which replicas' nonces appear, in increasing
    replica-id order.
    """

    seqno: int
    view: int
    bitmap: int
    nonces: tuple  # tuple of 32-byte nonces, replica-id order


@codec.wire("pre-prepare-entry", LedgerError)
@dataclass(frozen=True, slots=True)
class PrePrepareEntry(LedgerEntry):
    """The signed pre-prepare for a batch."""

    pp_wire: tuple
    _pp: Any = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, pp) -> PrePrepareEntry:
        """The entry of a pre-prepare this process holds, which
        :meth:`pre_prepare` then returns."""
        entry = cls(pp_wire=pp.to_wire())
        object.__setattr__(entry, "_pp", pp)
        return entry

    def pre_prepare(self):
        """The pre-prepare, decoded once."""
        if self._pp is None:
            from ..lpbft.messages import PrePrepare

            object.__setattr__(self, "_pp", PrePrepare.from_wire(self.pp_wire))
        return self._pp


@codec.wire("view-changes", LedgerError)
@dataclass(frozen=True, slots=True)
class ViewChangesEntry(LedgerEntry):
    """The N−f view-change messages a new primary accepted (Alg. 2),
    ordered by increasing replica identifier.  ``hvc`` in the new-view is
    this entry's digest."""

    view: int
    vc_wires: tuple  # tuple of ViewChange.to_wire()

    def view_changes(self) -> list:
        from ..lpbft.messages import ViewChange

        return [ViewChange.from_wire(w) for w in self.vc_wires]


@codec.wire("new-view-entry", LedgerError)
@dataclass(frozen=True, slots=True)
class NewViewEntry(LedgerEntry):
    """The signed new-view message."""

    nv_wire: tuple

    def new_view(self):
        from ..lpbft.messages import NewView

        return NewView.from_wire(self.nv_wire)


_ENTRY_CLASSES = {
    cls.wire_tag: cls
    for cls in (
        GenesisEntry, TxEntry, CheckpointTxEntry, EvidenceEntry, NoncesEntry,
        PrePrepareEntry, ViewChangesEntry, NewViewEntry,
    )
}


def entry_from_wire(raw: tuple) -> LedgerEntry:
    """Reconstruct a typed entry from its wire form: the entry class its
    tag names reads it (:func:`codec.parse`)."""
    tag = raw[0] if isinstance(raw, tuple) and raw else None
    cls = _ENTRY_CLASSES.get(tag) if type(tag) is str else None
    if cls is None:
        raise LedgerError("malformed ledger entry: no known tag")
    return cls.from_wire(raw)


class TxRun:
    """The transaction entries of one batch, packed: what a ledger and a
    batch record hold instead of an object per ``⟨t, i, o⟩``.

    Entry ``k`` is ``⟨requests[k], first_index + k, o⟩`` where ``o`` is
    ``outputs[offsets[k]:offsets[k + 1]]``, the output's encoding: the
    requests are the packed :class:`~repro.codec.SealedSeq`s the other
    replicas and the client's receipts share, and the outputs are one
    ``bytes`` with an ``array`` of offsets.  A checkpoint transaction
    (§3.4) is held as its entry in ``requests``, with no output bytes.
    :meth:`entry` builds a :class:`TxEntry` view on demand and
    :meth:`wire` its wire form; nothing per entry outlives either.

    A run is built by :meth:`add` (an executed transaction) or
    :meth:`add_entry`, each hashing both leaves from one encoding, and
    packed by :meth:`close`; until then the outputs are a list of their
    encodings.  ``position`` is the absolute ledger position of entry 0,
    set by the ledger that holds the run.
    """

    __slots__ = ("first_index", "position", "requests", "outputs", "offsets")

    def __init__(self, first_index: int, position: int = -1) -> None:
        self.first_index = first_index
        self.position = position
        self.requests: list | tuple = []
        self.outputs: list | bytes = []
        self.offsets: array | None = None

    def __len__(self) -> int:
        return len(self.requests)

    def add(self, request_wire, output) -> tuple[Digest, Digest]:
        """Append the next transaction, ``request_wire`` with its
        ``output``, from one encoding of ``⟨t, i, o⟩``: keeps ``t``
        packed and ``o``'s bytes, and returns ``(M leaf, G leaf)``."""
        index = self.first_index + len(self.requests)
        if type(output) is codec.SealedMap:  # held at its encoding, as a fragment's outputs are
            out = output.wire_bytes
            encoded = _tio_bytes(request_wire, index, out)
        else:
            encoded = codec.encode((request_wire, index, output))
            out = encoded[_TIO_HEAD_SIZE + codec.encoded_size(request_wire) + codec.encoded_size(index):]
        self.requests.append(codec.pack(request_wire))
        self.outputs.append(out)
        return _wire_leaf(encoded), digest(encoded)

    def add_entry(self, entry: TxEntry | CheckpointTxEntry) -> tuple[Digest, Digest]:
        """Append ``entry``, whose index must be the run's next; returns
        its ``(M leaf, G leaf)``."""
        if type(entry) is CheckpointTxEntry:
            self.requests.append(entry)
            self.outputs.append(b"")
            return entry.digest(), entry.leaf_digest()
        return self.add(entry.request_wire, entry.output)

    def close(self) -> TxRun:
        """Pack the outputs into one ``bytes`` (idempotent); returns the run."""
        if type(self.outputs) is list:
            self.offsets = array("I", list(accumulate(map(len, self.outputs), initial=0)))
            self.outputs = b"".join(self.outputs)
            self.requests = tuple(self.requests)
        return self

    def slice(self, start: int, end: int) -> TxRun:
        """A closed run of entries ``[start, end)``."""
        run = TxRun(self.first_index + start, self.position + start)
        run.requests = list(self.requests[start:end])
        run.outputs = [self._output_bytes(k) for k in range(start, end)]
        return run.close()

    def _output_bytes(self, k: int) -> bytes:
        outputs = self.outputs
        if type(outputs) is list:
            return outputs[k]
        offsets = self.offsets
        return outputs[offsets[k] : offsets[k + 1]]

    def request_wire(self, k: int):
        """Entry ``k``'s request (None for a checkpoint transaction)."""
        t = self.requests[k]
        return None if type(t) is CheckpointTxEntry else t

    def entry(self, k: int) -> TxEntry | CheckpointTxEntry:
        """Entry ``k``: a checkpoint transaction as held, a transaction
        as a :class:`TxEntry` view whose output reads its bytes
        (:func:`codec.value_of`: a map as a ``SealedMap``)."""
        t = self.requests[k]
        if type(t) is CheckpointTxEntry:
            return t
        return TxEntry(t, self.first_index + k, codec.value_of(self._output_bytes(k)))

    def wire(self, k: int) -> tuple:
        """Entry ``k``'s wire form, with no view built."""
        t = self.requests[k]
        if type(t) is CheckpointTxEntry:
            return t.to_wire()
        return (TxEntry.wire_tag, t, self.first_index + k, codec.value_of(self._output_bytes(k)))

    def is_governance(self, k: int) -> bool:
        t = self.requests[k]
        return type(t) is not CheckpointTxEntry and _is_governance(t)

    def g_leaves(self, start: int, end: int) -> list[Digest]:
        """The G leaves of entries ``[start, end)``, hashed from the held
        bytes with no view built."""
        leaves = []
        for k in range(start, end):
            t = self.requests[k]
            if type(t) is CheckpointTxEntry:
                leaves.append(t.leaf_digest())
            else:
                leaves.append(digest(_tio_bytes(t, self.first_index + k, self._output_bytes(k))))
        return leaves
