"""Typed ledger entries (paper Fig. 3, Tab. 1).

Each entry has a canonical wire form; the ledger Merkle tree M hashes the
wire form of every entry.  Entry kinds:

- ``genesis`` — the genesis governance transaction gt, whose digest is the
  service name;
- ``tx`` — a transaction entry ``⟨t, i, o⟩``: the signed request, its
  ledger index, and the output (client reply + write-set digest);
- ``checkpoint-tx`` — the special checkpoint transaction recording the
  digest of the checkpoint C sequence numbers earlier;
- ``evidence`` — ``Ps−P``: the N−f−1 prepare messages proving a batch
  prepared;
- ``nonces`` — ``Ks−P``: the revealed commit nonces for that batch;
- ``pre-prepare`` — the primary's signed ordering decision;
- ``view-changes`` — the N−f view-change messages accepted by a new
  primary;
- ``new-view`` — the new primary's signed new-view message.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, ClassVar

from .. import codec
from ..codec import memoised
from ..crypto.hashing import Digest, digest, digest_value
from ..errors import LedgerError

# Message types are imported lazily inside accessors: repro.lpbft depends
# on repro.ledger, so a module-level import here would be circular.


class LedgerEntry:
    """Base class for ledger entries.  Entries are slotted: a replica holds
    one per transaction, and a memo is a declared field, not a
    ``__dict__``."""

    __slots__ = ()
    kind: ClassVar[str] = "abstract"

    def to_wire(self) -> tuple:
        raise NotImplementedError

    def digest(self) -> Digest:
        """Digest of the canonical wire form (the Merkle leaf)."""
        return digest_value(self.to_wire())

    def encoded_size(self) -> int:
        """Size in bytes of the canonical encoding (Tab. 1)."""
        return len(codec.encode(self.to_wire()))


@dataclass(frozen=True, slots=True)
class GenesisEntry(LedgerEntry):
    """The genesis transaction gt: initial members, replicas, and rules.

    ``config_wire`` is the canonical wire form of the initial
    :class:`~repro.governance.configuration.Configuration`.  The digest of
    this entry is the service name (paper §2).
    """

    kind: ClassVar[str] = "genesis"
    config_wire: tuple

    def to_wire(self) -> tuple:
        return ("genesis", self.config_wire)

    def service_name(self) -> Digest:
        """H(gt): the well-known service name."""
        return self.digest()


_TX_WIRE_HEAD = codec.encode(("tx", None, None, None))[:-3]  # four-item header, "tx"
_TIO_HEAD_SIZE = codec.sequence_size(3, 0)


@dataclass(frozen=True, slots=True)
class TxEntry(LedgerEntry):
    """A transaction entry ``⟨t, i, o⟩`` (Fig. 3).

    ``output`` is a dict with the client-visible reply (``"reply"``) and
    the digest of the transaction's write set (``"ws"``), so replay can
    detect silently-dropped writes even when the reply matches.
    """

    kind: ClassVar[str] = "tx"
    request_wire: tuple
    index: int
    output: Any
    _leaf_digest: Digest | None = field(default=None, init=False, repr=False, compare=False)

    def to_wire(self) -> tuple:
        return ("tx", self.request_wire, self.index, self.output)

    def request(self):
        from ..lpbft.messages import TransactionRequest

        return TransactionRequest.from_wire(self.request_wire)

    def tio(self) -> tuple:
        """The ``(t, i, o)`` triple a receipt commits to — also the G-tree
        leaf preimage."""
        return (self.request_wire, self.index, self.output)

    def leaves(self) -> tuple[Digest, Digest]:
        """``(digest(), leaf_digest())`` from one encoding of ``(t, i, o)``,
        the G preimage.  Remembers the G leaf, as :meth:`leaf_digest`
        does."""
        encoded = codec.encode(self.tio())
        g_leaf = digest(encoded)
        object.__setattr__(self, "_leaf_digest", g_leaf)
        return _wire_leaf(encoded), g_leaf

    def digest(self) -> Digest:
        """The M leaf; remembered by tree M, not here."""
        return _wire_leaf(codec.encode(self.tio()))

    @memoised
    def leaf_digest(self) -> Digest:
        """This entry's leaf in the per-batch tree G.  Remembered (32
        bytes, never the encoding): execution, replyx rebuilds and view
        changes all ask the entry the ledger holds."""
        return digest(codec.encode(self.tio()))


def _wire_leaf(tio_encoding: bytes) -> Digest:
    """A TxEntry's M leaf from its G preimage: the wire form is the same
    three items under a four-item header and the ``"tx"`` tag."""
    leaf = hashlib.sha256(_TX_WIRE_HEAD)
    leaf.update(memoryview(tio_encoding)[_TIO_HEAD_SIZE:])
    return leaf.digest()


@dataclass(frozen=True, slots=True)
class CheckpointTxEntry(LedgerEntry):
    """The checkpoint transaction at seqno s recording the digest of the
    checkpoint taken at ``cp_seqno`` (paper §3.4).  Lives inside a batch
    (and its G tree) like a transaction, so it has an index and receipts.
    """

    kind: ClassVar[str] = "checkpoint-tx"
    cp_seqno: int
    cp_digest: Digest
    ledger_size: int
    ledger_root: Digest
    index: int
    _leaf_digest: Digest | None = field(default=None, init=False, repr=False, compare=False)

    def to_wire(self) -> tuple:
        return ("checkpoint-tx", self.cp_seqno, self.cp_digest, self.ledger_size, self.ledger_root, self.index)

    def tio(self) -> tuple:
        """Checkpoint transactions appear in G with a synthetic (t, i, o)."""
        return (("__checkpoint__", self.cp_seqno, self.cp_digest, self.ledger_size, self.ledger_root), self.index, None)

    @memoised
    def leaf_digest(self) -> Digest:
        """This entry's leaf in the per-batch tree G."""
        return digest_value(self.tio())


@dataclass(frozen=True, slots=True)
class EvidenceEntry(LedgerEntry):
    """``Ps−P``: prepares proving the batch at ``seqno`` prepared (§3.1)."""

    kind: ClassVar[str] = "evidence"
    seqno: int
    view: int
    prepare_wires: tuple  # tuple of Prepare.to_wire()

    def to_wire(self) -> tuple:
        return ("evidence", self.seqno, self.view, self.prepare_wires)

    def prepares(self) -> list:
        from ..lpbft.messages import Prepare

        return [Prepare.from_wire(w) for w in self.prepare_wires]


@dataclass(frozen=True, slots=True)
class NoncesEntry(LedgerEntry):
    """``Ks−P``: revealed commit nonces for the batch at ``seqno``.

    ``bitmap`` records which replicas' nonces appear, in increasing
    replica-id order.
    """

    kind: ClassVar[str] = "nonces"
    seqno: int
    view: int
    bitmap: int
    nonces: tuple  # tuple of 32-byte nonces, replica-id order

    def to_wire(self) -> tuple:
        return ("nonces", self.seqno, self.view, self.bitmap, self.nonces)


@dataclass(frozen=True, slots=True)
class PrePrepareEntry(LedgerEntry):
    """The signed pre-prepare for a batch."""

    kind: ClassVar[str] = "pre-prepare"
    pp_wire: tuple

    def to_wire(self) -> tuple:
        return ("pre-prepare-entry", self.pp_wire)

    def pre_prepare(self):
        from ..lpbft.messages import PrePrepare

        return PrePrepare.from_wire(self.pp_wire)


@dataclass(frozen=True, slots=True)
class ViewChangesEntry(LedgerEntry):
    """The N−f view-change messages a new primary accepted (Alg. 2),
    ordered by increasing replica identifier.  ``hvc`` in the new-view is
    this entry's digest."""

    kind: ClassVar[str] = "view-changes"
    view: int
    vc_wires: tuple  # tuple of ViewChange.to_wire()

    def to_wire(self) -> tuple:
        return ("view-changes", self.view, self.vc_wires)

    def view_changes(self) -> list:
        from ..lpbft.messages import ViewChange

        return [ViewChange.from_wire(w) for w in self.vc_wires]


@dataclass(frozen=True, slots=True)
class NewViewEntry(LedgerEntry):
    """The signed new-view message."""

    kind: ClassVar[str] = "new-view"
    nv_wire: tuple

    def to_wire(self) -> tuple:
        return ("new-view-entry", self.nv_wire)

    def new_view(self):
        from ..lpbft.messages import NewView

        return NewView.from_wire(self.nv_wire)


_WIRE_TAGS = {
    "genesis": lambda raw: GenesisEntry(config_wire=raw[1]),
    "tx": lambda raw: TxEntry(request_wire=raw[1], index=raw[2], output=raw[3]),
    "checkpoint-tx": lambda raw: CheckpointTxEntry(
        cp_seqno=raw[1], cp_digest=raw[2], ledger_size=raw[3], ledger_root=raw[4], index=raw[5]
    ),
    "evidence": lambda raw: EvidenceEntry(seqno=raw[1], view=raw[2], prepare_wires=raw[3]),
    "nonces": lambda raw: NoncesEntry(seqno=raw[1], view=raw[2], bitmap=raw[3], nonces=raw[4]),
    "pre-prepare-entry": lambda raw: PrePrepareEntry(pp_wire=raw[1]),
    "view-changes": lambda raw: ViewChangesEntry(view=raw[1], vc_wires=raw[2]),
    "new-view-entry": lambda raw: NewViewEntry(nv_wire=raw[1]),
}


def entry_from_wire(raw: tuple) -> LedgerEntry:
    """Reconstruct a typed entry from its wire form."""
    if not isinstance(raw, tuple) or not raw:
        raise LedgerError("malformed ledger entry wire form")
    builder = _WIRE_TAGS.get(raw[0])
    if builder is None:
        raise LedgerError(f"unknown ledger entry tag {raw[0]!r}")
    try:
        return builder(raw)
    except (IndexError, TypeError) as exc:
        raise LedgerError(f"malformed {raw[0]!r} entry: {exc}") from exc
