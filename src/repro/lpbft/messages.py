"""L-PBFT protocol messages (paper §3.1, Alg. 1–2).

Every message has a canonical wire form (``to_wire``/``from_wire``) used
both for transmission over the simulated network and for hashing into the
ledger's Merkle trees: ``(tag, *fields)`` by :func:`repro.codec.wire`,
except a request's, which is sealed.  Signed messages expose
``signed_payload()`` — the wire form less the signature, led by the
per-type tag, so a signature over one message type can never be replayed
as another.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, TypeVar

from .. import codec
from ..crypto.hashing import Digest, digest_value
from ..errors import MalformedMessage, ProtocolError, ReproError

# Batch kinds (the ``flags`` field of a pre-prepare).  Regular batches carry
# client transactions; the reconfiguration batches of §5.1 are empty and
# marked so auditors can recognize them.
BATCH_REGULAR = 0
BATCH_END_OF_CONFIG = 1
BATCH_START_OF_CONFIG = 2
BATCH_CHECKPOINT = 3


@dataclass(frozen=True, slots=True)
class TransactionRequest:
    """A client request ``⟨request, a, c, H(gt), mi⟩σc`` (Alg. 1 line 1).

    ``procedure``/``args`` form the invocation ``a``; ``client`` is the
    client's public key ``c``; ``service`` is the genesis transaction hash
    (the service name), preventing cross-service replay; ``min_index`` is
    the minimum ledger index ``mi`` after which the request may execute,
    used to encode ordering dependencies; ``nonce`` distinguishes repeated
    invocations by the same client.  The request's seal is memoised in a
    declared slot, so a request (every replica decodes its own) carries
    no instance ``__dict__``.
    """

    procedure: str
    args: dict
    client: bytes
    service: Digest
    min_index: int
    nonce: int
    signature: bytes = b""
    _wire: codec.Sealed | None = field(default=None, init=False, repr=False, compare=False)
    wire_tag = "request"

    def signed_payload(self) -> bytes:
        """The wire form less its trailing signature, read off the seal
        (:func:`codec.encode_all_but_last`): no replica encodes it."""
        return codec.encode_all_but_last(self.to_wire())

    def with_signature(self, signature: bytes) -> "TransactionRequest":
        """The signed request, sealed from this one's seal: the client
        encodes its request once."""
        signed = replace(self, signature=signature)
        object.__setattr__(signed, "_wire", codec.reseal_last(self.to_wire(), signature))
        return signed

    def to_wire(self) -> codec.Sealed:
        """Sealed: ``t`` is encoded once, here by its client, and spliced
        into every leaf, ledger entry and receipt that embeds it."""
        wire = self._wire
        if wire is None:
            wire = codec.seal(
                (
                    self.wire_tag,
                    self.procedure,
                    self.args,
                    self.client,
                    self.service,
                    self.min_index,
                    self.nonce,
                    self.signature,
                )
            )
            object.__setattr__(self, "_wire", wire)
        return wire

    @staticmethod
    def from_wire(raw: tuple) -> "TransactionRequest":
        if type(raw) is codec.SealedSeq:
            raw = raw.unseal()  # an executed request, decoded on demand
        sealed = type(raw) is codec.Sealed

        def build(procedure, args, client, service, min_index, nonce, signature):
            # A seal's contents are never mutated, so its args need no copy.
            args = args if sealed and type(args) is dict else dict(args)
            return TransactionRequest(procedure, args, client, service, min_index, nonce, signature)

        request = codec.parse(raw, TransactionRequest.wire_tag, 8, ProtocolError, build)
        if sealed:
            # Keep the sender's seal: every receiver of one transmission
            # shares the one encoding (and its digest).
            object.__setattr__(request, "_wire", raw)
        return request

    def request_digest(self) -> Digest:
        """``H(t)``: hash of the full signed request (used in batches)."""
        return digest_value(self.to_wire())


@codec.wire("pre-prepare", ProtocolError)
@dataclass(frozen=True, slots=True)
class PrePrepare:
    """``⟨pre-prepare, v, s, ¯M, ¯G, H(K[v,s]), Es−P, ig, dC⟩σp`` (§3.1).

    ``root_m`` commits the primary to the whole ledger up to (but not
    including) this entry; ``root_g`` is the root of the per-batch tree G
    over the batch's ``(t, i, o)`` entries; ``nonce_commitment`` is the
    hash of the primary's fresh nonce; ``evidence_bitmap`` records which
    replicas supplied commitment evidence for seqno ``s − P``; ``gov_index``
    (ig) is the ledger index of the last governance transaction; and
    ``checkpoint_digest`` (dC) enables auditing from a checkpoint.

    Reconfiguration batches (§5.1) set ``flags`` and, for end-of-config
    batches, carry ``committed_root``: the ledger Merkle root at the final
    vote, committing signers to the triggering governance decision.
    """

    view: int
    seqno: int
    root_m: Digest
    root_g: Digest
    nonce_commitment: Digest
    evidence_bitmap: int
    gov_index: int
    checkpoint_digest: Digest
    flags: int = BATCH_REGULAR
    committed_root: Digest = b""
    signature: bytes = b""
    # Memos in declared slots: no instance ``__dict__``, whose size would
    # depend on the order in which the process first memoised one.
    _signed_payload: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _digest: Digest | None = field(default=None, init=False, repr=False, compare=False)

    @codec.memoised
    def signed_payload(self) -> bytes:
        return codec.encode(self.to_wire()[:-1])

    @codec.memoised
    def digest(self) -> Digest:
        """``H(pp)``: hash of the signed pre-prepare, bound into prepares."""
        return digest_value(self.to_wire())

    def receipt_fields(self) -> dict:
        """The fields a ``replyx`` and a receipt repeat from the batch's
        pre-prepare, under the names both use (§3.3)."""
        return dict(
            view=self.view,
            seqno=self.seqno,
            root_m=self.root_m,
            primary_nonce_commitment=self.nonce_commitment,
            evidence_bitmap=self.evidence_bitmap,
            gov_index=self.gov_index,
            checkpoint_digest=self.checkpoint_digest,
            flags=self.flags,
            committed_root=self.committed_root,
        )


@codec.wire("prepare", ProtocolError)
@dataclass(frozen=True)
class Prepare:
    """``⟨prepare, r, H(K[v,s]), H(pp)⟩σr`` (Alg. 1 line 25).

    The pre-prepare digest binds the view, sequence number, and both
    Merkle roots, so they need not be repeated.
    """

    replica: int
    nonce_commitment: Digest
    pp_digest: Digest
    signature: bytes = b""

    def signed_payload(self) -> bytes:
        return prepare_payload(self.replica, self.nonce_commitment, self.pp_digest)


# ``encode(("prepare", r, nc, d))`` for a replica id r < 64 and 32-byte
# digests is a fixed template: the head for r, then each digest under
# the same two-byte header.
_PREPARE_HEADS = tuple(codec.encode((Prepare.wire_tag, r, b"", b""))[:-4] for r in range(64))
_DIGEST_HEAD = codec.encode(bytes(32))[:-32]


def prepare_payload(replica: int, nonce_commitment: Digest, pp_digest: Digest) -> bytes:
    """``Prepare(replica, nonce_commitment, pp_digest).signed_payload()``,
    without the ``Prepare``: how a receipt verifier rebuilds what each
    backup signed."""
    if (
        type(replica) is int
        and 0 <= replica < 64
        and type(nonce_commitment) is bytes
        and len(nonce_commitment) == 32
        and type(pp_digest) is bytes
        and len(pp_digest) == 32
    ):
        return b"".join(
            (_PREPARE_HEADS[replica], _DIGEST_HEAD, nonce_commitment, _DIGEST_HEAD, pp_digest)
        )
    return codec.encode((Prepare.wire_tag, replica, nonce_commitment, pp_digest))


@codec.wire("commit", ProtocolError)
@dataclass(frozen=True)
class Commit:
    """``⟨commit, v, s, r, K[v,s]⟩`` — *unsigned*; the revealed nonce is the
    authenticator (§3.1 nonce commitment scheme)."""

    view: int
    seqno: int
    replica: int
    nonce: bytes


@codec.wire("reply", ProtocolError)
@dataclass(frozen=True)
class Reply:
    """``⟨reply, v, s, r, σr, K[v,s]⟩`` (Alg. 1 line 35).

    ``signature`` is the replica's pre-prepare signature (primary) or
    prepare signature (backup) — no extra signing happens for replies.
    ``nonce`` is the revealed commit nonce.
    """

    view: int
    seqno: int
    replica: int
    signature: bytes
    nonce: bytes


@codec.wire("replyx", ProtocolError)
@dataclass(frozen=True)
class ReplyX:
    """``⟨replyx, v, s, ¯M, H(kp), Es−P, ig, dC, H(t), i, o, S⟩`` (§3.3).

    Sent by the designated replica only; carries everything the client
    needs (beyond the per-replica replies) to assemble a receipt:
    the pre-prepare fields, the transaction's position and output, and the
    Merkle path ``S`` through the batch tree G.
    """

    view: int
    seqno: int
    root_m: Digest
    primary_nonce_commitment: Digest
    evidence_bitmap: int
    gov_index: int
    checkpoint_digest: Digest
    flags: int
    committed_root: Digest
    tx_digest: Digest
    index: int
    output: Any
    path: tuple  # MerklePath.to_wire()


@codec.wire("view-change", ProtocolError, prepared=tuple)
@dataclass(frozen=True)
class ViewChange:
    """``⟨view-change, v, r, PP⟩σr`` (Alg. 2 line 4).

    ``prepared`` holds the wire forms of the last P pre-prepare messages
    that prepared locally (newest last); only the newest is needed for
    safety, the rest support auditing of view changes.
    """

    view: int
    replica: int
    prepared: tuple  # tuple of PrePrepare.to_wire()
    signature: bytes = b""


@codec.wire("new-view", ProtocolError)
@dataclass(frozen=True)
class NewView:
    """``⟨new-view, v, ¯M, Evc, hvc⟩σp`` (Alg. 2 line 15).

    ``root_m`` is the ledger Merkle root after synchronizing to the last
    prepared batch; ``vc_bitmap`` records which replicas' view-change
    messages were accepted; ``vc_digest`` is the hash of the ledger entry
    containing those view-change messages.
    """

    view: int
    root_m: Digest
    vc_bitmap: int
    vc_digest: Digest
    signature: bytes = b""


# -- payloads sized from their parts ----------------------------------------
#
# A sender that already holds the encoded parts of a payload passes its
# size to the network, which otherwise encodes the whole payload to size
# it.  Each size equals ``codec.encoded_size(payload)`` exactly.

_PP_TAG_SIZE = codec.encoded_size(PrePrepare.wire_tag)
_PP_PAYLOAD_HEAD = codec.sequence_size(11, _PP_TAG_SIZE)  # of PrePrepare.signed_payload()
_REPLYX_TAG_SIZE = codec.encoded_size(ReplyX.wire_tag)


def pre_prepare_payload(pp: PrePrepare, batch_digests: tuple) -> tuple[tuple, int]:
    """The ``("pre-prepare", pp, digests)`` payload and its size.  The
    pre-prepare's wire form is its memoised signed payload plus the
    signature, under a header of the same two bytes."""
    pp_size = len(pp.signed_payload()) + codec.encoded_size(pp.signature)
    digests_size = codec.sequence_size(
        len(batch_digests), sum(codec.encoded_size(d) for d in batch_digests))
    size = codec.sequence_size(3, _PP_TAG_SIZE + pp_size + digests_size)
    return ("pre-prepare", pp.to_wire(), batch_digests), size


def replyx_payload(
    pp: PrePrepare, tx_digest: Digest, index: int, output: Any, path
) -> tuple[tuple, int]:
    """The ``("replyx", wire)`` payload for one transaction of ``pp``'s
    batch (``path`` is its :class:`~repro.merkle.MerklePath` in G), and
    its size.  The nine fields a replyx repeats from the pre-prepare are
    ``pp``'s memoised signed payload less its header, tag and ``root_g``,
    and the path sizes itself: only ``output`` is encoded."""
    replyx = ReplyX(
        **pp.receipt_fields(), tx_digest=tx_digest, index=index, output=output, path=path.to_wire())
    batch_fields = len(pp.signed_payload()) - _PP_PAYLOAD_HEAD - codec.encoded_size(pp.root_g)
    items = (
        _REPLYX_TAG_SIZE + batch_fields + codec.encoded_size(tx_digest)
        + codec.encoded_size(index) + codec.encoded_size(output) + path.encoded_size()
    )
    size = codec.sequence_size(2, _REPLYX_TAG_SIZE + codec.sequence_size(14, items))
    return ("replyx", replyx.to_wire()), size


# -- bitmap helpers -------------------------------------------------------


def bitmap_of(replicas: "list[int] | set[int]") -> int:
    """Pack replica identifiers into the evidence bitmap (paper: 8 bytes
    supports up to 64 replicas)."""
    bitmap = 0
    for r in replicas:
        if r < 0:
            raise ProtocolError(f"negative replica id {r}")
        bitmap |= 1 << r
    return bitmap


def bitmap_members(bitmap: int) -> list[int]:
    """Unpack a bitmap into sorted replica identifiers."""
    return [r for r in range(bitmap.bit_length()) if bitmap >> r & 1]


# -- envelopes ------------------------------------------------------------

# Every kind a replica dispatches, with the length of its envelope: the
# kind, then its items (a record's wire form is its own envelope).
ENVELOPE_ARITY = {
    "request": 2, "pre-prepare": 3, "prepare": 2, "commit": 2, "get-replyx": 2,
    "fetch-requests": 2, "requests-bundle": 2, "fetch-evidence": 3, "evidence-bundle": 4,
    "get-gov-chain": 1, "gov-chain-resp": 3, "ack": 2, "view-change": 2, "new-view": 3,
    "sync-probe": 1, "sync-get-manifest": 2, "sync-get-chunk": 3, "sync-get-ledger": 4,
    "sync-offer": 8, "sync-manifest": 7, "sync-chunk": 4, "sync-ledger": 6,
}

# Every kind a client dispatches, likewise; ``ack`` is PeerReview's
# acknowledgement of a request (§6.1).
CLIENT_ARITY = {"reply": 3, "replyx": 2, "reject": 3, "replyx-gone": 4, "gov-chain-resp": 3, "ack": 2}


def check_envelope(msg: tuple, arity: dict = ENVELOPE_ARITY) -> None:
    """Raise :class:`MalformedMessage` unless ``msg``, a non-empty tuple,
    is as long as its kind's envelope in ``arity``: ``on_message`` of a
    replica or a client drops it then, before its handler reads an
    item."""
    if len(msg) != arity.get(msg[0]):
        raise MalformedMessage(f"{msg[0]!r} message of {len(msg)} items")


_Record = TypeVar("_Record")


def received(parse: Callable[[Any], _Record], raw: Any) -> _Record:
    """``parse(raw)`` for an item of a message off the wire, raising
    :class:`MalformedMessage` for any library error the parse raises.  A
    handler reads each record it was sent through this before it acts
    on it, so ``on_message`` drops only what failed to parse."""
    try:
        return parse(raw)
    except ReproError as exc:
        raise MalformedMessage(str(exc)) from exc


def read_pre_prepare(msg: tuple) -> tuple[PrePrepare, tuple]:
    """A ``pre-prepare`` envelope's record and batch digests.  A backup
    stashes both and sorts its stash by seqno, so a view or seqno that is
    not an int, or digests that are not a tuple of bytes, raise
    :class:`MalformedMessage` here, before anything is stashed."""
    pp, digests = received(PrePrepare.from_wire, msg[1]), msg[2]
    if type(pp.view) is not int or type(pp.seqno) is not int:
        raise MalformedMessage("pre-prepare view and seqno must be ints")
    if type(digests) is not tuple or not all(type(d) is bytes for d in digests):
        raise MalformedMessage("pre-prepare digests must be a tuple of bytes")
    return pp, digests


# State-sync wire messages (``sync-offer`` / ``sync-manifest``, §3.4
# fetch) are defined with their subsystem but belong to the protocol
# surface alongside the types above; re-exported here.
from ..statesync.messages import SyncManifest, SyncOffer  # noqa: E402, F401  (re-exported)
