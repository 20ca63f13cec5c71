"""L-PBFT protocol messages (paper §3.1, Alg. 1–2).

Every message has a canonical wire form (``to_wire``/``from_wire``) used
both for transmission over the simulated network and for hashing into the
ledger's Merkle trees.  Signed messages expose ``signed_payload()`` — the
canonical bytes covered by the signature — with a per-type domain tag so
a signature over one message type can never be replayed as another.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from .. import codec
from ..crypto.hashing import Digest, digest, digest_value
from ..errors import ProtocolError

# Batch kinds (the ``flags`` field of a pre-prepare).  Regular batches carry
# client transactions; the reconfiguration batches of §5.1 are empty and
# marked so auditors can recognize them.
BATCH_REGULAR = 0
BATCH_END_OF_CONFIG = 1
BATCH_START_OF_CONFIG = 2
BATCH_CHECKPOINT = 3


@dataclass(frozen=True)
class TransactionRequest:
    """A client request ``⟨request, a, c, H(gt), mi⟩σc`` (Alg. 1 line 1).

    ``procedure``/``args`` form the invocation ``a``; ``client`` is the
    client's public key ``c``; ``service`` is the genesis transaction hash
    (the service name), preventing cross-service replay; ``min_index`` is
    the minimum ledger index ``mi`` after which the request may execute,
    used to encode ordering dependencies; ``nonce`` distinguishes repeated
    invocations by the same client.
    """

    procedure: str
    args: dict
    client: bytes
    service: Digest
    min_index: int
    nonce: int
    signature: bytes = b""

    def signed_payload(self) -> bytes:
        """The wire form less its trailing signature, read off the seal
        (:func:`codec.encode_all_but_last`): no replica encodes it."""
        return codec.encode_all_but_last(self.to_wire())

    def with_signature(self, signature: bytes) -> "TransactionRequest":
        """The signed request, sealed from this one's seal: the client
        encodes its request once."""
        signed = replace(self, signature=signature)
        signed.__dict__["_wire"] = codec.reseal_last(self.to_wire(), signature)
        return signed

    def to_wire(self) -> codec.Sealed:
        """Sealed: ``t`` is encoded once, here by its client, and spliced
        into every leaf, ledger entry and receipt that embeds it."""
        wire = self.__dict__.get("_wire")
        if wire is None:
            wire = self.__dict__["_wire"] = codec.seal(
                (
                    "request",
                    self.procedure,
                    self.args,
                    self.client,
                    self.service,
                    self.min_index,
                    self.nonce,
                    self.signature,
                )
            )
        return wire

    @staticmethod
    def from_wire(raw: tuple) -> "TransactionRequest":
        try:
            tag, procedure, args, client, service, min_index, nonce, signature = raw
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed request: {exc}") from exc
        if tag != "request":
            raise ProtocolError(f"expected request, got {tag!r}")
        sealed = type(raw) is codec.Sealed
        request = TransactionRequest(
            procedure=procedure,
            # A seal's contents are never mutated, so its args need no copy.
            args=args if sealed and type(args) is dict else dict(args),
            client=client,
            service=service,
            min_index=min_index,
            nonce=nonce,
            signature=signature,
        )
        if sealed:
            # Keep the sender's seal: every receiver of one transmission
            # shares the one encoding (and its digest).
            request.__dict__["_wire"] = raw
        return request

    def request_digest(self) -> Digest:
        """``H(t)``: hash of the full signed request (used in batches)."""
        return digest_value(self.to_wire())


@dataclass(frozen=True)
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

    @codec.memoised
    def signed_payload(self) -> bytes:
        return codec.encode(
            (
                "pre-prepare",
                self.view,
                self.seqno,
                self.root_m,
                self.root_g,
                self.nonce_commitment,
                self.evidence_bitmap,
                self.gov_index,
                self.checkpoint_digest,
                self.flags,
                self.committed_root,
            )
        )

    def with_signature(self, signature: bytes) -> "PrePrepare":
        return replace(self, signature=signature)

    def to_wire(self) -> tuple:
        return (
            "pre-prepare",
            self.view,
            self.seqno,
            self.root_m,
            self.root_g,
            self.nonce_commitment,
            self.evidence_bitmap,
            self.gov_index,
            self.checkpoint_digest,
            self.flags,
            self.committed_root,
            self.signature,
        )

    @staticmethod
    def from_wire(raw: tuple) -> "PrePrepare":
        try:
            (tag, view, seqno, root_m, root_g, nc, bitmap, gov_index, dc, flags, croot, sig) = raw
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed pre-prepare: {exc}") from exc
        if tag != "pre-prepare":
            raise ProtocolError(f"expected pre-prepare, got {tag!r}")
        return PrePrepare(
            view=view,
            seqno=seqno,
            root_m=root_m,
            root_g=root_g,
            nonce_commitment=nc,
            evidence_bitmap=bitmap,
            gov_index=gov_index,
            checkpoint_digest=dc,
            flags=flags,
            committed_root=croot,
            signature=sig,
        )

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
        return codec.encode(("prepare", self.replica, self.nonce_commitment, self.pp_digest))

    def with_signature(self, signature: bytes) -> "Prepare":
        return replace(self, signature=signature)

    def to_wire(self) -> tuple:
        return ("prepare", self.replica, self.nonce_commitment, self.pp_digest, self.signature)

    @staticmethod
    def from_wire(raw: tuple) -> "Prepare":
        try:
            tag, replica, nc, ppd, sig = raw
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed prepare: {exc}") from exc
        if tag != "prepare":
            raise ProtocolError(f"expected prepare, got {tag!r}")
        return Prepare(replica=replica, nonce_commitment=nc, pp_digest=ppd, signature=sig)


@dataclass(frozen=True)
class Commit:
    """``⟨commit, v, s, r, K[v,s]⟩`` — *unsigned*; the revealed nonce is the
    authenticator (§3.1 nonce commitment scheme)."""

    view: int
    seqno: int
    replica: int
    nonce: bytes

    def to_wire(self) -> tuple:
        return ("commit", self.view, self.seqno, self.replica, self.nonce)

    @staticmethod
    def from_wire(raw: tuple) -> "Commit":
        try:
            tag, view, seqno, replica, nonce = raw
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed commit: {exc}") from exc
        if tag != "commit":
            raise ProtocolError(f"expected commit, got {tag!r}")
        return Commit(view=view, seqno=seqno, replica=replica, nonce=nonce)


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

    def to_wire(self) -> tuple:
        return ("reply", self.view, self.seqno, self.replica, self.signature, self.nonce)

    @staticmethod
    def from_wire(raw: tuple) -> "Reply":
        try:
            tag, view, seqno, replica, sig, nonce = raw
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed reply: {exc}") from exc
        if tag != "reply":
            raise ProtocolError(f"expected reply, got {tag!r}")
        return Reply(view=view, seqno=seqno, replica=replica, signature=sig, nonce=nonce)


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

    def to_wire(self) -> tuple:
        return (
            "replyx",
            self.view,
            self.seqno,
            self.root_m,
            self.primary_nonce_commitment,
            self.evidence_bitmap,
            self.gov_index,
            self.checkpoint_digest,
            self.flags,
            self.committed_root,
            self.tx_digest,
            self.index,
            self.output,
            self.path,
        )

    @staticmethod
    def from_wire(raw: tuple) -> "ReplyX":
        try:
            (tag, view, seqno, root_m, pnc, bitmap, gov_index, dc, flags, croot, txd, index, output, path) = raw
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed replyx: {exc}") from exc
        if tag != "replyx":
            raise ProtocolError(f"expected replyx, got {tag!r}")
        return ReplyX(
            view=view,
            seqno=seqno,
            root_m=root_m,
            primary_nonce_commitment=pnc,
            evidence_bitmap=bitmap,
            gov_index=gov_index,
            checkpoint_digest=dc,
            flags=flags,
            committed_root=croot,
            tx_digest=txd,
            index=index,
            output=output,
            path=path,
        )


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

    def signed_payload(self) -> bytes:
        return codec.encode(("view-change", self.view, self.replica, self.prepared))

    def with_signature(self, signature: bytes) -> "ViewChange":
        return replace(self, signature=signature)

    def to_wire(self) -> tuple:
        return ("view-change", self.view, self.replica, self.prepared, self.signature)

    @staticmethod
    def from_wire(raw: tuple) -> "ViewChange":
        try:
            tag, view, replica, prepared, sig = raw
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed view-change: {exc}") from exc
        if tag != "view-change":
            raise ProtocolError(f"expected view-change, got {tag!r}")
        return ViewChange(view=view, replica=replica, prepared=tuple(prepared), signature=sig)


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

    def signed_payload(self) -> bytes:
        return codec.encode(("new-view", self.view, self.root_m, self.vc_bitmap, self.vc_digest))

    def with_signature(self, signature: bytes) -> "NewView":
        return replace(self, signature=signature)

    def to_wire(self) -> tuple:
        return ("new-view", self.view, self.root_m, self.vc_bitmap, self.vc_digest, self.signature)

    @staticmethod
    def from_wire(raw: tuple) -> "NewView":
        try:
            tag, view, root_m, vc_bitmap, vc_digest, sig = raw
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed new-view: {exc}") from exc
        if tag != "new-view":
            raise ProtocolError(f"expected new-view, got {tag!r}")
        return NewView(view=view, root_m=root_m, vc_bitmap=vc_bitmap, vc_digest=vc_digest, signature=sig)


# -- payloads sized from their parts ----------------------------------------
#
# A sender that already holds the encoded parts of a payload passes its
# size to the network, which otherwise encodes the whole payload to size
# it.  Each size equals ``codec.encoded_size(payload)`` exactly.

_PP_TAG_SIZE = codec.encoded_size("pre-prepare")
_PP_PAYLOAD_HEAD = codec.sequence_size(11, _PP_TAG_SIZE)  # of PrePrepare.signed_payload()
_REPLYX_TAG_SIZE = codec.encoded_size("replyx")


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
    members = []
    r = 0
    while bitmap:
        if bitmap & 1:
            members.append(r)
        bitmap >>= 1
        r += 1
    return members


# State-sync wire messages (``sync-offer`` / ``sync-manifest``, §3.4
# fetch) are defined with their subsystem but belong to the protocol
# surface alongside the types above; re-exported here.
from ..statesync.messages import SyncManifest, SyncOffer  # noqa: E402
