"""Receipts: universally-verifiable evidence of execution (paper §3.3).

A receipt states that request ``t`` executed at ledger index ``i`` and
produced output ``o``.  It consists of the fields of the batch's
pre-prepare, the primary's signature, and for ``N − f`` replicas a
revealed commit nonce plus (for backups) a prepare signature; the
``(t, i, o)`` triple is bound to the pre-prepare through a Merkle path in
the per-batch tree G.

*Batch receipts* (``request_wire is None``) cover a whole batch rather
than one transaction — clients keep them for the P-th end-of-configuration
batches of the governance sub-ledger (§5.2), where the batch is empty and
``root_g`` is carried directly.

Verification (:func:`verify_receipt`, paper Alg. 3) reconstructs the
pre-prepare from the receipt fields and the recomputed G root, then checks
the primary's signature, each backup's prepare signature, and that every
revealed nonce opens the commitment it was signed under.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Any, Callable, Sequence

from .. import codec
from ..codec import memoised
from ..crypto import signatures
from ..crypto.hashing import Digest, digest_value
from ..crypto.nonces import commit_nonce
from ..errors import MerkleError, ReceiptError
from ..governance.configuration import Configuration
from ..lpbft.messages import (
    PrePrepare,
    TransactionRequest,
    bitmap_members,
    prepare_payload,
)
from ..merkle import MerklePath, path_root


@dataclass(frozen=True, slots=True)
class Certificate:
    """What every receipt of one batch shares (§3.3): the pre-prepare's
    fields ``x``, the primary's signature σp, and the signers' bitmap Es,
    prepare signatures Σs and nonces Ks — plus ``root_g`` for a batch
    receipt, which carries G's root instead of a path.

    ``signer_bitmap`` lists the replicas whose nonces appear in
    ``nonces``, in increasing id order, always including the primary;
    ``prepare_signatures`` aligns with the non-primary signers in the
    same order.
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
    primary_signature: bytes
    signer_bitmap: int
    prepare_signatures: tuple  # bytes per non-primary signer, id order
    nonces: tuple  # 32-byte nonce per signer (incl. primary), id order
    root_g: Digest | None = None

    _pre_prepare: PrePrepare | None = field(default=None, init=False, repr=False, compare=False)

    def pre_prepare(self, root_g: Digest) -> PrePrepare:
        """The pre-prepare these fields and ``root_g`` reconstruct (Alg. 3
        line 5).  The last one is kept: the receipts of a batch derive the
        same ``root_g``, so they share one, with its digest and signed
        payload."""
        pp = self._pre_prepare
        if pp is None or pp.root_g != root_g:
            pp = PrePrepare(
                view=self.view,
                seqno=self.seqno,
                root_m=self.root_m,
                root_g=root_g,
                nonce_commitment=self.primary_nonce_commitment,
                evidence_bitmap=self.evidence_bitmap,
                gov_index=self.gov_index,
                checkpoint_digest=self.checkpoint_digest,
                flags=self.flags,
                committed_root=self.committed_root,
                signature=self.primary_signature,
            )
            object.__setattr__(self, "_pre_prepare", pp)
        return pp


@dataclass(frozen=True, slots=True)
class Receipt:
    """A receipt for ``⟨t, i, o⟩`` (or for a whole batch).

    Stored client-side as
    ``⟨v, s, ¯M, H(kp), Es−P, ig, dC, σp, Es, Σs, Ks, S⟩`` (§3.3) plus the
    transaction triple: the four per-transaction fields and the batch's
    :class:`Certificate`, which the receipts of a batch share.  Each
    certificate field reads as an attribute of the receipt too
    (``receipt.seqno``).  The output is held at its encoded size
    (``output_wire``, :func:`codec.encoding_of`) and reads back as
    ``output``, a map as a :class:`~repro.codec.SealedMap`.
    """

    # Transaction part (all None for batch receipts).
    request_wire: tuple | None
    index: int | None
    output_wire: bytes | None
    path: MerklePath | None
    certificate: Certificate

    _reconstructed_pre_prepare: PrePrepare | None = field(
        default=None, init=False, repr=False, compare=False
    )
    wire_tag = "receipt"

    # -- identity -----------------------------------------------------------

    @property
    def is_batch_receipt(self) -> bool:
        return self.request_wire is None

    @property
    def output(self) -> Any:
        """The transaction's output ``o`` (None for a batch receipt)."""
        return None if self.output_wire is None else codec.value_of(self.output_wire)

    def request(self) -> TransactionRequest:
        if self.request_wire is None:
            raise ReceiptError("batch receipts carry no transaction request")
        return TransactionRequest.from_wire(self.request_wire)

    def min_index(self) -> int:
        """The request's minimum ledger index ``mi``: a packed request's
        item 5, read alone."""
        wire = self.request_wire
        if type(wire) is codec.SealedSeq:
            return wire[5]
        return self.request().min_index

    def tio(self) -> tuple:
        """The ``(t, i, o)`` triple this receipt commits to."""
        if self.request_wire is None:
            raise ReceiptError("batch receipts carry no (t, i, o)")
        return (self.request_wire, self.index, self.output)

    def leaf_digest(self) -> Digest:
        """The G-tree leaf for this receipt's transaction."""
        return digest_value(self.tio())

    def computed_root_g(self) -> Digest:
        """The G root implied by the path (or carried, for batch receipts)."""
        if self.is_batch_receipt:
            if self.root_g is None:
                raise ReceiptError("batch receipt missing root_g")
            return self.root_g
        if self.path is None:
            raise ReceiptError("transaction receipt missing Merkle path")
        return path_root(self.leaf_digest(), self.path)

    @memoised
    def reconstructed_pre_prepare(self) -> PrePrepare:
        """The pre-prepare implied by this receipt's fields (Alg. 3 line 5).
        Computed once per receipt and shared through the certificate, so
        the G root, the pre-prepare's digest and its signed payload are
        computed once across verification and audit."""
        return self.certificate.pre_prepare(self.computed_root_g())

    def signers(self) -> list[int]:
        """Replica ids that signed this receipt (σp or Σs) — the set that
        can be blamed if the receipt contradicts the ledger."""
        return bitmap_members(self.signer_bitmap)

    # -- serialization ----------------------------------------------------------

    def to_wire(self) -> tuple:
        """``(tag, t, i, o, S)``, then the certificate's fields in
        declaration order."""
        path = None if self.path is None else self.path.to_wire()
        return (self.wire_tag, self.request_wire, self.index, self.output, path) + _certified(self.certificate)

    @staticmethod
    def from_wire(raw: tuple) -> "Receipt":
        """Parse a receipt; any malformed shape raises :class:`ReceiptError`."""
        return codec.parse(raw, Receipt.wire_tag, 5 + len(_CERTIFICATE_FIELDS), ReceiptError, _receipt)

    def encoded_size(self) -> int:
        """Size in bytes of the canonical encoding (§6.4 reports these)."""
        return len(codec.encode(self.to_wire()))


_CERTIFICATE_FIELDS = tuple(f.name for f in fields(Certificate) if f.init)
_certified = attrgetter(*_CERTIFICATE_FIELDS)
# Each certificate field reads as the receipt's own: ``receipt.seqno``.
for _name in _CERTIFICATE_FIELDS:
    setattr(Receipt, _name, property(attrgetter("certificate." + _name)))


def _receipt(request_wire, index, output, path, *certified) -> Receipt:
    """A receipt from its wire items after the tag."""
    *head, prepare_signatures, nonces, root_g = certified
    if not isinstance(prepare_signatures, (tuple, list)) or not isinstance(nonces, (tuple, list)):
        raise ReceiptError("malformed receipt: signatures and nonces must be sequences")
    c = Certificate(*head, tuple(prepare_signatures), tuple(nonces), root_g)
    if not all(isinstance(x, int) for x in (c.view, c.seqno, c.evidence_bitmap, c.gov_index, c.flags, c.signer_bitmap)):
        raise ReceiptError("malformed receipt: view, seqno, bitmaps and flags must be integers")
    try:
        path = None if path is None else MerklePath.from_wire(path)
    except MerkleError as exc:
        raise ReceiptError(str(exc)) from exc
    return Receipt(request_wire, index, None if output is None else codec.encoding_of(output), path, c)


def verify_receipt(
    receipt: Receipt,
    config: Configuration,
    backend: signatures.SignatureBackend | None = None,
) -> bool:
    """Alg. 3: verify a receipt against the configuration that produced it.

    Returns ``False`` for receipts that fail any check; raises
    :class:`ReceiptError` only for structurally malformed inputs.  To
    verify many receipts, :func:`verify_receipts` checks each distinct
    batch certificate once.
    """
    backend = backend or signatures.default_backend()
    pp = receipt.reconstructed_pre_prepare()
    cert = receipt.certificate
    primary_id = config.primary_for_view(cert.view)

    signer_ids = bitmap_members(cert.signer_bitmap)
    if len(signer_ids) < config.quorum:
        return False
    if primary_id not in signer_ids:
        return False
    if len(cert.nonces) != len(signer_ids):
        return False
    if len(cert.prepare_signatures) != len(signer_ids) - 1:
        return False

    try:
        primary_key = config.replica_key(primary_id)
    except Exception:
        return False

    # Primary signature over the reconstructed pre-prepare.
    if not backend.verify(primary_key, pp.signed_payload(), cert.primary_signature):
        return False

    pp_digest = pp.digest()
    sig_cursor = 0
    for signer_id, nonce in zip(signer_ids, cert.nonces):
        commitment = commit_nonce(nonce)
        if signer_id == primary_id:
            # Alg. 3 line 8: the primary's revealed nonce must open the
            # commitment in the pre-prepare.
            if commitment != cert.primary_nonce_commitment:
                return False
            continue
        try:
            key = config.replica_key(signer_id)
        except Exception:
            return False
        signature = cert.prepare_signatures[sig_cursor]
        sig_cursor += 1
        if not backend.verify(key, prepare_payload(signer_id, commitment, pp_digest), signature):
            return False
    return True


def verify_receipts(
    receipts: Sequence[Receipt],
    config_for: Callable[[int], Configuration],
    backend: signatures.SignatureBackend | None = None,
) -> list[bool]:
    """``[verify_receipt(r, config_for(r.seqno), backend) for r in
    receipts]``, checking each distinct certificate once.

    The receipts of one batch share a certificate: the pre-prepare and
    the nonces and signatures over it.  Its key is the reconstructed
    pre-prepare's digest, which covers the primary's signature and the
    ``root_g`` each receipt derives from its own ``(t, i, o)`` and path,
    plus the signer bitmap, nonces, prepare signatures and
    configuration: all else :func:`verify_receipt` reads.  A sibling
    with another output or path reconstructs another pre-prepare, so it
    is checked on its own."""
    backend = backend or signatures.default_backend()
    # key -> (verdict, configuration); holding the configuration keeps
    # its id from being reused by another one while the keys live.
    verdicts: dict[tuple, tuple[bool, Configuration]] = {}
    results: list[bool] = []
    for receipt in receipts:
        cert = receipt.certificate
        config = config_for(cert.seqno)
        key = (
            receipt.reconstructed_pre_prepare().digest(),
            cert.signer_bitmap,
            cert.nonces,
            cert.prepare_signatures,
            id(config),
        )
        try:
            seen = verdicts.get(key)
        except TypeError:  # an unhashable field: no other receipt shares it
            results.append(verify_receipt(receipt, config, backend))
            continue
        if seen is None:
            seen = verdicts[key] = (verify_receipt(receipt, config, backend), config)
        results.append(seen[0])
    return results


def receipts_equivalent(a: Receipt, b: Receipt) -> bool:
    """Equivalence of P-th end-of-configuration batch receipts (§B.2):
    same index/sequence number and the same committed Merkle root (hence
    the same preceding governance sub-ledger)."""
    return (
        a.seqno == b.seqno
        and a.gov_index == b.gov_index
        and a.committed_root == b.committed_root
    )
