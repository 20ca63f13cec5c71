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

from dataclasses import dataclass, field
from typing import Any

from ..codec import memoised
from ..crypto import signatures
from ..crypto.hashing import Digest, digest_value
from ..crypto.nonces import commit_nonce
from ..errors import ReceiptError
from ..governance.configuration import Configuration
from ..lpbft.messages import (
    BATCH_REGULAR,
    Prepare,
    PrePrepare,
    TransactionRequest,
    bitmap_members,
)
from ..merkle import MerklePath, path_root


@dataclass(frozen=True, slots=True)
class Receipt:
    """A receipt for ``⟨t, i, o⟩`` (or for a whole batch).

    Stored client-side as
    ``⟨v, s, ¯M, H(kp), Es−P, ig, dC, σp, Es, Σs, Ks, S⟩`` (§3.3) plus the
    transaction triple.  ``signer_bitmap`` (Es) lists the replicas whose
    nonces appear in ``nonces`` (Ks), in increasing id order, always
    including the primary; ``prepare_signatures`` (Σs) aligns with the
    non-primary signers in the same order.
    """

    # Transaction part (None/0/None/None for batch receipts).
    request_wire: tuple | None
    index: int | None
    output: Any
    path: MerklePath | None

    # Pre-prepare fields (x).
    view: int
    seqno: int
    root_m: Digest
    primary_nonce_commitment: Digest
    evidence_bitmap: int
    gov_index: int
    checkpoint_digest: Digest
    flags: int
    committed_root: Digest

    # Signatures and nonces.
    primary_signature: bytes
    signer_bitmap: int
    prepare_signatures: tuple  # bytes per non-primary signer, id order
    nonces: tuple  # 32-byte nonce per signer (incl. primary), id order

    # Batch receipts carry G's root directly (no path to recompute it).
    root_g: Digest | None = None

    # Aggregated form (``ProtocolParams.aggregate_signatures``): one
    # BLS-style aggregate standing in for the primary's pre-prepare
    # signature *and* every prepare signature — ``prepare_signatures`` is
    # then empty and verification is a single ``verify_aggregate`` op.
    # ``primary_signature`` stays on the wire regardless: the pre-prepare
    # digest that prepare payloads bind to covers the signature bytes, so
    # it is needed to reconstruct what the backups signed.
    aggregate: signatures.AggregateSignature | None = None

    _reconstructed_pre_prepare: PrePrepare | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- identity -----------------------------------------------------------

    @property
    def is_batch_receipt(self) -> bool:
        return self.request_wire is None

    def request(self) -> TransactionRequest:
        if self.request_wire is None:
            raise ReceiptError("batch receipts carry no transaction request")
        return TransactionRequest.from_wire(self.request_wire)

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
        One instance per receipt, so the G root, the pre-prepare's digest
        and its signed payload are computed once across verification and
        audit."""
        return PrePrepare(
            view=self.view,
            seqno=self.seqno,
            root_m=self.root_m,
            root_g=self.computed_root_g(),
            nonce_commitment=self.primary_nonce_commitment,
            evidence_bitmap=self.evidence_bitmap,
            gov_index=self.gov_index,
            checkpoint_digest=self.checkpoint_digest,
            flags=self.flags,
            committed_root=self.committed_root,
            signature=self.primary_signature,
        )

    def signers(self) -> list[int]:
        """Replica ids that signed this receipt (σp or Σs) — the set that
        can be blamed if the receipt contradicts the ledger."""
        return bitmap_members(self.signer_bitmap)

    # -- serialization ----------------------------------------------------------

    def to_wire(self) -> tuple:
        return (
            "receipt",
            self.request_wire,
            self.index,
            self.output,
            None if self.path is None else self.path.to_wire(),
            self.view,
            self.seqno,
            self.root_m,
            self.primary_nonce_commitment,
            self.evidence_bitmap,
            self.gov_index,
            self.checkpoint_digest,
            self.flags,
            self.committed_root,
            self.primary_signature,
            self.signer_bitmap,
            self.prepare_signatures,
            self.nonces,
            self.root_g,
        ) + (
            # Wire compatibility: non-aggregated receipts keep the
            # 19-element encoding of earlier versions byte for byte.
            () if self.aggregate is None else (self.aggregate.to_wire(),)
        )

    @staticmethod
    def from_wire(raw: tuple) -> "Receipt":
        try:
            (
                tag,
                request_wire,
                index,
                output,
                path,
                view,
                seqno,
                root_m,
                pnc,
                ebitmap,
                gov_index,
                dc,
                flags,
                croot,
                psig,
                sbitmap,
                psigs,
                nonces,
                root_g,
                *rest,
            ) = raw
        except (TypeError, ValueError) as exc:
            raise ReceiptError(f"malformed receipt: {exc}") from exc
        if tag != "receipt":
            raise ReceiptError(f"expected receipt, got {tag!r}")
        if len(rest) > 1:
            raise ReceiptError(f"malformed receipt: {len(raw)} fields")
        aggregate = None
        if rest and rest[0] is not None:
            try:
                aggregate = signatures.AggregateSignature.from_wire(rest[0])
            except Exception as exc:
                raise ReceiptError(f"malformed aggregate: {exc}") from exc
        return Receipt(
            request_wire=request_wire,
            index=index,
            output=output,
            path=None if path is None else MerklePath.from_wire(path),
            view=view,
            seqno=seqno,
            root_m=root_m,
            primary_nonce_commitment=pnc,
            evidence_bitmap=ebitmap,
            gov_index=gov_index,
            checkpoint_digest=dc,
            flags=flags,
            committed_root=croot,
            primary_signature=psig,
            signer_bitmap=sbitmap,
            prepare_signatures=tuple(psigs),
            nonces=tuple(nonces),
            root_g=root_g,
            aggregate=aggregate,
        )

    def encoded_size(self) -> int:
        """Size in bytes of the canonical encoding (§6.4 reports these)."""
        from .. import codec

        return len(codec.encode(self.to_wire()))


def verify_receipt(
    receipt: Receipt,
    config: Configuration,
    backend: signatures.SignatureBackend | None = None,
    cache: signatures.SignatureVerifyCache | None = None,
) -> bool:
    """Alg. 3: verify a receipt against the configuration that produced it.

    Returns ``False`` for receipts that fail any check; raises
    :class:`ReceiptError` only for structurally malformed inputs.  With a
    ``cache``, signature checks are memoized — auditors verifying many
    receipts from the same batches redo no cryptography.
    """
    backend = backend or signatures.default_backend()
    check = (lambda pk, m, s: cache.verify(pk, m, s, backend)) if cache is not None else backend.verify
    try:
        pp = receipt.reconstructed_pre_prepare()
    except ReceiptError:
        raise
    primary_id = config.primary_for_view(receipt.view)

    signer_ids = receipt.signers()
    if len(signer_ids) < config.quorum:
        return False
    if primary_id not in signer_ids:
        return False
    if len(receipt.nonces) != len(signer_ids):
        return False
    if receipt.aggregate is None and len(receipt.prepare_signatures) != len(signer_ids) - 1:
        return False

    try:
        primary_key = config.replica_key(primary_id)
    except Exception:
        return False

    if receipt.aggregate is not None:
        # Aggregated form: one verify_aggregate covers the primary's
        # pre-prepare signature and every prepare signature together —
        # the nonce-opens-commitment checks below are hashes, so client
        # verification is a single signature op however large the quorum.
        if receipt.prepare_signatures:
            return False
        if not getattr(backend, "supports_aggregation", False):
            return False
        pp_digest = pp.digest()
        pairs = [(primary_key, pp.signed_payload())]
        for signer_id, nonce in zip(signer_ids, receipt.nonces):
            commitment = commit_nonce(nonce)
            if signer_id == primary_id:
                if commitment != receipt.primary_nonce_commitment:
                    return False
                continue
            prepare = Prepare(
                replica=signer_id, nonce_commitment=commitment, pp_digest=pp_digest
            )
            try:
                key = config.replica_key(signer_id)
            except Exception:
                return False
            pairs.append((key, prepare.signed_payload()))
        return backend.verify_aggregate(pairs, receipt.aggregate)

    # Primary signature over the reconstructed pre-prepare.
    if not check(primary_key, pp.signed_payload(), receipt.primary_signature):
        return False

    pp_digest = pp.digest()
    sig_cursor = 0
    for signer_id, nonce in zip(signer_ids, receipt.nonces):
        commitment = commit_nonce(nonce)
        if signer_id == primary_id:
            # Alg. 3 line 8: the primary's revealed nonce must open the
            # commitment in the pre-prepare.
            if commitment != receipt.primary_nonce_commitment:
                return False
            continue
        prepare = Prepare(replica=signer_id, nonce_commitment=commitment, pp_digest=pp_digest)
        try:
            key = config.replica_key(signer_id)
        except Exception:
            return False
        signature = receipt.prepare_signatures[sig_cursor]
        sig_cursor += 1
        if not check(key, prepare.signed_payload(), signature):
            return False
    return True


def receipts_equivalent(a: Receipt, b: Receipt) -> bool:
    """Equivalence of P-th end-of-configuration batch receipts (§B.2):
    same index/sequence number and the same committed Merkle root (hence
    the same preceding governance sub-ledger)."""
    return (
        a.seqno == b.seqno
        and a.gov_index == b.gov_index
        and a.committed_root == b.committed_root
    )
