"""Forged-but-properly-signed artifacts for audit testing (paper §4, §5.3).

Colluding replicas can sign *anything with their own keys*: a second batch
for an already-used sequence number, a receipt for a transaction that
"executed" differently, a fork in governance.  These helpers build such
artifacts the way a colluding quorum would, so tests (and example
programs) can hand the auditor exactly the contradictory evidence the
paper's lemmas reason about.  No helper ever signs with a key it was not
given — cryptography stays unbroken.
"""

from __future__ import annotations

from typing import Any

from .. import codec
from ..crypto import signatures
from ..crypto.hashing import Digest, digest_value
from ..crypto.nonces import new_nonce
from ..governance.configuration import Configuration
from ..lpbft.messages import (
    BATCH_END_OF_CONFIG,
    BATCH_REGULAR,
    Prepare,
    PrePrepare,
    bitmap_of,
)
from ..merkle import MerkleTree
from ..receipts.receipt import Certificate, Receipt


def forge_receipt(
    colluders: dict[int, signatures.KeyPair],
    config: Configuration,
    view: int,
    seqno: int,
    tios: list[tuple],
    target_position: int = 0,
    root_m: Digest = b"\x11" * 32,
    gov_index: int = 0,
    checkpoint_digest: Digest = b"\x22" * 32,
    flags: int = BATCH_REGULAR,
    committed_root: Digest = b"",
    evidence_bitmap: int = 0,
    backend: signatures.SignatureBackend | None = None,
    min_signers: int | None = None,
) -> Receipt:
    """Build a fully-signed receipt for an arbitrary batch.

    ``colluders`` must include the primary for ``view`` and at least a
    quorum of ``config``'s replicas; ``tios`` is the fake batch content
    and ``target_position`` selects which entry the receipt covers.
    """
    backend = backend or signatures.default_backend()
    primary_id = config.primary_for_view(view)
    if primary_id not in colluders:
        raise ValueError(f"forgery requires the primary for view {view} (replica {primary_id})")
    need = config.quorum if min_signers is None else min_signers
    signer_ids = sorted(colluders)[:need]
    if primary_id not in signer_ids:
        signer_ids = sorted(set(signer_ids[: need - 1]) | {primary_id})
    if len(signer_ids) < need:
        raise ValueError(f"only {len(signer_ids)} colluders, quorum is {need}")

    g_tree = MerkleTree([digest_value(tio) for tio in tios])
    primary_nonce = new_nonce(b"forged-primary" + bytes([seqno % 256]))
    pp = PrePrepare(
        view=view,
        seqno=seqno,
        root_m=root_m,
        root_g=g_tree.root(),
        nonce_commitment=primary_nonce.commitment,
        evidence_bitmap=evidence_bitmap,
        gov_index=gov_index,
        checkpoint_digest=checkpoint_digest,
        flags=flags,
        committed_root=committed_root,
    )
    pp = pp.with_signature(backend.sign(colluders[primary_id], pp.signed_payload()))
    pp_digest = pp.digest()

    nonces = []
    prepare_signatures = []
    for replica_id in signer_ids:
        nc = new_nonce(b"forged" + bytes([replica_id, seqno % 256]))
        nonces.append(nc.nonce)
        if replica_id == primary_id:
            continue
        prepare = Prepare(replica=replica_id, nonce_commitment=nc.commitment, pp_digest=pp_digest)
        prepare_signatures.append(backend.sign(colluders[replica_id], prepare.signed_payload()))
    # The primary's revealed nonce must open the pre-prepare's commitment.
    nonces[signer_ids.index(primary_id)] = primary_nonce.nonce

    is_batch = not tios
    request_wire, index, output = (None, None, None) if is_batch else tios[target_position]
    certificate = Certificate(
        view=view,
        seqno=seqno,
        root_m=root_m,
        primary_nonce_commitment=primary_nonce.commitment,
        evidence_bitmap=evidence_bitmap,
        gov_index=gov_index,
        checkpoint_digest=checkpoint_digest,
        flags=flags,
        committed_root=committed_root,
        primary_signature=pp.signature,
        signer_bitmap=bitmap_of(signer_ids),
        prepare_signatures=tuple(prepare_signatures),
        nonces=tuple(nonces),
        root_g=g_tree.root() if is_batch else None,
    )
    path = None if is_batch else g_tree.path(target_position)
    return Receipt(request_wire, index, None if output is None else codec.encoding_of(output), path, certificate)


def forge_alternate_output(
    colluders: dict[int, signatures.KeyPair],
    config: Configuration,
    base: Receipt,
    new_output: Any,
    backend: signatures.SignatureBackend | None = None,
) -> Receipt:
    """A receipt contradicting ``base``: same request, view, and sequence
    number, but a different output — Lemma 5 case (i) equivocation."""
    tio = (base.request_wire, base.index, new_output)
    return forge_receipt(
        colluders,
        config,
        view=base.view,
        seqno=base.seqno,
        tios=[tio],
        target_position=0,
        root_m=base.root_m,
        gov_index=base.gov_index,
        checkpoint_digest=base.checkpoint_digest,
        evidence_bitmap=base.evidence_bitmap,
        backend=backend,
    )


def forge_eoc_receipt(
    colluders: dict[int, signatures.KeyPair],
    config: Configuration,
    seqno: int,
    committed_root: Digest,
    gov_index: int = 0,
    view: int = 0,
    backend: signatures.SignatureBackend | None = None,
) -> Receipt:
    """A batch receipt for a P-th end-of-configuration batch — the
    artifact a governance fork (Lemma 7) consists of two of."""
    return forge_receipt(
        colluders,
        config,
        view=view,
        seqno=seqno,
        tios=[],
        flags=BATCH_END_OF_CONFIG,
        committed_root=committed_root,
        gov_index=gov_index,
        backend=backend,
    )
