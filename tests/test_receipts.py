"""Receipts: Alg. 3 verification soundness and tamper-resistance."""

import dataclasses

import pytest

from repro import codec
from repro.receipts import Receipt, verify_receipt, receipts_equivalent
from repro.errors import ReceiptError

from helpers import build_deployment, recertified, run_workload


@pytest.fixture(scope="module")
def receipt_env():
    dep = build_deployment(seed=b"receipts")
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    digests = run_workload(dep, client)
    receipts = [client.receipts[d] for d in digests if d in client.receipts]
    assert len(receipts) == len(digests)
    return dep, client, receipts


def test_honest_receipts_verify(receipt_env):
    dep, _, receipts = receipt_env
    for receipt in receipts:
        assert verify_receipt(receipt, dep.genesis_config)


def test_receipt_wire_roundtrip(receipt_env):
    dep, _, receipts = receipt_env
    receipt = receipts[0]
    again = Receipt.from_wire(receipt.to_wire())
    assert again == receipt
    assert verify_receipt(again, dep.genesis_config)


def test_receipt_signers_at_least_quorum(receipt_env):
    dep, _, receipts = receipt_env
    for receipt in receipts:
        assert len(receipt.signers()) >= dep.genesis_config.quorum


def test_tampered_output_fails(receipt_env):
    dep, _, receipts = receipt_env
    receipt = dataclasses.replace(
        receipts[0], output_wire=codec.encode({"reply": {"ok": True, "balance": 1}, "ws": b"\x00" * 32}))
    assert not verify_receipt(receipt, dep.genesis_config)


def test_tampered_index_fails(receipt_env):
    dep, _, receipts = receipt_env
    receipt = dataclasses.replace(receipts[0], index=(receipts[0].index or 0) + 1)
    assert not verify_receipt(receipt, dep.genesis_config)


def test_tampered_request_fails(receipt_env):
    dep, _, receipts = receipt_env
    base = receipts[0]
    other = receipts[1]
    receipt = dataclasses.replace(base, request_wire=other.request_wire)
    assert not verify_receipt(receipt, dep.genesis_config)


def test_tampered_primary_signature_fails(receipt_env):
    dep, _, receipts = receipt_env
    bad = bytearray(receipts[0].primary_signature)
    bad[0] ^= 1
    receipt = recertified(receipts[0], primary_signature=bytes(bad))
    assert not verify_receipt(receipt, dep.genesis_config)


def test_tampered_prepare_signature_fails(receipt_env):
    dep, _, receipts = receipt_env
    sigs = list(receipts[0].prepare_signatures)
    sigs[0] = b"\x00" * len(sigs[0])
    receipt = recertified(receipts[0], prepare_signatures=tuple(sigs))
    assert not verify_receipt(receipt, dep.genesis_config)


def test_tampered_nonce_fails(receipt_env):
    dep, _, receipts = receipt_env
    nonces = list(receipts[0].nonces)
    nonces[0] = b"\x01" * 32
    receipt = recertified(receipts[0], nonces=tuple(nonces))
    assert not verify_receipt(receipt, dep.genesis_config)


def test_fewer_than_quorum_signers_fails(receipt_env):
    dep, _, receipts = receipt_env
    base = receipts[0]
    signers = base.signers()
    # Drop one non-primary signer from all aligned fields.
    primary = dep.genesis_config.primary_for_view(base.view)
    drop = next(r for r in signers if r != primary)
    keep = [r for r in signers if r != drop]
    keep_nonces = tuple(n for r, n in zip(signers, base.nonces) if r != drop)
    non_primary = [r for r in signers if r != primary]
    keep_sigs = tuple(s for r, s in zip(non_primary, base.prepare_signatures) if r != drop)
    from repro.lpbft.messages import bitmap_of

    receipt = recertified(
        base, signer_bitmap=bitmap_of(keep), nonces=keep_nonces, prepare_signatures=keep_sigs
    )
    assert not verify_receipt(receipt, dep.genesis_config)


def test_receipt_missing_primary_fails(receipt_env):
    dep, _, receipts = receipt_env
    base = receipts[0]
    primary = dep.genesis_config.primary_for_view(base.view)
    signers = [r for r in base.signers() if r != primary]
    from repro.lpbft.messages import bitmap_of

    receipt = recertified(base, signer_bitmap=bitmap_of(signers))
    assert not verify_receipt(receipt, dep.genesis_config)


def test_batch_receipt_requires_root_g(receipt_env):
    dep, _, receipts = receipt_env
    receipt = recertified(dataclasses.replace(receipts[0], request_wire=None, path=None), root_g=None)
    with pytest.raises(ReceiptError):
        verify_receipt(receipt, dep.genesis_config)


def test_receipt_from_ledger_matches_client_receipt(receipt_env):
    dep, client, receipts = receipt_env
    base = receipts[0]
    tx_digest = base.request().request_digest()
    replica = dep.primary()
    rebuilt = replica.receipt_from_ledger(base.seqno, tx_digest)
    assert rebuilt is not None
    assert verify_receipt(rebuilt, dep.genesis_config)
    assert rebuilt.output == base.output
    assert rebuilt.index == base.index


def test_receipts_equivalent_semantics(receipt_env):
    _, _, receipts = receipt_env
    assert receipts_equivalent(receipts[0], receipts[0])
    a, b = receipts[0], next(r for r in receipts if r.seqno != receipts[0].seqno)
    assert not receipts_equivalent(a, b)


def test_encoded_size_reasonable(receipt_env):
    # §6.4: receipts are concise (f=1 receipt ≈ hundreds of bytes).
    _, _, receipts = receipt_env
    size = receipts[0].encoded_size()
    assert 300 < size < 3000


def test_receipts_of_a_batch_share_one_certificate(receipt_env):
    """A receipt is its four per-transaction fields and its batch's
    certificate; the collector hands the receipts of one batch that the
    same signers vouch for one certificate object, and attribute reads,
    the wire form and equality see through it."""
    from repro import codec
    from repro.receipts import Certificate

    _, _, receipts = receipt_env
    by_batch = {}
    for receipt in receipts:
        by_batch.setdefault((receipt.view, receipt.seqno, receipt.signer_bitmap), []).append(receipt)
    shared = [group for group in by_batch.values() if len(group) > 1]
    assert shared
    for group in shared:
        assert all(r.certificate is group[0].certificate for r in group)
        assert len({id(r.reconstructed_pre_prepare()) for r in group}) == 1
    for receipt in receipts:
        assert type(receipt.certificate) is Certificate
        assert type(receipt.request_wire) is codec.SealedSeq
        assert receipt.seqno == receipt.certificate.seqno and receipt.nonces == receipt.certificate.nonces
        again = Receipt.from_wire(codec.decode(codec.encode(receipt.to_wire())))
        assert again == receipt and again.to_wire() == receipt.to_wire()
        assert again.min_index() == receipt.min_index() == receipt.request().min_index
    # Equality sees through the certificate.
    base = receipts[0]
    altered = recertified(base, flags=base.flags + 1)
    assert altered.flags == base.flags + 1 and altered != base
    assert recertified(altered, flags=base.flags) == base
    with pytest.raises(TypeError):
        Receipt(None, None, None, None)


def test_collector_lets_a_batch_certificate_go_with_its_last_pending_request(receipt_env):
    """The collector holds a batch's certificate for sharing only while
    some pending request has messages for that batch; once every
    request completed, nothing is held."""
    _, client, receipts = receipt_env
    collector = client.collector
    assert receipts and not collector._pending
    assert collector._certificates == {} and collector._waiting == {}
