"""Audit at the cost of its distinct work.

Receipt verification and audit do each distinct piece of work once:
HashSig MACs continue saved HMAC pad states, prepare payloads come from a
byte template, and ``verify_receipts`` checks each distinct batch
certificate once per call.  Every check still runs and every signed byte
is unchanged; these tests pin both halves.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac

import pytest
from hypothesis import given, settings, strategies as st

from repro import codec
from repro.audit import Auditor
from repro.byzantine import forge_receipt
from repro.crypto.signatures import HashSigBackend, KeyPair
from repro.enforcement import make_enforcer
from repro.errors import AuditError
from repro.lpbft.messages import Prepare, prepare_payload
from repro.lpbft.deployment import make_genesis_config
from repro.merkle import MerklePath
from repro.receipts import verify_receipt, verify_receipts

from helpers import (
    CountingBackend,
    build_deployment,
    certificate_checks,
    recertified,
    run_workload,
)


def _hmac_signature(secret: bytes, message: bytes) -> bytes:
    return (
        hmac.new(secret, message, hashlib.sha256).digest()
        + hmac.new(secret, b"pad" + message, hashlib.sha256).digest()
    )


# -- byte identity ---------------------------------------------------------------


class TestHashSigBytes:
    @pytest.mark.parametrize("seed", [b"", b"replica-0", bytes(range(40))])
    @pytest.mark.parametrize("size", [0, 1, 64, 200])
    def test_sign_is_two_rfc2104_macs(self, seed, size):
        backend = HashSigBackend()
        keypair = backend.generate(seed)
        message = bytes((7 * i + size) % 256 for i in range(size))
        expected = _hmac_signature(keypair.secret, message)
        assert backend.sign(keypair, message) == expected
        assert backend.sign(keypair, message) == expected  # from the saved pads
        assert backend.verify(keypair.public_key, message, expected)
        assert not backend.verify(keypair.public_key, message + b"x", expected)

    def test_secret_longer_than_a_block_is_hashed_first(self):
        backend = HashSigBackend()
        keypair = KeyPair(public_key=b"\x02" * 33, secret=b"k" * 100, backend_name="hashsig")
        assert backend.sign(keypair, b"m") == _hmac_signature(b"k" * 100, b"m")


class TestPreparePayloadBytes:
    NC, PPD = bytes(range(32)), bytes(range(32, 64))

    @pytest.mark.parametrize("replica", range(71))
    def test_template_matches_encoding(self, replica):
        expected = codec.encode(("prepare", replica, self.NC, self.PPD))
        assert Prepare(replica, self.NC, self.PPD).signed_payload() == expected
        assert prepare_payload(replica, self.NC, self.PPD) == expected

    @pytest.mark.parametrize(
        "replica, nonce_commitment, pp_digest",
        [
            (True, NC, PPD),  # a bool is not a replica id
            (-1, NC, PPD),
            (2**70, NC, PPD),
            ("3", NC, PPD),
            (3, NC[:31], PPD),
            (3, NC, PPD + b"\0"),
            (3, bytearray(NC), PPD),
            (3, NC, b""),
        ],
    )
    def test_other_inputs_fall_back_to_the_codec(self, replica, nonce_commitment, pp_digest):
        expected = codec.encode(("prepare", replica, nonce_commitment, pp_digest))
        assert Prepare(replica, nonce_commitment, pp_digest).signed_payload() == expected


# -- one check per distinct certificate -------------------------------------------


@pytest.fixture(scope="module")
def honest():
    dep = build_deployment(seed=b"distinct-work")
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    digests = run_workload(dep, client, n_tx=40)
    receipts = [client.receipts[d] for d in digests if d in client.receipts]
    return dep, client, receipts


def _siblings(receipts):
    """An honest receipt and another receipt of its batch."""
    by_seqno = {}
    for receipt in receipts:
        by_seqno.setdefault(receipt.seqno, []).append(receipt)
    return next(group[:2] for group in by_seqno.values() if len(group) >= 2)


def _audit(dep, client, receipts):
    return Auditor(dep.registry, dep.params).audit(
        receipts, [client.gov_chain], make_enforcer(dep))


class TestCertificateDedupeSoundness:
    """A receipt that shares its batch's signatures but not its statement
    must be checked on its own, inside the same ``audit``."""

    def test_honest_siblings_audit_clean(self, honest):
        dep, client, receipts = honest
        assert _audit(dep, client, _siblings(receipts)).consistent

    def test_sibling_with_altered_output_rejected(self, honest):
        dep, client, receipts = honest
        first, sibling = _siblings(receipts)
        altered = dataclasses.replace(
            sibling, output_wire=codec.encode({"reply": {"ok": True, "balance": 10**9}, "ws": b"\0" * 32}))
        with pytest.raises(AuditError):
            _audit(dep, client, [first, altered])

    def test_sibling_with_altered_path_rejected(self, honest):
        dep, client, receipts = honest
        first, sibling = _siblings(receipts)
        assert first.path.steps != sibling.path.steps
        altered = dataclasses.replace(sibling, path=first.path)
        with pytest.raises(AuditError):
            _audit(dep, client, [first, altered])
        step, on_left = sibling.path.steps[0]
        flipped = MerklePath.from_wire((
            sibling.path.leaf_index,
            sibling.path.tree_size,
            ((bytes([step[0] ^ 1]) + step[1:], on_left),) + sibling.path.steps[1:],
        ))
        with pytest.raises(AuditError):
            _audit(dep, client, [first, dataclasses.replace(sibling, path=flipped)])

    def test_sibling_with_flipped_prepare_signature_rejected(self, honest):
        dep, client, receipts = honest
        first, sibling = _siblings(receipts)
        signature = sibling.prepare_signatures[0]
        flipped = (bytes([signature[0] ^ 1]) + signature[1:],) + sibling.prepare_signatures[1:]
        altered = recertified(sibling, prepare_signatures=flipped)
        with pytest.raises(AuditError):
            _audit(dep, client, [first, altered])

    def test_distinct_certificates_are_each_checked_once(self, honest):
        dep, _, receipts = honest
        config_for = lambda seqno: dep.genesis_config  # noqa: E731
        once, twice = CountingBackend(dep.backend), CountingBackend(dep.backend)
        assert all(verify_receipts(receipts, config_for, once))
        assert all(verify_receipts(receipts * 2, config_for, twice))
        # One primary check and one prepare check per other signer.
        assert once.verifies == twice.verifies == certificate_checks(receipts)


@pytest.fixture(scope="module")
def pool(honest):
    """(receipts, configuration, backend): honest receipts with tampered
    siblings, and receipts forged by a colluding quorum and by imposters."""
    dep, _, receipts = honest
    config = dep.genesis_config
    tampered = [
        dataclasses.replace(receipts[0], output_wire=codec.encode({"reply": {}, "ws": b"\0" * 32})),
        recertified(receipts[1], nonces=receipts[1].nonces[::-1]),
        recertified(receipts[2], signer_bitmap=receipts[2].signer_bitmap ^ 0b1111),
        recertified(
            receipts[3], prepare_signatures=(b"\0" * 64,) + receipts[3].prepare_signatures[1:]),
    ]
    imposters = {i: dep.backend.generate(b"imposter" + bytes([i])) for i in range(4)}
    tios = [
        (("request", "svc", b"\x01" * 33, "proc", (), n, b"\x02" * 64), 5 + n, {"ok": n})
        for n in range(3)
    ]
    forged = [
        forge_receipt(keys, config, view=0, seqno=3, tios=tios, target_position=p,
                      backend=dep.backend)
        for keys in (dep.replica_keys, imposters)
        for p in range(len(tios))
    ]
    return receipts[:12] + tampered + forged, config, dep.backend


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_verify_receipts_matches_verify_receipt(pool, data):
    receipts, config, backend = pool
    chosen = data.draw(st.lists(st.sampled_from(receipts), max_size=20))
    config_for = lambda seqno: config  # noqa: E731 - one configuration for the pool
    assert verify_receipts(chosen, config_for, backend) == [
        verify_receipt(r, config_for(r.seqno), backend) for r in chosen
    ]
    # The pool mixes verdicts, so the property is not vacuous.
    assert {verify_receipt(r, config, backend) for r in receipts} == {True, False}


def test_config_for_decides_per_receipt(honest):
    dep, _, receipts = honest
    other, _, _ = make_genesis_config(4, HashSigBackend(), seed=b"elsewhere")
    pick = lambda seqno: other if seqno % 2 else dep.genesis_config  # noqa: E731
    expected = [verify_receipt(r, pick(r.seqno), dep.backend) for r in receipts]
    assert verify_receipts(receipts, pick, dep.backend) == expected
    assert set(expected) == {True, False}


def test_auditor_checks_each_certificate_once():
    """One audit checks each distinct batch certificate once: the
    primary's signature and one prepare signature per other signer
    (quorum - 1 for a quorum-sized certificate), beside the checks of
    the governance chain and of the ledger's well-formedness."""
    from repro.audit import Auditor
    from repro.enforcement.enforcer import make_enforcer
    from repro.ledger.wellformed import check_well_formed, parse_fragment
    from repro.receipts import verify_chain

    dep = build_deployment()
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    digests = run_workload(dep, client, n_tx=40, until=4.0)
    receipts = [client.receipts[d] for d in digests]
    chain = dep.replicas[0].gov_chain
    counting = CountingBackend(dep.backend)
    enforcer = make_enforcer(dep)
    result = Auditor(dep.registry, dep.params, backend=counting).audit(
        receipts, [chain], enforcer)
    assert result.upoms == []
    audited = counting.verifies

    counting.verifies = 0
    schedule = verify_chain(chain, dep.params.pipeline, counting)
    package = enforcer.collect_ledger_package(receipts, schedule)
    check_well_formed(
        parse_fragment(package.fragment), package.subledger.schedule,
        dep.params.pipeline, counting)
    chain_and_ledger = counting.verifies

    assert certificate_checks(receipts) < len(receipts)  # batches share certificates
    assert audited - chain_and_ledger == certificate_checks(receipts)
