"""Signature checks are direct backend calls.

Every replica, client and auditor checks each signature with
``backend.verify``, as each would on its own machine (§3.4).  Batched
verdicts are per item and in order, and forged receipts stay rejected
however often they are checked.
"""

import pytest

from repro.byzantine.forgery import forge_receipt
from repro.crypto.signatures import HashSigBackend
from repro.lpbft.deployment import make_genesis_config
from repro.receipts import verify_receipt, verify_receipts

from helpers import CountingBackend, build_deployment


@pytest.fixture
def backend():
    return HashSigBackend()


class TestBatchVerify:
    def test_batch_matches_individual(self):
        """``_verify_many`` checks every triple, a repeated one included,
        and returns one verdict per triple in order."""
        dep = build_deployment()
        replica = dep.replicas[0]
        keys = [dep.replica_keys[i] for i in range(4)]
        items = [(kp.public_key, b"payload", dep.backend.sign(kp, b"payload")) for kp in keys]
        items.insert(2, (keys[0].public_key, b"payload", b"\x00" * 64))  # forged
        items.append(items[0])
        counting = CountingBackend(dep.backend)
        replica.backend = counting
        assert replica._verify_many(items) == [True, True, False, True, True, True]
        assert counting.verifies == len(items)

    def test_empty_batch(self):
        assert build_deployment().replicas[0]._verify_many([]) == []


TIO = (("request", "svc", b"\x01" * 33, "proc", (), 0, b"\x02" * 64), 5, {"ok": True})


class TestForgedReceipts:
    """The forgery helpers sign with the keys they are handed."""

    def test_imposter_receipt_rejected(self, backend):
        config, _, _ = make_genesis_config(4, backend, seed=b"vc-test")
        # Imposters hold fresh keys, not the configuration's replica keys.
        imposters = {i: backend.generate(b"imposter" + bytes([i])) for i in range(4)}
        forged = forge_receipt(imposters, config, view=0, seqno=3, tios=[TIO], backend=backend)
        assert not verify_receipt(forged, config, backend)
        assert verify_receipts([forged, forged], lambda seqno: config, backend) == [False, False]

    def test_colluder_receipt_verifies(self, backend):
        """A quorum signing with its *real* keys forges a receipt that
        verifies: that is the accountability threat model, which audit
        answers with blame rather than verification."""
        config, replica_keys, _ = make_genesis_config(4, backend, seed=b"vc-test2")
        forged = forge_receipt(replica_keys, config, view=0, seqno=3, tios=[TIO], backend=backend)
        assert verify_receipt(forged, config, backend)
        assert verify_receipts([forged, forged], lambda seqno: config, backend) == [True, True]
