"""Signature verify-cache and batched verify (hot-path overhaul).

The cache memoizes verification over (key, payload, sig) triples; it must
be invisible to the protocol — in particular, forged signatures stay
rejected, hit or miss.
"""

import pytest

from repro.crypto import signatures
from repro.crypto.signatures import HashSigBackend, SignatureVerifyCache, verify_batch
from repro.byzantine.forgery import forge_receipt
from repro.errors import CryptoError
from repro.lpbft.deployment import make_genesis_config
from repro.receipts import verify_receipt

from helpers import FAST_PARAMS, build_deployment, run_workload


@pytest.fixture
def backend():
    return HashSigBackend()


class TestVerifyCache:
    def test_miss_then_hits(self, backend):
        cache = SignatureVerifyCache()
        kp = backend.generate(b"k")
        sig = backend.sign(kp, b"msg")
        assert cache.verify(kp.public_key, b"msg", sig, backend)
        assert (cache.stats.misses, cache.stats.hits) == (1, 0)
        for _ in range(3):
            assert cache.verify(kp.public_key, b"msg", sig, backend)
        assert (cache.stats.misses, cache.stats.hits) == (1, 3)
        assert cache.stats.hit_rate() == pytest.approx(0.75)

    def test_distinct_triples_are_distinct_entries(self, backend):
        cache = SignatureVerifyCache()
        kp = backend.generate(b"k")
        for i in range(5):
            msg = b"msg-%d" % i
            assert cache.verify(kp.public_key, msg, backend.sign(kp, msg), backend)
        assert cache.stats.misses == 5 and len(cache) == 5

    def test_negative_result_cached_and_still_rejected(self, backend):
        cache = SignatureVerifyCache()
        kp, other = backend.generate(b"k"), backend.generate(b"other")
        sig = backend.sign(kp, b"msg")
        # Verified against the wrong key: rejected on the miss AND on hits.
        assert not cache.verify(other.public_key, b"msg", sig, backend)
        assert not cache.verify(other.public_key, b"msg", sig, backend)
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)

    def test_long_payloads_keyed_by_digest(self, backend):
        cache = SignatureVerifyCache()
        kp = backend.generate(b"k")
        msg = b"x" * 10_000
        sig = backend.sign(kp, msg)
        assert cache.verify(kp.public_key, msg, sig, backend)
        assert cache.verify(kp.public_key, msg, sig, backend)
        assert cache.stats.hits == 1

    def test_eviction_beyond_max_entries(self, backend):
        cache = SignatureVerifyCache(max_entries=2)
        kp = backend.generate(b"k")
        for i in range(4):
            msg = b"m%d" % i
            cache.verify(kp.public_key, msg, backend.sign(kp, msg), backend)
        assert len(cache) <= 2
        assert cache.stats.evictions == 2

    def test_bad_max_entries_rejected(self):
        with pytest.raises(CryptoError):
            SignatureVerifyCache(max_entries=0)

    def test_clear_resets(self, backend):
        cache = SignatureVerifyCache()
        kp = backend.generate(b"k")
        cache.verify(kp.public_key, b"m", backend.sign(kp, b"m"), backend)
        cache.clear()
        assert len(cache) == 0 and cache.stats.lookups == 0


class TestBatchVerify:
    def test_batch_matches_individual(self, backend):
        kps = [backend.generate(bytes([i])) for i in range(4)]
        items = [(kp.public_key, b"payload", backend.sign(kp, b"payload")) for kp in kps]
        items.append((kps[0].public_key, b"payload", b"\x00" * 64))  # forged
        assert verify_batch(items, backend) == [True, True, True, True, False]

    def test_batch_dedups_identical_triples(self, backend):
        cache = SignatureVerifyCache()
        kp = backend.generate(b"k")
        sig = backend.sign(kp, b"msg")
        triple = (kp.public_key, b"msg", sig)
        results = verify_batch([triple] * 6, backend, cache)
        assert results == [True] * 6
        assert cache.stats.misses == 1 and cache.stats.hits == 5

    def test_batch_without_cache_still_dedups(self, backend):
        calls = []
        real_verify = backend.verify

        def counting_verify(pk, msg, sig):
            calls.append(1)
            return real_verify(pk, msg, sig)

        backend.verify = counting_verify
        kp = backend.generate(b"k")
        sig = backend.sign(kp, b"msg")
        assert verify_batch([(kp.public_key, b"msg", sig)] * 5, backend) == [True] * 5
        assert len(calls) == 1

    def test_empty_batch(self, backend):
        assert verify_batch([], backend) == []


class TestForgedSignaturesThroughCache:
    """The forgery helpers sign with their own keys; the cache must not
    launder them into validity."""

    def test_imposter_receipt_rejected_cached_and_uncached(self, backend):
        config, replica_keys, _ = make_genesis_config(4, backend, seed=b"vc-test")
        # Imposters hold fresh keys, not the configuration's replica keys.
        imposters = {i: backend.generate(b"imposter" + bytes([i])) for i in range(4)}
        tio = (("request", "svc", b"\x01" * 33, "proc", (), 0, b"\x02" * 64), 5, {"ok": True})
        forged = forge_receipt(imposters, config, view=0, seqno=3, tios=[tio], backend=backend)
        cache = SignatureVerifyCache()
        assert not verify_receipt(forged, config, backend)
        assert not verify_receipt(forged, config, backend, cache=cache)
        assert not verify_receipt(forged, config, backend, cache=cache)  # hit path
        assert cache.stats.hits >= 1

    def test_colluder_receipt_verdict_unchanged_by_cache(self, backend):
        """A quorum signing with its *real* keys forges a receipt that
        verifies (that is the accountability threat model); the cache must
        agree with the uncached verdict."""
        config, replica_keys, _ = make_genesis_config(4, backend, seed=b"vc-test2")
        tio = (("request", "svc", b"\x01" * 33, "proc", (), 0, b"\x02" * 64), 5, {"ok": True})
        forged = forge_receipt(replica_keys, config, view=0, seqno=3, tios=[tio], backend=backend)
        cache = SignatureVerifyCache()
        uncached = verify_receipt(forged, config, backend)
        assert verify_receipt(forged, config, backend, cache=cache) == uncached
        assert verify_receipt(forged, config, backend, cache=cache) == uncached


class TestDeploymentCacheWiring:
    def test_deployment_shares_cache_and_hits(self):
        dep = build_deployment()
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        run_workload(dep, client, n_tx=30, until=3.0)
        assert dep.committed_seqnos()[0] >= 1
        stats = dep.verify_cache.stats
        # Every client-request signature is verified by up to 4 replicas;
        # all but the first verification must be cache hits.
        assert stats.hits > 0 and stats.misses > 0
        assert stats.hit_rate() > 0.5


class TestAuditAndCollectorCacheWiring:
    def test_auditor_uses_cache_for_bulk_receipts(self):
        from repro.audit import Auditor
        from repro.enforcement.enforcer import make_enforcer

        dep = build_deployment()
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        digests = run_workload(dep, client, n_tx=40, until=4.0)
        auditor = Auditor(dep.registry, dep.params, backend=dep.backend)
        receipts = [client.receipts[d] for d in digests]
        result = auditor.audit(receipts, [dep.replicas[0].gov_chain], make_enforcer(dep))
        assert result.upoms == []
        # Many receipts share batch signatures: the memoized verifier must
        # have answered a good fraction from cache.
        assert auditor.verify_cache.stats.hits > 0

    def test_client_collector_uses_cache(self):
        dep = build_deployment()
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        run_workload(dep, client, n_tx=30, until=3.0)
        assert len(client.receipts) == 30
        assert client.collector._cache.stats.hits > 0


class TestBackendInstanceIsolation:
    def test_cache_does_not_leak_across_backend_instances(self):
        """HashSigBackend keeps a per-instance key registry; a shared cache
        must not serve one instance's verdict for another's."""
        b1, b2 = HashSigBackend(), HashSigBackend()
        cache = SignatureVerifyCache()
        kp = b2.generate(b"k")
        sig = b2.sign(kp, b"msg")
        assert not cache.verify(kp.public_key, b"msg", sig, b1)  # unknown key to b1
        assert cache.verify(kp.public_key, b"msg", sig, b2)      # must not hit b1's False

