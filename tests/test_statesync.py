"""State-sync units: chunked checkpoints, frontiers, wire messages."""

import random

import pytest

from repro import codec
from repro.errors import KVError, MerkleError, ProtocolError
from repro.crypto.hashing import digest_value
from repro.kvstore import (
    ChunkReassembler,
    KVStore,
    checkpoint_digest,
    chunk_digest,
    chunk_state,
)
from repro.kvstore.checkpoints import Checkpoint
from repro.merkle import (
    FrontierAccumulator,
    MerkleTree,
    frontier_from_wire,
    frontier_root,
)
from repro.statesync import SyncManifest, SyncOffer

from helpers import counting_entry_hashes


def random_state(rng, n):
    state = {}
    for i in range(n):
        kind = rng.randrange(4)
        key = f"k/{rng.randrange(10 * n + 1):06d}"
        if kind == 0:
            state[key] = rng.randrange(-(2**40), 2**40)
        elif kind == 1:
            state[key] = rng.randbytes(rng.randrange(0, 64))
        elif kind == 2:
            state[key] = {"a": rng.random() < 0.5, "b": (1, "x", None)}
        else:
            state[key] = "v" * rng.randrange(0, 40)
    return state


def assert_digest_needs_no_second_pass(rebuilt, expected):
    """Reassembly hashed every entry to check ``dC``; the snapshot keeps
    that accumulator, so its digest — and installing it — hashes nothing."""
    with counting_entry_hashes() as hashed:
        assert rebuilt.digest() == expected
        assert KVStore(rebuilt).state_digest() == expected
        assert hashed.call_count == 0


class TestChunkRoundTrip:
    """Property: any chunking of a snapshot reassembles to the same
    checkpoint digest, and a tampered chunk is rejected."""

    @pytest.mark.parametrize("seed", range(6))
    def test_roundtrip_any_chunk_size(self, seed):
        rng = random.Random(seed)
        state = random_state(rng, rng.randrange(0, 120))
        expected = checkpoint_digest(state)
        for max_bytes in (1, 7, 64, 512, 10**6):
            chunks = chunk_state(state, max_bytes)
            assert all(isinstance(c, bytes) for c in chunks)
            # Bound respected except for single oversized pairs.
            for c in chunks:
                if len(c) > max_bytes:
                    assert len(list(codec.decode_stream(c))) == 1
            reassembler = ChunkReassembler(
                tuple(chunk_digest(c) for c in chunks), expected
            )
            order = list(range(len(chunks)))
            rng.shuffle(order)  # arrival order must not matter
            for i in order:
                assert reassembler.add(i, chunks[i])
            rebuilt = reassembler.reassemble()
            assert rebuilt == state
            assert checkpoint_digest(rebuilt) == expected
            assert_digest_needs_no_second_pass(rebuilt, expected)

    def test_different_chunkings_same_digest(self):
        rng = random.Random(99)
        state = random_state(rng, 200)
        for max_bytes in (13, 1024):
            chunks = chunk_state(state, max_bytes)
            r = ChunkReassembler(tuple(chunk_digest(c) for c in chunks), checkpoint_digest(state))
            for i, c in enumerate(chunks):
                assert r.add(i, c)
            rebuilt = r.reassemble()
            assert rebuilt == state
            assert_digest_needs_no_second_pass(rebuilt, r.expected_digest)

    def test_empty_state_one_chunk(self):
        chunks = chunk_state({}, 100)
        assert chunks == [b""]
        r = ChunkReassembler((chunk_digest(b""),), checkpoint_digest({}))
        assert r.add(0, b"")
        assert r.reassemble() == {}

    def test_tampered_chunk_rejected(self):
        rng = random.Random(5)
        state = random_state(rng, 80)
        chunks = chunk_state(state, 256)
        assert len(chunks) > 2
        r = ChunkReassembler(tuple(chunk_digest(c) for c in chunks), checkpoint_digest(state))
        bad = bytes(chunks[1][:-1]) + bytes([chunks[1][-1] ^ 1])
        assert not r.add(1, bad)
        assert 1 in r.missing()
        assert r.add(1, chunks[1])  # the honest bytes still go in

    def test_duplicate_chunk_idempotent(self):
        state = {"a": 1, "b": 2}
        chunks = chunk_state(state, 4)
        r = ChunkReassembler(tuple(chunk_digest(c) for c in chunks), checkpoint_digest(state))
        for i, c in enumerate(chunks):
            assert r.add(i, c)
            assert r.add(i, c)  # duplicated delivery
        assert r.reassemble() == state

    def test_missing_chunk_raises(self):
        state = {"a": 1, "b": 2, "c": 3}
        chunks = chunk_state(state, 4)
        assert len(chunks) >= 2
        r = ChunkReassembler(tuple(chunk_digest(c) for c in chunks), checkpoint_digest(state))
        r.add(0, chunks[0])
        with pytest.raises(KVError):
            r.reassemble()

    def test_swapped_chunks_rejected(self):
        # Chunks whose digests are listed in the wrong order cannot pass
        # the canonical key-order check even if each digest matches.
        state = {f"k{i:03d}": i for i in range(40)}
        chunks = chunk_state(state, 64)
        assert len(chunks) >= 2
        swapped = [chunks[1], chunks[0]] + chunks[2:]
        r = ChunkReassembler(
            tuple(chunk_digest(c) for c in swapped), checkpoint_digest(state)
        )
        for i, c in enumerate(swapped):
            assert r.add(i, c)
        with pytest.raises(KVError):
            r.reassemble()

    def test_wrong_final_digest_rejected(self):
        state = {"a": 1}
        chunks = chunk_state(state, 100)
        r = ChunkReassembler(tuple(chunk_digest(c) for c in chunks), b"\x00" * 32)
        for i, c in enumerate(chunks):
            assert r.add(i, c)
        with pytest.raises(KVError):
            r.reassemble()

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(KVError):
            chunk_state({}, 0)

    def test_checkpoint_to_chunks(self):
        kv = KVStore(initial={"x": 1, "y": (1, 2)})
        cp = Checkpoint.capture(kv, 4, 10, b"\x01" * 32)
        chunks = cp.to_chunks(8)
        r = ChunkReassembler(tuple(chunk_digest(c) for c in chunks), cp.digest())
        for i, c in enumerate(chunks):
            assert r.add(i, c)
        rebuilt = r.reassemble()
        assert rebuilt == cp.state
        assert_digest_needs_no_second_pass(rebuilt, cp.digest())


class TestFrontier:
    def test_frontier_root_matches_root_at(self):
        tree = MerkleTree()
        rng = random.Random(3)
        for i in range(150):
            tree.append(digest_value(("leaf", i)))
            size = rng.randrange(1, len(tree) + 1)
            assert frontier_root(tree.frontier_at(size)) == tree.root_at(size)
        assert frontier_root(tree.frontier_at(0)) == tree.root_at(0)

    def test_accumulator_extends_like_full_tree(self):
        leaves = [digest_value(("leaf", i)) for i in range(97)]
        tree = MerkleTree(leaves)
        for size in (1, 2, 31, 64, 95):
            acc = FrontierAccumulator(tree.frontier_at(size))
            assert acc.size == size
            assert acc.root() == tree.root_at(size)
            for leaf in leaves[size:]:
                acc.append(leaf)
            assert acc.root() == tree.root()
            assert acc.size == len(leaves)

    def test_frontier_wire_validation(self):
        tree = MerkleTree([digest_value(("leaf", i)) for i in range(7)])
        peaks = tree.frontier_at(7)
        assert frontier_from_wire(tuple((h, d) for h, d in peaks)) == peaks
        with pytest.raises(MerkleError):
            frontier_from_wire(((0, b"\x01" * 32), (1, b"\x02" * 32)))  # ascending
        with pytest.raises(MerkleError):
            frontier_from_wire(((1, b"short"),))
        with pytest.raises(MerkleError):
            frontier_from_wire((("x",),))


class TestSyncMessageWire:
    def test_offer_roundtrip(self):
        offer = SyncOffer(
            cp_seqno=20, cp_digest=b"\x01" * 32, cp_ledger_size=200,
            cp_ledger_root=b"\x02" * 32, n_chunks=3, tip_seqno=36,
            tip_ledger_size=400, view=1,
        )
        wire = offer.to_wire()
        codec.decode(codec.encode(wire))  # codec-encodable
        assert SyncOffer.from_wire(wire) == offer
        with pytest.raises(ProtocolError):
            SyncOffer.from_wire(wire[:-1])
        with pytest.raises(ProtocolError):
            SyncOffer.from_wire(("nope",) + wire[1:])

    def test_manifest_roundtrip(self):
        manifest = SyncManifest(
            cp_seqno=20, cp_digest=b"\x01" * 32, cp_ledger_size=200,
            cp_ledger_root=b"\x02" * 32,
            chunk_digests=(b"\x03" * 32, b"\x04" * 32),
            frontier=((3, b"\x05" * 32), (1, b"\x06" * 32)),
        )
        wire = manifest.to_wire()
        codec.decode(codec.encode(wire))
        assert SyncManifest.from_wire(wire) == manifest
        with pytest.raises(ProtocolError):
            SyncManifest.from_wire(("bad",) + wire[1:])


class TestEncodeStream:
    def test_stream_roundtrip(self):
        values = [1, "two", b"three", (4, None), {"five": 5}]
        data = codec.encode_stream(values)
        assert list(codec.decode_stream(data)) == [1, "two", b"three", (4, None), {"five": 5}]
        assert data == b"".join(codec.encode(v) for v in values)


class TestLateJoinAfterActivation:
    """A proposed member that deploys only *after* its configuration has
    activated — and after ledger GC truncated the prefix holding the
    governance transactions — must still reach active membership.

    The checkpoint-rooted transfer cannot replay governance from the
    (collected) prefix, so the server attaches its governance chain and
    the newcomer verifies it from its own genesis anchor to recover the
    configuration schedule.  Pre-fix the newcomer adopted a genesis-only
    schedule, never considered itself a member, and was stranded forever.
    """

    def test_gc_truncated_prefix_newcomer_becomes_member(self):
        from helpers import FAST_PARAMS, build_deployment
        from repro.workloads import SmallBankWorkload

        params = FAST_PARAMS.variant(ledger_gc_min_age=0.2, view_change_timeout=5.0)
        dep = build_deployment(params=params, seed=b"latejoin-gc")
        rid = 4
        dep.provision_replica(rid)  # referendum first, deploy after activation
        client = dep.add_client(retry_timeout=0.5)
        members = {m: dep.member_client(m) for m in ("member-0", "member-1", "member-2")}
        dep.start()
        wl = SmallBankWorkload(n_accounts=200, seed=21)
        for _ in range(20):
            client.submit(*wl.next_transaction(), min_index=0)
        dep.run(until=0.3)

        new_config = dep.propose_successor(add=[rid])
        members["member-0"].submit(
            "gov.propose", {"member": "member-0", "config": new_config.to_wire()}, min_index=0
        )
        dep.run(until=0.5)
        for name in members:
            members[name].submit("gov.vote", {"member": name, "accept": True}, min_index=0)
            dep.run(until=dep.net.scheduler.now + 0.2)
        dep.run(until=3.0)
        assert all(r.schedule.current().number == 1 for r in dep.replicas)

        # Waves of traffic so checkpoints stabilise and GC collects the
        # prefix containing the governance transactions.
        for _ in range(6):
            for _ in range(25):
                client.submit(*wl.next_transaction(), min_index=0)
            dep.run(until=dep.net.scheduler.now + 0.4)
        dep.run(until=dep.net.scheduler.now + 1.0)
        assert any(r.ledger.base_index > 0 for r in dep.replicas), "precondition: GC never ran"

        t0 = dep.net.scheduler.now
        newcomer = dep.add_replica(rid)
        dep.run(until=t0 + 5.0)
        assert newcomer.schedule.current().number == 1
        assert newcomer.is_member()
        assert newcomer.metrics.counters.get("sync_chain_schedules_adopted", 0) >= 1

        # And it participates: fresh traffic commits on the newcomer too.
        n_rec = len(client.receipts)
        for _ in range(20):
            client.submit(*wl.next_transaction(), min_index=0)
        dep.run(until=dep.net.scheduler.now + 6.0)
        assert len(client.receipts) - n_rec == 20
        assert newcomer.committed_upto == max(r.committed_upto for r in dep.replicas)
