"""Receipt collector and governance-chain unit behaviors."""

import dataclasses

import pytest

from repro.errors import ReceiptError
from repro.lpbft.messages import Reply, ReplyX
from repro.receipts import (
    GovernanceChain,
    ReceiptCollector,
    find_chain_fork,
    longest_chain,
    verify_chain,
)

from helpers import build_deployment, run_workload


@pytest.fixture(scope="module")
def env():
    dep = build_deployment(seed=b"collector")
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    digests = run_workload(dep, client, n_tx=30)
    return dep, client, digests


def reply_messages_for(dep, client, tx_digest):
    """Rebuild the raw reply/replyx messages a client would receive."""
    receipt = client.receipts[tx_digest]
    replies = {}
    for replica in dep.replicas:
        record = replica.batches[receipt.seqno]
        nonce = replica.own_nonces[(record.view, record.seqno)]
        config = replica.config_for(record.seqno)
        if replica.id == config.primary_for_view(record.view):
            signature = record.pp.signature
        else:
            signature = replica.prepares_by_ppd[record.pp_digest][replica.id].signature
        replies[replica.id] = Reply(
            view=record.view, seqno=record.seqno, replica=replica.id,
            signature=signature, nonce=nonce.nonce,
        )
    primary = dep.primary()
    record = primary.batches[receipt.seqno]
    position = record.tx_digests.index(tx_digest)
    replyx = ReplyX(
        view=record.view, seqno=record.seqno, root_m=record.pp.root_m,
        primary_nonce_commitment=record.pp.nonce_commitment,
        evidence_bitmap=record.pp.evidence_bitmap, gov_index=record.pp.gov_index,
        checkpoint_digest=record.pp.checkpoint_digest, flags=record.pp.flags,
        committed_root=record.pp.committed_root, tx_digest=tx_digest,
        index=record.entries[position].index, output=record.entries[position].output,
        path=record.g_tree.path(position).to_wire(),
    )
    return receipt, replies, replyx


class TestCollector:
    def test_completes_only_at_quorum(self, env):
        dep, client, digests = env
        receipt, replies, replyx = reply_messages_for(dep, client, digests[0])
        collector = ReceiptCollector(dep.genesis_config)
        collector.track(digests[0], receipt.request_wire)
        assert collector.add_replyx(digests[0], replyx) is None
        ids = sorted(replies)
        assert collector.add_reply(digests[0], replies[ids[0]]) is None
        assert collector.add_reply(digests[0], replies[ids[1]]) is None
        done = collector.add_reply(digests[0], replies[ids[2]])
        assert done is not None
        assert done.output == receipt.output

    def test_requires_primary_reply(self, env):
        dep, client, digests = env
        receipt, replies, replyx = reply_messages_for(dep, client, digests[1])
        primary_id = dep.genesis_config.primary_for_view(receipt.view)
        collector = ReceiptCollector(dep.genesis_config)
        collector.track(digests[1], receipt.request_wire)
        collector.add_replyx(digests[1], replyx)
        done = None
        for r, reply in replies.items():
            if r != primary_id:
                done = collector.add_reply(digests[1], reply)
        assert done is None  # three backups but no primary: incomplete

    def test_invalid_reply_does_not_complete(self, env):
        dep, client, digests = env
        receipt, replies, replyx = reply_messages_for(dep, client, digests[2])
        collector = ReceiptCollector(dep.genesis_config, verify=True)
        collector.track(digests[2], receipt.request_wire)
        collector.add_replyx(digests[2], replyx)
        ids = sorted(replies)
        # Corrupt one backup's signature: quorum forms but verification
        # fails, so the collector keeps waiting for a valid set.
        primary_id = dep.genesis_config.primary_for_view(receipt.view)
        backup = next(r for r in ids if r != primary_id)
        replies[backup] = dataclasses.replace(replies[backup], signature=b"\x00" * 64)
        done = None
        for r in ids[:3]:
            done = collector.add_reply(digests[2], replies[r])
        assert done is None
        # The fourth (valid) reply completes it.
        done = collector.add_reply(digests[2], replies[ids[3]])
        assert done is not None

    def test_mismatched_replyx_rejected(self, env):
        dep, client, digests = env
        receipt, replies, replyx = reply_messages_for(dep, client, digests[3])
        collector = ReceiptCollector(dep.genesis_config)
        collector.track(digests[4], client.receipts[digests[4]].request_wire)
        with pytest.raises(ReceiptError):
            collector.add_replyx(digests[4], replyx)

    def test_sent_time_survives_completion(self, env):
        dep, client, digests = env
        assert client.collector.sent_at(digests[0]) is not None


class TestChains:
    def test_genesis_chain_verifies(self, env):
        dep, client, _ = env
        schedule = verify_chain(client.gov_chain, dep.params.pipeline)
        assert schedule.current().number == 0

    def test_chain_wire_roundtrip(self, env):
        dep, client, _ = env
        again = GovernanceChain.from_wire(client.gov_chain.to_wire())
        assert again.genesis_config_wire == client.gov_chain.genesis_config_wire

    def test_wrong_genesis_number_rejected(self, env):
        dep, _, _ = env
        from repro.governance.configuration import Configuration

        bad = Configuration(
            number=1, members=dep.genesis_config.members,
            replicas=dep.genesis_config.replicas,
            vote_threshold=dep.genesis_config.vote_threshold,
        )
        with pytest.raises(ReceiptError):
            verify_chain(
                GovernanceChain(genesis_config_wire=bad.to_wire(), links=()),
                dep.params.pipeline,
            )

    def test_fork_on_different_genesis_rejected(self, env):
        dep, client, _ = env
        other = GovernanceChain(genesis_config_wire=("configuration", 0, (), (), 1), links=())
        with pytest.raises(ReceiptError):
            find_chain_fork(client.gov_chain, other)

    def test_longest_chain_prefers_length(self, env):
        dep, client, _ = env
        assert longest_chain([client.gov_chain, client.gov_chain]) is client.gov_chain

    def test_longest_chain_empty_rejected(self):
        with pytest.raises(ReceiptError):
            longest_chain([])
