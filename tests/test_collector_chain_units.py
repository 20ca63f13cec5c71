"""Receipt collector and governance-chain unit behaviors."""

import dataclasses

import pytest

from repro.errors import ReceiptError
from repro.lpbft.messages import Reply, ReplyX
from repro.receipts import (
    GovernanceChain,
    GovernanceLink,
    Receipt,
    ReceiptCollector,
    find_chain_fork,
    longest_chain,
    verify_chain,
    verify_receipt,
    verify_served_chain,
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
        nonce = replica.batches.own_nonces[(record.view, record.seqno)]
        config = replica.config_for(record.seqno)
        if replica.id == config.primary_for_view(record.view):
            signature = record.pp.signature
        else:
            signature = replica.batches.prepares_by_ppd[record.pp_digest][replica.id].signature
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
        index=record.run.entry(position).index, output=record.run.entry(position).output,
        path=primary.batches.g_tree(record, primary.ledger).path(position).to_wire(),
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
        assert done[0].output == receipt.output

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
        # The fourth (valid) reply completes it, without the culprit.
        done = collector.add_reply(digests[2], replies[ids[3]])
        assert done is not None
        assert backup not in done[0].signers()
        assert verify_receipt(done[0], dep.genesis_config, dep.backend)

    def test_mismatched_replyx_rejected(self, env):
        dep, client, digests = env
        receipt, replies, replyx = reply_messages_for(dep, client, digests[3])
        collector = ReceiptCollector(dep.genesis_config)
        collector.track(digests[4], client.receipts[digests[4]].request_wire)
        with pytest.raises(ReceiptError):
            collector.add_replyx(digests[4], replyx)

    def test_batch_certificate_is_shared_then_let_go(self, env):
        """Requests of one batch completed by the same signers share one
        certificate object; the collector holds it only while a request
        with messages for the batch is pending, and an abandoned request
        releases its hold as a completed one does."""
        dep, client, digests = env
        by_seqno = {}
        for d in digests:
            by_seqno.setdefault(client.receipts[d].seqno, []).append(d)
        batch = next(group for group in by_seqno.values() if len(group) >= 3)[:3]
        collector = ReceiptCollector(dep.genesis_config)
        messages = {}
        for d in batch:
            receipt, replies, replyx = reply_messages_for(dep, client, d)
            messages[d] = replies, replyx
            collector.track(d, receipt.request_wire)
            collector.add_reply(d, replies[0])
        done = []
        for d in batch[:2]:
            replies, replyx = messages[d]
            collector.add_replyx(d, replyx)
            done.append(collector.add_reply(d, replies[1]) or collector.add_reply(d, replies[2]))
        assert done[0] is not None and done[1][0].certificate is done[0][0].certificate
        assert len(collector._certificates) == 1
        assert collector.abandon(batch[2])
        assert collector._certificates == {} and collector._waiting == {}

    def test_completion_hands_the_send_time_over(self, env):
        """A completed request leaves the collector: its receipt and send
        time go to the caller, and a later reply finds nothing."""
        dep, client, digests = env
        receipt, replies, replyx = reply_messages_for(dep, client, digests[0])
        collector = ReceiptCollector(dep.genesis_config)
        collector.track(digests[0], receipt.request_wire, now=1.25)
        assert collector.sent_at(digests[0]) == 1.25
        collector.add_replyx(digests[0], replyx)
        ids = sorted(replies)
        done = None
        for r in ids[:3]:
            done = collector.add_reply(digests[0], replies[r])
        assert done is not None and done[1] == 1.25
        assert collector.sent_at(digests[0]) is None and collector.pending_digests() == []
        assert collector.add_reply(digests[0], replies[ids[3]]) is None
        # The client keeps the receipt; its collector keeps nothing.
        assert digests[0] in client.receipts and client.collector.sent_at(digests[0]) is None


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


# -- governance chains a party is sent -------------------------------------------


def forged_chain(dep):
    """A chain whose one link is three copies of a genuine batch receipt:
    each receipt verifies on its own, the link does not."""
    replica = dep.replicas[1]
    batch = replica.receipt_from_ledger(replica.committed_upto, None)
    assert verify_receipt(batch, dep.genesis_config, dep.backend)
    link = GovernanceLink(propose_receipt=batch, vote_receipts=(batch,), eoc_receipt=batch)
    return GovernanceChain(genesis_config_wire=dep.genesis_config.to_wire(), links=(link,))


class TestServedChains:
    def test_replica_drops_a_chain_that_does_not_verify(self, env):
        dep, _, _ = env
        replica = dep.replicas[1]
        bad_before = replica.metrics.counter_value("bad_gov_chains")
        replica.handle_gov_chain_resp(
            dep.replicas[2].address, ("gov-chain-resp", forged_chain(dep).to_wire(), ())
        )
        assert len(replica.gov_chain) == 0
        assert replica.metrics.counter_value("bad_gov_chains") == bad_before + 1

    def test_foreign_genesis_rejected(self, env):
        dep, client, _ = env
        other = GovernanceChain(genesis_config_wire=("configuration", 0, (), (), 1), links=())
        with pytest.raises(ReceiptError, match="different genesis"):
            verify_served_chain(
                other.to_wire(), client.gov_chain.genesis_config_wire, dep.params.pipeline
            )

    def test_client_counts_a_malformed_link(self, env):
        dep, client, _ = env
        bad_before = client.metrics.counter_value("bad_gov_chains")
        wire = ("gov-chain", dep.genesis_config.to_wire(), ((1, 2),))
        client.on_message(dep.replicas[0].address, ("gov-chain-resp", wire, ()))
        assert client.metrics.counter_value("bad_gov_chains") == bad_before + 1
        assert len(client.gov_chain) == 0


def _replace(wire, position, value):
    return wire[:position] + (value,) + wire[position + 1:]


# Each case turns a genuine receipt wire into a malformed input for one
# parser; every one must fail as a ReceiptError.
MALFORMED = {
    "receipt not a tuple": (Receipt.from_wire, lambda w: None),
    "receipt too short": (Receipt.from_wire, lambda w: w[:-1]),
    "receipt with the old aggregate slot": (
        Receipt.from_wire, lambda w: w + (("aggsig", b"\x55" * 64, 3),)),
    "receipt wrong tag": (Receipt.from_wire, lambda w: _replace(w, 0, "reply")),
    "receipt path malformed": (Receipt.from_wire, lambda w: _replace(w, 4, (1, 2))),
    "prepare signatures not a sequence": (Receipt.from_wire, lambda w: _replace(w, 16, 7)),
    "nonces not a sequence": (Receipt.from_wire, lambda w: _replace(w, 17, None)),
    "view not an integer": (Receipt.from_wire, lambda w: _replace(w, 5, "x")),
    "signer bitmap not an integer": (Receipt.from_wire, lambda w: _replace(w, 15, "y")),
    "link of two": (GovernanceLink.from_wire, lambda w: (1, 2)),
    "link not a tuple": (GovernanceLink.from_wire, lambda w: 5),
    "link votes not a sequence": (GovernanceLink.from_wire, lambda w: (w, 5, w)),
    "link with a malformed vote": (GovernanceLink.from_wire, lambda w: (w, (w[:3],), w)),
    "chain links not a sequence": (
        GovernanceChain.from_wire, lambda w: ("gov-chain", (), 5)),
    "chain with a link of two": (
        GovernanceChain.from_wire, lambda w: ("gov-chain", (), ((1, 2),))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_wire_is_a_receipt_error(env, case):
    dep, client, digests = env
    parse, malform = MALFORMED[case]
    wire = client.receipts[digests[0]].to_wire()
    assert Receipt.from_wire(wire) == client.receipts[digests[0]]
    with pytest.raises(ReceiptError):
        parse(malform(wire))
