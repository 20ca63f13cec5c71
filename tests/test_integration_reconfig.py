"""Reconfiguration (§5.1–5.2): replica swap, governance chains, clients."""

import pytest

from repro.lpbft import ProtocolParams
from repro.lpbft.messages import BATCH_CHECKPOINT, BATCH_END_OF_CONFIG, BATCH_START_OF_CONFIG
from repro.receipts import GovernanceChain, verify_chain, verify_receipt
from repro.workloads import SmallBankWorkload

from helpers import build_deployment

RECONF_PARAMS = ProtocolParams(
    pipeline=2, max_batch=20, checkpoint_interval=30,
    batch_delay=0.0005, view_change_timeout=5.0,
)


def run_reconfiguration():
    """Swap replica 0 out and replica 4 in via a referendum."""
    dep = build_deployment(params=RECONF_PARAMS, spare_replicas=1, seed=b"reconf")
    client = dep.add_client(retry_timeout=0.5)
    members = {m: dep.member_client(m) for m in ("member-1", "member-2", "member-3")}
    dep.start()
    wl = SmallBankWorkload(n_accounts=200, seed=21)
    before = [client.submit(*wl.next_transaction(), min_index=0) for _ in range(30)]
    dep.run(until=0.3)

    new_config = dep.propose_successor(add=[4], remove=[0])
    members["member-1"].submit(
        "gov.propose", {"member": "member-1", "config": new_config.to_wire()}, min_index=0
    )
    dep.run(until=0.5)
    for name in ("member-1", "member-2", "member-3"):
        members[name].submit("gov.vote", {"member": name, "accept": True}, min_index=0)
        dep.run(until=dep.net.scheduler.now + 0.2)
    dep.run(until=3.0)
    after = [client.submit(*wl.next_transaction(), min_index=0) for _ in range(30)]
    dep.run(until=8.0)
    return dep, client, before, after, new_config


@pytest.fixture(scope="module")
def reconfig_run():
    return run_reconfiguration()


def test_new_configuration_active_everywhere(reconfig_run):
    dep, *_ = reconfig_run
    assert all(r.schedule.current().number == 1 for r in dep.replicas)


def test_progress_in_new_configuration(reconfig_run):
    dep, client, before, after, _ = reconfig_run
    assert len(client.receipts) == len(before) + len(after)


def test_eoc_and_soc_batches_present(reconfig_run):
    dep, *_ = reconfig_run
    flags = [r.flags for r in dep.replicas[1].batches.values()]
    ledger = dep.replicas[1].ledger
    all_flags = {ledger.batch_pre_prepare(s).flags for s in [b.seqno for b in ledger.batches()]}
    assert BATCH_END_OF_CONFIG in all_flags
    assert BATCH_CHECKPOINT in all_flags
    assert BATCH_START_OF_CONFIG in all_flags


def test_eoc_count_is_2p(reconfig_run):
    dep, *_ = reconfig_run
    ledger = dep.replicas[1].ledger
    eoc = [
        b.seqno
        for b in ledger.batches()
        if ledger.batch_pre_prepare(b.seqno).flags == BATCH_END_OF_CONFIG
    ]
    assert len(eoc) == 2 * dep.params.pipeline


def test_eoc_batches_carry_committed_root(reconfig_run):
    dep, *_ = reconfig_run
    ledger = dep.replicas[1].ledger
    roots = {
        ledger.batch_pre_prepare(b.seqno).committed_root
        for b in ledger.batches()
        if ledger.batch_pre_prepare(b.seqno).flags == BATCH_END_OF_CONFIG
    }
    assert len(roots) == 1 and b"" not in roots


def test_replica_gov_chains_verify(reconfig_run):
    dep, *_ = reconfig_run
    for replica in dep.replicas:
        assert len(replica.gov_chain) == 1
        schedule = verify_chain(replica.gov_chain, dep.params.pipeline)
        assert schedule.current().number == 1


def test_replica_adopts_a_verified_longer_chain(reconfig_run):
    """A served chain that verifies is still adopted: a replica holding
    only genesis takes a peer's one-link chain from ``gov-chain-resp``."""
    dep, *_ = reconfig_run
    replica, peer = dep.replicas[1], dep.replicas[2]
    served = peer.gov_chain
    replica.gov_chain = GovernanceChain.genesis(dep.genesis_config)
    replica.handle_gov_chain_resp(peer.address, ("gov-chain-resp", served.to_wire(), ()))
    assert replica.gov_chain == served


def test_client_fetched_gov_chain(reconfig_run):
    dep, client, *_ = reconfig_run
    assert len(client.gov_chain) == 1


def test_new_config_receipt_verifies_under_new_keys(reconfig_run):
    dep, client, before, after, new_config = reconfig_run
    schedule = verify_chain(client.gov_chain, dep.params.pipeline)
    newest = max((client.receipts[d] for d in after), key=lambda r: r.seqno)
    config = schedule.config_at_seqno(newest.seqno)
    assert config.number == 1
    assert verify_receipt(newest, config)


def test_old_config_receipt_still_verifies_under_old_keys(reconfig_run):
    dep, client, before, *_ = reconfig_run
    schedule = verify_chain(client.gov_chain, dep.params.pipeline)
    oldest = min((client.receipts[d] for d in before), key=lambda r: r.seqno)
    config = schedule.config_at_seqno(oldest.seqno)
    assert config.number == 0
    assert verify_receipt(oldest, config)


def test_subledger_extraction_matches_schedule(reconfig_run):
    dep, *_ = reconfig_run
    from repro.governance.subledger import extract_governance_subledger

    replica = dep.replicas[1]
    subledger = extract_governance_subledger(replica.ledger.entries(), dep.params.pipeline)
    assert subledger.current_config().number == 1
    spans = subledger.schedule.spans()
    assert [s.config.number for s in spans] == [0, 1]
    assert spans[1].start_seqno == replica.schedule.spans()[1].start_seqno


def test_subledger_member_signatures(reconfig_run):
    dep, *_ = reconfig_run
    from repro.governance.subledger import extract_governance_subledger

    replica = dep.replicas[1]
    subledger = extract_governance_subledger(replica.ledger.entries(), dep.params.pipeline)
    assert subledger.verify_member_signatures()


def test_new_replica_state_matches(reconfig_run):
    dep, *_ = reconfig_run
    digests = {r.kv.state_digest() for r in dep.replicas[1:]}
    assert len(digests) == 1


def test_fragment_well_formed_across_reconfig(reconfig_run):
    dep, *_ = reconfig_run
    from repro.ledger.wellformed import check_well_formed

    replica = dep.replicas[1]
    issues = check_well_formed(replica.ledger.fragment(0), replica.schedule, dep.params.pipeline)
    assert issues == []


def test_a_replayed_install_holds_every_checkpoint_the_ledger_records():
    """A ledger install replays batches and takes the checkpoints their
    execution took: one after a regular batch at a multiple of C, and
    the activation checkpoint after the last end-of-configuration batch.
    Missing the latter, an installed replica executing the activation
    batch recorded an older checkpoint than its primary did, failed the
    batch's root check and suspected an honest primary."""
    from repro.ledger import CheckpointTxEntry
    from repro.lpbft.adoption import install_ledger

    dep, *_ = run_reconfiguration()
    source, target = dep.replicas[1], dep.replicas[2]
    ledger = source.ledger.fragment(0).to_ledger()
    install_ledger(target, ledger, target.checkpoints.genesis, source.schedule.copy())
    recorded = [e for e in ledger.entries() if isinstance(e, CheckpointTxEntry) and e.cp_seqno > 0]
    assert recorded, "precondition: the run recorded checkpoints"
    for entry in recorded:
        held = target.checkpoints.get(entry.cp_seqno)
        assert held is not None, entry.cp_seqno
        assert (held.digest(), held.ledger_size) == (entry.cp_digest, entry.ledger_size)


def test_a_replica_that_missed_the_referendum_takes_the_schedule_from_the_governance_chain():
    """Replica 3 is down for the whole referendum.  It recovers after the
    activation checkpoint, so the suffix past that checkpoint holds no
    governance transaction: the new configuration can only come from the
    server's governance chain, which every transfer carries."""
    dep = build_deployment(params=RECONF_PARAMS, spare_replicas=1, seed=b"reconf")
    client = dep.add_client(retry_timeout=0.5)
    members = {m: dep.member_client(m) for m in ("member-1", "member-2", "member-3")}
    dep.start()
    wl = SmallBankWorkload(n_accounts=200, seed=21)
    for _ in range(30):
        client.submit(*wl.next_transaction(), min_index=0)
    dep.run(until=0.3)
    victim = dep.replicas[3]
    dep.crash_replica(victim.id)
    new_config = dep.propose_successor(add=[4], remove=[0])
    members["member-1"].submit(
        "gov.propose", {"member": "member-1", "config": new_config.to_wire()}, min_index=0
    )
    dep.run(until=0.5)
    for name in ("member-1", "member-2", "member-3"):
        members[name].submit("gov.vote", {"member": name, "accept": True}, min_index=0)
        dep.run(until=dep.net.scheduler.now + 0.2)
    dep.run(until=3.0)
    assert victim.schedule.current().number == 0
    after = [client.submit(*wl.next_transaction(), min_index=0) for _ in range(30)]
    dep.run(until=4.0)
    dep.recover_replica(victim.id)
    dep.run(until=8.0)

    result = victim.sync_client.last_result
    assert result is not None and result["installed"]
    served = victim.checkpoints[result["cp_seqno"]]
    assert victim.ledger.base_index == served.ledger_size > 0
    assert victim.schedule.current().number == 1
    # Execution and the chain open the span alike (ConfigSpan.activated):
    # by sequence number and at the index after the final vote.
    assert victim.schedule == dep.replicas[1].schedule
    assert victim.committed_upto == dep.replicas[1].committed_upto
    assert dep.ledgers_agree()
    assert all(digest in client.receipts for digest in after)
