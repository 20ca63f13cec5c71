"""The audit's replay (Alg. 4 ``replayLedger``) compares what it
re-executes with the ledger byte for byte, and checks every checkpoint
transaction's digest and ledger binding.  Each ledger here is forged by
all replicas together, its pre-prepares and prepares re-signed
(:func:`helpers.reforge_ledger`); with C = 10, batch 20 records
checkpoint 10."""

import dataclasses
from collections.abc import Mapping

import pytest

from repro import codec
from repro.audit import UPOM_BAD_CHECKPOINT, Auditor, replay_ledger
from repro.byzantine.behaviors import Behavior
from repro.enforcement import make_enforcer
from repro.ledger import TxEntry
from repro.ledger.wellformed import parse_fragment
from repro.lpbft.messages import bitmap_members

from helpers import build_deployment, forge_checkpoint_record, reforge_ledger, run_waves


@pytest.fixture(scope="module")
def run():
    dep = build_deployment(accounts=20)
    genesis = dep.primary().checkpoints[0]  # collected once checkpoint 10 is stable
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    digests = run_waves(dep, client, waves=30, per_wave=10, gap=0.05)
    receipts = [client.receipts[d] for d in digests if d in client.receipts]
    return dep, genesis, client, receipts


def signers(ledger, seqno, primary):
    """The batch's signers as the ledger records them: its primary and
    the replicas whose nonces batch ``seqno + P`` orders."""
    nonces = parse_fragment(ledger.fragment(0)).evidence_for[seqno][1]
    return tuple(sorted({primary.id} | set(bitmap_members(nonces.bitmap))))


def replay(dep, genesis, ledger):
    return replay_ledger(
        ledger, genesis, dep.registry, dep.primary().schedule,
        evidence_by_seqno=parse_fragment(ledger.fragment(0)).evidence_for)


def ints_for_bools(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, Mapping):
        return {key: ints_for_bools(item) for key, item in value.items()}
    return value


def test_output_with_other_bytes_is_an_output_mismatch(run):
    """``False`` → ``0`` keeps Python's ``==`` but changes every G leaf."""
    dep, genesis, _, _ = run
    primary = dep.primary()
    honest = primary.ledger.fragment(0).to_ledger()
    seqno = 15
    info = honest.batch(seqno)
    targets = [e for e in honest.entries(info.first_tx, info.end) if isinstance(e, TxEntry)]
    assert targets and replay(dep, genesis, honest) == []
    indices = {target.index for target in targets}
    forged = reforge_ledger(honest, dep, lambda entry: (
        dataclasses.replace(entry, output=ints_for_bools(entry.output))
        if isinstance(entry, TxEntry) and entry.index in indices else None))
    for target in targets:
        entry = forged.entry_at_index(target.index)
        assert entry.output == target.output
        assert codec.encode(entry.output) != codec.encode(target.output)
    findings = replay(dep, genesis, forged)
    assert [(f.kind, f.seqno, f.index) for f in findings] == [
        ("output-mismatch", seqno, target.index) for target in targets]
    blamed = signers(honest, seqno, primary)
    assert len(blamed) >= len(dep.replicas) - dep.genesis_config.f
    assert all(f.blamed == blamed for f in findings)


class ServeLedger(Behavior):
    """Answer the enforcer with ``ledger`` and ``checkpoint`` instead of
    the replica's own."""

    def __init__(self, ledger, checkpoint):
        self.ledger, self.checkpoint = ledger, checkpoint

    def provide_ledger_package(self, replica, package):
        return dataclasses.replace(
            package, fragment=self.ledger.fragment(0), checkpoint=self.checkpoint)


@pytest.mark.parametrize("forgery", ["size", "root"])
def test_forged_checkpoint_binding_is_a_bad_checkpoint(run, forgery):
    """The digest is intact; the ledger size or root it binds is not."""
    dep, genesis, client, receipts = run
    primary = dep.primary()
    honest = primary.ledger.fragment(0).to_ledger()
    forged = forge_checkpoint_record(honest, dep, forgery)
    findings = replay(dep, genesis, forged)
    assert [(f.kind, f.seqno) for f in findings] == [("checkpoint-mismatch", 20)]
    # Receipts below batch 20 still match the forged ledger, and their
    # dC is the genesis checkpoint's, so the audit reaches its replay.
    early = [r for r in receipts if r.seqno < 20]
    saved = [replica.behavior for replica in dep.replicas]
    try:
        for replica in dep.replicas:
            replica.behavior = ServeLedger(forged, genesis)
        result = Auditor(dep.registry, dep.params).audit(
            early, [client.gov_chain], make_enforcer(dep))
    finally:
        for replica, behavior in zip(dep.replicas, saved):
            replica.behavior = behavior
    assert [(u.kind, u.seqno) for u in result.upoms] == [(UPOM_BAD_CHECKPOINT, 20)]
    assert result.upoms[0].blamed_replicas == signers(honest, 20, primary)
