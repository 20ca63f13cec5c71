"""Auditing (Alg. 4): honest runs are consistent; every injected
misbehavior yields a uPoM blaming at least f+1 replicas and never a
correct one."""

import dataclasses

import pytest

from repro import codec
from repro.audit import (
    UPOM_EQUIVOCATION,
    UPOM_GOVERNANCE_FORK,
    UPOM_MALFORMED_LEDGER,
    UPOM_MIN_INDEX,
    UPOM_WRONG_EXECUTION,
    Auditor,
    build_ledger_package,
    check_package_completeness,
)
from repro.byzantine import (
    LedgerRewriter,
    TamperExecution,
    UnresponsiveToAudit,
    forge_alternate_output,
    forge_eoc_receipt,
)
from repro.enforcement import Enforcer, make_enforcer, providers_from_deployment
from repro.errors import AuditError
from repro.ledger import EvidenceEntry
from repro.receipts import GovernanceChain, GovernanceLink, find_chain_fork
from repro.workloads import SmallBankWorkload

from helpers import FAST_PARAMS, build_deployment, run_workload
from test_integration_reconfig import RECONF_PARAMS


def fresh_run(behaviors=None, seed=b"audit", n_tx=40):
    dep = build_deployment(behaviors=behaviors or {}, seed=seed)
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    digests = run_workload(dep, client, n_tx=n_tx)
    receipts = [client.receipts[d] for d in digests if d in client.receipts]
    return dep, client, receipts


@pytest.fixture(scope="module")
def honest():
    return fresh_run()


class TestHonestAudit:
    def test_consistent(self, honest):
        dep, client, receipts = honest
        auditor = Auditor(dep.registry, dep.params)
        result = auditor.audit(receipts, [client.gov_chain], make_enforcer(dep))
        assert result.consistent

    def test_no_penalties_for_honest_members(self, honest):
        dep, client, receipts = honest
        enforcer = make_enforcer(dep)
        Auditor(dep.registry, dep.params).audit(receipts, [client.gov_chain], enforcer)
        assert enforcer.punished_members() == set()

    def test_package_complete(self, honest):
        dep, client, receipts = honest
        package = build_ledger_package(dep.primary(), min(receipts, key=lambda r: r.seqno))
        assert check_package_completeness(package, receipts) == []

    def test_empty_receipts_rejected(self, honest):
        dep, client, _ = honest
        with pytest.raises(AuditError):
            Auditor(dep.registry, dep.params).audit([], [client.gov_chain], make_enforcer(dep))

    def test_invalid_receipt_rejected_as_input(self, honest):
        dep, client, receipts = honest
        bad = dataclasses.replace(receipts[0], output_wire=codec.encode({"reply": {"ok": True}, "ws": b"\x00" * 32}))
        with pytest.raises(AuditError):
            Auditor(dep.registry, dep.params).audit([bad], [client.gov_chain], make_enforcer(dep))


class TestWrongExecution:
    """All replicas collude on a wrong result — only replay catches it."""

    @pytest.fixture(scope="class")
    def tampered(self):
        behaviors = {
            i: TamperExecution(
                procedure="smallbank.send_payment",
                mutate=lambda reply: {**reply, "src_balance": 10**9},
            )
            for i in range(4)
        }
        return fresh_run(behaviors=behaviors, seed=b"tamper")

    def test_receipts_still_verify(self, tampered):
        # The fraud is signed by a full quorum: receipts look perfect.
        dep, client, receipts = tampered
        from repro.receipts import verify_receipt

        assert all(verify_receipt(r, dep.genesis_config) for r in receipts)

    def test_replay_produces_upom(self, tampered):
        dep, client, receipts = tampered
        result = Auditor(dep.registry, dep.params).audit(
            receipts, [client.gov_chain], make_enforcer(dep)
        )
        assert not result.consistent
        assert any(u.kind == UPOM_WRONG_EXECUTION for u in result.upoms)

    def test_blames_at_least_f_plus_one(self, tampered):
        dep, client, receipts = tampered
        result = Auditor(dep.registry, dep.params).audit(
            receipts, [client.gov_chain], make_enforcer(dep)
        )
        assert len(result.blamed_replicas()) >= dep.genesis_config.f + 1

    def test_enforcer_punishes_blamed_members(self, tampered):
        dep, client, receipts = tampered
        enforcer = make_enforcer(dep)
        result = Auditor(dep.registry, dep.params).audit(receipts, [client.gov_chain], enforcer)
        accepted = enforcer.submit_audit_result(result, verifier=lambda upom: True)
        assert accepted == len(result.upoms)
        assert enforcer.punished_members() == result.blamed_members()


class TestEquivocation:
    def test_forged_alternate_output_blamed(self, honest):
        dep, client, receipts = honest
        base = next(r for r in receipts if r.request().procedure == "smallbank.balance")
        colluders = {i: dep.replica_keys[i] for i in range(3)}
        forged = forge_alternate_output(
            colluders, dep.genesis_config, base,
            {"reply": {"ok": True, "balance": 10**9}, "ws": base.output["ws"]},
        )
        result = Auditor(dep.registry, dep.params).audit(
            [base, forged], [client.gov_chain], make_enforcer(dep)
        )
        kinds = {u.kind for u in result.upoms}
        assert UPOM_EQUIVOCATION in kinds
        blamed = result.blamed_replicas()
        assert len(blamed) >= dep.genesis_config.f + 1
        assert blamed <= set(base.signers()) & set(forged.signers())

    def test_honest_minority_never_blamed(self, honest):
        dep, client, receipts = honest
        base = next(r for r in receipts if r.request().procedure == "smallbank.balance")
        colluders = {i: dep.replica_keys[i] for i in range(3)}  # replica 3 honest
        forged = forge_alternate_output(
            colluders, dep.genesis_config, base,
            {"reply": {"ok": True, "balance": 42}, "ws": base.output["ws"]},
        )
        result = Auditor(dep.registry, dep.params).audit(
            [base, forged], [client.gov_chain], make_enforcer(dep)
        )
        assert 3 not in result.blamed_replicas()


class TestMinIndexViolation:
    def test_min_index_upom(self, honest):
        dep, client, receipts = honest
        base = receipts[0]
        # Forge a quorum-signed receipt whose request demanded a later index.
        request = base.request()
        moved = dataclasses.replace(request, min_index=base.index + 100)
        moved = moved.with_signature(
            dep.backend.sign(client.keypair, moved.signed_payload())
        )
        colluders = {i: dep.replica_keys[i] for i in range(3)}
        from repro.byzantine import forge_receipt

        forged = forge_receipt(
            colluders, dep.genesis_config, view=base.view, seqno=base.seqno,
            tios=[(moved.to_wire(), base.index, base.output)],
            checkpoint_digest=base.checkpoint_digest,
        )
        result = Auditor(dep.registry, dep.params).audit(
            [forged], [client.gov_chain], make_enforcer(dep), replay=False
        )
        assert any(u.kind == UPOM_MIN_INDEX for u in result.upoms)


class TestLedgerRewrite:
    NEW_OUTPUT = {"reply": {"ok": True, "balance": 0}, "ws": b"\x00" * 32}

    def test_doctored_fragment_detected(self):
        dep, client, receipts = fresh_run(seed=b"rewrite")
        victim = receipts[5]
        rewriter = LedgerRewriter(victim_index=victim.index, new_output=self.NEW_OUTPUT)
        for replica in dep.replicas:
            replica.behavior = rewriter
        enforcer = make_enforcer(dep)
        collect, packages = enforcer.collect_ledger_package, []

        def collect_and_keep(*args):
            packages.append(collect(*args))
            return packages[-1]

        enforcer.collect_ledger_package = collect_and_keep
        result = Auditor(dep.registry, dep.params).audit(
            receipts, [client.gov_chain], enforcer
        )
        # Rewriting the entry breaks the signed pre-prepare binding: the
        # audit finds *some* contradiction (receipt-vs-ledger or replay).
        assert not result.consistent
        # The package's ledger is not bound: only its source is blamed.
        assert all(u.blamed_replicas == (packages[0].source_replica,) for u in result.upoms)

    @pytest.mark.parametrize("n_tx, doctored", [(200, "second of ten"), (40, "last")])
    def test_lone_rewriter_is_blamed_alone(self, n_tx, doctored):
        """Replica 3 alone rewrites an output in the package it serves,
        and the enforcer asks only replica 3: the batch's replayed G
        reproduces its signed root_g, so blaming its signers would blame
        correct replicas.  The ledger's own leaves do not: one uPoM names
        replica 3 and that batch."""
        dep, client, receipts = fresh_run(seed=b"rewrite", n_tx=n_tx)
        seqnos = sorted({r.seqno for r in receipts})
        if doctored == "last":
            seqno = seqnos[-1]
        else:
            assert len(seqnos) == 10
            seqno = seqnos[1]
        victim = next(r for r in receipts if r.seqno == seqno)
        liar = dep.replicas[3]
        liar.behavior = LedgerRewriter(victim_index=victim.index, new_output=self.NEW_OUTPUT)
        enforcer = Enforcer(providers={3: providers_from_deployment(dep)[3]})
        result = Auditor(dep.registry, dep.params).audit(receipts, [client.gov_chain], enforcer)
        assert [(u.kind, u.seqno, u.blamed_replicas) for u in result.upoms] == [
            (UPOM_MALFORMED_LEDGER, seqno, (3,))]
        assert "root_g" in result.upoms[0].detail


class TestUnresponsiveness:
    def test_all_silent_members_punished(self):
        behaviors = {i: UnresponsiveToAudit() for i in range(4)}
        dep, client, receipts = fresh_run(behaviors=behaviors, seed=b"silent")
        enforcer = make_enforcer(dep)
        result = Auditor(dep.registry, dep.params).audit(receipts, [client.gov_chain], enforcer)
        signers = set(max(receipts, key=lambda r: r.seqno).signers())
        assert set(enforcer.blamed_unresponsive) == signers
        assert len(enforcer.punished_members()) >= dep.genesis_config.f + 1

    def test_one_honest_responder_suffices(self):
        behaviors = {i: UnresponsiveToAudit() for i in range(3)}
        dep, client, receipts = fresh_run(behaviors=behaviors, seed=b"partial")
        enforcer = make_enforcer(dep)
        result = Auditor(dep.registry, dep.params).audit(receipts, [client.gov_chain], enforcer)
        assert result.consistent  # honest replica 3 produced the ledger


class TestGovernanceFork:
    def test_fork_detected_and_blamed(self, honest):
        dep, client, receipts = honest
        config = dep.genesis_config
        colluders = {i: dep.replica_keys[i] for i in range(3)}
        eoc_a = forge_eoc_receipt(colluders, config, seqno=50, committed_root=b"\xaa" * 32)
        eoc_b = forge_eoc_receipt(colluders, config, seqno=50, committed_root=b"\xbb" * 32)
        link_a = _fake_link(eoc_a)
        link_b = _fake_link(eoc_b)
        chain_a = GovernanceChain(genesis_config_wire=config.to_wire(), links=(link_a,))
        chain_b = GovernanceChain(genesis_config_wire=config.to_wire(), links=(link_b,))
        fork = find_chain_fork(chain_a, chain_b)
        assert fork is not None
        number, ra, rb = fork
        assert number == 1
        blamed = set(ra.signers()) & set(rb.signers())
        assert len(blamed) >= config.f + 1

    def test_a_fork_with_the_ledger_blames_only_replicas_that_signed_both_sides(self):
        """The client's chain carries a P-th end-of-configuration receipt
        for another batch than the ledger's: its signers include a replica
        whose signature is not on the ledger's batch (neither its primary
        nor a prepare in its evidence), and that replica is not blamed."""
        dep, client = reconfigured()
        package = build_ledger_package(dep.replicas[1])
        ledger = package.fragment.to_ledger()
        record = package.subledger.reconfigs[0]
        eoc_pp, config = record.eoc_pre_prepare(), dep.genesis_config
        primary = config.primary_for_view(eoc_pp.view)
        evidence = [e for e in ledger.entries() if isinstance(e, EvidenceEntry) and e.seqno == record.eoc_seqno]
        prepares = [p for e in evidence for p in e.prepares()]
        ledger_side = {primary} | {p.replica for p in prepares}
        outsider = next(r for r in config.replica_ids() if r not in ledger_side)
        backup = min(ledger_side - {primary})
        colluders = {r: dep.replica_keys[r] for r in (primary, backup, outsider)}
        forged = forge_eoc_receipt(
            colluders, config, seqno=record.eoc_seqno, committed_root=b"\xaa" * 32, view=eoc_pp.view)
        link = dataclasses.replace(client.gov_chain.links[0], eoc_receipt=forged)
        chain = dataclasses.replace(client.gov_chain, links=(link,))
        result = Auditor(dep.registry, dep.params).audit(list(client.receipts.values()), [chain], make_enforcer(dep))
        [upom] = result.upoms
        assert upom.kind == UPOM_GOVERNANCE_FORK
        assert upom.blamed_replicas == tuple(sorted((primary, backup)))
        assert outsider not in upom.blamed_replicas
        assert upom.evidence["receipt"] == forged.to_wire()
        assert upom.evidence["ledger"][0] == eoc_pp.to_wire()
        assert set(upom.evidence["ledger"][1:]) == {p.to_wire() for p in prepares}


class TestUPoMVerification:
    def test_invalid_upom_punishes_auditor(self, honest):
        dep, client, receipts = honest
        from repro.audit import UPoM

        enforcer = make_enforcer(dep)
        bogus = UPoM(
            kind=UPOM_WRONG_EXECUTION, blamed_replicas=(0,),
            blamed_members=("member-0",), detail="made up",
        )
        valid = enforcer.submit_upom(bogus, verifier=lambda u: False, auditor_id="mallory")
        assert not valid
        assert "mallory" in enforcer.punished_members()
        assert "member-0" not in enforcer.punished_members()


def reconfigured():
    """A deployment that swapped replica 0 out and replica 4 in, with
    its client's receipts and governance chain."""
    dep = build_deployment(params=RECONF_PARAMS, spare_replicas=1, seed=b"reconf")
    client = dep.add_client(retry_timeout=0.5)
    members = {m: dep.member_client(m) for m in ("member-1", "member-2", "member-3")}
    dep.start()
    workload = SmallBankWorkload(n_accounts=200, seed=21)
    for _ in range(10):
        client.submit(*workload.next_transaction(), min_index=0)
    dep.run(until=0.1)
    new_config = dep.propose_successor(add=[4], remove=[0])
    members["member-1"].submit("gov.propose", {"member": "member-1", "config": new_config.to_wire()}, min_index=0)
    dep.run(until=0.3)
    for name in members:
        members[name].submit("gov.vote", {"member": name, "accept": True}, min_index=0)
        dep.run(until=dep.net.scheduler.now + 0.2)
    for _ in range(10):
        client.submit(*workload.next_transaction(), min_index=0)
    dep.run(until=dep.net.scheduler.now + 1.0)
    assert len(client.gov_chain.links) == 1
    return dep, client


def _fake_link(eoc_receipt):
    # Minimal link carrying only the forked end-of-configuration receipt;
    # fork detection never dereferences the other fields.
    return GovernanceLink(
        propose_receipt=eoc_receipt, vote_receipts=(), eoc_receipt=eoc_receipt
    )
