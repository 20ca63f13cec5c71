"""The auditor (paper §4.1 Alg. 4, §5.3).

Anyone can audit: given a collection of receipts (typically ones whose
sequence violates what the application believes happened) and their
supporting governance chains, the auditor

1. verifies the receipts and chains (blaming signers of invalid or forked
   governance receipts, Lemma 7);
2. obtains a complete ledger package through the enforcer (Lemma 4/8);
3. checks the ledger's structure and signatures (§B.1 well-formedness);
4. checks each receipt appears at its position in the ledger, assigning
   blame through the Lemma 5/9/10 case analysis when it does not; and
5. replays the ledger from the referenced checkpoint, blaming all batch
   signers when execution diverges (§4.1).

The output is an :class:`~repro.audit.upom.AuditResult` carrying zero or
more uPoMs; each blames at least ``f + 1`` replicas for genuine
misbehavior and never blames a correct replica (Theorems 2 and 3).
"""

from __future__ import annotations

from ..crypto import signatures
from ..errors import AuditError, ReceiptError, ReproError, WellFormednessError
from ..governance.schedule import ConfigSchedule
from ..kvstore import ProcedureRegistry
from ..ledger.entries import EvidenceEntry, NoncesEntry, entry_from_wire
from ..ledger.wellformed import check_well_formed, parse_fragment
from ..lpbft.config import ProtocolParams
from ..lpbft.messages import bitmap_members
from ..receipts.chain import GovernanceChain, find_chain_fork, longest_chain, verify_chain
from ..receipts.receipt import Receipt, verify_receipts
from .package import LedgerPackage, check_package, retention_survivors
from .replay import replay_ledger
from .upom import (
    UPOM_BAD_CHECKPOINT,
    UPOM_CONFIG_MISMATCH,
    UPOM_EQUIVOCATION,
    UPOM_GOVERNANCE_FORK,
    UPOM_MALFORMED_LEDGER,
    UPOM_MIN_INDEX,
    UPOM_RECEIPT_NOT_IN_LEDGER,
    UPOM_WRONG_EXECUTION,
    AuditResult,
    UPoM,
)


class Auditor:
    """A stateless audit engine; one instance can serve many audits."""

    def __init__(
        self,
        registry: ProcedureRegistry,
        params: ProtocolParams,
        backend: signatures.SignatureBackend | None = None,
    ) -> None:
        self.registry = registry
        self.params = params
        self.backend = backend or signatures.default_backend()

    # -- entry point (Alg. 4 ``audit``) -------------------------------------------------

    def audit(
        self,
        receipts: list[Receipt],
        chains: list[GovernanceChain],
        enforcer,
        replay: bool = True,
    ) -> AuditResult:
        """Audit ``receipts`` against the ledger obtained via ``enforcer``.

        ``chains`` are the receipts' supporting governance chains (one
        suffices when all receipts share it).  Raises
        :class:`~repro.errors.AuditError` when the *inputs* are invalid —
        the enforcer punishes auditors who submit garbage (§4.2).
        """
        result = AuditResult()
        if not receipts:
            raise AuditError("no receipts to audit")

        schedule = self._verify_chains(chains, result)
        if result.upoms:
            return result
        self._audit_receipts(receipts, schedule, result)
        if result.upoms:
            return result

        package = enforcer.collect_ledger_package(receipts, schedule)
        if package is None:
            # The enforcer already recorded unresponsiveness blame.
            result.notes.append("no ledger package obtained; enforcer holds the blame record")
            return result
        survivors = self._audit_package(receipts, chains, schedule, package, result, replay)
        if survivors and len(survivors) < len(receipts):
            # Some receipts aged out below the GC retention window, but
            # the rest are still auditable — re-collect a package scoped
            # to them (the responder then picks the checkpoint matching
            # *their* oldest dC) and run the full audit on that subset.
            result.notes.append(
                f"re-auditing {len(survivors)} of {len(receipts)} receipts within the "
                f"retention window"
            )
            package = enforcer.collect_ledger_package(survivors, schedule)
            if package is not None:
                # One retry only: the survivor set was filtered by the
                # same predicate completeness uses, so a second
                # retention-only outcome means the window moved mid-audit
                # — the remaining receipts keep their note.
                self._audit_package(survivors, chains, schedule, package, result, replay)
        return result

    # -- step 1: governance chains (§5.3, Lemma 7) ------------------------------------------

    def _verify_chains(self, chains: list[GovernanceChain], result: AuditResult) -> ConfigSchedule:
        if not chains:
            raise AuditError("at least one supporting governance chain is required")
        schedules = []
        for chain in chains:
            try:
                schedules.append(verify_chain(chain, self.params.pipeline, self.backend))
            except ReceiptError as exc:
                raise AuditError(f"invalid supporting governance chain: {exc}") from exc
        for i in range(len(chains)):
            for j in range(i + 1, len(chains)):
                fork = find_chain_fork(chains[i], chains[j])
                if fork is not None:
                    number, receipt_a, receipt_b = fork
                    blamed = sorted(set(receipt_a.signers()) & set(receipt_b.signers()))
                    config = schedules[i].config_number(number - 1)
                    result.upoms.append(
                        UPoM(
                            kind=UPOM_GOVERNANCE_FORK,
                            blamed_replicas=tuple(blamed),
                            blamed_members=self._members_for(config, blamed),
                            seqno=receipt_a.seqno,
                            detail=(
                                f"two non-equivalent P-th end-of-configuration receipts for "
                                f"configuration {number}"
                            ),
                            evidence={
                                "receipt_a": receipt_a.to_wire(),
                                "receipt_b": receipt_b.to_wire(),
                            },
                        )
                    )
        best = longest_chain(chains) if not result.upoms else chains[0]
        return next(s for chain, s in zip(chains, schedules) if chain is best)

    # -- step 2: receipt validity (Alg. 4 ``auditReceipts``) ----------------------------------

    def _audit_receipts(
        self, receipts: list[Receipt], schedule: ConfigSchedule, result: AuditResult
    ) -> None:
        by_slot: dict[tuple[int, int], Receipt] = {}
        valid = verify_receipts(receipts, schedule.config_at_seqno, self.backend)
        for receipt, ok in zip(receipts, valid):
            if not ok:
                raise AuditError(
                    f"receipt at seqno {receipt.seqno} does not verify; nothing to blame"
                )
            # Minimum-index rule (Thm. 2): a receipt that violates its own
            # request's ordering constraint blames every signer.
            if not receipt.is_batch_receipt:
                min_index = receipt.min_index()
                if receipt.index is not None and receipt.index < min_index:
                    blamed = receipt.signers()
                    result.upoms.append(
                        UPoM(
                            kind=UPOM_MIN_INDEX,
                            blamed_replicas=tuple(blamed),
                            blamed_members=self._members_for(schedule.config_at_seqno(receipt.seqno), blamed),
                            seqno=receipt.seqno,
                            index=receipt.index,
                            detail=(
                                f"transaction executed at index {receipt.index} despite minimum "
                                f"index {min_index}"
                            ),
                            evidence={"receipt": receipt.to_wire()},
                        )
                    )
            # Equivocation between the submitted receipts themselves:
            # two valid receipts for the same (view, seqno) with different
            # pre-prepares (Lemma 5 case i, detectable without a ledger).
            slot = (receipt.view, receipt.seqno)
            other = by_slot.get(slot)
            if other is not None:
                if other.reconstructed_pre_prepare().digest() != receipt.reconstructed_pre_prepare().digest():
                    blamed = sorted(set(receipt.signers()) & set(other.signers()))
                    result.upoms.append(
                        UPoM(
                            kind=UPOM_EQUIVOCATION,
                            blamed_replicas=tuple(blamed),
                            blamed_members=self._members_for(schedule.config_at_seqno(receipt.seqno), blamed),
                            seqno=receipt.seqno,
                            detail=f"two contradictory receipts signed for (v={slot[0]}, s={slot[1]})",
                            evidence={"receipt_a": receipt.to_wire(), "receipt_b": other.to_wire()},
                        )
                    )
            else:
                by_slot[slot] = receipt

    # -- steps 3–5: the ledger package -----------------------------------------------------

    def _audit_package(
        self,
        receipts: list[Receipt],
        chains: list[GovernanceChain],
        schedule: ConfigSchedule,
        package: LedgerPackage,
        result: AuditResult,
        replay: bool,
    ) -> "list[Receipt] | None":
        """Run steps 3–5 against one package.  Returns None normally; when
        the only completeness deficiencies are retention-related (some
        receipts aged out below the GC window), returns the receipts the
        package *can* still support so the caller re-audits them."""
        source = package.source_replica
        source_config = schedule.current()

        ledger, problems = check_package(package, receipts)
        if problems:
            details = [detail for _, detail in problems]
            if all(detail.startswith("retention:") for detail in details):
                # The affected receipts reach below the service's GC
                # retention window — a correct replica cannot produce the
                # history anymore, so nobody is blamed.  A *faulty*
                # responder cannot abuse this to dodge replay: the
                # enforcer prefers the package with the lowest fragment
                # start among all signers' responses, and a receipt's
                # quorum contains at least f+1 correct replicas — this
                # branch is reached only when even the most-history
                # package cannot cover the receipt, i.e. the whole
                # service aged it out.  Receipts still inside the window
                # are handed back for a scoped re-audit.
                result.notes.append("; ".join(details))
                return retention_survivors(package, ledger, receipts)
            result.upoms.append(
                UPoM(
                    kind=UPOM_MALFORMED_LEDGER,
                    blamed_replicas=(source,),
                    blamed_members=self._members_for_safe(source_config, [source]),
                    seqno=problems[0][0],
                    detail="; ".join(details),
                )
            )
            return None
        ledger_schedule = package.subledger.schedule

        # Governance fork between the client's chains and the ledger
        # (§5.3): compare each chain's end-of-configuration receipts with
        # the ledger's end-of-configuration batches.
        self._check_governance_fork(chains, package, ledger, schedule, result)
        if result.upoms:
            return

        # Structure and signatures (§B.1 well-formedness), over the
        # entries the ledger was materialised from: one decode per audit.
        try:
            parsed = parse_fragment(package.fragment, ledger)
        except WellFormednessError as exc:
            result.upoms.append(
                UPoM(
                    kind=UPOM_MALFORMED_LEDGER,
                    blamed_replicas=(source,),
                    blamed_members=self._members_for_safe(source_config, [source]),
                    detail=f"fragment is structurally unreadable: {exc}",
                )
            )
            return
        for issue in check_well_formed(
            parsed, ledger_schedule, self.params.pipeline, self.backend
        ):
            blamed = tuple(issue.blamed) if issue.blamed else (source,)
            config = ledger_schedule.config_at_seqno(max(1, issue.seqno))
            result.upoms.append(
                UPoM(
                    kind=UPOM_MALFORMED_LEDGER,
                    blamed_replicas=blamed,
                    blamed_members=self._members_for_safe(config, blamed),
                    seqno=issue.seqno,
                    index=issue.index,
                    detail=f"{issue.kind}: {issue.detail}",
                )
            )
        if result.upoms:
            return

        # Merge the message box E (§B.1.1): evidence for the newest P
        # batches that has not been ordered into the ledger yet.
        for seqno, (ev_wire, k_wire) in (package.extra_evidence or {}).items():
            try:
                ev, ks = entry_from_wire(ev_wire), entry_from_wire(k_wire)
            except Exception:
                continue
            if isinstance(ev, EvidenceEntry) and isinstance(ks, NoncesEntry) and seqno not in parsed.evidence_for:
                parsed.evidence_for[seqno] = (ev, ks)

        # Receipts vs ledger (Alg. 4 ``verifyReceiptsInLedger``).
        for receipt in receipts:
            self._check_receipt_in_ledger(receipt, ledger, parsed, ledger_schedule, schedule, result)
        if result.upoms:
            return

        # Replay (Alg. 4 ``replayLedger``).
        if replay:
            findings = replay_ledger(
                ledger,
                package.checkpoint,
                self.registry,
                ledger_schedule,
                evidence_by_seqno=parsed.evidence_for,
            )
            for finding in findings:
                config = ledger_schedule.config_at_seqno(finding.seqno)
                kind = (
                    UPOM_BAD_CHECKPOINT
                    if finding.kind == "checkpoint-mismatch"
                    else UPOM_WRONG_EXECUTION
                )
                result.upoms.append(
                    UPoM(
                        kind=kind,
                        blamed_replicas=finding.blamed,
                        blamed_members=self._members_for_safe(config, finding.blamed),
                        seqno=finding.seqno,
                        index=finding.index,
                        detail=finding.detail,
                    )
                )

    def _check_governance_fork(
        self,
        chains: list[GovernanceChain],
        package: LedgerPackage,
        ledger,
        schedule: ConfigSchedule,
        result: AuditResult,
    ) -> None:
        """A chain whose P-th end-of-configuration receipt disagrees with
        the ledger's batch is a fork (§5.3, Lemma 7): blamed are the
        replicas whose valid signatures stand on both sides."""
        ledger_reconfigs = {
            record.new_config.number: record for record in package.subledger.reconfigs
        }
        for chain in chains:
            for number, link in enumerate(chain.links, start=1):
                record = ledger_reconfigs.get(number)
                if record is None:
                    continue
                eoc_pp = record.eoc_pre_prepare()
                receipt = link.eoc_receipt
                if (
                    receipt.seqno != record.eoc_seqno
                    or receipt.committed_root != eoc_pp.committed_root
                ):
                    config = schedule.config_number(number - 1)
                    signers, statements = self._eoc_batch_signers(eoc_pp, ledger, package, config)
                    blamed = sorted(set(receipt.signers()) & signers)
                    result.upoms.append(
                        UPoM(
                            kind=UPOM_GOVERNANCE_FORK,
                            blamed_replicas=tuple(blamed),
                            blamed_members=self._members_for_safe(config, blamed),
                            seqno=receipt.seqno,
                            detail=(
                                f"client chain and ledger disagree on the P-th "
                                f"end-of-configuration batch for configuration {number}"
                            ),
                            evidence={"receipt": receipt.to_wire(), "ledger": statements},
                        )
                    )

    def _eoc_batch_signers(self, eoc_pp, ledger, package: LedgerPackage, config) -> tuple[set[int], tuple]:
        """The replicas of ``config`` whose valid signatures stand on the
        ledger's P-th end-of-configuration batch — its primary's on the
        pre-prepare, each backup's on a prepare for it in the ledger's
        evidence for its seqno or in the package's message box — and the
        wire forms of those signed statements."""
        signers, statements = set(), []
        primary = config.primary_for_view(eoc_pp.view)
        if config.has_replica(primary) and self.backend.verify(
            config.replica_key(primary), eoc_pp.signed_payload(), eoc_pp.signature
        ):
            signers.add(primary)
            statements.append(eoc_pp.to_wire())
        evidence = ledger.entries_of(EvidenceEntry)
        boxed = (package.extra_evidence or {}).get(eoc_pp.seqno)
        if boxed is not None:
            try:
                evidence.append(EvidenceEntry.from_wire(boxed[0]))
            except ReproError:
                pass
        pp_digest = eoc_pp.digest()
        for entry in evidence:
            try:
                prepares = entry.prepares() if entry.seqno == eoc_pp.seqno else []
            except (ReproError, TypeError):
                continue
            for prepare in prepares:
                if (
                    prepare.pp_digest == pp_digest and prepare.replica not in signers
                    and config.has_replica(prepare.replica)
                    and self.backend.verify(
                        config.replica_key(prepare.replica), prepare.signed_payload(), prepare.signature)
                ):
                    signers.add(prepare.replica)
                    statements.append(prepare.to_wire())
        return signers, tuple(statements)

    def _check_receipt_in_ledger(
        self,
        receipt: Receipt,
        ledger,
        parsed,
        ledger_schedule: ConfigSchedule,
        chain_schedule: ConfigSchedule,
        result: AuditResult,
    ) -> None:
        """Lemma 5 / Lemma 9 / Lemma 10 case analysis."""
        seqno = receipt.seqno
        receipt_config = chain_schedule.config_at_seqno(seqno)
        ledger_config = ledger_schedule.config_at_seqno(seqno)

        # Lemma 9: the configurations that signed the receipt and prepared
        # the ledger batch must match.
        if receipt_config.number != ledger_config.number:
            blamed = receipt.signers()
            result.upoms.append(
                UPoM(
                    kind=UPOM_CONFIG_MISMATCH,
                    blamed_replicas=tuple(blamed),
                    blamed_members=self._members_for_safe(receipt_config, blamed),
                    seqno=seqno,
                    detail=(
                        f"receipt produced by configuration {receipt_config.number} but the "
                        f"ledger prepares batch {seqno} in configuration {ledger_config.number}"
                    ),
                    evidence={"receipt": receipt.to_wire()},
                )
            )
            return

        batch = parsed.batch(seqno)
        if batch is None:
            result.upoms.append(
                UPoM(
                    kind=UPOM_RECEIPT_NOT_IN_LEDGER,
                    blamed_replicas=tuple(receipt.signers()),
                    blamed_members=self._members_for_safe(receipt_config, receipt.signers()),
                    seqno=seqno,
                    detail=f"ledger fragment has no batch at sequence number {seqno}",
                    evidence={"receipt": receipt.to_wire()},
                )
            )
            return

        receipt_pp = receipt.reconstructed_pre_prepare()
        if batch.pp.digest() == receipt_pp.digest():
            return  # consistent
        if batch.view != receipt.view and batch.pp.root_g == receipt_pp.root_g:
            # A view change re-proposes prepared batches under the new
            # view: the re-issued pre-prepare carries a new view, a fresh
            # nonce commitment, and a root_m that now covers the ledger's
            # view-change entries — but the same G tree.  The receipt
            # attests (t, i, o) is in batch s, and the ledger's batch s
            # commits to exactly that set, so there is no contradiction
            # to assign blame for (the well-formedness pass has already
            # validated the view change that moved the batch).
            return

        receipt_signers = set(receipt.signers())
        vr, vl = receipt.view, batch.view
        if vl == vr:
            # Case (i): same view, different batch — the replicas that
            # signed both the receipt and the ledger's evidence equivocated.
            ledger_signers = {ledger_config.primary_for_view(vl)}
            pair = parsed.evidence_for.get(seqno)
            if pair is not None:
                ledger_signers.update(bitmap_members(pair[1].bitmap))
            blamed = sorted(receipt_signers & ledger_signers)
            detail = f"batch {seqno} signed twice in view {vl} with different contents"
        else:
            # Cases (ii)/(iii): the ledger contains view-change messages
            # for some view between the two; replicas that signed the
            # receipt but omitted the prepared batch from their
            # view-change can be blamed.
            lo, hi = (vr, vl) if vl > vr else (vl, vr)
            vc_senders: set[int] = set()
            for view in range(lo + 1, hi + 1):
                for vc in parsed.view_changes_for_view(view):
                    reported = {w[2] for w in vc.prepared}  # wire field 2 = seqno
                    if seqno not in reported:
                        vc_senders.add(vc.replica)
            blamed = sorted(receipt_signers & vc_senders)
            detail = (
                f"receipt for batch {seqno} in view {vr} contradicts the ledger's view {vl}; "
                f"signers omitted the batch from their view-change messages"
            )
        if not blamed:
            # The fragment hides the evidence needed to intersect — the
            # responder failed completeness (Lemma 4): blame it.
            blamed = sorted(receipt_signers)
            detail += " (ledger fragment lacks the intersecting evidence)"
        result.upoms.append(
            UPoM(
                kind=UPOM_RECEIPT_NOT_IN_LEDGER,
                blamed_replicas=tuple(blamed),
                blamed_members=self._members_for_safe(receipt_config, blamed),
                seqno=seqno,
                detail=detail,
                evidence={"receipt": receipt.to_wire()},
            )
        )

    # -- helpers -----------------------------------------------------------------

    @staticmethod
    def _members_for(config, replica_ids) -> tuple[str, ...]:
        return tuple(sorted({config.operator_of(r) for r in replica_ids}))

    @staticmethod
    def _members_for_safe(config, replica_ids) -> tuple[str, ...]:
        members = set()
        for r in replica_ids:
            try:
                members.add(config.operator_of(r))
            except Exception:
                members.add(f"<unknown-operator-of-replica-{r}>")
        return tuple(sorted(members))
