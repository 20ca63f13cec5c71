"""The enforcer (paper §4.2).

The enforcer sits outside the system — a court or arbitration body that
consortium members are contractually bound to.  It has two jobs:

1. *Data production*: on an auditor's request it demands ledger packages
   from the replicas that signed the newest receipt.  Replicas answer
   within a short deadline; unresponsive replicas' members get a grace
   period and are then punished (the weak synchrony assumption §2 notes).
2. *uPoM verification*: it re-checks submitted uPoMs — bounded work, at
   most one checkpoint interval of replay — and punishes either the
   blamed members (valid uPoM) or the auditor (invalid uPoM).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..audit.package import LedgerPackage, PackageOffer, build_ledger_package, package_offer
from ..audit.upom import UPOM_UNRESPONSIVE, AuditResult, UPoM
from ..errors import EnforcementError
from ..governance.schedule import ConfigSchedule
from ..receipts.receipt import Receipt

# A provider maps replica_id -> callable producing the offer of a
# LedgerPackage (or None, modeling an unresponsive replica/member).
PackageProvider = Callable[[Receipt | None], "PackageOffer | None"]


@dataclass
class Penalty:
    """One sanction imposed on a member."""

    member: str
    reason: str
    upom_kind: str | None = None


@dataclass
class Enforcer:
    """Deadline-driven data collection plus uPoM-based punishment.

    ``providers`` maps replica ids to package providers.  For a simulated
    deployment, :func:`providers_from_deployment` builds honest providers
    (routed through each replica's byzantine behavior hook, so ledger
    rewriters can lie to the enforcer too).
    """

    providers: dict[int, PackageProvider] = field(default_factory=dict)
    penalties: list[Penalty] = field(default_factory=list)
    blamed_unresponsive: list[int] = field(default_factory=list)

    # -- data production (§4.2) ----------------------------------------------------

    def collect_ledger_package(
        self, receipts: list[Receipt], schedule: ConfigSchedule
    ) -> LedgerPackage | None:
        """Obtain one complete-looking ledger package for an audit.

        Asks the replicas that signed the receipt with the highest
        (view, seqno, index) — any honest one suffices (Lemma 4).  Records
        blame for every replica that fails to respond; returns None only
        when *all* signers are unresponsive (their members are punished).
        """
        if not receipts:
            raise EnforcementError("no receipts given")
        newest = max(
            receipts, key=lambda r: (r.view, r.seqno, r.index if r.index is not None else 0)
        )
        oldest = min(receipts, key=lambda r: r.seqno)
        config = schedule.config_at_seqno(newest.seqno)
        responses: list[PackageOffer] = []
        unresponsive: list[int] = []
        for replica_id in newest.signers():
            provider = self.providers.get(replica_id)
            offer = provider(oldest) if provider is not None else None
            if offer is None:
                # One penalty per replica per failure, however many times
                # an audit (or its retention-scoped retry) asks.
                if replica_id not in self.blamed_unresponsive:
                    unresponsive.append(replica_id)
                continue
            responses.append(offer)
        for replica_id in unresponsive:
            try:
                member = config.operator_of(replica_id)
            except Exception:
                member = f"<unknown-operator-of-replica-{replica_id}>"
            self.penalties.append(
                Penalty(
                    member=member,
                    reason=f"replica {replica_id} failed to produce a ledger for auditing",
                    upom_kind=UPOM_UNRESPONSIVE,
                )
            )
            self.blamed_unresponsive.append(replica_id)
        if not responses:
            return None
        # Prefer the package that can actually seed the replay: one whose
        # checkpoint matches the oldest receipt's dC (a signer that pruned
        # or withholds that snapshot loses to any signer still holding
        # it), then the *most history* — lowest fragment start (a faulty
        # signer cannot dodge replay by truncating its fragment above a
        # disputed batch; the receipt's quorum contains at least f+1
        # correct replicas), then the longest fragment (longer cannot
        # hide earlier entries; they are bound by the Merkle roots).
        # Chosen by the offers: only the chosen package is built.
        def preference(offer: PackageOffer):
            matches = (
                offer.checkpoint is not None
                and offer.checkpoint.digest() == oldest.checkpoint_digest
            )
            return (matches, -offer.start, offer.length)

        return max(responses, key=preference).build()

    # -- punishment (§4.2) ------------------------------------------------------------

    def submit_upom(self, upom: UPoM, verifier: Callable[[UPoM], bool], auditor_id: str = "auditor") -> bool:
        """Verify a uPoM and punish accordingly.

        ``verifier`` re-checks the claim (the enforcer re-runs the
        relevant audit step, bounded by one checkpoint interval).  Valid →
        punish the blamed members; invalid → punish the submitting
        auditor.  Returns validity.
        """
        valid = bool(verifier(upom))
        if valid:
            for member in upom.blamed_members:
                self.penalties.append(
                    Penalty(member=member, reason=upom.detail, upom_kind=upom.kind)
                )
        else:
            self.penalties.append(
                Penalty(member=auditor_id, reason="submitted an invalid uPoM", upom_kind=None)
            )
        return valid

    def submit_audit_result(self, result: AuditResult, verifier: Callable[[UPoM], bool]) -> int:
        """Submit every uPoM of an audit; returns how many were accepted."""
        return sum(1 for upom in result.upoms if self.submit_upom(upom, verifier))

    def punished_members(self) -> set[str]:
        return {p.member for p in self.penalties}


def providers_from_deployment(deployment) -> dict[int, PackageProvider]:
    """Honest package providers for every replica of a deployment, routed
    through each replica's byzantine behavior hook (so a rewriting or
    silent replica misleads the enforcer exactly as it would in the
    paper's threat model).  A replica without a behavior offers its
    package unbuilt; one with a behavior builds it for the hook."""
    providers: dict[int, PackageProvider] = {}
    for replica in deployment.replicas:
        def provider(oldest_receipt, replica=replica):
            if replica.behavior is None:
                return package_offer(replica, oldest_receipt)
            package = replica.behavior.provide_ledger_package(
                replica, build_ledger_package(replica, oldest_receipt))
            return None if package is None else PackageOffer.of(package)

        providers[replica.id] = provider
    return providers


def make_enforcer(deployment) -> Enforcer:
    """An enforcer wired to all replicas of a deployment."""
    return Enforcer(providers=providers_from_deployment(deployment))
