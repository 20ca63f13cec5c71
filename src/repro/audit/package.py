"""Ledger packages: what replicas hand to auditors (paper §B.1.1).

A ledger package bundles a ledger fragment, the checkpoint the oldest
receipt references, and the replica's committed governance sub-ledger.
Completeness (relative to a set of receipts) means the package lets the
auditor run every check of Alg. 4: the fragment covers the span from the
reference checkpoint to the newest receipt, the checkpoint digest matches
the receipt's ``dC``, and the governance sub-ledger extends every
supporting chain the receipts carry.

With ledger prefix GC a replica's fragment may start at its
retained base instead of genesis.  Such a *checkpoint-rooted* package
additionally carries the tree M ``frontier`` at the fragment start.
Either way the fragment becomes a ledger through
:meth:`~repro.ledger.LedgerFragment.to_ledger`, and the package is
complete only when :meth:`~repro.ledger.Ledger.unbound` finds nothing —
the check state sync asks too: every signed ``root_m`` and ``root_g``
re-derived from the entries (and the frontier), and the checkpoint that
seeds the replay bound to them.  A correct replica's ledger always
binds, so replay may then blame the signers of any batch it finds fault
with; any substitution of the pruned history would change the frontier
and break every subsequent signed root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .. import codec
from ..errors import AuditError
from ..governance.subledger import GovernanceSubLedger
from ..kvstore import Checkpoint
from ..ledger import CheckpointTxEntry, Ledger, LedgerFragment
from ..receipts.receipt import Receipt


@dataclass
class LedgerPackage:
    """A replica's audit response.

    ``fragment`` starts at the responder's retained base — index 0 for a
    replica that never garbage-collected (the paper's byte-range
    optimization does not change any check), a checkpoint boundary
    otherwise, in which case ``frontier`` carries the tree M peaks at the
    boundary.  ``checkpoint`` is the state snapshot matching the oldest
    receipt's ``dC``; ``subledger`` is the committed governance
    sub-ledger; ``source_replica`` identifies the responder for blame.
    """

    fragment: LedgerFragment
    checkpoint: Checkpoint | None
    subledger: GovernanceSubLedger
    source_replica: int
    # The paper's message box E (§B.1.1): commitment evidence for the
    # newest P batches, whose in-ledger evidence has not been ordered yet.
    extra_evidence: dict = None  # seqno -> (evidence_wire, nonces_wire)
    # Tree M peaks at fragment.start ((height, digest) pairs); required
    # iff the fragment does not start at genesis.
    frontier: tuple | None = None
    wire_tag = "ledger-package"

    def to_wire(self) -> tuple:
        return (
            self.wire_tag,
            self.fragment.start,
            self.fragment.entry_wires,
            None if self.checkpoint is None else self.checkpoint.to_wire(),
            self.subledger.to_wire(),
            self.source_replica,
            tuple(sorted((k, v[0], v[1]) for k, v in (self.extra_evidence or {}).items())),
            self.frontier,
        )

    @staticmethod
    def from_wire(raw: tuple) -> "LedgerPackage":
        def build(start, entry_wires, cp_wire, sub_wire, source, extra, frontier):
            return LedgerPackage(
                fragment=LedgerFragment(start=start, entry_wires=tuple(entry_wires)),
                checkpoint=None if cp_wire is None else Checkpoint.from_wire(cp_wire),
                subledger=GovernanceSubLedger.from_wire(sub_wire),
                source_replica=source,
                extra_evidence={k: (e, n) for k, e, n in extra},
                frontier=None if frontier is None else tuple(frontier),
            )

        return codec.parse(raw, LedgerPackage.wire_tag, 8, AuditError, build)


@dataclass(frozen=True)
class PackageOffer:
    """What a replica's package would hold, for the enforcer to choose
    by before any fragment is encoded: its checkpoint and its fragment's
    ``start`` and ``length``.  :meth:`build` makes the package."""

    checkpoint: Checkpoint | None
    start: int
    length: int
    build: Callable[[], LedgerPackage]

    @staticmethod
    def of(package: LedgerPackage) -> PackageOffer:
        """The offer of a package already built."""
        return PackageOffer(package.checkpoint, package.fragment.start, len(package.fragment), lambda: package)


def package_offer(replica, oldest_receipt: Receipt | None = None) -> PackageOffer:
    """An honest replica's offer: what :func:`build_ledger_package` would
    return, built only when the offer is taken."""
    base = replica.ledger.base_index
    return PackageOffer(
        _package_checkpoint(replica, oldest_receipt), base, len(replica.ledger) - base,
        lambda: build_ledger_package(replica, oldest_receipt))


def _package_checkpoint(replica, oldest_receipt: Receipt | None) -> Checkpoint | None:
    """The checkpoint whose digest matches ``oldest_receipt``'s ``dC``,
    else the newest one."""
    if oldest_receipt is not None:
        for cp in replica.checkpoints.values():
            if cp.digest() == oldest_receipt.checkpoint_digest:
                return cp
    if replica.checkpoints:
        return replica.checkpoints[replica.checkpoints.last_taken]
    return None


def build_ledger_package(replica, oldest_receipt: Receipt | None = None) -> LedgerPackage:
    """Build an honest replica's ledger package.

    ``replica`` is an :class:`~repro.lpbft.LPBFTReplica` (its ledger,
    checkpoints, batch store and retention).
    The checkpoint chosen is the one whose digest matches the oldest
    receipt's ``dC`` (the auditor's replay start); with no receipt given,
    the newest checkpoint is included.  When the replica has garbage-
    collected its prefix, the fragment starts at the retained base and
    ships the tree M frontier at that boundary; the governance sub-ledger
    still covers genesis onward (from the replica's governance archive).
    """
    base = replica.ledger.base_index
    fragment = replica.ledger.fragment(base)
    frontier = None
    if base > 0:
        frontier = tuple((h, d) for h, d in replica.ledger.tree().frontier_at(base))
    subledger = replica.retention.governance_subledger()
    checkpoint = _package_checkpoint(replica, oldest_receipt)
    extra: dict = {}
    last = replica.ledger.last_seqno()
    for seqno in range(max(1, last - replica.params.pipeline + 1), last + 1):
        built = replica.batches.evidence(seqno, replica.config_for(seqno))
        if built is not None:
            extra[seqno] = (built[0].to_wire(), built[1].to_wire())
    return LedgerPackage(
        fragment=fragment,
        checkpoint=checkpoint,
        subledger=subledger,
        source_replica=replica.id,
        extra_evidence=extra,
        frontier=frontier,
    )


def retention_survivors(
    package: LedgerPackage, ledger: Ledger, receipts: list[Receipt]
) -> list[Receipt]:
    """The receipts a retention-limited (checkpoint-rooted) package can
    plausibly still support — what the auditor re-audits after noting the
    rest as aged out.  Plausible: the batch lies inside the retained
    window and the reference checkpoint dC is still *recorded* in the
    fragment (or is the package checkpoint) — the re-collected package
    then seeds replay from the snapshot matching the survivors' oldest
    dC.  (Receipts just above a GC boundary reference the pruned
    penultimate checkpoint, so the batch check alone is not enough.)
    ``ledger`` is the package's, materialised."""
    if package.fragment.start == 0:
        return list(receipts)
    oldest_retained = ledger.oldest_retained_seqno()
    if oldest_retained is None:
        return []
    supportable_dcs = {entry.cp_digest for entry in ledger.entries_of(CheckpointTxEntry)}
    if package.checkpoint is not None:
        supportable_dcs.add(package.checkpoint.digest())
    return [
        r
        for r in receipts
        if r.seqno >= oldest_retained and r.checkpoint_digest in supportable_dcs
    ]


def check_package(
    package: LedgerPackage, receipts: list[Receipt]
) -> tuple[Ledger | None, list[tuple[int, str]]]:
    """Materialise a package's ledger and check it against the §B.1.1
    completeness conditions.

    Returns the ledger (None when the fragment cannot be parsed) and its
    deficiencies as ``(seqno, detail)`` pairs, the seqno naming the
    batch at fault or 0 (empty when complete).  Deficiencies are
    attributable to the responding replica: a correct replica can always
    produce a complete package (Lemma 4) — except the
    ``retention:``-prefixed ones, which mean the *receipts* reach below
    the service's GC retention window (a correct replica no longer holds
    that history; the auditor records a note instead of blame).

    The ledger must be bound (:meth:`~repro.ledger.Ledger.unbound`) to
    every signed root and, when the package checkpoint seeds the replay
    (its digest is the oldest receipt's dC), to that checkpoint.
    """
    try:
        ledger = package.fragment.to_ledger(package.frontier or ())
    except Exception as exc:  # malformed entries or frontier are attributable too
        return None, [(0, f"fragment cannot be parsed: {exc}")]
    cp = package.checkpoint
    oldest = min(receipts, key=lambda r: r.seqno, default=None)
    seeds = cp is not None and oldest is not None and cp.digest() == oldest.checkpoint_digest
    problems = ledger.unbound(cp if seeds else None)
    if problems or not receipts:
        return ledger, problems
    newest = max(receipts, key=lambda r: r.seqno)
    if ledger.last_seqno() < newest.seqno:
        problems.append((0, f"fragment ends at batch {ledger.last_seqno()}, "
                            f"receipts reach {newest.seqno}"))
    # Retention classification.  For a checkpoint-rooted package, a
    # missing or dC-mismatched replay checkpoint is indistinguishable
    # from honest snapshot pruning (the builder always picks the matching
    # snapshot when it is held), so it is excused as ``retention:``
    # rather than blamed — never blaming a correct replica (Thm. 3)
    # outranks blaming every withholder.  Coverage is preserved by the
    # enforcer, which prefers dC-matching packages across all f+1-plus
    # correct signers: this branch is reached only when *no* signer could
    # seed the replay.  Full-prefix packages keep the pre-GC attributable
    # semantics.
    below_retention = package.fragment.start > 0
    if cp is None:
        if below_retention:
            problems.append((0, f"retention: oldest receipt (batch {oldest.seqno}) precedes "
                             f"the retained suffix (from batch {ledger.oldest_retained_seqno()}); "
                             f"its span must be audited from a pinned package"))
        else:
            problems.append((0, "package has no checkpoint"))
    elif not seeds:
        if below_retention:
            problems.append((0, f"retention: oldest receipt (batch {oldest.seqno}) "
                             f"references a garbage-collected checkpoint"))
        else:
            problems.append((0, "checkpoint digest does not match the oldest receipt's dC"))
    return ledger, problems


def check_package_completeness(package: LedgerPackage, receipts: list[Receipt]) -> list[str]:
    """The details of :func:`check_package`'s deficiencies."""
    return [detail for _, detail in check_package(package, receipts)[1]]
