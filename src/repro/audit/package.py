"""Ledger packages: what replicas hand to auditors (paper §B.1.1).

A ledger package bundles a ledger fragment, the checkpoint the oldest
receipt references, and the replica's committed governance sub-ledger.
Completeness (relative to a set of receipts) means the package lets the
auditor run every check of Alg. 4: the fragment covers the span from the
reference checkpoint to the newest receipt, the checkpoint digest matches
the receipt's ``dC``, and the governance sub-ledger extends every
supporting chain the receipts carry.

With ledger prefix GC (PR 5) a replica's fragment may start at its
retained base instead of genesis.  Such a *checkpoint-rooted* package
additionally carries the tree M ``frontier`` at the fragment start; the
auditor re-derives every signed ``root_m`` in the suffix from that
frontier plus the fragment's own entry digests, which binds the suffix
to the collected prefix exactly as strongly as replaying from genesis
would — any substitution of the pruned history would change the frontier
and break every subsequent signed root.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AuditError, LedgerError, MerkleError
from ..governance.subledger import GovernanceSubLedger
from ..kvstore import Checkpoint
from ..ledger import CheckpointTxEntry, Ledger, LedgerFragment
from ..merkle.proofs import frontier_from_wire
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

    def materialize_ledger(self) -> Ledger:
        """The fragment as a :class:`~repro.ledger.Ledger` — full-prefix
        or rooted at the frontier.  Raises on malformed data."""
        if self.fragment.start == 0:
            return self.fragment.to_ledger()
        if self.frontier is None:
            raise LedgerError("suffix fragment without a frontier")
        return Ledger.from_fragment_suffix(self.fragment, frontier_from_wire(self.frontier))

    def to_wire(self) -> tuple:
        return (
            "ledger-package",
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
        try:
            tag, start, entry_wires, cp_wire, sub_wire, source, extra, frontier = raw
        except (TypeError, ValueError) as exc:
            raise AuditError(f"malformed ledger package: {exc}") from exc
        if tag != "ledger-package":
            raise AuditError(f"expected ledger-package, got {tag!r}")
        return LedgerPackage(
            fragment=LedgerFragment(start=start, entry_wires=tuple(entry_wires)),
            checkpoint=None if cp_wire is None else Checkpoint.from_wire(cp_wire),
            subledger=GovernanceSubLedger.from_wire(sub_wire),
            source_replica=source,
            extra_evidence={k: (e, n) for k, e, n in extra},
            frontier=None if frontier is None else tuple(frontier),
        )


def build_ledger_package(replica, oldest_receipt: Receipt | None = None) -> LedgerPackage:
    """Build an honest replica's ledger package.

    ``replica`` is any object with ``ledger``, ``checkpoints``,
    ``params``, and ``id`` attributes (an :class:`~repro.lpbft.LPBFTReplica`).
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
    subledger = replica.governance_subledger()
    checkpoint = None
    if oldest_receipt is not None:
        for cp in replica.checkpoints.values():
            if cp.digest() == oldest_receipt.checkpoint_digest:
                checkpoint = cp
                break
    if checkpoint is None and replica.checkpoints:
        checkpoint = replica.checkpoints[max(replica.checkpoints)]
    extra: dict = {}
    last = replica.ledger.last_seqno()
    for seqno in range(max(1, last - replica.params.pipeline + 1), last + 1):
        built = replica._evidence(seqno)
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


def retention_survivors(package: LedgerPackage, receipts: list[Receipt]) -> list[Receipt]:
    """The receipts a retention-limited (checkpoint-rooted) package can
    plausibly still support — what the auditor re-audits after noting the
    rest as aged out.  Plausible: the batch lies inside the retained
    window and the reference checkpoint dC is still *recorded* in the
    fragment (or is the package checkpoint) — the re-collected package
    then seeds replay from the snapshot matching the survivors' oldest
    dC.  (Receipts just above a GC boundary reference the pruned
    penultimate checkpoint, so the batch check alone is not enough.)"""
    if package.fragment.start == 0:
        return list(receipts)
    try:
        ledger = package.materialize_ledger()
    except Exception:
        return []
    oldest_retained = ledger.oldest_retained_seqno()
    if oldest_retained is None:
        return []
    supportable_dcs = {
        entry.cp_digest
        for entry in ledger.entries()
        if isinstance(entry, CheckpointTxEntry)
    }
    if package.checkpoint is not None:
        supportable_dcs.add(package.checkpoint.digest())
    return [
        r
        for r in receipts
        if r.seqno >= oldest_retained and r.checkpoint_digest in supportable_dcs
    ]


def check_package_completeness(
    package: LedgerPackage, receipts: list[Receipt], ledger: Ledger | None = None
) -> list[str]:
    """Check a package against the §B.1.1 completeness conditions.

    ``ledger`` is ``package.materialize_ledger()`` when the caller already
    holds it (the auditor builds a package's ledger once).
    Returns a list of human-readable deficiencies (empty when complete).
    Deficiencies are attributable to the responding replica: a correct
    replica can always produce a complete package (Lemma 4) — except the
    ``retention:``-prefixed ones, which mean the *receipts* reach below
    the service's GC retention window (a correct replica no longer holds
    that history; the auditor records a note instead of blame).

    A checkpoint-rooted fragment (``start > 0``) is additionally bound to
    its pruned prefix: the frontier's implied size must equal the start,
    every signed ``root_m`` in the suffix must be reproduced from frontier
    + suffix digests, and the replay checkpoint's own ledger binding
    (``ledger_size``/``ledger_root`` and its recording checkpoint
    transaction) must check out inside the suffix.
    """
    problems: list[str] = []
    start = package.fragment.start
    if start > 0:
        if package.frontier is None:
            problems.append("suffix fragment without a tree frontier")
            return problems
        try:
            peaks = frontier_from_wire(package.frontier)
        except MerkleError as exc:
            problems.append(f"malformed frontier: {exc}")
            return problems
        if sum(1 << h for h, _ in peaks) != start:
            problems.append(
                f"frontier implies {sum(1 << h for h, _ in peaks)} pruned entries, "
                f"fragment starts at {start}"
            )
            return problems
    if ledger is None:
        try:
            ledger = package.materialize_ledger()
        except Exception as exc:  # malformed entries are attributable too
            problems.append(f"fragment cannot be parsed: {exc}")
            return problems
    if start > 0:
        # Bind the suffix to the pruned prefix through the signed roots.
        for info in ledger.batches():
            pp = ledger.batch_pre_prepare(info.seqno)
            if ledger.root_at(info.pp_index) != pp.root_m:
                problems.append(
                    f"suffix batch {info.seqno}: signed root_m is not reproduced by "
                    f"frontier + suffix digests"
                )
        cp = package.checkpoint
        if cp is not None and cp.seqno > 0:
            if cp.ledger_size < start or cp.ledger_size > len(ledger):
                problems.append("replay checkpoint's ledger binding falls outside the fragment")
            elif ledger.root_at(cp.ledger_size) != cp.ledger_root:
                problems.append("replay checkpoint's ledger root mismatches the fragment")
            else:
                # dC must be vouched for by its recording checkpoint
                # transaction — unless the checkpoint is so new that its
                # record (written C batches later) has not been ordered
                # yet, in which case only the root binding above applies.
                records = [
                    entry
                    for entry in ledger.entries(cp.ledger_size)
                    if isinstance(entry, CheckpointTxEntry) and entry.cp_seqno >= cp.seqno
                ]
                if records and not any(
                    entry.cp_seqno == cp.seqno
                    and entry.cp_digest == cp.digest()
                    and entry.ledger_size == cp.ledger_size
                    and entry.ledger_root == cp.ledger_root
                    for entry in records
                ):
                    problems.append(
                        "replay checkpoint is not recorded by a checkpoint transaction "
                        "in the fragment"
                    )
    if problems or not receipts:
        return problems
    newest = max(receipts, key=lambda r: r.seqno)
    oldest = min(receipts, key=lambda r: r.seqno)
    if ledger.last_seqno() < newest.seqno:
        problems.append(
            f"fragment ends at batch {ledger.last_seqno()}, receipts reach {newest.seqno}"
        )
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
    below_retention = start > 0
    if package.checkpoint is None:
        if below_retention:
            problems.append(
                f"retention: oldest receipt (batch {oldest.seqno}) precedes the retained "
                f"suffix (from batch {ledger.oldest_retained_seqno()}); its span must be "
                f"audited from a pinned package"
            )
        else:
            problems.append("package has no checkpoint")
    elif package.checkpoint.digest() != oldest.checkpoint_digest:
        if below_retention:
            problems.append(
                f"retention: oldest receipt (batch {oldest.seqno}) references a "
                f"garbage-collected checkpoint"
            )
        else:
            problems.append("checkpoint digest does not match the oldest receipt's dC")
    return problems
