"""Ledger well-formedness (paper §4.1, Appendix B).

A ledger fragment is *well-formed* if it matches the structural rules of
L-PBFT: entries follow the grammar ``[evidence nonces] pre-prepare tx*``
with ``view-changes new-view`` pairs between batches, sequence numbers
advance correctly, commitment evidence proves each batch prepared at a
quorum, and every signature and nonce checks out.  A well-formed fragment
may still be *invalid* — transactions executed incorrectly or checkpoints
mis-recorded — which only replay (``repro.audit.replay``) can detect.

:func:`parse_fragment` builds a structural index; :func:`check_well_formed`
returns a list of :class:`Issue` findings (empty for a well-formed
fragment), each naming the replicas that can be blamed for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto import signatures
from ..crypto.nonces import commit_nonce
from ..errors import WellFormednessError
from ..governance.schedule import ConfigSchedule
from ..lpbft.messages import (
    BATCH_END_OF_CONFIG,
    BATCH_START_OF_CONFIG,
    NewView,
    Prepare,
    PrePrepare,
    ViewChange,
    bitmap_members,
)
from .entries import (
    CheckpointTxEntry,
    EvidenceEntry,
    GenesisEntry,
    LedgerEntry,
    NewViewEntry,
    NoncesEntry,
    PrePrepareEntry,
    TxEntry,
    ViewChangesEntry,
)
from .ledger import LedgerFragment


@dataclass(frozen=True)
class Issue:
    """One structural finding: what is wrong, where, and who signed it."""

    kind: str
    detail: str
    index: int  # ledger index of the offending entry (fragment-relative start applies)
    seqno: int = 0
    blamed: tuple[int, ...] = ()


@dataclass
class ParsedBatch:
    """Structural locator for one batch inside a parsed fragment."""

    seqno: int
    view: int
    pp: PrePrepare
    pp_index: int
    entries: list[tuple[int, LedgerEntry]] = field(default_factory=list)


@dataclass
class ParsedFragment:
    """The structural index of a ledger fragment."""

    start: int
    genesis: GenesisEntry | None
    batches: dict[int, ParsedBatch]
    batch_order: list[int]
    evidence_for: dict[int, tuple[EvidenceEntry, NoncesEntry]]
    view_change_sets: list[tuple[int, ViewChangesEntry]]
    new_views: list[tuple[int, NewViewEntry]]

    def batch(self, seqno: int) -> ParsedBatch | None:
        return self.batches.get(seqno)

    def first_seqno(self) -> int:
        return self.batch_order[0] if self.batch_order else 0

    def last_seqno(self) -> int:
        return self.batch_order[-1] if self.batch_order else 0

    def view_changes_for_view(self, view: int) -> list[ViewChange]:
        """All view-change messages for ``view`` recorded in the fragment."""
        found: list[ViewChange] = []
        for _, entry in self.view_change_sets:
            if entry.view == view:
                found.extend(entry.view_changes())
        return found


def parse_fragment(fragment: LedgerFragment) -> ParsedFragment:
    """Build the structural index; raises :class:`WellFormednessError` on
    grammar violations that make the fragment unreadable (as opposed to
    attributable misbehavior, which :func:`check_well_formed` reports)."""
    genesis: GenesisEntry | None = None
    batches: dict[int, ParsedBatch] = {}
    batch_order: list[int] = []
    evidence_for: dict[int, tuple[EvidenceEntry, NoncesEntry]] = {}
    vc_sets: list[tuple[int, ViewChangesEntry]] = []
    new_views: list[tuple[int, NewViewEntry]] = []

    pending_evidence: EvidenceEntry | None = None
    current: ParsedBatch | None = None

    for offset, entry in enumerate(fragment.entries()):
        index = fragment.start + offset
        if isinstance(entry, GenesisEntry):
            if index != 0:
                raise WellFormednessError(f"genesis entry at non-zero index {index}")
            genesis = entry
        elif isinstance(entry, EvidenceEntry):
            if pending_evidence is not None:
                raise WellFormednessError(f"evidence at {index} follows unpaired evidence")
            pending_evidence = entry
            current = None
        elif isinstance(entry, NoncesEntry):
            if pending_evidence is None:
                raise WellFormednessError(f"nonces at {index} without preceding evidence")
            if (entry.seqno, entry.view) != (pending_evidence.seqno, pending_evidence.view):
                raise WellFormednessError(
                    f"nonces at {index} for ({entry.view},{entry.seqno}) do not match "
                    f"evidence for ({pending_evidence.view},{pending_evidence.seqno})"
                )
            evidence_for[entry.seqno] = (pending_evidence, entry)
            pending_evidence = None
        elif isinstance(entry, PrePrepareEntry):
            if pending_evidence is not None:
                raise WellFormednessError(f"pre-prepare at {index} follows unpaired evidence")
            pp = entry.pre_prepare()
            if pp.seqno in batches:
                # Re-pre-prepared after a view change: the newer view wins
                # as the batch's definition; keep both reachable via order.
                if pp.view <= batches[pp.seqno].view:
                    raise WellFormednessError(
                        f"pre-prepare at {index} repeats seqno {pp.seqno} without higher view"
                    )
            current = ParsedBatch(seqno=pp.seqno, view=pp.view, pp=pp, pp_index=index)
            batches[pp.seqno] = current
            if pp.seqno not in batch_order or batch_order[-1] != pp.seqno:
                batch_order.append(pp.seqno)
        elif isinstance(entry, (TxEntry, CheckpointTxEntry)):
            if current is None:
                raise WellFormednessError(f"transaction entry at {index} outside a batch")
            current.entries.append((index, entry))
        elif isinstance(entry, ViewChangesEntry):
            vc_sets.append((index, entry))
            current = None
        elif isinstance(entry, NewViewEntry):
            new_views.append((index, entry))
            current = None
        else:
            raise WellFormednessError(f"unknown entry type at {index}: {type(entry).__name__}")

    if pending_evidence is not None:
        raise WellFormednessError("fragment ends with unpaired evidence")
    return ParsedFragment(
        start=fragment.start,
        genesis=genesis,
        batches=batches,
        batch_order=batch_order,
        evidence_for=evidence_for,
        view_change_sets=vc_sets,
        new_views=new_views,
    )


def check_well_formed(
    fragment: LedgerFragment | ParsedFragment,
    schedule: ConfigSchedule,
    pipeline: int,
    backend: signatures.SignatureBackend | None = None,
) -> list[Issue]:
    """Check structural rules and signatures; returns findings (empty for a
    well-formed fragment).

    ``fragment`` may be the caller's own :func:`parse_fragment` result, so
    an audit that goes on to use the index parses once.  ``schedule``
    supplies signing keys per sequence number; ``pipeline`` is the
    protocol's P (evidence for batch ``s`` must appear by batch ``s + P``).
    """
    backend = backend or signatures.default_backend()
    issues: list[Issue] = []
    parsed = fragment if isinstance(fragment, ParsedFragment) else parse_fragment(fragment)

    previous_seqno: int | None = None
    previous_view: int | None = None
    for seqno in parsed.batch_order:
        batch = parsed.batches[seqno]
        config = schedule.config_at_seqno(seqno)
        primary_id = config.primary_for_view(batch.view)

        # Sequence numbers advance by one; views never decrease.
        if previous_seqno is not None and seqno > previous_seqno + 1:
            issues.append(
                Issue(
                    kind="seqno-gap",
                    detail=f"batch {seqno} follows {previous_seqno}",
                    index=batch.pp_index,
                    seqno=seqno,
                )
            )
        if previous_view is not None and batch.view < previous_view:
            issues.append(
                Issue(
                    kind="view-regression",
                    detail=f"batch {seqno} in view {batch.view} after view {previous_view}",
                    index=batch.pp_index,
                    seqno=seqno,
                    blamed=(primary_id,),
                )
            )
        previous_seqno = max(previous_seqno, seqno) if previous_seqno is not None else seqno
        previous_view = batch.view if previous_view is None else max(previous_view, batch.view)

        # Primary signature over the pre-prepare.
        if not backend.verify(
            config.replica_key(primary_id), batch.pp.signed_payload(), batch.pp.signature
        ):
            issues.append(
                Issue(
                    kind="bad-pp-signature",
                    detail=f"pre-prepare for batch {seqno} not signed by primary {primary_id}",
                    index=batch.pp_index,
                    seqno=seqno,
                )
            )

        # Transaction indices inside a batch are consecutive logical
        # indices (position checks cannot be used: vc/nv entries shift
        # positions without consuming indices).
        declared = [entry.index for _, entry in batch.entries]
        if declared != sorted(declared) or len(set(declared)) != len(declared):
            issues.append(
                Issue(
                    kind="index-mismatch",
                    detail=f"batch {seqno} indices are not strictly increasing: {declared}",
                    index=batch.pp_index,
                    seqno=seqno,
                    blamed=(primary_id,),
                )
            )

    # Commitment evidence: quorum of valid prepares + opening nonces.
    for seqno, (evidence, nonces) in parsed.evidence_for.items():
        issues.extend(
            _check_evidence(parsed, schedule, backend, seqno, evidence, nonces)
        )

    # Evidence coverage: every batch up to last−P has evidence in-fragment
    # (the last P batches' evidence legitimately lags, §3.1).
    if parsed.batch_order:
        first, last = parsed.first_seqno(), parsed.last_seqno()
        for seqno in parsed.batch_order:
            if first + pipeline <= seqno <= last - pipeline and seqno not in parsed.evidence_for:
                # Re-pre-prepared batches after a view change are vouched
                # for by the new-view; only flag when no view change covers
                # the gap.
                if not parsed.new_views:
                    issues.append(
                        Issue(
                            kind="missing-evidence",
                            detail=f"no commitment evidence for batch {seqno}",
                            index=parsed.batches[seqno].pp_index,
                            seqno=seqno,
                        )
                    )

    # View-change sets and new-view signatures.
    for index, vc_entry in parsed.view_change_sets:
        config = schedule.config_at_seqno(
            parsed.first_seqno() if not parsed.batch_order else parsed.last_seqno()
        )
        for vc in vc_entry.view_changes():
            try:
                key = config.replica_key(vc.replica)
            except Exception:
                issues.append(
                    Issue(
                        kind="unknown-vc-replica",
                        detail=f"view-change from unknown replica {vc.replica}",
                        index=index,
                    )
                )
                continue
            if not backend.verify(key, vc.signed_payload(), vc.signature):
                issues.append(
                    Issue(
                        kind="bad-vc-signature",
                        detail=f"view-change for view {vc.view} by replica {vc.replica}",
                        index=index,
                    )
                )
    for index, nv_entry in parsed.new_views:
        nv = nv_entry.new_view()
        config = schedule.config_at_seqno(parsed.last_seqno() or 1)
        primary_id = config.primary_for_view(nv.view)
        if not backend.verify(config.replica_key(primary_id), nv.signed_payload(), nv.signature):
            issues.append(
                Issue(
                    kind="bad-nv-signature",
                    detail=f"new-view for view {nv.view}",
                    index=index,
                )
            )

    return issues


def _check_evidence(
    parsed: ParsedFragment,
    schedule: ConfigSchedule,
    backend: signatures.SignatureBackend,
    seqno: int,
    evidence: EvidenceEntry,
    nonces: NoncesEntry,
) -> list[Issue]:
    """Validate one (evidence, nonces) pair proving batch ``seqno`` prepared."""
    issues: list[Issue] = []
    config = schedule.config_at_seqno(seqno)
    primary_id = config.primary_for_view(evidence.view)
    batch = parsed.batch(seqno)

    nonce_ids = bitmap_members(nonces.bitmap)
    if len(nonce_ids) != len(nonces.nonces):
        issues.append(
            Issue(
                kind="evidence-shape",
                detail=f"nonce bitmap lists {len(nonce_ids)} replicas but {len(nonces.nonces)} nonces",
                seqno=seqno,
                index=0,
            )
        )
        return issues
    if len(nonce_ids) < config.quorum:
        issues.append(
            Issue(
                kind="evidence-quorum",
                detail=f"only {len(nonce_ids)} nonces for batch {seqno}, quorum is {config.quorum}",
                seqno=seqno,
                index=0,
            )
        )

    prepares = {p.replica: p for p in evidence.prepares()}
    expected_pp_digest = batch.pp.digest() if batch is not None and batch.view == evidence.view else None

    for replica_id, nonce in zip(nonce_ids, nonces.nonces):
        commitment = commit_nonce(nonce)
        if replica_id == primary_id:
            if batch is not None and batch.view == evidence.view and batch.pp.nonce_commitment != commitment:
                issues.append(
                    Issue(
                        kind="bad-nonce",
                        detail=f"primary nonce for batch {seqno} does not open its commitment",
                        seqno=seqno,
                        index=0,
                    )
                )
            continue
        prepare = prepares.get(replica_id)
        if prepare is None:
            issues.append(
                Issue(
                    kind="evidence-shape",
                    detail=f"nonce from replica {replica_id} without matching prepare",
                    seqno=seqno,
                    index=0,
                )
            )
            continue
        if prepare.nonce_commitment != commitment:
            issues.append(
                Issue(
                    kind="bad-nonce",
                    detail=f"replica {replica_id} nonce does not open its prepare commitment",
                    seqno=seqno,
                    index=0,
                )
            )
        if expected_pp_digest is not None and prepare.pp_digest != expected_pp_digest:
            issues.append(
                Issue(
                    kind="evidence-mismatch",
                    detail=f"prepare by {replica_id} references a different pre-prepare for {seqno}",
                    seqno=seqno,
                    index=0,
                )
            )
        try:
            key = config.replica_key(replica_id)
        except Exception:
            issues.append(
                Issue(
                    kind="unknown-replica",
                    detail=f"prepare from unknown replica {replica_id}",
                    seqno=seqno,
                    index=0,
                )
            )
            continue
        if not backend.verify(key, prepare.signed_payload(), prepare.signature):
            issues.append(
                Issue(
                    kind="bad-prepare-signature",
                    detail=f"prepare for batch {seqno} by replica {replica_id}",
                    seqno=seqno,
                    index=0,
                    blamed=(replica_id,),
                )
            )
    return issues
