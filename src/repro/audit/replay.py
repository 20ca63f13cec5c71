"""Ledger replay (paper §4.1 ``replayLedger``).

The auditor loads the checkpoint referenced by the oldest receipt and
re-executes every transaction after it, comparing outputs (client reply
*and* write-set digest), per-batch Merkle roots, and the digests recorded
by checkpoint transactions.  Any divergence yields a finding blaming every
replica that signed the batch — replay is the only check that catches
``N − f`` colluding replicas agreeing on a wrong result.

*Checkpoint-rooted replay* (PR 5): the ledger may be a suffix-rooted
:class:`~repro.ledger.Ledger` materialized from a GC'd replica's
fragment + frontier.  Replay then necessarily starts from a checkpoint
whose state the suffix vouches for (package completeness verifies its
recording transaction and ledger binding); batches at or below the
checkpoint are skipped exactly as they always were, so verdicts over the
retained suffix — including uPoM blame — match what a genesis replay of
the full ledger would have produced.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..governance.schedule import ConfigSchedule
from ..governance.transactions import install_configuration
from ..kvstore import Checkpoint, KVStore, ProcedureRegistry
from ..ledger import CheckpointTxEntry, Ledger, TxEntry
from ..lpbft.messages import bitmap_members
from ..lpbft.replica import execute_procedure
from ..merkle import MerkleTree


@dataclass(frozen=True)
class ReplayFinding:
    """One divergence found during replay."""

    kind: str  # "output-mismatch" | "g-root-mismatch" | "checkpoint-mismatch"
    seqno: int
    index: int
    detail: str
    blamed: tuple[int, ...]


def batch_signers(ledger: Ledger, parsed_evidence: dict, seqno: int, schedule: ConfigSchedule) -> tuple[int, ...]:
    """The replicas that signed the batch at ``seqno``: the primary plus
    the evidence signers recorded in the ledger."""
    config = schedule.config_at_seqno(seqno)
    pp = ledger.batch_pre_prepare(seqno)
    signers = {config.primary_for_view(pp.view)}
    pair = parsed_evidence.get(seqno)
    if pair is not None:
        signers.update(bitmap_members(pair[1].bitmap))
    return tuple(sorted(signers))


def replay_ledger(
    ledger: Ledger,
    checkpoint: Checkpoint | None,
    registry: ProcedureRegistry,
    schedule: ConfigSchedule,
    checkpoint_interval: int,
    evidence_by_seqno: dict | None = None,
    stop_seqno: int | None = None,
) -> list[ReplayFinding]:
    """Re-execute transactions from ``checkpoint`` (or genesis) and return
    every divergence from what the ledger records.

    ``evidence_by_seqno`` (from the well-formedness parse) widens blame
    from the primary to all batch signers.  ``stop_seqno`` bounds the
    replay (the enforcer verifies uPoMs over at most one checkpoint
    interval, §4.2).
    """
    evidence_by_seqno = evidence_by_seqno or {}
    findings: list[ReplayFinding] = []

    kv = KVStore()
    if checkpoint is not None and checkpoint.seqno > 0:
        checkpoint.restore_into(kv)
        start_seqno = checkpoint.seqno
    else:
        genesis_config = schedule.spans()[0].config
        kv.execute(lambda tx: install_configuration(tx, genesis_config))
        if checkpoint is not None and checkpoint.seqno == 0:
            # Genesis checkpoints may carry pre-populated application state.
            if checkpoint.digest() != kv.state_digest():
                kv.restore(checkpoint.state)
        start_seqno = 0

    activations = {
        span.start_seqno: span.config for span in schedule.spans() if span.config.number > 0
    }
    replay_cps: dict[int, bytes] = {start_seqno: kv.state_digest()}

    def blame(seqno: int) -> tuple[int, ...]:
        return batch_signers(ledger, evidence_by_seqno, seqno, schedule)

    for info in ledger.batches():
        seqno = info.seqno
        if seqno <= start_seqno:
            continue
        if stop_seqno is not None and seqno > stop_seqno:
            break
        if seqno in activations:
            kv.execute(lambda tx, c=activations[seqno]: install_configuration(tx, c))
        pp = ledger.batch_pre_prepare(seqno)
        g_tree = MerkleTree()
        for entry in ledger.entries(info.first_tx, info.end):
            if isinstance(entry, CheckpointTxEntry):
                recorded = replay_cps.get(entry.cp_seqno)
                if recorded is not None and recorded != entry.cp_digest:
                    findings.append(
                        ReplayFinding(
                            kind="checkpoint-mismatch",
                            seqno=seqno,
                            index=entry.index,
                            detail=(
                                f"checkpoint transaction at batch {seqno} records a digest for "
                                f"cp {entry.cp_seqno} that replay does not reproduce"
                            ),
                            blamed=blame(seqno),
                        )
                    )
                g_tree.append(entry.leaf_digest())
                continue
            assert isinstance(entry, TxEntry)
            request = entry.request()
            output, _ = execute_procedure(kv, registry, request)
            if output != entry.output:
                findings.append(
                    ReplayFinding(
                        kind="output-mismatch",
                        seqno=seqno,
                        index=entry.index,
                        detail=(
                            f"transaction {request.procedure!r} at index {entry.index} replays to a "
                            f"different output than the ledger records"
                        ),
                        blamed=blame(seqno),
                    )
                )
                g_tree.append(entry.leaf_digest())
                continue
            g_tree.append(entry.leaf_digest())
        if g_tree.root() != pp.root_g:
            findings.append(
                ReplayFinding(
                    kind="g-root-mismatch",
                    seqno=seqno,
                    index=info.first_tx,
                    detail=f"batch {seqno}: per-batch Merkle root does not cover its entries",
                    blamed=blame(seqno),
                )
            )
        # Track replay-side checkpoints so later checkpoint transactions
        # can be validated.
        if seqno % checkpoint_interval == 0 or seqno in activations or (seqno + 1) in activations:
            replay_cps[seqno] = kv.state_digest()
        # Activation checkpoints are taken at s + 2P (just before the
        # activation batch); cover that too.
        replay_cps.setdefault(seqno, kv.state_digest())

    return findings
