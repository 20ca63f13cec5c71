"""Ledger replay (paper §4.1 ``replayLedger``, §3.4): :func:`replay_batches`
is the one loop that re-executes a ledger from a checkpoint.

The auditor's :func:`replay_ledger` blames every replica that signed a
divergent batch (the only check that catches ``N − f`` colluding
replicas agreeing on a wrong result); the ledger install
(:func:`repro.lpbft.adoption.install_ledger`) rejects a ledger on the
first finding.  The loop checks what a live backup checks:

- output bytes: a replayed output whose encoding differs from the
  entry's is an ``output-mismatch`` (with the same ``t`` and ``i``, the
  G leaves differ exactly then); a replayed tree G that misses the
  signed ``root_g`` with no differing leaf is a ``g-root-mismatch``;
- every checkpoint transaction (``checkpoint-mismatch``): its digest
  against the replayed state, its ledger binding against the end of
  batch ``cp_seqno`` and tree M's root there.

A suffix-rooted ledger (a garbage-collected replica's fragment +
frontier) replays alike: batches at or below the checkpoint are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from .. import codec
from ..governance.schedule import ConfigSchedule
from ..governance.transactions import install_configuration
from ..kvstore import Checkpoint, KVStore, ProcedureRegistry
from ..ledger import BatchInfo, CheckpointTxEntry, Ledger, TxEntry
from ..lpbft.batch import execute_procedure
from ..lpbft.messages import bitmap_members
from ..merkle import MerkleTree


@dataclass(frozen=True)
class ReplayFinding:
    """One divergence found during replay."""

    kind: str  # "output-mismatch" | "g-root-mismatch" | "checkpoint-mismatch"
    seqno: int
    index: int
    detail: str
    blamed: tuple[int, ...] = ()


@dataclass
class ReplayedBatch:
    """One batch after the checkpoint, as replay rebuilt it."""

    info: BatchInfo
    kv_mark: int  # kv.tx_count before the batch executed
    g_tree: MerkleTree  # G over the replayed entries
    work: list  # (kv op count, len(kv)) per executed transaction
    findings: list  # ReplayFinding, without blame


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


def replay_batches(
    kv: KVStore, ledger: Ledger, checkpoint: Checkpoint, registry: ProcedureRegistry,
    schedule: ConfigSchedule,
) -> Iterator[ReplayedBatch]:
    """Restore ``checkpoint`` into the empty ``kv`` now, and return an
    iterator that re-executes the batches after it, yielding each with
    its findings.  ``kv`` holds the state after the yielded batch until
    the next one is requested."""
    checkpoint.restore_into(kv)
    activations = {
        span.start_seqno: span.config for span in schedule.spans() if span.config.number > 0
    }
    digests = {checkpoint.seqno: kv.state_digest()}

    def replay() -> Iterator[ReplayedBatch]:
        for info in ledger.batches():
            seqno = info.seqno
            if seqno <= checkpoint.seqno:
                continue
            # Live execution installs an activated configuration *before*
            # it marks the batch (handle_pre_prepare activates, then
            # _accept_pre_prepare marks): a rollback to the mark keeps it.
            if seqno in activations:
                kv.execute(lambda tx, c=activations[seqno]: install_configuration(tx, c))
            batch = ReplayedBatch(info, kv.tx_count, ledger.g_tree(info), [], [])
            differs, replayed = [], {}  # replayed: position -> G leaf of a differing output
            for position, entry in enumerate(ledger.entries(info.first_tx, info.end)):
                if isinstance(entry, CheckpointTxEntry):
                    batch.findings += _check_checkpoint_tx(entry, seqno, ledger, checkpoint, digests)
                    continue
                request = entry.invocation()
                output, ops = execute_procedure(kv, registry, request)
                batch.work.append((ops, len(kv)))
                # Same t and i: the G leaves are equal exactly when the
                # outputs' encodings are, so only a differing output
                # costs a replayed entry and its hash.
                if codec.encode(output) != codec.encoding_of(entry.output):
                    replayed[position] = TxEntry(entry.request_wire, entry.index, output).leaf_digest()
                    differs.append(ReplayFinding(
                        "output-mismatch", seqno, entry.index,
                        f"transaction {request.procedure!r} at index {entry.index} replays to "
                        f"different output bytes than the ledger records",
                    ))
            # With every leaf reproduced, the replayed tree G is the
            # ledger's: the one its binding check built.
            if replayed:
                leaves = batch.g_tree.leaves()
                for position, leaf in replayed.items():
                    leaves[position] = leaf
                batch.g_tree = MerkleTree(leaves)
            if not differs and batch.g_tree.root() != ledger.pre_prepare(info).root_g:
                differs.append(ReplayFinding(
                    "g-root-mismatch", seqno, info.first_tx,
                    f"batch {seqno}: the replayed entries do not reproduce the signed root_g",
                ))
            batch.findings += differs
            digests[seqno] = kv.state_digest()
            yield batch

    return replay()


def _check_checkpoint_tx(
    entry: CheckpointTxEntry, seqno: int, ledger: Ledger, checkpoint: Checkpoint, digests: dict
) -> list[ReplayFinding]:
    """The checkpoint transaction's digest against the replayed state,
    and its ledger binding against the batch it names and tree M."""
    cp_seqno, size = entry.cp_seqno, entry.ledger_size
    bound = ledger.batch(cp_seqno)
    if bound is not None:
        size = bound.end
    elif cp_seqno == checkpoint.seqno:
        size = checkpoint.ledger_size
    problems = []
    if digests.get(cp_seqno, entry.cp_digest) != entry.cp_digest:
        problems.append(f"a digest for cp {cp_seqno} that replay does not reproduce")
    if entry.ledger_size != size:
        problems.append(f"ledger size {entry.ledger_size} for cp {cp_seqno}, bound at {size}")
    elif ledger.base_index <= size <= len(ledger) and ledger.root_at(size) != entry.ledger_root:
        problems.append(f"a ledger root for cp {cp_seqno} that is not tree M's at size {size}")
    return [
        ReplayFinding(
            "checkpoint-mismatch", seqno, entry.index,
            f"checkpoint transaction at batch {seqno} records {problem}",
        )
        for problem in problems
    ]


def replay_ledger(
    ledger: Ledger,
    checkpoint: Checkpoint,
    registry: ProcedureRegistry,
    schedule: ConfigSchedule,
    evidence_by_seqno: dict | None = None,
) -> list[ReplayFinding]:
    """Re-execute transactions from ``checkpoint`` and return every
    divergence from what the ledger records, each blaming the batch's
    signers.  ``evidence_by_seqno`` (from the well-formedness parse)
    widens blame from the primary to all batch signers."""
    evidence_by_seqno = evidence_by_seqno or {}
    return [
        replace(finding, blamed=batch_signers(ledger, evidence_by_seqno, finding.seqno, schedule))
        for batch in replay_batches(KVStore(), ledger, checkpoint, registry, schedule)
        for finding in batch.findings
    ]
