"""Adopting a ledger fetched from a peer: one verifier, one install.

A foreign ledger reaches replica state only through
:func:`verify_fetched_ledger` followed by :func:`install_ledger`, and
only from the state-sync client.  It is always a checkpoint plus the
suffix past its boundary (§3.4/§5.1; Alg. 2's "fetch missing ledger
entries" is a state-sync session too), with genesis as checkpoint 0,
and its configuration schedule always comes from the governance chain.
The verifier checks what the peer supplied against what we already
trust: every primary signature under that genesis-anchored schedule,
and — through :meth:`repro.ledger.Ledger.unbound`, the check the audit
asks too — every signed ``root_m`` and ``root_g`` and the checkpoint's
ledger binding.  The install replays from the checkpoint through the audit's
loop (:func:`repro.audit.replay.replay_batches`), so it rejects any
ledger that replay finds fault with, and commits to the replica
atomically — but marks committed only the batches the ledger proves
committed.

What the install still trusts is commitment evidence: batch *s*
installs committed when any ``EvidenceEntry`` for *s* is ordered before
the last pre-prepare.  It checks neither that the entry's prepares name
*s*'s pre-prepare nor their signatures, so a primary that signs a
second batch *s*, one that replays cleanly, gets it installed committed
on the evidence for the first.  Checking them charges verify work and
moves ``primary_crash``: ROADMAP items 9 and 14.
"""

from __future__ import annotations

from itertools import chain

from ..crypto import digest_value
from ..errors import LedgerError, ProtocolError
from ..governance.configuration import Configuration
from ..governance.schedule import ConfigSchedule
from ..kvstore import Checkpoint, KVStore
from ..ledger import EvidenceEntry, Ledger
from .batch import BatchRecord, ReconfigState, location
from .checkpointing import CheckpointStore, checkpoint_due


def verify_fetched_ledger(
    replica,
    ledger: Ledger,
    fetched: int,
    check_from: int,
    checkpoint: Checkpoint,
    schedule: ConfigSchedule,
) -> None:
    """Check a candidate ``ledger`` against every digest we hold (raises
    on any mismatch; nothing on the replica changes).

    ``fetched`` entries came off the wire (their append/hash work is
    charged); batches whose pre-prepare sits at or past ``check_from``
    are the peer's, everything below is our own trusted prefix.
    ``checkpoint`` is the state the install will restore, and must be
    bound to this very ledger.  ``schedule`` is the configuration
    schedule the batches verify under: the governance chain's, anchored
    at our genesis (config-0 batches verify under config-0 keys, and
    each successor configuration is proven by receipts signed under its
    predecessor), so a Byzantine peer cannot feed us a fabricated,
    internally consistent history.
    """
    replica.submit("append", fetched * replica.costs.ledger_append)
    replica.submit("hash", fetched * 2 * replica.costs.hash_fixed)
    # Every batch must reproduce its signed roots — the peer's below the
    # checkpoint too — and the checkpoint must be bound to this ledger.
    unbound = ledger.unbound(checkpoint)
    if unbound:
        raise ProtocolError(unbound[0][1])
    items = []
    for info in ledger.batches():
        if info.pp_index < check_from:
            continue
        seqno, pp = info.seqno, ledger.pre_prepare(info)
        config = schedule.config_at_seqno(seqno)
        primary_id = config.primary_for_view(pp.view)
        if not config.has_replica(primary_id):
            raise ProtocolError(f"batch {seqno} signed by non-member {primary_id}")
        items.append((config.replica_key(primary_id), pp.signed_payload(), pp.signature))
    if not all(replica._verify_many(items)):
        raise ProtocolError("pre-prepare signature verification failed in fetched ledger")


def install_ledger(
    replica, ledger: Ledger, checkpoint: Checkpoint, schedule: ConfigSchedule,
    executed: dict | None = None,
) -> int:
    """Adopt a verified ``ledger`` under the ``schedule`` it verified
    with: restore the KV store from ``checkpoint`` (checkpoint 0 is
    genesis), replay only the batches after it, and reconstruct
    per-batch records.  Returns the number of replayed batches.  The
    view is the caller's to set.

    ``executed`` locates requests executed below the ledger's batches
    (the peer's index): without it a client's retransmission of one
    would read as new work that no primary will ever order.  PBFT keeps
    the last reply per client in its checkpoints for this.

    A batch is installed committed only when it is proven: it is at or
    below the checkpoint or our own commit frontier, or its commitment
    evidence is ordered in batch ``s + P`` (§3.1).  The rest — at least
    the last P batches — is installed pre-prepared, and prepares and
    commits through the evidence that proves it: prepares and nonces
    already stored, an ``evidence-bundle``, or a new view that re-issues
    it.

    The paper's fetch verifies checkpoint receipts and per-interval
    Merkle roots instead of replaying everything (§3.4); we replay from
    the checkpoint and raise :class:`ProtocolError` on the first finding,
    before any replica state changes.
    """
    if schedule.spans()[0].config.number != 0:
        raise ProtocolError("adopted schedule is not genesis-anchored")
    cp_seqno = checkpoint.seqno
    # Evidence counts only when a signed pre-prepare's root_m covers it.
    batch_infos = ledger.batches()
    covered = batch_infos[-1].pp_index if batch_infos else ledger.base_index
    evidenced = {e.seqno for e in ledger.entries_of(EvidenceEntry, end=covered)}
    # What we committed ourselves stays committed: a pre-prepare's root_m
    # binds the ledger before it and its root_g the batch, so the same
    # digest at our commit frontier means the same committed prefix.
    committed_upto = cp_seqno
    own = replica.batches.get(replica.committed_upto)
    if (
        own is not None and own.committed and ledger.batch(own.seqno) is not None
        and ledger.batch_pre_prepare(own.seqno).digest() == own.pp_digest
    ):
        committed_upto = max(committed_upto, own.seqno)
    # The genesis digest is the one every replica derives from its
    # genesis configuration and initial state.
    checkpoints = CheckpointStore(replica.checkpoints.genesis_digest)
    # Adopted checkpoints count as fresh for the GC age floor.
    checkpoints.take(checkpoint, replica.now)
    # Imported lazily: repro.audit imports the lpbft message types.
    from ..audit.replay import ReplayedBatch, replay_batches

    kv = KVStore()
    # The genesis checkpoint (seqno 0) restores too: it carries any
    # pre-populated initial state that a bare config install lacks.
    replayed = replay_batches(kv, ledger, checkpoint, replica.registry, schedule)
    replica.submit("hash", len(checkpoint.state) * replica.costs.checkpoint_per_entry)
    # Batches at or below the checkpoint install as the ledger has them.
    below = (
        ReplayedBatch(info, kv.tx_count, ledger.g_tree(info), [], [])
        for info in batch_infos if info.seqno <= cp_seqno
    )
    records: list[BatchRecord] = []
    tx_locations = {d: location(s, i) for d, (s, i) in (executed or {}).items()}
    reconfig = None
    for batch in chain(below, replayed):
        info = batch.info
        seqno = info.seqno
        pp = ledger.batch_pre_prepare(seqno)
        try:
            run = ledger.batch_run(info)
        except LedgerError as exc:
            raise ProtocolError(str(exc)) from exc
        record = BatchRecord(
            seqno=seqno, view=pp.view, flags=pp.flags, pp=pp, pp_digest=pp.digest(),
            run=run, g_tree=batch.g_tree, kv_mark=batch.kv_mark,
            ledger_start=info.pp_index, ledger_end=info.end)
        if seqno > cp_seqno:
            # Replay is real CPU: catching up from an old (or no)
            # checkpoint costs proportionally more than restoring a
            # recent one — the §3.4 argument for checkpoints.
            for ops, size in batch.work:
                replica.submit("execute", replica.costs.execute_tx(ops, size))
            if batch.findings:
                raise ProtocolError(f"replayed batch {seqno}: {batch.findings[0].detail}")
            # A referendum that passed and has not activated yet: the
            # end-of-configuration sequence is still open.
            accepted = kv.get("__gov.accepted_config")
            if accepted is None:
                reconfig = None
            elif reconfig is None:
                reconfig = ReconfigState(
                    Configuration.from_wire(accepted), seqno, ledger.root_at(info.end))
            # Take the checkpoints execution would have taken, so the
            # next checkpoint transaction finds its state.
            if checkpoint_due(seqno, record.flags, replica.params, reconfig):
                checkpoints.take(
                    Checkpoint.capture(kv, seqno, info.end, ledger.root_at(info.end)), replica.now)
        for k in range(len(run)):
            wire = run.request_wire(k)
            if wire is None:  # a checkpoint transaction
                entry = run.entry(k)
                record.tx_digests.append(None)
                checkpoints.note_record(seqno, entry.cp_seqno, entry.cp_digest)
                continue
            tx_digest = digest_value(wire)  # H(t), remembered by its seal
            record.tx_digests.append(tx_digest)
            tx_locations[tx_digest] = location(seqno, run.first_index + k)
        if seqno <= committed_upto or (committed_upto == seqno - 1 and seqno in evidenced):
            committed_upto = max(committed_upto, seqno)
            record.prepared = record.committed = True
            record.g_tree = None  # BatchStore.g_tree finds it in the ledger
        records.append(record)

    # The chain may hold a configuration this ledger has not activated
    # yet (a server extends its chain at execution and serves up to its
    # commit frontier): the replayed referendum (``reconfig``) activates it.
    while len(schedule) > 1 and schedule.current_span().start_seqno > ledger.last_seqno():
        schedule.pop()
    # Everything verified and built — commit to the replica atomically.
    replica.schedule = schedule
    replica.ledger = ledger
    replica.kv = kv
    # Checkpoint 0 is identical on every replica (derived from the
    # genesis configuration and initial state): ours carries over.
    checkpoints.genesis = replica.checkpoints.genesis
    replica.checkpoints = checkpoints
    replica.retention.adopted()
    replica.tx_locations = tx_locations
    # Reply addresses move to the records that now hold their requests.
    routes = {
        d: src for record in replica.batches.values()
        for d, src in zip(record.tx_digests, record.sources) if src is not None}
    routes.update(replica.admission.sources)
    for record in records:
        record.sources = [routes.get(d) for d in record.tx_digests]
    for record in replica.batches.adopt(records):
        replica._verify_early_prepares(record.pp_digest, record.seqno)
    replica.admission.discard(tx_locations)
    replica.prepared_upto = replica.committed_upto = committed_upto
    replica.next_seqno = ledger.last_seqno() + 1
    replica.gov_tx_log = []
    replica.reconfig = reconfig
    replica.metrics.bump("ledger_adoptions")
    # The unproven tail prepares and commits from whatever the stores
    # already hold for it.
    tail = [record for record in records if record.seqno > committed_upto]
    for record in tail:
        replica._drain_pending_commits(record.view, record.seqno)
    if tail:
        replica._check_prepared(tail[0].view, tail[0].seqno)
    return sum(record.seqno > cp_seqno for record in records)
