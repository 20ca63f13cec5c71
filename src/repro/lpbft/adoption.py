"""Adopting a ledger fetched from a peer: one verifier, one install.

A foreign ledger reaches replica state only through
:func:`verify_fetched_ledger` followed by :func:`install_ledger` — from
the state-sync client (a spliced or checkpoint-rooted suffix, §3.4/§5.1)
and from the ``ledger-bundle`` handler (Alg. 2's "fetch missing ledger
entries").  The verifier checks what the peer supplied against what we
already trust (our genesis, every signed ``root_m``, every primary
signature, the checkpoint's ledger binding); the install replays from
the checkpoint, checks every replayed batch against its signed
``root_g``, and commits to the replica atomically.
"""

from __future__ import annotations

from ..errors import ProtocolError
from ..governance.configuration import Configuration
from ..governance.schedule import ConfigSchedule
from ..governance.transactions import install_configuration
from ..kvstore import Checkpoint, KVStore
from ..ledger import CheckpointTxEntry, GenesisEntry, Ledger, PrePrepareEntry, TxEntry
from .batch import BatchRecord, execute_procedure
from .checkpointing import CheckpointDirectory
from .messages import BATCH_CHECKPOINT


def verify_fetched_ledger(
    replica,
    ledger: Ledger,
    fetched: int,
    check_from: int,
    checkpoint: Checkpoint | None,
    suffix_schedule: ConfigSchedule | None = None,
) -> ConfigSchedule:
    """Check a candidate ``ledger`` against every digest we hold and
    return the configuration schedule it verified under (raises on any
    mismatch; nothing on the replica changes).

    ``fetched`` entries came off the wire (their append/hash work is
    charged); batches whose pre-prepare sits at or past ``check_from``
    are the peer's, everything below is our own trusted prefix.
    ``checkpoint`` is the state the install will restore; past genesis it
    must be bound to this very ledger.  ``suffix_schedule`` anchors a
    suffix-rooted ledger, whose governance history is not in its entries.
    """
    replica.submit("append", fetched * replica.costs.ledger_append)
    replica.submit("hash", fetched * 2 * replica.costs.hash_fixed)
    if ledger.base_index == 0:
        entry0 = ledger.entry(0)
        if replica.ledger.base_index == 0:
            same = entry0.to_wire() == replica.ledger.entry(0).to_wire()
        else:
            # Our own genesis entry was garbage-collected; the service
            # identity it defined is still ours to check against.
            same = isinstance(entry0, GenesisEntry) and entry0.service_name() == replica.service_name
        if not same:
            raise ProtocolError("fetched ledger has a different genesis")
    if checkpoint is not None and checkpoint.seqno <= 0:
        # The genesis checkpoint is the same on every replica.
        if checkpoint.digest() != replica.cp_directory.genesis_digest():
            raise ProtocolError("genesis checkpoint mismatch")
    elif checkpoint is not None:
        # The checkpoint's ledger binding.
        if ledger.root_at(checkpoint.ledger_size) != checkpoint.ledger_root:
            raise ProtocolError("checkpoint ledger root mismatch")
        # dC must be vouched for by a recorded checkpoint transaction,
        # and the record's own ledger binding must match — otherwise the
        # peer could widen the prefix the checkpoint claims to cover.
        cp_digest = checkpoint.digest()
        recorded = any(
            isinstance(entry, CheckpointTxEntry)
            and entry.cp_seqno == checkpoint.seqno
            and entry.cp_digest == cp_digest
            and entry.ledger_size == checkpoint.ledger_size
            and entry.ledger_root == checkpoint.ledger_root
            for entry in ledger.entries(checkpoint.ledger_size)
        )
        if not recorded:
            raise ProtocolError("checkpoint digest not recorded in fetched ledger")
    # Every peer-supplied batch — including batches *below* the
    # checkpoint — carries a signed root_m over the ledger before its
    # pre-prepare entry; check roots and primary signatures for them all.
    # Verifying only past the checkpoint would leave the peer an
    # unverified region in which to fabricate governance history.
    foreign = []
    for info in ledger.batches():
        if info.pp_index < check_from:
            continue
        pp = ledger.batch_pre_prepare(info.seqno)
        if ledger.root_at(info.pp_index) != pp.root_m:
            raise ProtocolError(f"root_m mismatch at batch {info.seqno}")
        foreign.append((info.seqno, pp))
    # The configurations come from the governance subledger of the very
    # ledger being verified, but the chain is anchored: the genesis was
    # checked against our own, config-0 batches verify under config-0
    # keys, and the governance transactions that create each successor
    # configuration live inside batches verified under its predecessor.
    # Without this, a Byzantine peer could feed a fresh joiner an
    # entirely fabricated (internally consistent) history.
    if ledger.base_index > 0:
        if suffix_schedule is None:
            raise ProtocolError("suffix-rooted ledger without a trusted schedule")
        schedule = suffix_schedule
    else:
        # Imported lazily: repro.governance.subledger imports the lpbft
        # message types, so a module-level import would be circular.
        from ..governance.subledger import extract_governance_subledger

        try:
            schedule = extract_governance_subledger(
                ledger.entries(), replica.params.pipeline
            ).schedule
        except Exception as exc:
            raise ProtocolError(f"governance subledger extraction failed: {exc}") from exc
    items = []
    for seqno, pp in foreign:
        config = schedule.config_at_seqno(seqno)
        primary_id = config.primary_for_view(pp.view)
        if not config.has_replica(primary_id):
            raise ProtocolError(f"batch {seqno} signed by non-member {primary_id}")
        items.append((config.replica_key(primary_id), pp.signed_payload(), pp.signature))
    if not all(replica._verify_many(items)):
        raise ProtocolError("pre-prepare signature verification failed in fetched ledger")
    return schedule


def install_ledger(
    replica, ledger: Ledger, checkpoint: Checkpoint | None, view: int, schedule: ConfigSchedule
) -> int:
    """Adopt a verified ``ledger`` wholesale under the ``schedule`` it
    verified with: restore the KV store from ``checkpoint``, replay only
    the batches after it, and reconstruct per-batch records.  Returns the
    number of replayed batches.

    The paper's fetch verifies checkpoint receipts and per-interval
    Merkle roots instead of replaying everything (§3.4); we verify the
    structure while rebuilding, replay only from the checkpoint, and
    check every replayed batch against its signed ``root_g`` —
    raising :class:`ProtocolError` *before* any replica state changes,
    so a failed install leaves the replica untouched.
    """
    entries = ledger.entries()
    if ledger.base_index > 0:
        # Suffix-rooted adoption (the server garbage-collected its
        # prefix): the governance history below the checkpoint is not in
        # the fetched entries, so everything hangs off the checkpoint
        # and the caller's genesis-anchored schedule.
        if checkpoint is None or checkpoint.seqno <= 0:
            raise ProtocolError("suffix-rooted ledger requires a checkpoint")
        if schedule.spans()[0].config.number != 0:
            raise ProtocolError("adopted schedule is not genesis-anchored")
    cp_seqno = 0 if checkpoint is None else checkpoint.seqno
    kv = KVStore()
    if checkpoint is not None:
        # The genesis checkpoint (seqno 0) restores too: it carries any
        # pre-populated initial state that a bare config install lacks.
        checkpoint.restore_into(kv)
        replica.submit("hash", len(checkpoint.state) * replica.costs.checkpoint_per_entry)
    else:
        if not entries or not isinstance(entries[0], GenesisEntry):
            raise ProtocolError("adopted ledger does not start with genesis")
        config0 = Configuration.from_wire(entries[0].config_wire)
        kv.execute(lambda tx: install_configuration(tx, config0))

    checkpoints: dict[int, Checkpoint] = {cp_seqno: checkpoint} if checkpoint is not None else {}
    last_taken = cp_seqno
    batches: dict[int, BatchRecord] = {}
    tx_locations: dict = {}
    new_pps: dict = {}
    new_ppd: dict = {}
    activations = {
        span.start_seqno: span.config
        for span in schedule.spans()
        if span.config.number > 0
    }
    last_recorded = -1
    replayed = 0
    for info in ledger.batches():
        seqno = info.seqno
        pp = ledger.batch_pre_prepare(seqno)
        record = BatchRecord(seqno=seqno, view=pp.view, flags=pp.flags)
        record.pp = pp
        record.pp_digest = pp.digest()
        record.ledger_start = info.pp_index
        record.ledger_end = info.end
        replaying = seqno > cp_seqno
        # Live execution installs an activated configuration *before*
        # capturing the batch's kv mark (handle_pre_prepare activates,
        # then _accept_pre_prepare marks) — match that order here, or a
        # later view-change rollback to this batch's mark silently
        # undoes the install and the replica's KV state diverges from
        # replicas that executed the activation live.
        if replaying and seqno in activations:
            kv.execute(lambda tx, c=activations[seqno]: install_configuration(tx, c))
        record.kv_mark = kv.tx_count
        for entry in ledger.entries(info.first_tx, info.end):
            if isinstance(entry, CheckpointTxEntry):
                record.entries.append(entry)
                record.g_tree.append(entry.leaf_digest())
                record.tx_digests.append(None)
                last_recorded = entry.cp_seqno
                continue
            if not isinstance(entry, TxEntry):
                raise ProtocolError(f"unexpected {entry.kind!r} entry inside batch {seqno}")
            request = entry.request()
            tx_digest = request.request_digest()
            if replaying:
                output, ops = execute_procedure(kv, replica.registry, request)
                # Replay is real CPU: catching up from an old (or no)
                # checkpoint costs proportionally more than restoring
                # a recent one — the §3.4 argument for checkpoints.
                replica.submit("execute", replica.costs.execute_tx(ops, len(kv)))
                entry = TxEntry(request_wire=request.to_wire(), index=entry.index, output=output)
            record.entries.append(entry)
            record.g_tree.append(entry.leaf_digest())
            record.tx_digests.append(tx_digest)
            tx_locations[tx_digest] = (seqno, entry.index)
        if replaying:
            replayed += 1
            if record.g_tree.root() != pp.root_g:
                # Divergent replay or a ledger with doctored outputs.
                raise ProtocolError(f"replayed batch {seqno} mismatches signed root_g")
        record.prepared = True
        record.committed = True
        batches[seqno] = record
        new_pps[(record.view, seqno)] = pp
        new_ppd[record.pp_digest] = (record.view, seqno)
        # Take interval checkpoints passed during replay so the next
        # checkpoint transaction finds its state.
        if (
            replaying
            and replica.params.checkpoints
            and record.flags != BATCH_CHECKPOINT
            and seqno % replica.params.checkpoint_interval == 0
        ):
            checkpoints[seqno] = Checkpoint.capture(kv, seqno, info.end, ledger.root_at(info.end))
            last_taken = seqno

    # Everything verified and built — commit to the replica atomically.
    replica.schedule = schedule
    replica.ledger = ledger
    replica.kv = kv
    # Keep our genesis checkpoint: it is identical on every replica
    # (derived from the genesis configuration + initial state) and
    # stays the replay anchor for peers without a stable checkpoint.
    if 0 in replica.checkpoints:
        checkpoints.setdefault(0, replica.checkpoints[0])
    replica.checkpoints = checkpoints
    # Adopted checkpoints count as fresh for the GC age floor.
    replica._cp_taken_at = {s: (0.0 if s == 0 else replica.now) for s in checkpoints}
    replica.last_taken_cp = last_taken
    replica.last_recorded_cp = last_recorded
    replica.cp_directory = checkpoint_directory_from_ledger(entries, replica)
    # The governance archive described the *old* ledger's pruned
    # prefix; a full-prefix adoption can re-derive everything from the
    # entries, a suffix-rooted one falls back to the degraded
    # (schedule-only) sub-ledger until it archives its own truncations.
    replica._gov_archive = None
    replica.batches = batches
    replica.tx_locations = tx_locations
    # The adopted ledger's batches are the only ones indexed now;
    # prepares for a pre-prepare that lost its index go with it.
    for digest in replica.ppd_index.keys() - new_ppd.keys():
        replica.prepares_by_ppd.pop(digest, None)
    for digest, (_, seqno) in new_ppd.items():
        if digest not in replica.ppd_index:
            replica._verify_early_prepares(digest, seqno)
    replica.pps = new_pps
    replica.ppd_index = new_ppd
    replica.admission.discard(tx_locations)
    last_seqno = ledger.last_seqno()
    replica.prepared_upto = last_seqno
    replica.committed_upto = last_seqno
    replica.next_seqno = last_seqno + 1
    # Adopt the sender's view wholesale, even if we had optimistically
    # advanced further while partitioned away — the adopted ledger is
    # the service's actual history.
    replica.view = view
    replica.ready = True
    replica.views.adopted(view)
    replica.gov_tx_log = []
    replica.reconfig = None
    replica.metrics.bump("ledger_adoptions")
    return replayed


def checkpoint_directory_from_ledger(entries, replica) -> CheckpointDirectory:
    """Rebuild the checkpoint directory from the checkpoint transactions
    in a fetched ledger.

    ``entries`` may be a retained *suffix* (the server garbage-collected
    its prefix): the genesis digest then comes from the replica's own
    directory — every replica derives it from the genesis configuration
    it was constructed with — and the directory simply lacks records for
    pruned batches, which can never be re-proposed."""
    if entries and isinstance(entries[0], GenesisEntry):
        # The genesis checkpoint digest is recomputable from the genesis
        # config (plus any pre-populated initial state, which the replica's
        # own genesis checkpoint carries).
        genesis_cp = replica.checkpoints.get(0)
        if genesis_cp is not None:
            genesis_digest = genesis_cp.digest()
        else:
            scratch = KVStore()
            config0 = Configuration.from_wire(entries[0].config_wire)
            scratch.execute(lambda tx: install_configuration(tx, config0))
            genesis_digest = scratch.state_digest()
    else:
        genesis_digest = replica.cp_directory.genesis_digest()
    directory = CheckpointDirectory(genesis_digest)

    current_seqno = 0
    for entry in entries:
        if isinstance(entry, PrePrepareEntry):
            current_seqno = entry.pre_prepare().seqno
        elif isinstance(entry, CheckpointTxEntry):
            directory.note_record(current_seqno, entry.cp_seqno, entry.cp_digest)
    return directory
