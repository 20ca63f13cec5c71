"""Shared deployment helpers, importable from any test module.

These used to live in ``tests/conftest.py``, but test modules importing
``from conftest import ...`` resolved *whichever* conftest happened to be
first on ``sys.path`` — with ``benchmarks/conftest.py`` present, collection
broke.  Keeping the helpers in a plain module (re-exported as fixtures by
the conftest) makes the import unambiguous.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

from repro import codec
from repro.ledger import CheckpointTxEntry, EvidenceEntry, Ledger, PrePrepareEntry
from repro.lpbft import Deployment, ProtocolParams
from repro.merkle import MerkleTree
from repro.workloads import SmallBankWorkload, initial_state, register_smallbank

FAST_PARAMS = ProtocolParams(
    pipeline=2,
    max_batch=20,
    checkpoint_interval=10,
    batch_delay=0.0005,
    view_change_timeout=2.0,
)


def counting_entry_hashes():
    """Patch the KV store's per-entry preimage encoder (every accumulator
    term, incremental or whole-state, encodes through it) with a counting
    pass-through: ``with counting_entry_hashes() as hashed: ...;
    hashed.call_count``."""
    return mock.patch.object(codec, "encode_pair", wraps=codec.encode_pair)


class CountingBackend:
    """Wraps a backend and counts verify ops."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self.verifies = 0

    def verify(self, public_key, message, signature):
        self.verifies += 1
        return self._inner.verify(public_key, message, signature)


def certificate_checks(receipts) -> int:
    """Signature checks that verifying each distinct batch certificate
    among ``receipts`` once takes: the primary's
    and one prepare per other signer."""
    certificates = {
        (r.reconstructed_pre_prepare().digest(), r.signer_bitmap, r.nonces,
         r.prepare_signatures): len(r.signers())
        for r in receipts
    }
    return sum(certificates.values())


def recertified(receipt, **fields):
    """``receipt`` with the named fields of its batch certificate replaced."""
    return dataclasses.replace(receipt, certificate=dataclasses.replace(receipt.certificate, **fields))


def build_deployment(
    n_replicas: int = 4,
    params: ProtocolParams = FAST_PARAMS,
    behaviors: dict | None = None,
    accounts: int = 200,
    spare_replicas: int = 0,
    seed: bytes = b"test",
    registry_setup=register_smallbank,
    **kwargs,
):
    """A small SmallBank deployment ready to start."""
    return Deployment(
        n_replicas=n_replicas,
        params=params,
        registry_setup=registry_setup,
        initial_state=initial_state(accounts),
        behaviors=behaviors or {},
        spare_replicas=spare_replicas,
        seed=seed,
        **kwargs,
    )


def run_workload(dep, client, n_tx: int = 40, until: float = 5.0, seed: int = 7, accounts: int = 200):
    """Submit ``n_tx`` SmallBank transactions and run the network."""
    wl = SmallBankWorkload(n_accounts=accounts, seed=seed)
    digests = [client.submit(*wl.next_transaction(), min_index=0) for _ in range(n_tx)]
    dep.run(until=until)
    return digests


def run_waves(dep, client, waves=4, per_wave=25, gap=0.3, seed=7, accounts=200):
    """Submit transactions in spaced waves so multiple batches (and
    checkpoints) form instead of one giant batch."""
    wl = SmallBankWorkload(n_accounts=accounts, seed=seed)
    digests = []
    for w in range(waves):
        digests += [client.submit(*wl.next_transaction(), min_index=0) for _ in range(per_wave)]
        dep.run(until=dep.net.scheduler.now + gap)
    dep.run(until=dep.net.scheduler.now + 2.0)
    return digests


def reforge_ledger(ledger, dep, mutate):
    """``ledger`` as ``dep``'s replicas would rewrite it if all of them
    colluded: every entry ``e`` becomes ``mutate(e)`` (or stays, when
    that is None), a checkpoint transaction that bound the old tree M
    binds the new one at the same size, the primary re-roots and re-signs
    every pre-prepare whose ``root_m`` or ``root_g`` no longer matches,
    and each replica re-signs its prepares for it in the evidence.
    ``ledger`` must start at genesis."""
    def sign(replica, message):
        return message.with_signature(replica.backend.sign(replica.keypair, message.signed_payload()))

    primary = dep.primary()
    batches = {info.pp_index: info for info in ledger.batches()}
    entries = ledger.entries()
    resigned = {}  # seqno -> digest of the re-signed pre-prepare
    forged = Ledger()
    position = 0
    while position < len(entries):
        info = batches.get(position)
        if info is None:
            entry = mutate(entries[position]) or entries[position]
            if isinstance(entry, EvidenceEntry) and entry.seqno in resigned:
                entry = dataclasses.replace(entry, prepare_wires=tuple(
                    sign(dep.replicas[prepare.replica],
                         dataclasses.replace(prepare, pp_digest=resigned[entry.seqno])).to_wire()
                    for prepare in entry.prepares()
                ))
            forged.append(entry)
            position += 1
            continue
        body = [mutate(entry) or entry for entry in entries[info.first_tx:info.end]]
        for i, entry in enumerate(body):
            if (
                isinstance(entry, CheckpointTxEntry)
                and entry.ledger_size <= len(forged)
                and entry.ledger_root == ledger.root_at(entry.ledger_size)
            ):
                body[i] = dataclasses.replace(entry, ledger_root=forged.root_at(entry.ledger_size))
        g_tree = MerkleTree()
        for entry in body:
            g_tree.append(entry.leaf_digest())
        pp = entries[position].pre_prepare()
        if (pp.root_m, pp.root_g) != (forged.root(), g_tree.root()):
            pp = sign(primary, dataclasses.replace(pp, root_m=forged.root(), root_g=g_tree.root()))
            resigned[pp.seqno] = pp.digest()
        for entry in [PrePrepareEntry(pp_wire=pp.to_wire())] + body:
            forged.append(entry)
        position = info.end
    return forged


def forge_checkpoint_record(ledger, dep, forgery, record_seqno=20):
    """``ledger`` with the checkpoint transaction that leads batch
    ``record_seqno`` forged, and the ledger re-signed by ``dep``'s
    replicas (:func:`reforge_ledger`).  ``forgery``: ``"digest"`` (a digest no
    state has), ``"size"`` (a longer prefix, with that prefix's true root)
    or ``"root"`` (a made-up root at the true size)."""
    record = ledger.entry(ledger.batch(record_seqno).first_tx)
    assert isinstance(record, CheckpointTxEntry)
    size = record.ledger_size + 3
    fields = {
        "digest": dict(cp_digest=b"\x07" * 32),
        "size": dict(ledger_size=size, ledger_root=ledger.root_at(size)),
        "root": dict(ledger_root=b"\x09" * 32),
    }[forgery]
    return reforge_ledger(
        ledger, dep,
        lambda entry: dataclasses.replace(entry, **fields) if entry is record else None)
