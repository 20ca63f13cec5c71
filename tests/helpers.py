"""Shared deployment helpers, importable from any test module.

These used to live in ``tests/conftest.py``, but test modules importing
``from conftest import ...`` resolved *whichever* conftest happened to be
first on ``sys.path`` — with ``benchmarks/conftest.py`` present, collection
broke.  Keeping the helpers in a plain module (re-exported as fixtures by
the conftest) makes the import unambiguous.
"""

from __future__ import annotations

from unittest import mock

from repro import codec
from repro.lpbft import Deployment, ProtocolParams
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


def build_deployment(
    n_replicas: int = 4,
    params: ProtocolParams = FAST_PARAMS,
    behaviors: dict | None = None,
    accounts: int = 200,
    spare_replicas: int = 0,
    seed: bytes = b"test",
    **kwargs,
):
    """A small SmallBank deployment ready to start."""
    return Deployment(
        n_replicas=n_replicas,
        params=params,
        registry_setup=register_smallbank,
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
