"""Counted work per receipted transaction: the host contract.

Host time is noisy; the work a transaction causes is not.  On the small
deployment each count below is pinned as a ceiling per receipted
transaction: the measured value plus a little slack, with the measured
value stated beside it.  A change that adds work per transaction fails
here before anyone times it; a change that removes some lowers the
ceiling.
"""

import sys

import pytest

from helpers import FAST_PARAMS, build_deployment
from repro import codec
from repro.crypto import hashing
from repro.crypto.signatures import HashSigBackend
from repro.merkle import MerkleTree
from repro.obs.instruments import MetricsRegistry
from repro.sim.cpu import VirtualCPU
from repro.workloads import SmallBankWorkload


def _counting(monkeypatch, owner, name):
    """Swap ``owner.name`` for a counting pass-through wherever a loaded
    ``repro`` module binds it (``from ..x import name`` binds by value);
    returns the one-item call count."""
    original = getattr(owner, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro.") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def counted_run() -> dict:
    """One small SmallBank run's counts divided by its receipted
    transactions."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        dep = build_deployment(params=FAST_PARAMS)
        receipted = []
        dep.add_load_generator(
            SmallBankWorkload(n_accounts=200, seed=3), rate=5000.0, stop_at=0.02,
            on_receipt=lambda digest, receipt, latency: receipted.append(digest),
        )
        dep.start()
        scheduler = dep.net.scheduler
        events_before = scheduler.events_processed
        counts = {
            "encode": _counting(monkeypatch, codec, "encode"),
            "digest_value": _counting(monkeypatch, hashing, "digest_value"),
            "registry_lookup": _counting(monkeypatch, MetricsRegistry, "_get"),
            "cpu_submit": _counting(monkeypatch, VirtualCPU, "submit"),
            "map_encode": _counting(monkeypatch, codec, "_encode_map"),
            "decode": _counting(monkeypatch, codec, "decode"),
            "signature": _counting(monkeypatch, HashSigBackend, "_signature"),
            "merkle_append": _counting(monkeypatch, MerkleTree, "append"),
        }
        # Encoders reach _encode_map through the encoder table.
        monkeypatch.setitem(codec._ENCODERS, dict, codec._encode_map)
        dep.run(until=0.5)
        assert len(receipted) == 95
        out = {name: calls[0] / len(receipted) for name, calls in counts.items()}
        out["scheduler_events"] = (scheduler.events_processed - events_before) / len(receipted)
    return out


@pytest.fixture(scope="module")
def per_tx():
    return counted_run()


# name -> (measured per receipted transaction, ceiling).  Before the
# write-set digest was written directly and unlabelled counters were
# bound once: encode 25.29, map encodes 19.57, digest_value 13.86,
# registry lookups 28.46; CPU submits and scheduler events unchanged.
# Before ledger outputs were held sealed: encode 22.01, map encodes
# 13.00 (a replyx sized its output, a client's receipt hashed it).
CEILINGS = {
    "encode": (21.01, 21.5),  # codec.encode calls
    "map_encode": (9.00, 9.5),  # dict values encoded, nested ones included
    "decode": (0.00, 0.0),  # codec.decode calls: nothing reads a sealed output back
    "digest_value": (10.58, 11.0),
    "signature": (12.51, 13.0),  # HashSigBackend HMACs, signing and verifying
    "merkle_append": (10.65, 11.0),  # MerkleTree.append calls, trees M and G
    "registry_lookup": (0.45, 1.0),  # MetricsRegistry get-or-create
    "cpu_submit": (27.15, 27.5),  # VirtualCPU.submit calls
    "scheduler_events": (11.53, 12.0),  # events the scheduler ran
}


@pytest.mark.parametrize("name", sorted(CEILINGS))
def test_counted_work_per_receipted_transaction_is_bounded(per_tx, name):
    measured, ceiling = CEILINGS[name]
    assert per_tx[name] <= ceiling, f"{name}: {per_tx[name]:.2f} per tx (was {measured})"
