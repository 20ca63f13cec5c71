"""Counted work per receipted transaction: the host contract.

Host time is noisy; the work a transaction causes is not.  On the small
deployment each count below is pinned as a ceiling per receipted
transaction: the measured value plus a little slack, with the measured
value stated beside it.  A change that adds work per transaction fails
here before anyone times it; a change that removes some lowers the
ceiling.
"""

import math
import sys

import pytest

from helpers import FAST_PARAMS, build_deployment, run_waves, run_workload
from repro import codec
from repro.crypto import hashing
from repro.crypto.signatures import HashSigBackend
from repro.lpbft import ProtocolParams
from repro.lpbft.batch import split_location
from repro.lpbft.messages import Prepare, PrePrepare
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
# Before the receipts of a batch shared one certificate, and so one
# reconstructed pre-prepare: encode 21.01, digest_value 10.58.
CEILINGS = {
    "encode": (19.45, 20.0),  # codec.encode calls
    "map_encode": (9.00, 9.5),  # dict values encoded, nested ones included
    "decode": (0.00, 0.0),  # codec.decode calls: nothing reads a sealed output or packed request back
    "digest_value": (9.80, 10.3),
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


def _counting_appends(monkeypatch):
    return _counting(monkeypatch, MerkleTree, "append")


# Merkle appends per request of a get-replyx burst for every transaction
# of one batch whose record was collected: the batch's tree G is built
# once for the burst.  Measured 1.00; the batch size (20) when each
# request rebuilt it.
REPLYX_BURST_APPENDS = (1.00, 1.0)

# PrePrepare.from_wire calls per burst: the ledger entry holds the
# pre-prepare the replica signed or accepted.  Measured 0; one per
# request when each rebuilt it from the entry's wire form.
REPLYX_BURST_PP_DECODES = (0, 1)


# Prepare.to_wire calls per committed replica-batch on the burst
# deployment: a backup sends its prepare, and a batch's evidence entries
# encode the N−f−1 chosen prepares once, when appended.  Measured 2.58;
# 4.92 when every test for available evidence built the entries.
PREPARE_WIRES_PER_BATCH = (2.58, 2.7)


@pytest.fixture(scope="module")
def burst():
    """The burst deployment after 12 waves of 25, with its
    ``Prepare.to_wire`` calls during the run."""
    params = ProtocolParams(
        pipeline=2, max_batch=20, checkpoint_interval=10, batch_delay=0.0005,
        view_change_timeout=2.0, ledger_gc_min_age=math.inf,
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        prepare_wires = _counting(monkeypatch, Prepare, "to_wire")
        dep = build_deployment(params=params, seed=b"burst")
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        run_waves(dep, client, waves=12, per_wave=25, gap=0.25)
    return dep, client, prepare_wires[0]


def test_evidence_encodes_prepares_only_when_appended(burst):
    dep, _, prepare_wires = burst
    committed = sum(r.metrics.summary()["counters"]["batches_committed"] for r in dep.replicas)
    assert committed >= 90
    measured, ceiling = PREPARE_WIRES_PER_BATCH
    per_batch = prepare_wires / committed
    assert per_batch <= ceiling, f"{per_batch:.2f} Prepare.to_wire per committed replica-batch (was {measured})"


def test_replyx_burst_from_the_ledger_builds_tree_g_once(burst):
    dep, client, _ = burst
    replica = dep.replicas[1]
    by_seqno = {}
    for tx_digest, located in replica.tx_locations.items():
        by_seqno.setdefault(split_location(located)[0], []).append(tx_digest)
    seqno, burst = max(
        (item for item in by_seqno.items()
         if replica.batches.get(item[0]) is None and replica.ledger.batch(item[0]) is not None),
        key=lambda item: len(item[1]))
    assert len(burst) >= 10
    with pytest.MonkeyPatch.context() as monkeypatch:
        appends = _counting_appends(monkeypatch)
        decodes = _counting(monkeypatch, PrePrepare, "from_wire")
        for tx_digest in burst:
            client.send(replica.address, ("get-replyx", tx_digest))
        dep.run(until=dep.net.scheduler.now + 0.2)
    counters = replica.metrics.summary()["counters"]
    assert counters["receipts_rebuilt_from_ledger"] == len(burst)
    measured, ceiling = REPLYX_BURST_APPENDS
    assert appends[0] / len(burst) <= ceiling, f"{appends[0] / len(burst):.2f} (was {measured})"
    measured, ceiling = REPLYX_BURST_PP_DECODES
    assert decodes[0] <= ceiling, f"{decodes[0]} PrePrepare.from_wire calls (was {measured})"


# Merkle appends per G leaf while a recovering replica verifies and
# installs the ledger it fetched: tree G is built once per fetched batch
# (the binding check's tree is the one installed).  Measured 1.00; 2.00
# when the install, or the replay behind it, built each batch's tree G
# again.
FETCHED_G_APPENDS = (1.00, 1.0)


def test_fetched_ledger_builds_tree_g_once_per_batch():
    from repro.statesync import client as sync_client
    from test_integration_viewchange import VC_PARAMS

    dep = build_deployment(params=VC_PARAMS, seed=b"vc")
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    workload = SmallBankWorkload(n_accounts=200, seed=11)
    for _ in range(40):
        client.submit(*workload.next_transaction(), min_index=0)
    dep.run(until=0.2)
    dep.crash_replica(0)
    for _ in range(60):
        client.submit(*workload.next_transaction(), min_index=0)
    dep.run(until=4.0)
    seen = {"leaves": 0, "appends": 0}
    with pytest.MonkeyPatch.context() as monkeypatch:
        appends = _counting_appends(monkeypatch)

        def window(name):
            inner = getattr(sync_client, name)

            def counted(replica, ledger, *args, **kwargs):
                start = appends[0]
                try:
                    return inner(replica, ledger, *args, **kwargs)
                finally:
                    seen["appends"] += appends[0] - start
                    if name == "install_ledger":
                        seen["leaves"] += sum(info.tx_count for info in ledger.batches())

            monkeypatch.setattr(sync_client, name, counted)

        window("verify_fetched_ledger")
        window("install_ledger")
        dep.recover_replica(0)
        dep.run(until=12.0)
    assert dep.replicas[0].sync_client.last_result is not None
    assert seen["leaves"] > 50
    measured, ceiling = FETCHED_G_APPENDS
    per_leaf = seen["appends"] / seen["leaves"]
    assert per_leaf <= ceiling, f"{per_leaf:.2f} (was {measured})"


# TxRun.entry calls per audited receipt per audit pass, on a ledger whose
# every transaction has a receipt: the replay reads each transaction
# through one view, and the structural parse reads indices off the runs
# (Ledger.outline).  Measured 1.00; 2.00 when parse_fragment built a
# view per transaction as well.
AUDIT_ENTRY_VIEWS = (1.00, 1.0)


def test_an_audit_pass_builds_one_entry_view_per_receipt():
    from repro.audit import Auditor
    from repro.enforcement import make_enforcer
    from repro.ledger.entries import TxRun

    dep = build_deployment()
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    digests = run_workload(dep, client, n_tx=40, until=4.0)
    receipts = [client.receipts[d] for d in digests]
    passes = 2
    with pytest.MonkeyPatch.context() as monkeypatch:
        views = _counting(monkeypatch, TxRun, "entry")
        for _ in range(passes):
            result = Auditor(dep.registry, dep.params).audit(
                receipts, [dep.replicas[0].gov_chain], make_enforcer(dep))
            assert result.upoms == []
    measured, ceiling = AUDIT_ENTRY_VIEWS
    per_receipt = views[0] / passes / len(receipts)
    assert per_receipt <= ceiling, f"{per_receipt:.2f} TxRun.entry calls per receipt per pass (was {measured})"


def _count_work_script():
    """``scripts/count_work.py`` as a module."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / "count_work.py"
    spec = importlib.util.spec_from_file_location("count_work", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_opcode_counts_repeat_exactly():
    """The opcode counter behind ``scripts/count_work.py`` is a clock
    that does not drift: two counts of the same small run are equal,
    layer by layer, and so are their cyclic-GC passes."""
    count_opcodes = _count_work_script().count_opcodes

    def small_run():
        dep = build_deployment(params=FAST_PARAMS)
        dep.add_load_generator(SmallBankWorkload(n_accounts=200, seed=3), rate=2000.0, stop_at=0.01)
        dep.start()
        dep.run(until=0.1)

    small_run()  # imports and first-use set-up happen here, uncounted
    first, second = count_opcodes(small_run), count_opcodes(small_run)
    assert first == second
    assert first["opcodes"]["codec"] > 0 and first["opcodes"]["lpbft"] > 0


def test_retained_bytes_split_by_layer_repeats_and_sums_to_the_total():
    """``scripts/count_work.py`` charges each retained byte to the layer
    of the file that allocated it: the split of one small run repeats
    exactly in two fresh processes, and sums to the total.  (Run twice
    in one process, the second run retains a little less than the
    first, so each count takes a fresh process.)"""
    import json
    import os
    import subprocess
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    script = (
        "import json, sys\n"
        "from helpers import FAST_PARAMS, build_deployment\n"
        "from repro.workloads import SmallBankWorkload\n"
        "from test_counted_work import _count_work_script\n"
        "def small_run():\n"
        "    dep = build_deployment(params=FAST_PARAMS)\n"
        "    dep.add_load_generator(SmallBankWorkload(n_accounts=200, seed=3), rate=2000.0, stop_at=0.01)\n"
        "    dep.start()\n"
        "    dep.run(until=0.1)\n"
        "    return dep\n"
        "print(json.dumps(_count_work_script().count_retained(small_run)[1]))\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), str(root / "tests")])}
    counts = []
    for _ in range(2):
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, cwd=root)
        assert run.returncode == 0, run.stderr
        counts.append(json.loads(run.stdout))
    first, second = counts
    assert first["retained_bytes_by_layer"] == second["retained_bytes_by_layer"]
    split = first["retained_bytes_by_layer"]
    assert sum(split.values()) == first["retained_bytes"]
    assert split["lpbft"] > 0 and split["ledger"] > 0 and split["kvstore"] > 0
