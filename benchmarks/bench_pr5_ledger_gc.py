"""PR 5 — Ledger prefix GC: bounded resident ledger + checkpoint-rooted audits.

Without GC the ledger grows without bound — every replica keeps the full
history from genesis because audits and ``replyx`` rebuilds assume the
complete prefix exists.  This benchmark drives the same steady-state
workload through two arms:

- ``gc`` — ``ledger_gc=True`` with a zero age floor: entries below the
  oldest stable checkpoint are truncated as soon as the next checkpoint
  stabilizes, so the resident ledger is O(retention window);
- ``unbounded`` — ``ledger_gc=False``: the PR 4 behavior, resident
  entries equal total entries forever.

Resident entry counts are sampled through the run (the ``gc`` arm's curve
plateaus; the ``unbounded`` arm's grows linearly), then the audit side is
measured on the final state: a checkpoint-rooted audit package (suffix
fragment + tree M frontier) is verified end to end and its replay wall
time is compared against a genesis replay of the unbounded arm's full
ledger — the §6.5 "audits from checkpoints" claim, now with the prefix
actually deleted.

Run under pytest (``BENCH_SMOKE=1`` shrinks everything for CI); running
the module as a script — or the full pytest run — writes
``BENCH_pr5.json`` at the repo root.
"""

import json
import os
import time

from repro.audit import Auditor, build_ledger_package, replay_ledger
from repro.enforcement import make_enforcer
from repro.lpbft import Deployment, ProtocolParams
from repro.sim.costs import DEDICATED_CLUSTER
from repro.workloads import SmallBankWorkload, initial_state, register_smallbank

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

BASE = dict(
    pipeline=2, max_batch=50, checkpoint_interval=20,
    batch_delay=0.0005, view_change_timeout=30.0,
)
GC_PARAMS = ProtocolParams(**BASE, ledger_gc=True, ledger_gc_min_age=0.0)
UNBOUNDED_PARAMS = ProtocolParams(**BASE, ledger_gc=False)

ACCOUNTS = 2_000


def run_arm(params, waves, per_wave, gap, sample_every):
    """One steady-state run; returns (deployment, client, digests, samples)
    where samples are (sim_time, resident_entries, total_entries) on the
    primary."""
    dep = Deployment(
        n_replicas=4, params=params, costs=DEDICATED_CLUSTER,
        registry_setup=register_smallbank, initial_state=initial_state(ACCOUNTS),
        seed=b"pr5",
    )
    client = dep.add_client(retry_timeout=1.0, verify_receipts=False)
    dep.start()
    # The genesis checkpoint (pre-populated accounts) is itself collected
    # by checkpoint GC during the run; keep a handle for the
    # replay-from-genesis baseline measurement.
    dep.genesis_checkpoint = dep.primary().checkpoints[0]
    wl = SmallBankWorkload(n_accounts=ACCOUNTS, seed=5)
    digests = []

    def wave():
        for _ in range(per_wave):
            digests.append(client.submit(*wl.next_transaction(), min_index=0))

    horizon = 0.05 + waves * gap
    for i in range(waves):
        dep.net.scheduler.at(0.05 + i * gap, wave)
    samples = []

    def sample():
        ledger = dep.primary().ledger
        samples.append((dep.net.scheduler.now, ledger.resident_entries(), len(ledger)))

    ticks = int(horizon / sample_every) + 2
    for i in range(1, ticks + 1):
        dep.net.scheduler.at(i * sample_every, sample)
    dep.run(until=horizon + 1.0)
    sample()
    return dep, client, digests, samples


def audit_measurements(gc_dep, gc_client, unbounded_dep):
    """Checkpoint-rooted audit (end to end + replay-only) vs genesis
    replay of the unbounded arm's full ledger; host wall-clock seconds."""
    primary = gc_dep.primary()
    retained_dcs = {cp.digest() for cp in primary.checkpoints.values()}
    receipts = [
        r for r in gc_client.receipts.values() if r.checkpoint_digest in retained_dcs
    ]
    assert receipts, "no receipts inside the retention window"
    oldest = min(receipts, key=lambda r: r.seqno)

    package = build_ledger_package(primary, oldest)
    assert package.fragment.start == primary.ledger.base_index > 0
    suffix_ledger = package.materialize_ledger()
    schedule = package.subledger.schedule

    t0 = time.perf_counter()
    findings = replay_ledger(
        suffix_ledger, package.checkpoint, gc_dep.registry, schedule,
        gc_dep.params.checkpoint_interval,
    )
    replay_cp_wall = time.perf_counter() - t0
    assert findings == []

    auditor = Auditor(gc_dep.registry, gc_dep.params)
    t0 = time.perf_counter()
    result = auditor.audit(receipts, [gc_client.gov_chain], make_enforcer(gc_dep))
    audit_cp_wall = time.perf_counter() - t0
    assert result.consistent

    full = unbounded_dep.primary()
    full_ledger = full.ledger.fragment(0).to_ledger()
    full_schedule = full.governance_subledger().schedule
    t0 = time.perf_counter()
    findings = replay_ledger(
        full_ledger, unbounded_dep.genesis_checkpoint, unbounded_dep.registry, full_schedule,
        unbounded_dep.params.checkpoint_interval,
    )
    replay_genesis_wall = time.perf_counter() - t0
    assert findings == []

    return {
        "audited_receipts": len(receipts),
        "replayed_batches_from_checkpoint": suffix_ledger.last_seqno() - package.checkpoint.seqno,
        "replayed_batches_from_genesis": full_ledger.last_seqno(),
        "replay_from_checkpoint_wall_ms": round(replay_cp_wall * 1e3, 2),
        "replay_from_genesis_wall_ms": round(replay_genesis_wall * 1e3, 2),
        "replay_speedup": round(replay_genesis_wall / max(replay_cp_wall, 1e-9), 2),
        "audit_end_to_end_from_checkpoint_wall_ms": round(audit_cp_wall * 1e3, 2),
    }


def run_bench(smoke: bool):
    gc_params, unbounded_params = GC_PARAMS, UNBOUNDED_PARAMS
    if smoke:
        # A checkpoint only stabilizes once its record (C batches later)
        # commits; smoke runs are short, so shrink C accordingly.
        gc_params = gc_params.variant(checkpoint_interval=10)
        unbounded_params = unbounded_params.variant(checkpoint_interval=10)
        knobs = dict(waves=40, per_wave=10, gap=0.05, sample_every=0.25)
    else:
        knobs = dict(waves=160, per_wave=25, gap=0.05, sample_every=0.25)
    gc_dep, gc_client, _, gc_samples = run_arm(gc_params, **knobs)
    unb_dep, unb_client, _, unb_samples = run_arm(unbounded_params, **knobs)
    audits = audit_measurements(gc_dep, gc_client, unb_dep)
    return gc_dep, gc_samples, unb_samples, audits


def summarize(gc_dep, gc_samples, unb_samples, audits, wall_s):
    primary = gc_dep.primary()
    total = len(primary.ledger)
    resident_final = primary.ledger.resident_entries()
    resident_max = max(r for _, r, _ in gc_samples)
    counters = primary.metrics.summary()["counters"]
    mid = gc_samples[len(gc_samples) // 2][1]
    return {
        "description": "PR 5 ledger prefix GC: resident ledger entries stay "
        "O(retention window) under steady load (vs O(total) unbounded), and "
        "audits run checkpoint-rooted over the retained suffix — package "
        "frontier verified against the signed checkpoint chain, replay from "
        "checkpoint state instead of genesis",
        "params": {
            "checkpoint_interval": gc_dep.params.checkpoint_interval,
            "ledger_gc_min_age_s": gc_dep.params.ledger_gc_min_age,
        },
        "gc": {
            "total_entries": total,
            "resident_entries_final": resident_final,
            "resident_entries_max": resident_max,
            "resident_entries_mid_run": mid,
            "resident_ratio_final": round(resident_final / total, 4),
            "ledger_truncations": counters.get("ledger_truncations", 0),
            "entries_collected": counters.get("ledger_entries_gced", 0),
            "curve": [
                {"t": round(t, 2), "resident": r, "total": n} for t, r, n in gc_samples
            ],
        },
        "unbounded": {
            "resident_entries_final": unb_samples[-1][1],
            "total_entries": unb_samples[-1][2],
        },
        "audit": audits,
        "host_wall_clock_s": round(wall_s, 2),
    }


def write_json(payload):
    out = os.path.join(os.path.dirname(__file__), "..", "BENCH_pr5.json")
    with open(out, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def test_pr5_ledger_gc(once):
    t0 = time.time()
    gc_dep, gc_samples, unb_samples, audits = once(run_bench, SMOKE)
    payload = summarize(gc_dep, gc_samples, unb_samples, audits, time.time() - t0)
    g = payload["gc"]
    print(f"\nGC arm: {g['resident_entries_final']}/{g['total_entries']} entries resident "
          f"({100 * g['resident_ratio_final']:.1f}%), {g['ledger_truncations']} truncations, "
          f"{g['entries_collected']} entries collected")
    print(f"unbounded arm: {payload['unbounded']['resident_entries_final']} resident "
          f"(= total, by construction)")
    a = payload["audit"]
    print(f"audit: replay from checkpoint {a['replay_from_checkpoint_wall_ms']:.1f} ms "
          f"({a['replayed_batches_from_checkpoint']} batches) vs genesis "
          f"{a['replay_from_genesis_wall_ms']:.1f} ms ({a['replayed_batches_from_genesis']} "
          f"batches): {a['replay_speedup']}x")

    # The unbounded arm retains everything.
    assert payload["unbounded"]["resident_entries_final"] == payload["unbounded"]["total_entries"]
    # The GC arm truncated, stayed consistent, and audits clean.
    assert g["ledger_truncations"] >= 1
    assert gc_dep.ledgers_agree()
    if SMOKE:
        return
    # Bounded residency: a small fraction of the total, and flat in steady
    # state (mid-run ≈ end-of-run, while the total kept growing).
    assert g["resident_ratio_final"] <= 0.35
    assert g["resident_entries_final"] <= 2.0 * g["resident_entries_mid_run"]
    # Checkpoint-rooted replay beats genesis replay comfortably.
    assert a["replay_speedup"] >= 1.5
    write_json(payload)


if __name__ == "__main__":
    t0 = time.time()
    gc_dep, gc_samples, unb_samples, audits = run_bench(smoke=False)
    payload = summarize(gc_dep, gc_samples, unb_samples, audits, time.time() - t0)
    write_json(payload)
    print(json.dumps(payload, indent=2))
