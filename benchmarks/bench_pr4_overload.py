"""PR 4 — Overload-stable pipeline: goodput plateaus past the knee.

PR 3's open-loop sweep collapsed under overload: at 55K offered tps the
goodput fell to ~22.8K (against a ~45.9K knee) while CPU lanes idled at
~40%, because each replica's bounded request queue shed an *uncoordinated*
subset — replicas burned verify/execute cycles on transactions that could
never gather a quorum, and backups fetched the requests they had dropped
from the primary one round-trip at a time.

This benchmark measures the coordinated pipeline: the primary is the
single admission point (sheds at ingress, before verification, against
its lane-backlog budget), backups stash raw requests and verify only what
gets sequenced, queued work that cannot meet the client timeout is
dropped before execution, and clients retry under seeded exponential
backoff with a retry budget.  The acceptance comparison for the plateau
is against the knee goodput (historically against BENCH_pr3's ~50%
collapse).  The uncoordinated arm this file used to sweep beside it is
gone with the option that selected it; its rows in the committed
``BENCH_pr4.json`` (11.4K tx/s against 43.0K at 1.5x the knee, 1.11 s of
wasted verification) are the record of why.

The knee is located by ``find_knee`` (bisection over offered load, a
point is sustainable when goodput >= 90% of offered) instead of
hand-picked rates, then the system is swept at multiples of it.  Each
point reports offered vs admitted vs goodput, shed/rejected/retry/abandon
counts, the verify CPU wasted on shed-after-verify work, and per-lane
utilization — so a collapse is diagnosable from the bench output alone.

Run under pytest (``BENCH_SMOKE=1`` shrinks everything for CI); running
the module as a script — or the full pytest run — writes
``BENCH_pr4.json`` at the repo root.
"""

import json
import os
import time

from repro.bench import backpressure_client_kwargs, find_knee, print_table, run_iaccf_point
from repro.lpbft import ProtocolParams
from repro.sim.costs import DEDICATED_CLUSTER

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

BASE = dict(
    pipeline=2, max_batch=300, checkpoint_interval=10_000,
    batch_delay=0.0005, view_change_timeout=30.0,
)

PARAMS = ProtocolParams(**BASE)

# Knee bracket for the bisection (PR 3 measured the knee near 45.9K).
KNEE_LO, KNEE_HI = 30_000, 65_000

# Offered-load multiples of the measured knee for the overload sweep.
MULTIPLIERS = [1.0, 1.25, 1.5, 2.0]


def measure(rate, **kwargs):
    # Past-the-knee points need the queue-filling transient to finish
    # before the window opens, so the warmup is longer than Fig. 4's.
    kwargs.setdefault("duration", 0.5)
    kwargs.setdefault("warmup", 0.2)
    return run_iaccf_point(
        rate=rate, params=PARAMS, costs=DEDICATED_CLUSTER, label="IA-CCF coordinated",
        client_kwargs=backpressure_client_kwargs(), lane_metrics=True, **kwargs,
    )


def run_bench(smoke: bool):
    if smoke:
        kwargs = dict(duration=0.2, warmup=0.05, accounts=1_000)
        knee = find_knee(
            measure, lo=500, hi=2_000, rel_tol=0.5, max_probes=3, **kwargs
        )
        return knee, [measure(2_000, **kwargs)]
    knee = find_knee(measure, lo=KNEE_LO, hi=KNEE_HI, rel_tol=0.05, max_probes=8)
    return knee, [measure(round(m * knee.knee_tps)) for m in MULTIPLIERS]


def point_row(p):
    e = p.extra
    return {
        "offered_tps": p.offered_tps,
        "offered_measured_tps": round(e["offered_tps"], 1),
        "admitted_tps": round(e["admitted_tps"], 1),
        "goodput_tps": round(e["goodput_tps"], 1),
        "throughput_tps": round(p.throughput_tps, 1),
        "latency_mean_ms": round(p.latency_mean_ms, 3),
        "latency_p99_ms": round(p.latency_p99_ms, 3),
        "queue_delay_p50_ms": round(e.get("queue_delay_p50_ms", 0.0), 3),
        "queue_delay_p90_ms": round(e.get("queue_delay_p90_ms", 0.0), 3),
        "requests_shed": e["requests_shed"],
        "requests_deadline_dropped": e["requests_deadline_dropped"],
        "requests_rejected": e["requests_rejected"],
        "request_retries": e["request_retries"],
        "requests_abandoned": e["requests_abandoned"],
        "wasted_verify_s": e["wasted_verify_s"],
        "lane_utilization": e["lane_utilization"],
    }


def write_json(knee, coord, wall_s):
    knee_goodput = knee.goodput_tps
    at_15 = coord[MULTIPLIERS.index(1.5)] if len(coord) > 2 else coord[-1]
    payload = {
        "description": "PR 4 overload pipeline: primary-coordinated admission + "
        "deadline shedding + client backpressure; knee located by find_knee "
        "bisection (goodput >= 90% of offered), swept at multiples of the knee",
        "knee": {
            "knee_tps": round(knee.knee_tps, 1),
            "goodput_tps": round(knee_goodput, 1),
            "probes": [round(p.offered_tps, 1) for p in knee.probes],
        },
        "coordinated": [point_row(p) for p in coord],
        "goodput_at_1p5x_knee_tps": round(at_15.extra["goodput_tps"], 1),
        "goodput_at_1p5x_knee_ratio": round(
            at_15.extra["goodput_tps"] / knee_goodput, 4
        ),
        "host_wall_clock_s": round(wall_s, 2),
    }
    out = os.path.join(os.path.dirname(__file__), "..", "BENCH_pr4.json")
    with open(out, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    return payload


def test_pr4_overload_plateau(once):
    t0 = time.time()
    knee, coord = once(run_bench, SMOKE)
    print(f"\nknee (find_knee): {knee.knee_tps:.0f} tx/s, "
          f"goodput {knee.goodput_tps:.0f} tx/s, {len(knee.probes)} probes")
    print_table("PR 4: coordinated admission (knee multiples)", coord)
    for p in coord:
        e = p.extra
        print(f"    {p.system:<24} {p.offered_tps:>7.0f}/s admitted={e['admitted_tps']:>8.0f} "
              f"goodput={e['goodput_tps']:>8.0f} shed={e['requests_shed']:>6} "
              f"rej={e['requests_rejected']:>6} retries={e['request_retries']:>5} "
              f"wasted={e['wasted_verify_s']:.2f}s")

    # Every point reports the overload triple and the retry counts.
    for p in coord:
        for key in ("offered_tps", "admitted_tps", "goodput_tps",
                    "requests_rejected", "request_retries"):
            assert key in p.extra

    if SMOKE:
        assert coord[0].extra["committed"] > 0
        return

    payload = write_json(knee, coord, time.time() - t0)
    # The acceptance property: goodput at 1.5x the knee holds >= 90% of
    # knee goodput (PR 3 collapsed to ~50% there).
    assert payload["goodput_at_1p5x_knee_ratio"] >= 0.9


if __name__ == "__main__":
    t0 = time.time()
    knee, coord = run_bench(smoke=False)
    payload = write_json(knee, coord, time.time() - t0)
    print(json.dumps(payload, indent=2))
