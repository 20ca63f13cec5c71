"""PR 9 — sequencing window depth.

The single-group knee sits where the commit pipeline saturates: with one
pre-prepare outstanding per pipeline slot, every stall in the
prepare-quorum round trip leaves sequencing idle, and under load the
round latency inflates (1 ms floor -> ~14 ms near saturation) until the
lane-backlog admission budget starts shedding.  A deeper pipeline keeps
P pre-prepares outstanding so sequencing rides through those stalls —
the pipeline depth is the sequencing window (PR 19 deleted the separate
window knob W this bench was written for: P=1, W=3 was P=3).

The baseline is the *tightest evidence lag* (``pipeline=1``): each batch
must carry the prepare evidence of the batch one slot behind it, which
exposes the stall directly.  Two arms:

- ``P=1`` — the re-probed baseline;
- ``P=3`` — three rounds in flight.

Each arm's knee is located by ``find_knee`` bisection (sustainable =
goodput >= 90% of offered).  Two headline deltas are reported, both
against the re-probed P=1 baseline:

- *knee uplift*: the highest sustainable offered rate moves up ~13%
  (44-45K -> 49-50K on the reference host);
- *matched-rate goodput*: at the P=3 knee's offered rate the P=1 arm
  has already collapsed (~36K goodput vs ~46K, ~+28%), which is the
  delta a deployment sized to the deeper knee actually sees.

Client receipt verification is reported beside the knees: one signature
check per signer (the primary's and each backup's prepare) and the
receipt's encoded size.

Run under pytest (``BENCH_SMOKE=1`` shrinks everything for CI); running
the module as a script — or the full pytest run — writes
``BENCH_pr9.json`` at the repo root.
"""

import json
import os
import time

from repro.bench import backpressure_client_kwargs, find_knee, print_table, run_iaccf_point
from repro.lpbft import Deployment, ProtocolParams
from repro.receipts import verify_receipt
from repro.sim.costs import DEDICATED_CLUSTER
from repro.workloads import DEFAULT_ACCOUNTS, SmallBankWorkload, initial_state, register_smallbank

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

# Tightest evidence lag: batch s carries the prepare evidence of batch
# s-1, so sequencing stalls on every quorum round trip.  The checkpoint
# interval is out of the way (as in bench_pr4) so the knee measures the
# pipeline, not checkpoint stalls.
BASE = dict(
    pipeline=1, max_batch=300, checkpoint_interval=10_000,
    batch_delay=0.0005, view_change_timeout=30.0,
)

P = 3  # sweet spot on the reference host: depths 2..4 land within noise

BASELINE = ProtocolParams(**BASE)
ARMS = (
    ("P=1", BASELINE),
    ("P=3", BASELINE.variant(pipeline=P)),
)

# Knee bracket for the bisection: the P=1 knee probes near 44-45K, the
# P=3 one near 49-50K; one bracket covers both arms.
KNEE_LO, KNEE_HI = 38_000, 56_000


def measure(rate, params, label, **kwargs):
    kwargs.setdefault("duration", 0.5)
    kwargs.setdefault("warmup", 0.2)
    return run_iaccf_point(
        rate=rate, params=params, costs=DEDICATED_CLUSTER, label=label,
        client_kwargs=backpressure_client_kwargs(), lane_metrics=True, **kwargs,
    )


def run_bench(smoke: bool):
    kwargs = dict(duration=0.2, warmup=0.05, accounts=1_000) if smoke else {}
    # Built once here, so the knee probes find_knee forks inherit it.
    initial_state(kwargs.get("accounts", DEFAULT_ACCOUNTS))
    if smoke:
        arms = {}
        for name, params in ARMS:
            knee = find_knee(
                measure, lo=500, hi=2_000, rel_tol=0.5, max_probes=3,
                params=params, label=f"IA-CCF {name}", **kwargs,
            )
            arms[name] = (knee, [measure(2_000, params, f"IA-CCF {name}", **kwargs)])
        return arms
    arms = {}
    for name, params in ARMS:
        knee = find_knee(
            measure, lo=KNEE_LO, hi=KNEE_HI, rel_tol=0.05, max_probes=8,
            params=params, label=f"IA-CCF {name}",
        )
        arms[name] = (knee, [])
    # Matched-rate overload points: every arm measured at the *P=3* knee
    # rate — where the baseline has collapsed and the deeper pipeline has not.
    matched_rate = round(arms[f"P={P}"][0].knee_tps)
    for name, params in ARMS:
        arms[name][1].append(measure(matched_rate, params, f"IA-CCF {name}"))
    return arms


def point_row(p):
    e = p.extra
    return {
        "offered_tps": p.offered_tps,
        "admitted_tps": round(e["admitted_tps"], 1),
        "goodput_tps": round(e["goodput_tps"], 1),
        "latency_mean_ms": round(p.latency_mean_ms, 3),
        "latency_p99_ms": round(p.latency_p99_ms, 3),
        "requests_shed": e["requests_shed"],
        "request_retries": e["request_retries"],
        "lane_utilization": e["lane_utilization"],
    }


# -- receipt verification metrics ----------------------------------------------


class _CountingBackend:
    """Wraps a crypto backend and counts verify ops, so the per-receipt
    verification cost is measured, not assumed."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self.verifies = 0

    def verify(self, public_key, message, signature):
        self.verifies += 1
        return self._inner.verify(public_key, message, signature)


def receipt_metrics():
    """Client-side receipt verification cost and wire size on a small
    deployment."""
    params = ProtocolParams(
        pipeline=2, max_batch=20, checkpoint_interval=20, batch_delay=0.0005,
    )
    dep = Deployment(
        n_replicas=4, params=params, registry_setup=register_smallbank,
        initial_state=initial_state(200), seed=b"pr9-bench-receipts",
    )
    client = dep.add_client(retry_timeout=0.5)
    dep.start()
    wl = SmallBankWorkload(n_accounts=200, seed=11)
    digests = [client.submit(*wl.next_transaction(), min_index=0)
               for _ in range(20)]
    dep.run(until=5.0)
    receipt = client.receipts[digests[0]]
    counting = _CountingBackend(dep.backend)
    assert verify_receipt(receipt, dep.genesis_config, counting)
    return {"verify_ops": counting.verifies, "receipt_bytes": receipt.encoded_size()}


def write_json(arms, receipts, wall_s):
    base_knee = arms["P=1"][0]
    win_knee = arms[f"P={P}"][0]
    matched = {name: point_row(points[0]) for name, (_, points) in arms.items()}
    base_matched = matched["P=1"]["goodput_tps"]
    win_matched = matched[f"P={P}"]["goodput_tps"]
    payload = {
        "description": "PR 9 sequencing window depth: per-arm knee by "
        "find_knee bisection (goodput >= 90% of offered), baseline the "
        "tightest evidence lag (pipeline=1), plus every arm measured at the "
        "deep-pipeline knee rate (matched-rate goodput) and client "
        "receipt-verification op count / wire size",
        "base_params": BASE,
        "deep_pipeline": P,
        "arms": {
            name: {
                "knee_tps": round(knee.knee_tps, 1),
                "knee_goodput_tps": round(knee.goodput_tps, 1),
                "probes": [round(p.offered_tps, 1) for p in knee.probes],
            }
            for name, (knee, _) in arms.items()
        },
        "knee_uplift": {
            "baseline_knee_tps": round(base_knee.knee_tps, 1),
            "windowed_knee_tps": round(win_knee.knee_tps, 1),
            "ratio": round(win_knee.knee_tps / base_knee.knee_tps, 4),
        },
        "matched_rate": {
            "offered_tps": matched[f"P={P}"]["offered_tps"],
            "points": matched,
            "baseline_goodput_tps": base_matched,
            "windowed_goodput_tps": win_matched,
            "ratio": round(win_matched / base_matched, 4),
        },
        "receipt_verification": receipts,
        "host_wall_clock_s": round(wall_s, 2),
    }
    out = os.path.join(os.path.dirname(__file__), "..", "BENCH_pr9.json")
    with open(out, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    return payload


def test_pr9_window_knee(once):
    t0 = time.time()
    arms = once(run_bench, SMOKE)
    receipts = receipt_metrics()
    for name, (knee, points) in arms.items():
        print(f"\n{name}: knee {knee.knee_tps:.0f} tx/s "
              f"(goodput {knee.goodput_tps:.0f}, {len(knee.probes)} probes)")
        print_table(f"PR 9 {name} @ matched rate", points)
    print(f"receipts: {receipts}")

    # One check per signer: the primary's and a quorum's prepares.
    assert receipts["verify_ops"] >= 2  # f+1 with n=4

    if SMOKE:
        for _, points in arms.values():
            assert points[0].extra["committed"] > 0
        return

    payload = write_json(arms, receipts, time.time() - t0)
    # Depth moves the knee itself...
    assert payload["knee_uplift"]["ratio"] >= 1.05
    # ...and at the P=3 knee rate the baseline has collapsed while the
    # deeper arm still sustains — the >= 20% goodput delta.
    assert payload["matched_rate"]["ratio"] >= 1.2


if __name__ == "__main__":
    t0 = time.time()
    arms = run_bench(smoke=False)
    receipts = receipt_metrics()
    payload = write_json(arms, receipts, time.time() - t0)
    print(json.dumps(payload, indent=2))
