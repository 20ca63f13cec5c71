"""One repetition, in a process of its own.

``run.py`` starts this file once per repetition so that every set-up is
cold (``workloads.initial_state`` is ``lru_cache``d) and peak RSS is the
repetition's own.  It prints one JSON object on its last line.

Modes: ``run`` is the untraced repetition; ``obs`` runs with the
program's sim-clock instruments on; ``wrap`` runs with the harness's
host-clock span wrappers on.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "obs", "wrap"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--span-dump")
    args = parser.parse_args()

    from benchmarks.perf import scenarios, spans

    spans_on = spans.install() if args.mode == "wrap" else None
    prepared = scenarios.set_up(args.workload, args.seed, args.scale, observe=args.mode == "obs")
    out = {"setup_s": time.time() - args.spawned_at}
    setup_spans = spans_on.take() if spans_on else None
    events_before = prepared.events_processed()
    gc.collect()
    began = time.perf_counter()
    prepared.run()
    host_run_s = time.perf_counter() - began
    out["host_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["run_events"] = prepared.events_processed() - events_before
    run_spans = spans_on.take() if spans_on else None
    if spans_on:
        spans.uninstall(spans_on)

    out.update(prepared.results())  # post-processing and checks, untimed
    tx = out["tx"]
    out["host_run_s"] = host_run_s
    out["host_us_per_tx"] = host_run_s * 1e6 / tx
    if args.mode == "obs":
        out["layers"] = prepared.layer_metrics()
    if args.mode == "wrap":
        out["layers"] = spans.layer_metrics(setup_spans, run_spans, tx)
        if args.span_dump:
            spans.dump(args.span_dump, setup_spans, run_spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
