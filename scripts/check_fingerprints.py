#!/usr/bin/env python3
"""Fingerprint check: the quick form of the perf benchmark simulates
exactly what the table below says it does.

``python3 benchmarks/perf/run.py --seed 0 --quick`` writes
``benchmarks/perf/out/results-seed0.json``.  Each workload's
``sim_fingerprint`` there hashes what its simulation committed; a change
to host code only (a faster codec, a smaller table) must leave all four
as they are.  A change that moves the simulation updates ``PINNED`` in
the same commit and states the delta.

Usage: ``python scripts/check_fingerprints.py [RESULTS_FILE]``; exits 1
on any difference or missing workload."""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "perf" / "out" / "results-seed0.json"

# Quick form (scale 0.25), seed 0.
PINNED = {
    "lan_steady": "5202d998dfa937dc601974fbcd93597ffd66f0dba805f67bdeda80e3887b6242",
    "lan_overload": "d6353933aed8170f5333d522d124498836fdcc8bca035512cba9eca6a6b8ea5b",
    "primary_crash": "bc4db6f5bd58e7ecab4e7951cd766fa98d4fc433a95255b32da1754e70f6b6dd",
    "audit_replay": "999489439f2b2b3f954c87f2ad9ddd8568bb1352f7ae730f7aa5730b48549ac4",
}


def main() -> int:
    path = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else RESULTS
    results = json.loads(path.read_text())
    if results.get("seed") != 0 or results.get("scale") != 0.25:
        print(f"{path}: seed {results.get('seed')}, scale {results.get('scale')}; "
              f"the table pins seed 0 at scale 0.25 (--quick)")
        return 1
    workloads = results["workloads"]
    failed = 0
    for name, pinned in PINNED.items():
        got = workloads.get(name, {}).get("end_to_end", {}).get("fingerprint", "")
        if got != pinned:
            print(f"{name}: sim_fingerprint {got[:16] or '(missing)'} != pinned {pinned[:16]}")
            failed += 1
        else:
            print(f"{name}: sim_fingerprint {got[:16]} as pinned")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
