"""PR 1 before/after micro-benchmark: incremental Merkle roots.

Measures host wall-clock of *Merkle-root maintenance* on SmallBank-workload
inputs: auditors and ``ledgers_agree`` query the ledger root at every batch
boundary.  Before: each ``root_at(size)`` recomputed the subtree from the
leaves (O(size)).  After: memoized interior nodes + root frontier answer
from cache.

Run as a script; writes ``BENCH_pr1.json`` next to the repo root and exits
non-zero unless the incremental tree is at least 2x faster:

    PYTHONPATH=src python benchmarks/bench_pr1_hotpath.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.crypto.hashing import digest_value
from repro.merkle import MerkleTree
from repro.merkle.tree import _subtree_root
from repro.workloads import SmallBankWorkload


def _best_of(fn, repetitions: int = 3) -> float:
    """Minimum wall-clock over a few repetitions (damps host noise)."""
    return min(_timed(fn) for _ in range(repetitions))


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bench_merkle_root_maintenance(n_entries: int = 3_000, batch: int = 20) -> dict:
    """Append SmallBank entry digests; query the root at every batch
    boundary as commits land (the ledgers_agree / audit access pattern)."""
    wl = SmallBankWorkload(n_accounts=10_000, seed=7)
    leaves = []
    for i in range(n_entries):
        procedure, args = wl.next_transaction()
        leaves.append(digest_value((procedure, tuple(sorted(args.items())), i)))

    boundaries = list(range(batch, n_entries + 1, batch))
    before_roots: list = []
    after_roots: list = []

    # Before: recompute each queried root from the leaf list (seed behavior
    # of MerkleTree.root_at).
    def recompute_pass() -> None:
        before_roots[:] = [_subtree_root(leaves, 0, size) for size in boundaries]

    # After: incremental tree with memoized nodes + root frontier.
    def incremental_pass() -> None:
        tree = MerkleTree()
        for leaf in leaves:
            tree.append(leaf)
        after_roots[:] = [tree.root_at(size) for size in boundaries]

    recompute = _best_of(recompute_pass)
    incremental = _best_of(incremental_pass)

    assert before_roots == after_roots
    return {
        "entries": n_entries,
        "root_queries": len(boundaries),
        "recompute_s": round(recompute, 6),
        "incremental_s": round(incremental, 6),
        "speedup": round(recompute / incremental, 2),
    }


def main() -> int:
    result = {
        "description": "PR 1 hot-path overhaul: host wall-clock, SmallBank inputs",
        "merkle_root_maintenance": bench_merkle_root_maintenance(),
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_pr1.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    ok = result["merkle_root_maintenance"]["speedup"] >= 2.0
    print(f"\n>= 2x speedup criterion: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
