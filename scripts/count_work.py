#!/usr/bin/env python3
"""Counted host work: Python opcodes per receipted transaction, by layer.

Host time on a shared machine swings by more than most changes move it;
the opcodes a run executes do not.  This script sets up one workload of
``BENCHMARK.json`` (``benchmarks/perf/scenarios.py``, unchanged), then
runs its run phase under ``sys.settrace`` with opcode events on and
attributes each opcode to the ``repro`` subpackage of the executing
frame (``codec`` for ``repro.codec``, ``stdlib`` for the standard
library, ``other`` for the benchmark harness).  A ``gc.callbacks`` hook
counts cyclic-GC passes, which opcodes do not see.  Retained memory is
counted too: the objects the cyclic collector tracks when the run phase
ends (every one of them is walked by each full collection), and the
bytes allocated during the run phase that are still allocated then
(``tracemalloc``; the tracer's own tables are left out), split by the
layer of the file that allocated them, named as the opcodes' are.

Usage::

    python scripts/count_work.py [--workload audit_replay] [--seed 0] [--scale 0.5]

It prints one JSON object: ``opcodes_per_tx`` by layer (and ``total``),
``gc_passes``, ``gc_tracked`` and ``retained_bytes`` (each also per
transaction), ``retained_bytes_per_tx_by_layer``, ``tx`` and the raw
``opcodes`` and ``retained_bytes_by_layer``.  The counts repeat
exactly: the script runs itself under ``PYTHONHASHSEED=0`` so that set
and dict orders are the same in every process.  Tracing slows the run
phase about 25x; scale 0.5 of ``audit_replay`` takes a few minutes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import sysconfig
import tracemalloc
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
_STDLIB = sysconfig.get_paths()["stdlib"]
_REPRO = str(ROOT / "src" / "repro") + os.sep


def file_layer(filename: str) -> str:
    """The layer of a source file, named as :func:`count_opcodes` names
    the frames of its module: its ``repro`` subpackage, ``stdlib`` or
    ``other``."""
    if filename.startswith(_REPRO):
        head = filename[len(_REPRO):].split(os.sep, 1)[0]
        return "repro" if head == "__init__.py" else head.removesuffix(".py")
    return "stdlib" if filename.startswith(_STDLIB) else "other"


def count_opcodes(run: Callable[[], object]) -> dict:
    """Run ``run()`` under an opcode tracer.  Returns ``{"opcodes":
    {layer: count}, "gc_passes": n}``; the layer of a frame is its
    module's ``repro`` subpackage, ``stdlib`` or ``other``."""
    counts: dict[str, int] = {}
    layers: dict[object, str] = {}  # code object -> layer
    passes = [0]

    def layer_of(frame) -> str:
        name = frame.f_globals.get("__name__") or ""
        if name == "repro" or name.startswith("repro."):
            parts = name.split(".")
            return parts[1] if len(parts) > 1 else "repro"
        if frame.f_code.co_filename.startswith(_STDLIB):
            return "stdlib"
        return "other"

    def local(frame, event, arg):
        if event == "opcode":
            layer = layers.get(frame.f_code)
            if layer is None:
                layer = layers[frame.f_code] = layer_of(frame)
            counts[layer] = counts.get(layer, 0) + 1
        return local

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    def on_gc(phase, info):
        if phase == "start":
            passes[0] += 1

    gc.collect()
    gc.callbacks.append(on_gc)
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
        gc.callbacks.remove(on_gc)
    return {"opcodes": dict(sorted(counts.items())), "gc_passes": passes[0]}


def count_retained(run: Callable[[], object]) -> tuple[object, dict]:
    """Run ``run()`` and return its result with ``{"gc_tracked": n,
    "retained_bytes": n, "retained_bytes_by_layer": {layer: n}}``, read
    after a full collection once it returns: the objects the collector
    tracks, and the bytes allocated during ``run()`` that are still
    allocated (less this script's own), in all and by the
    :func:`file_layer` of the line that allocated them."""
    gc.collect()
    tracemalloc.start()
    try:
        result = run()
    finally:
        gc.collect()
        tracked = len(gc.get_objects())
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
    retained = snapshot.filter_traces([tracemalloc.Filter(False, __file__)])
    by_layer: dict[str, int] = {}
    for stat in retained.statistics("filename"):
        layer = file_layer(stat.traceback[0].filename)
        by_layer[layer] = by_layer.get(layer, 0) + stat.size
    return result, {
        "gc_tracked": tracked, "retained_bytes": sum(by_layer.values()),
        "retained_bytes_by_layer": dict(sorted(by_layer.items()))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="audit_replay")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=0.5)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.perf import scenarios

    prepared = scenarios.set_up(args.workload, args.seed, args.scale)
    counted, held = count_retained(lambda: count_opcodes(prepared.run))
    tx = prepared.results()["tx"]
    opcodes = counted["opcodes"]
    per_tx = {layer: round(n / tx, 1) for layer, n in opcodes.items()}
    per_tx["total"] = round(sum(opcodes.values()) / tx, 1)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "scale": args.scale, "tx": tx,
        "opcodes_per_tx": per_tx, "gc_passes": counted["gc_passes"],
        "gc_tracked": held["gc_tracked"], "gc_tracked_per_tx": round(held["gc_tracked"] / tx, 2),
        "retained_bytes": held["retained_bytes"],
        "retained_bytes_per_tx": round(held["retained_bytes"] / tx, 1),
        "retained_bytes_per_tx_by_layer": {
            layer: round(n / tx, 1) for layer, n in held["retained_bytes_by_layer"].items()},
        "opcodes": opcodes, "retained_bytes_by_layer": held["retained_bytes_by_layer"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
