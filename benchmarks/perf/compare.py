"""Compare two results files written by ``run.py``.

``python3 benchmarks/perf/compare.py A.json B.json`` prints, per workload
and end-to-end metric, both values, the ratio B/A, and a verdict:

- ``same``        equal, or B is within the metric's bound of A;
- ``changed``     a simulated-clock value differs at all between two files
                  of one seed and scale, where it must repeat exactly (the
                  verdict by the bound follows it);
- ``better`` / ``worse``   B differs from A by more than the bound;
- ``unresolved``  either side's repetitions spread wider than the bound
                  (or A is 0), so the medians cannot tell.

Simulated-clock values (``sim_*``, ``answered_ratio``, ``sim_fingerprint``)
are compared exactly when both files have the same seed and scale, and
against the bounds in BENCHMARK.json otherwise.  ``audit_replay``'s
``sim_*`` describe its set-up simulation and are not compared.

Exit code 1 if any row is ``changed``, ``worse`` or ``unresolved``, or a
side is incorrect.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

CONTRACT = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
BLOCKING = ("changed", "worse", "unresolved")


def simulated(name: str) -> bool:
    return name.startswith("sim_") or name == "answered_ratio"


def spread(values: list[float]) -> float:
    """Width of the repetitions as a share of their median."""
    if len(values) < 2:
        return 0.0
    return (max(values) - min(values)) / statistics.median(values)


def verdict(metric: dict, a: float, b: float, raw_a: list[float], raw_b: list[float]) -> str:
    if a == b:
        return "same"
    bound = metric["bound"]
    if a == 0 or max(spread(raw_a), spread(raw_b)) > bound:
        return "unresolved"  # a relative bound has no meaning against a zero base
    worse_by = (b - a) / a if metric["better"] == "lower" else (a - b) / a
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def compare(a: dict, b: dict) -> bool:
    """Print the table; True when no row blocks."""
    same_inputs = (a["seed"], a["scale"]) == (b["seed"], b["scale"])
    ok = True
    for workload in (w["name"] for w in CONTRACT["workloads"]):
        side_a = a["workloads"].get(workload, {}).get("end_to_end")
        side_b = b["workloads"].get(workload, {}).get("end_to_end")
        if side_a is None or side_b is None:
            continue
        same_sim = side_a["fingerprint"] == side_b["fingerprint"]
        print(f"== {workload}: sim_fingerprint {'identical' if same_sim else 'DIFFERENT'}; "
              f"correct A={side_a['correct']} B={side_b['correct']}; "
              f"failed A={side_a['failed']}/{side_a['attempted']} "
              f"B={side_b['failed']}/{side_b['attempted']}")
        if not (side_a["correct"] and side_b["correct"]):
            ok = False
            continue
        if same_inputs and not same_sim:
            ok = False
        for metric in CONTRACT["end_to_end"]:
            name = metric["name"]
            if workload == "audit_replay" and name.startswith("sim_"):
                continue
            va, vb = side_a["metrics"][name]["value"], side_b["metrics"][name]["value"]
            row = verdict(metric, va, vb, side_a["raw"].get(name, []), side_b["raw"].get(name, []))
            if same_inputs and simulated(name) and va != vb:
                row = f"changed, {row}"
            ok &= not any(word in row for word in BLOCKING)
            ratio = f"{vb / va:.4f}" if va else "n/a"
            print(f"   {name:<24} A={va:<14.6g} B={vb:<14.6g} {metric['unit']:<6} "
                  f"B/A={ratio}  ({metric['better']} is better, "
                  f"bound {metric['bound']:.1%})  {row}")
    return ok


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
        print(f"note: A is seed {a['seed']} scale {a['scale']}, B is seed {b['seed']} "
              f"scale {b['scale']}: simulated metrics are judged by their bounds, not exactly")
    return 0 if compare(a, b) else 1


if __name__ == "__main__":
    sys.exit(main())
