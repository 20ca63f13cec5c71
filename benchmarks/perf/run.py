"""The benchmark's one command.

``python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
measures one workload and prints, as its last line, one JSON object:
the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
separate traced run (``--trace 1``).  Without ``--workload`` it does
both for all four workloads and writes one results file for
``compare.py``.  See README.md in this directory.

Every repetition is a fresh ``child.py`` process, one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


class RepetitionFailed(Exception):
    pass


def repetition(workload: str, seed: int, scale: float, mode: str, deadline: float,
               span_dump: Path | None = None) -> dict:
    """Run one ``child.py`` to completion and return what it reported."""
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
        "--scale", repr(scale), "--mode", mode, "--spawned-at", repr(time.time()),
    ]
    if span_dump is not None:
        span_dump.parent.mkdir(parents=True, exist_ok=True)
        command += ["--span-dump", str(span_dump)]
    try:
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise RepetitionFailed(f"{workload}/{mode}: timed out") from None
    if done.returncode != 0:
        raise RepetitionFailed(f"{workload}/{mode}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def result(correct: bool, attempted: int, failed: int, section: str, values: dict) -> dict:
    """The contract's result object for one section of BENCHMARK.json."""
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in CONTRACT[section]
        },
    }


def same_simulation(reps: list[dict]) -> list[str]:
    """Repetitions of one seed must agree on everything simulated."""
    first = reps[0]
    keys = ["fingerprint"] + [k for k in first if k.startswith("sim_")]
    return [
        f"{key} differs between repetitions of one seed"
        for key in keys if any(rep[key] != first[key] for rep in reps[1:])
    ]


def end_to_end(workload: str, seed: int, scale: float, repeats: int,
               deadline: float) -> tuple[dict, dict]:
    """``repeats`` full repetitions.  They must agree on everything
    simulated; the host-clock metrics are their medians."""
    reps = [repetition(workload, seed, scale, "run", deadline) for _ in range(repeats)]
    first = reps[0]
    problems = first["problems"] + same_simulation(reps)
    raw = {name: [rep[name] for rep in reps]
           for name in ("setup_s", "host_us_per_tx", "host_peak_rss_mb")}
    values = {k: v for k, v in first.items() if k.startswith("sim_")}
    values.update({name: statistics.median(series) for name, series in raw.items()})
    values["answered_ratio"] = 1.0 - first["failed"] / first["attempted"]
    extras = {
        "fingerprint": first["fingerprint"], "problems": problems, "raw": raw,
        "samples": {key: first[key] for key in ("due", "receipted", "refused", "tx")},
    }
    return result(not problems, first["attempted"], first["failed"], "end_to_end", values), extras


def per_layer(workload: str, seed: int, scale: float, deadline: float,
              span_dump: Path) -> tuple[dict, dict]:
    """Three runs of one size: untraced, with the program's sim-clock
    instruments on, and with the harness's host-clock wrappers on."""
    base = repetition(workload, seed, scale, "run", deadline)
    obs = repetition(workload, seed, scale, "obs", deadline)
    wrap = repetition(workload, seed, scale, "wrap", deadline, span_dump)
    problems = base["problems"] + obs["problems"] + wrap["problems"]
    problems += same_simulation([base, obs, wrap])  # instruments must be passive
    values = {**obs["layers"], **wrap["layers"]}
    values["workloads.loadgen_lateness_p99_ms"] = base["loadgen_lateness_p99_ms"]
    values["sim.host_us_per_event"] = (
        base["host_run_s"] * 1e6 / base["run_events"] if base["run_events"] else 0.0)
    values["obs.trace_overhead_ratio"] = obs["host_run_s"] / base["host_run_s"]
    values["bench.wrap_overhead_ratio"] = wrap["host_run_s"] / base["host_run_s"]
    extras = {"fingerprint": base["fingerprint"], "problems": problems,
              "span_dump": str(span_dump.relative_to(ROOT))}
    return result(not problems, base["attempted"], base["failed"], "per_layer", values), extras


def report(workload: str, res: dict, extras: dict) -> None:
    print(f"== {workload}: correct={res['correct']} attempted={res['attempted']} "
          f"failed={res['failed']} sim_fingerprint={extras['fingerprint'][:16]}")
    for problem in extras["problems"]:
        print(f"   PROBLEM: {problem}")
    if "samples" in extras:
        s = extras["samples"]
        print(f"   samples: {s['due']} requests due in the window, {s['receipted']} of them "
              f"receipted (latency percentiles are over those); {s['refused']} refused and "
              f"{s['tx']} transactions processed over the whole run")
    for name, metric in res["metrics"].items():
        raw = extras.get("raw", {}).get(name)
        shown = f"   raw {[round(v, 4) for v in raw]}" if raw and len(raw) > 1 else ""
        print(f"   {name:<40} {metric['value']:>16.6f} {metric['unit']}{shown}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="measure one workload (default: all, plus a results file)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(CONTRACT["run_seconds"]),
                        help="host seconds the measurement window takes at this commit; "
                             "the simulated window grows in proportion")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics of a traced run "
                             "(default: both when no --workload is given, else 0)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="fresh-subprocess repetitions per workload")
    parser.add_argument("--quick", action="store_true",
                        help="windows / 4, one repetition, no traced run")
    parser.add_argument("--timeout", type=float, default=170.0,
                        help="wall-clock seconds allowed per workload and trace mode")
    parser.add_argument("--out", type=Path, help="results file (all-workloads mode)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    scale = args.seconds / CONTRACT["run_seconds"]
    if args.quick:
        scale, args.repeats = scale / 4, 1
    print(f"IA-CCF perf benchmark: seed {args.seed}, scale {scale:g}; N=4 replicas, 8 CPU lanes, "
          f"25 us one-way delay at 40 Gbps; open loop, seeded Poisson arrivals")

    def measure(workload: str, trace: int) -> tuple[dict, dict]:
        deadline = time.monotonic() + args.timeout
        if trace:
            dump = HERE / "out" / f"spans-{workload}-seed{args.seed}.json"
            return per_layer(workload, args.seed, scale, deadline, dump)
        return end_to_end(workload, args.seed, scale, args.repeats, deadline)

    if args.workload:
        # The contract's form: a failure exits non-zero without a result line.
        try:
            res, extras = measure(args.workload, args.trace or 0)
        except RepetitionFailed as failure:
            print(f"FAILED: {failure}", file=sys.stderr)
            return 1
        report(args.workload, res, extras)
        print(json.dumps(res))
        return 0

    traces = [0] if args.quick else ([0, 1] if args.trace is None else [args.trace])
    sections = {0: "end_to_end", 1: "per_layer"}
    results = {"seed": args.seed, "seconds": args.seconds, "scale": scale, "workloads": {}}
    all_correct = True
    for workload in WORKLOADS:
        entry = results["workloads"][workload] = {}
        for trace in traces:
            try:
                res, extras = measure(workload, trace)
            except RepetitionFailed as failure:
                # One workload's crash or timeout must not lose the others.
                res = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
                extras = {"fingerprint": "", "problems": [str(failure)]}
            report(workload, res, extras)
            entry[sections[trace]] = {**res, **extras}
            all_correct &= res["correct"]
    out = args.out or HERE / "out" / f"results-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results written to {out}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
