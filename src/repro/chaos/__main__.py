"""Chaos CLI — replay, soak, and shrink fault schedules.

Replay one seed exactly (what a failing CI job prints)::

    PYTHONPATH=src python -m repro.chaos --seed 21

Run the pinned CI soak matrix (exit 1 on any violation)::

    PYTHONPATH=src python -m repro.chaos --soak

Shrink a failing seed to a minimal repro::

    PYTHONPATH=src python -m repro.chaos --seed 21 --shrink

Run a seed range (``A..B`` is inclusive, and mixes with single seeds);
a multi-seed run ends with one tally line per oracle-violation kind::

    PYTHONPATH=src python -m repro.chaos --seeds 0..29,54,89
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import Counter
from pathlib import Path

from .harness import run_schedule
from .schedule import ChaosParams, generate_schedule
from .shrink import shrink_schedule

# The CI soak matrix.  Pinned: a new seed is appended, never substituted,
# so a green history stays comparable across commits.
SOAK_SEEDS = (1, 2, 3, 5, 8, 13, 21, 34)

# Where a failing seed's Perfetto trace goes, relative to the current
# directory (git-ignored: CI runs from the repository root).
TRACE_DIR = Path("chaos-out")


def parse_seeds(text: str) -> list[int]:
    """``"0..29,54,89"`` -> ``[0, 1, ..., 29, 54, 89]``: comma-separated
    seeds and inclusive ``A..B`` ranges, in the order given."""
    seeds: list[int] = []
    for part in text.split(","):
        low, dots, high = part.strip().partition("..")
        try:
            if dots:
                first, last = int(low), int(high)
                if first > last:
                    raise ValueError
                seeds += range(first, last + 1)
            else:
                seeds.append(int(low))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad seed {part.strip()!r}: expected N or an ascending range A..B") from None
    return seeds


def violation_kind(violation: str) -> str:
    """An oracle violation without its particulars: numbers become ``N``,
    and bracketed lists, exception messages and the triggering event go."""
    kind = ": ".join(violation.split(": ")[:2]).split(" immediately after ")[0]
    return re.sub(r"\d+", "N", re.sub(r"\s*[\[{(].*", "", kind))


def build_params(args) -> ChaosParams:
    return ChaosParams(
        n_replicas=args.replicas,
        n_events=args.events,
        fault_end=args.fault_end,
        quiescence=args.quiescence,
        load_rate=args.rate,
        pipeline=args.pipeline,
    )


def run_one(seed: int, params: ChaosParams, args) -> list[str]:
    schedule = generate_schedule(seed, params)
    # Span tracing is passive (same event trace and digest either way),
    # so run with it on: a failing seed dumps a Perfetto trace for free.
    result = run_schedule(schedule, trace=True)
    status = "ok" if result.ok else "FAIL"
    print(f"seed {seed}: {status}  events={len(schedule.events)} "
          f"trace_digest={result.trace_digest[:16]}  {result.summary}")
    if args.trace or not result.ok:
        print(schedule.describe())
    if args.trace:
        print("\n".join(result.trace))
    if not result.ok:
        for violation in result.violations:
            print(f"  ORACLE VIOLATION: {violation}")
        print(f"  replay: {result.replay_command}")
        if result.span_tracer is not None:
            from ..obs.export import write_perfetto

            TRACE_DIR.mkdir(exist_ok=True)
            trace_path = TRACE_DIR / f"chaos-trace-seed{seed}.json"
            write_perfetto(trace_path, result.span_tracer)
            print(f"  trace: {trace_path} (open in ui.perfetto.dev, "
                  f"or: python -m repro.obs summarize {trace_path})")
        if args.shrink:
            minimal, runs = shrink_schedule(schedule)
            print(f"  shrunk to {len(minimal.events)} events in {runs} runs:")
            for line in minimal.describe().splitlines():
                print(f"    {line}")
    return result.violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.chaos", description=__doc__)
    parser.add_argument("--seed", type=int, help="replay this schedule seed")
    parser.add_argument("--soak", action="store_true", help="run the pinned CI seed matrix")
    parser.add_argument("--seeds", type=parse_seeds, default=None,
                        help="seeds and inclusive ranges, e.g. 0..29,54,89 "
                             "(overrides the pinned matrix)")
    parser.add_argument("--replicas", type=int, default=ChaosParams.n_replicas)
    parser.add_argument("--events", type=int, default=ChaosParams.n_events)
    parser.add_argument("--fault-end", type=float, default=ChaosParams.fault_end)
    parser.add_argument("--quiescence", type=float, default=ChaosParams.quiescence)
    parser.add_argument("--rate", type=float, default=ChaosParams.load_rate)
    parser.add_argument("--pipeline", type=int, default=ChaosParams.pipeline,
                        help="pipeline depth P (consensus rounds in flight)")
    parser.add_argument("--shrink", action="store_true",
                        help="on failure, shrink the schedule to a minimal repro")
    parser.add_argument("--trace", action="store_true", help="print the full event trace")
    args = parser.parse_args(argv)

    if args.seed is None and not args.soak and not args.seeds:
        parser.error("one of --seed or --soak (or --seeds) is required")
    params = build_params(args)
    if args.seed is not None:
        seeds = [args.seed]
    elif args.seeds:
        seeds = args.seeds
    else:
        seeds = list(SOAK_SEEDS)

    kinds: Counter = Counter()
    failed = []
    for seed in seeds:
        violations = run_one(seed, params, args)
        if violations:
            failed.append(seed)
            kinds.update({violation_kind(v) for v in violations})
    if len(seeds) > 1:
        for kind, count in sorted(kinds.items(), key=lambda item: (-item[1], item[0])):
            print(f"tally: {count} seeds: {kind}")
    if failed:
        print(f"\n{len(failed)}/{len(seeds)} seeds FAILED: {failed}")
        print("replay a failure exactly with the command printed above")
        return 1
    print(f"\nall {len(seeds)} seeds passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
