"""``python -m repro.obs`` — offline analysis of exported traces.

``summarize <trace.json>`` reads a Perfetto trace-event file produced by
:func:`~repro.obs.export.write_perfetto` and prints:

- the per-stage latency breakdown (mean/p50/p99 per pipeline stage, the
  Tab. 3 view), with stages telescoping to the end-to-end latency;
- the critical path of the p99 request — every span in that request's
  trace, indented by causal depth;
- the top shed reasons across the run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .export import (
    STAGE_NAMES,
    quorum_ends,
    request_stages,
    spans_from_trace,
    stage_breakdown,
)


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _print_stage_table(breakdown: dict) -> None:
    print(f"requests: {breakdown['requests']}")
    print(f"{'stage':<22} {'mean_ms':>10} {'p50_ms':>10} {'p99_ms':>10}")
    for name in STAGE_NAMES:
        row = breakdown["stages"][name]
        print(f"{name:<22} {row['mean_ms']:>10.3f} "
              f"{row['p50_ms']:>10.3f} {row['p99_ms']:>10.3f}")
    e2e = breakdown["e2e"]
    print(f"{'e2e':<22} {e2e['mean_ms']:>10.3f} "
          f"{e2e['p50_ms']:>10.3f} {e2e['p99_ms']:>10.3f}")
    mean_sum = sum(breakdown["stages"][n]["mean_ms"] for n in STAGE_NAMES)
    print(f"(stage means sum to {mean_sum:.3f} ms; "
          f"e2e mean {e2e['mean_ms']:.3f} ms)")


def _critical_path(spans, all_spans) -> list[tuple[int, object]]:
    """The p99 request's spans as (depth, span), start-ordered within
    each causal subtree."""
    children: dict[int | None, list] = {}
    for span in sorted(spans, key=lambda s: (s.start, s.span_id)):
        children.setdefault(span.parent_id, []).append(span)
    span_ids = {s.span_id for s in spans}
    # Roots: parentless spans, plus spans whose parent lives in another
    # trace (e.g. an execute span parented on the client root when the
    # quorum span carries the batch trace).
    roots = [s for s in sorted(spans, key=lambda s: (s.start, s.span_id))
             if s.parent_id is None or s.parent_id not in span_ids]
    out: list[tuple[int, object]] = []

    def walk(span, depth: int) -> None:
        out.append((depth, span))
        for child in children.get(span.span_id, []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return out


def _print_p99_path(spans) -> None:
    rows = []
    by_trace: dict[int, list] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    quorum_end_by_seqno = quorum_ends(spans)
    for trace_spans in by_trace.values():
        row = request_stages(trace_spans, quorum_end_by_seqno)
        if row is not None:
            rows.append(row)
    if not rows:
        print("no completed requests in trace")
        return
    ordered = sorted(rows, key=lambda r: r["e2e_s"])
    pick = ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]
    print(f"\ncritical path of p99 request "
          f"(trace {pick['trace_id']}, e2e {pick['e2e_s'] * 1e3:.3f} ms):")
    trace_spans = by_trace[pick["trace_id"]]
    t0 = min(s.start for s in trace_spans)
    for depth, span in _critical_path(trace_spans, spans):
        attrs = ""
        if span.attrs:
            attrs = "  " + ",".join(
                f"{k}={v}" for k, v in sorted(span.attrs.items()))
        print(f"  {(span.start - t0) * 1e3:>9.3f}ms "
              f"{'  ' * depth}{span.name} [{span.duration() * 1e3:.3f}ms] "
              f"@{span.node}{attrs}")


def _print_shed_reasons(trace: dict) -> None:
    reasons: dict[str, int] = {}
    for event in trace.get("traceEvents", []):
        if event.get("ph") == "i" and event.get("name") == "shed":
            reason = event.get("args", {}).get("reason", "unknown")
            reasons[reason] = reasons.get(reason, 0) + 1
    if not reasons:
        return
    print("\ntop shed reasons:")
    ranked = sorted(reasons.items(), key=lambda kv: (-kv[1], kv[0]))
    for reason, count in ranked[:10]:
        print(f"  {count:>8}  {reason}")


def summarize(path: str) -> int:
    trace = _load(path)
    spans = spans_from_trace(trace)
    breakdown = stage_breakdown(spans)
    _print_stage_table(breakdown)
    _print_p99_path(spans)
    _print_shed_reasons(trace)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Analyze exported Perfetto traces.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_sum = sub.add_parser(
        "summarize", help="per-stage latency breakdown from a trace file")
    p_sum.add_argument("trace", help="trace-event JSON from write_perfetto")
    args = parser.parse_args(argv)
    if args.command == "summarize":
        return summarize(args.trace)
    return 2  # pragma: no cover - argparse enforces the subcommand


if __name__ == "__main__":
    sys.exit(main())
