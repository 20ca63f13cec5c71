"""Exporters: Chrome/Perfetto trace-event JSON and per-stage breakdowns.

The Perfetto export maps the span model onto the `trace-event format
<https://ui.perfetto.dev>`_:

- one *process* per node (pid assigned by sorted node name, so the
  export is byte-identical across same-seed runs);
- spans become ``"X"`` complete events on tid 0, with microsecond
  timestamps derived from sim seconds;
- causal parent edges that cross nodes become flow events (``"s"`` at
  the parent, ``"f"`` at the child) so Perfetto draws the arrows;
- annotations (sheds, retries, chaos faults) become ``"i"`` instants;
- per-lane CPU timelines (from ``VirtualCPU.trace``) become ``"X"``
  events on tid ``lane + 1``, named by work kind;
- sequencing-window occupancy (concurrent quorum spans — the rounds in
  flight) becomes a per-node ``"C"`` counter track.

``request_stages`` turns one request trace into a telescoping stage
breakdown: the stages are consecutive milestone intervals partitioning
``[root.start, root.end]``, so they sum *exactly* to the measured
end-to-end latency (the Tab. 3 property the summarize CLI and bench
runners report).
"""

from __future__ import annotations

import json

from ..sim.metrics import LatencyStats
from .trace import Span, Tracer

#: Microseconds per simulated second (trace-event timestamps are µs).
_US = 1_000_000.0

#: Stage names in pipeline order (see :func:`request_stages`).
STAGE_NAMES = (
    "client-to-admission",
    "admission",
    "queue",
    "execute",
    "quorum",
    "receipt",
)


def _us(t: float) -> float:
    """Sim seconds → trace-event microseconds, rounded for stable JSON."""
    return round(t * _US, 3)


def _pids(tracer: Tracer, cpus: dict | None) -> dict[str, int]:
    nodes = {s.node for s in tracer.spans}
    nodes.update(a["node"] for a in tracer.annotations)
    if cpus:
        nodes.update(cpus)
    return {node: pid for pid, node in enumerate(sorted(nodes), start=1)}


def perfetto_trace(tracer: Tracer, cpus: dict | None = None) -> dict:
    """Build a trace-event JSON object from a tracer (and optionally
    per-node ``VirtualCPU`` instances with ``trace`` recording enabled,
    mapped ``node address -> cpu``, for per-lane CPU timelines)."""
    pids = _pids(tracer, cpus)
    events: list[dict] = []
    for node, pid in pids.items():
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": node},
        })
    span_by_id = {s.span_id: s for s in tracer.spans}
    for span in tracer.finished_spans():
        pid = pids[span.node]
        event = {
            "ph": "X", "name": span.name, "pid": pid, "tid": 0,
            "ts": _us(span.start), "dur": _us(span.duration()),
            "args": dict(span.attrs) if span.attrs else {},
        }
        event["args"]["trace_id"] = span.trace_id
        event["args"]["span_id"] = span.span_id
        if span.parent_id is not None:
            event["args"]["parent_id"] = span.parent_id
        events.append(event)
        parent = span_by_id.get(span.parent_id)
        if parent is not None and parent.node != span.node:
            # Cross-node causal edge: draw a flow arrow parent -> child.
            events.append({
                "ph": "s", "name": "causal", "cat": "causal",
                "id": span.span_id, "pid": pids[parent.node], "tid": 0,
                "ts": _us(min(parent.end if parent.end is not None
                              else span.start, span.start)),
            })
            events.append({
                "ph": "f", "bp": "e", "name": "causal", "cat": "causal",
                "id": span.span_id, "pid": pid, "tid": 0,
                "ts": _us(span.start),
            })
    for ann in tracer.annotations:
        events.append({
            "ph": "i", "s": "t", "name": ann["name"],
            "pid": pids[ann["node"]], "tid": 0, "ts": _us(ann["at"]),
            "args": dict(ann["attrs"]),
        })
    # Sequencing-window occupancy: a counter track per node stepped at
    # each quorum span's boundaries — concurrent quorum spans are the
    # consensus rounds in flight (at most the pipeline depth P), so the
    # overlap between outstanding rounds is visible right above the
    # per-lane timelines.
    window_edges: dict[str, list[tuple[float, int]]] = {}
    for span in tracer.finished_spans():
        if span.name != "quorum":
            continue
        window_edges.setdefault(span.node, []).append((span.start, 1))
        window_edges.setdefault(span.node, []).append((span.end, -1))
    for node in sorted(window_edges):
        occupancy = 0
        for at, step in sorted(window_edges[node]):
            occupancy += step
            events.append({
                "ph": "C", "name": "window_occupancy", "pid": pids[node],
                "tid": 0, "ts": _us(at),
                "args": {"rounds_in_flight": occupancy},
            })
    if cpus:
        for node in sorted(cpus):
            cpu = cpus[node]
            if cpu.trace is None:
                continue
            pid = pids[node]
            for lane in range(cpu.cores):
                events.append({
                    "ph": "M", "name": "thread_name", "pid": pid,
                    "tid": lane + 1, "args": {"name": f"lane {lane}"},
                })
            for kind, lane, start, end in cpu.trace:
                events.append({
                    "ph": "X", "name": kind, "pid": pid, "tid": lane + 1,
                    "ts": _us(start), "dur": _us(end - start), "args": {},
                })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_perfetto(path, tracer: Tracer, cpus: dict | None = None) -> None:
    """Write the trace-event JSON; ``sort_keys`` keeps same-seed runs
    byte-identical."""
    with open(path, "w") as fh:
        json.dump(perfetto_trace(tracer, cpus), fh, sort_keys=True)
        fh.write("\n")


# -- per-stage breakdown --------------------------------------------------------


def quorum_ends(spans: list[Span]) -> dict:
    """End of the first finished quorum span per seqno, over *all*
    traces: on the primary the quorum span belongs to the batch's trace,
    not necessarily to the trace of each request in the batch."""
    ends: dict = {}
    for s in spans:
        if s.name == "quorum" and s.end is not None:
            ends.setdefault((s.attrs or {}).get("seqno"), s.end)
    return ends


def request_stages(spans: list[Span],
                   quorum_end_by_seqno: dict | None = None) -> dict | None:
    """Stage durations for one request trace (the root span's trace).

    ``spans`` is one trace's spans; ``quorum_end_by_seqno`` is
    :func:`quorum_ends` of every trace (default: of ``spans`` alone) —
    callers summarising many requests build it once.

    Stages telescope over milestones partitioning ``[root.start,
    root.end]`` so they sum exactly to the end-to-end latency:

    - ``client-to-admission``: submit → request arrives at the admission
      point (network + receive processing);
    - ``admission``: admission-point processing (verify-now included);
    - ``queue``: admitted → execution starts (batching wait, lane
      contention, consensus pipelining);
    - ``execute``: the transaction's own execution slice;
    - ``quorum``: execution end → batch commits (prepare/commit round
      trips overlapping later stages land here);
    - ``receipt``: commit → client holds a full receipt.

    Returns ``None`` when the trace has no finished root "request" span
    or lacks the admission/execute milestones (e.g. a shed request).
    """
    root = next((s for s in spans
                 if s.name == "request" and s.parent_id is None
                 and s.end is not None), None)
    if root is None:
        return None
    admission = next((s for s in spans
                      if s.name in ("admission", "stash")
                      and s.end is not None), None)
    execute = next((s for s in spans
                    if s.name == "execute" and s.end is not None), None)
    if admission is None or execute is None:
        return None
    seqno = (execute.attrs or {}).get("seqno")
    if quorum_end_by_seqno is None:
        quorum_end_by_seqno = quorum_ends(spans)
    quorum_end = quorum_end_by_seqno.get(seqno, execute.end)
    # Clamp milestones into [root.start, root.end] and order them, so
    # the telescoping sum is exact even when a stage lands at 0.
    milestones = [root.start, admission.start, admission.end,
                  execute.start, execute.end, quorum_end, root.end]
    lo, hi = root.start, root.end
    milestones = [min(max(m, lo), hi) for m in milestones]
    for i in range(1, len(milestones)):
        milestones[i] = max(milestones[i], milestones[i - 1])
    stages = {name: milestones[i + 1] - milestones[i]
              for i, name in enumerate(STAGE_NAMES)}
    return {
        "trace_id": root.trace_id,
        "e2e_s": root.end - root.start,
        "stages": stages,
        "seqno": seqno,
    }


def stage_breakdown(tracer_or_spans) -> dict:
    """Aggregate per-stage latency stats across every completed request.

    Accepts a :class:`Tracer` or a plain span list; returns
    ``{"requests": N, "stages": {name: {mean_ms, p50_ms, p99_ms}},
    "e2e": {...}}`` in pipeline order.
    """
    spans = (tracer_or_spans.spans
             if isinstance(tracer_or_spans, Tracer) else tracer_or_spans)
    by_trace: dict[int, list[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    stats = {name: LatencyStats() for name in STAGE_NAMES}
    e2e = LatencyStats()
    n = 0
    quorum_end_by_seqno = quorum_ends(spans)
    for trace_spans in by_trace.values():
        row = request_stages(trace_spans, quorum_end_by_seqno)
        if row is None:
            continue
        n += 1
        e2e.record(row["e2e_s"])
        for name, dur in row["stages"].items():
            stats[name].record(dur)

    def _summ(ls: LatencyStats) -> dict:
        return {
            "mean_ms": ls.mean() * 1e3,
            "p50_ms": ls.percentile(50) * 1e3,
            "p99_ms": ls.p99() * 1e3,
        }

    return {
        "requests": n,
        "stages": {name: _summ(stats[name]) for name in STAGE_NAMES},
        "e2e": _summ(e2e),
    }


def spans_from_trace(trace: dict) -> list[Span]:
    """Reconstruct :class:`Span` objects from a trace-event JSON object
    previously produced by :func:`perfetto_trace` (the summarize CLI's
    input path).  CPU-lane events (tid != 0) and metadata are skipped."""
    pid_names = {}
    for event in trace.get("traceEvents", []):
        if event.get("ph") == "M" and event.get("name") == "process_name":
            pid_names[event["pid"]] = event["args"]["name"]
    spans = []
    for event in trace.get("traceEvents", []):
        if event.get("ph") != "X" or event.get("tid") != 0:
            continue
        args = dict(event.get("args", {}))
        span_id = args.pop("span_id", None)
        if span_id is None:
            continue
        trace_id = args.pop("trace_id")
        parent_id = args.pop("parent_id", None)
        span = Span(trace_id, span_id, parent_id, event["name"],
                    pid_names.get(event["pid"], str(event["pid"])),
                    event["ts"] / _US, args or None)
        span.end = (event["ts"] + event.get("dur", 0.0)) / _US
        spans.append(span)
    spans.sort(key=lambda s: s.span_id)
    return spans


def write_jsonl(path, rows) -> None:
    """Write an iterable of dicts as one JSON object per line."""
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True))
            fh.write("\n")
