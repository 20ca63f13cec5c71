"""Client-side recorders: due-time latency without touching ``LoadGenerator``.

``LoadGenerator`` floors its wake-ups at 1 ms and times each request
from the instant it was *submitted*, which hides up to one tick of
lateness.  An open-loop benchmark must time from the instant a request
was *due* (choosing-metrics guide, section 5), so the harness keeps its
own record of both ends:

- :class:`RecordingArrivals` logs the inter-arrival draws of the seeded
  Poisson process; the due times are their running sum.
- :class:`ReceiptRecorder` hangs off the client's public ``on_receipt``
  hook and logs ``(completion time, submit-time latency, receipt)``.

Submission ``i`` (1-based) carries request nonce ``i`` — the client
bumps its nonce once per ``submit`` — so receipts map back to due times
through the request they carry.
"""

from __future__ import annotations

from repro.sim.metrics import LatencyStats
from repro.workloads import PoissonArrivals


class RecordingArrivals(PoissonArrivals):
    """Seeded Poisson arrivals that remember every arrival's due time.

    Only the documented override point (``interarrival``) and the two
    driver entry points are touched; the arrival sequence is the base
    class's, draw for draw.
    """

    def __init__(self, rate: float, seed: int = 0) -> None:
        super().__init__(rate, seed)
        self._origin: float | None = None
        self._draws: list[float] = []

    def interarrival(self) -> float:
        draw = super().interarrival()
        self._draws.append(draw)
        return draw

    def due(self, now: float) -> int:
        if self._origin is None:
            self._origin = now
        return super().due(now)

    def delay_until_next(self, now: float, min_tick: float = 1e-3) -> float:
        if self._origin is None:
            self._origin = now
        return super().delay_until_next(now, min_tick)

    def due_times(self, count: int) -> list[float]:
        """Due times of the first ``count`` arrivals, accumulated with the
        same additions the base class performs (bit-identical)."""
        times: list[float] = []
        at = self._origin or 0.0
        for draw in self._draws[:count]:
            at += draw
            times.append(at)
        return times


class ReceiptRecorder:
    """Logs every completed receipt through ``client.on_receipt``."""

    def __init__(self, client) -> None:
        self.client = client
        self.completions: list[tuple[float, float, object]] = []
        client.on_receipt = self._on_receipt

    def _on_receipt(self, tx_digest, receipt, latency: float) -> None:
        self.completions.append((self.client.now, latency, receipt))


def _stats(values) -> LatencyStats:
    """The repository's own nearest-rank percentile over ``values``."""
    stats = LatencyStats()
    for value in values:
        stats.record(value)
    return stats


def latency_table(due: list[float], completions) -> list[tuple[float, float, float] | None]:
    """Per submission, in due order: ``(completion time, due-time latency,
    submit-time latency)``, or ``None`` for a request never receipted."""
    table: list[tuple[float, float, float] | None] = [None] * len(due)
    for done_at, submit_latency, receipt in completions:
        i = receipt.request().nonce - 1
        table[i] = (done_at, done_at - due[i], submit_latency)
    return table


def window_metrics(due, table, completions, start: float, end: float, slo: float) -> dict:
    """The simulated-clock end-to-end numbers over ``[start, end)``.

    Latency and the SLO ratio are over requests *due* in the window
    (a request shed, abandoned or never receipted misses the SLO);
    goodput and the service gap are over receipts *completing* in it.
    """
    rows = [table[i] for i, at in enumerate(due) if start <= at < end]
    done = [row for row in rows if row is not None]
    latency = _stats(row[1] for row in done)
    lateness = _stats(row[1] - row[2] for row in done)
    within_slo = sum(1 for row in done if row[1] <= slo)
    done_times = sorted(at for at, _, _ in completions if start <= at < end)
    edges = [start, *done_times, end]
    # Receipts complete a batch at a time, so a plain count over the window
    # moves by a whole batch (4.5% at 300 per batch) with where its edges
    # fall.  Count instead from the first batch receipted in the window to
    # the last: every batch but the first, over the time between.  A batch
    # is timed by its first receipt; stragglers (retransmitted replies)
    # trail by a whole client timeout.
    batches: dict[int, list] = {}
    for at, _, receipt in completions:
        batch = batches.setdefault(receipt.seqno, [at, 0])
        batch[0] = min(batch[0], at)
        batch[1] += 1
    inside = sorted(b for b in batches.values() if start <= b[0] < end)
    if len(inside) > 1:
        goodput = sum(n for _, n in inside[1:]) / (inside[-1][0] - inside[0][0])
    else:  # a window this short (--quick) holds one batch: count it plainly
        goodput = len(done_times) / (end - start)
    return {
        "due": len(rows),
        "receipted": len(done),
        "sim_goodput_tps": goodput,
        "sim_latency_p50_ms": latency.p50() * 1e3,
        "sim_latency_p99_ms": latency.p99() * 1e3,
        "sim_slo_met_ratio": within_slo / len(rows) if rows else 0.0,
        "sim_max_service_gap_ms": max(b - a for a, b in zip(edges, edges[1:])) * 1e3,
        "loadgen_lateness_p99_ms": lateness.p99() * 1e3,
    }
