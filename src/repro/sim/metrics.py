"""Metrics collection: latency distributions, throughput, CPU lanes.

Benchmarks record one latency sample per committed transaction and
throughput over a measurement window (excluding warm-up), matching the
paper's methodology ("throughput is measured at the primary replica and
latency at the clients").  Open-loop runs additionally record *offered*
load (submissions at the clients), *goodput* (completed receipts), the
*queue delay* requests accumulate between admission and execution at the
replica, and per-lane CPU utilization — the signals a Fig. 4-style
saturation sweep reads past the knee.

The ``counters`` dict is backed by a typed
:class:`~repro.obs.instruments.MetricsRegistry`: ``bump`` routes to
labeled :class:`~repro.obs.instruments.Counter` instruments (e.g.
``bump("requests_shed", reason="deadline")``), while the ``counters``
property and :meth:`MetricsCollector.summary` keep the exact pre-registry
shape so every existing consumer — benches, tests, chaos oracles — reads
the same keys.  :meth:`MetricsCollector.snapshot` exposes the full
labeled registry dump.
"""

from __future__ import annotations

import math
from array import array


class LatencyStats:
    """Online latency statistics with percentile support.

    The sorted view is computed lazily and cached; :meth:`record`
    invalidates it, so repeated percentile reads between samples (the
    common benchmark-reporting pattern) sort once instead of per call.
    Samples are packed doubles: 8 bytes each, not a float object and a
    list slot.
    """

    def __init__(self) -> None:
        self._samples = array("d")
        self._sorted: array | None = None

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self._samples)

    def mean(self) -> float:
        """Mean latency in seconds (0.0 when empty)."""
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0 < p <= 100), nearest-rank."""
        if not self._samples:
            return 0.0
        if self._sorted is None:
            self._sorted = array("d", sorted(self._samples))
        ordered = self._sorted
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def p50(self) -> float:
        return self.percentile(50)

    def p90(self) -> float:
        return self.percentile(90)

    def p99(self) -> float:
        return self.percentile(99)

    def p999(self) -> float:
        """The 99.9th percentile — the tail SLO reporting reads.  With
        fewer than 1000 samples nearest-rank degenerates to the max."""
        return self.percentile(99.9)

    def max(self) -> float:
        return max(self._samples) if self._samples else 0.0


class ThroughputMeter:
    """Counts events (commits, submissions, receipts) inside a window."""

    def __init__(self) -> None:
        self._committed = 0
        self._window_start: float | None = None
        self._window_end: float | None = None

    def start_window(self, now: float) -> None:
        self._window_start = now
        self._committed = 0

    def end_window(self, now: float) -> None:
        self._window_end = now

    def record_commit(self, now: float, count: int = 1) -> None:
        if self._window_start is not None and now >= self._window_start:
            if self._window_end is None or now <= self._window_end:
                self._committed += count

    # Submissions and completions meter through the same windowing logic.
    record = record_commit

    @property
    def committed(self) -> int:
        return self._committed

    def throughput(self) -> float:
        """Events per second over the window."""
        if self._window_start is None or self._window_end is None:
            return 0.0
        elapsed = self._window_end - self._window_start
        return self._committed / elapsed if elapsed > 0 else 0.0


class MetricsCollector:
    """Bundle of the stats a deployment run produces.

    ``latency``/``goodput`` are recorded at clients, ``throughput``,
    ``queue_delay``, and ``admitted`` (requests the admission point let
    in) at replicas, ``offered`` at load generators — so an overload
    sweep reports offered vs. admitted vs. goodput separately.
    ``lane_utilization`` is a per-lane busy-fraction snapshot (see
    :meth:`record_lane_utilization`; ``VirtualCPU`` computes it
    directly via ``utilization_window``).  Counters may be fractional:
    overload accounting records *wasted* busy time (e.g.
    ``wasted_verify_s``, CPU spent verifying requests that were shed
    afterwards) in seconds.
    """

    def __init__(self, registry=None) -> None:
        # Imported here, not at module top: obs.instruments subclasses
        # LatencyStats from this module.
        from ..obs.instruments import MetricsRegistry

        self.registry = registry if registry is not None else MetricsRegistry()
        self.latency: LatencyStats = self.registry.histogram(
            "latency_s", "client-observed request latency")
        self.queue_delay: LatencyStats = self.registry.histogram(
            "queue_delay_s", "admission → execution delay at the replica")
        self.throughput = ThroughputMeter()
        self.offered = ThroughputMeter()
        self.admitted = ThroughputMeter()
        self.goodput = ThroughputMeter()
        self.lane_utilization: list[float] | None = None
        self._bare_series: dict[str, dict] = {}  # name -> its counter's series

    def bump(self, name: str, amount: float = 1, **labels) -> None:
        """Increment a named counter (signatures verified, batches, ...).
        Keyword labels split the counter into series (``reason="deadline"``)
        while the unlabeled total — what ``counters[name]`` reports —
        stays the sum across series.  An unlabelled bump adds to the bare
        series of the counter, resolved in the registry once per name."""
        series = self._bare_series.get(name)
        if series is None or labels or amount < 0:
            counter = self.registry.counter(name)
            counter.inc(amount, **labels)
            self._bare_series[name] = counter._series
            return
        series[()] = series.get((), 0) + amount

    def counter_value(self, name: str, **labels) -> float:
        """One counter's total (or one labeled series' value)."""
        return self.registry.counter(name).value(**labels)

    @property
    def counters(self) -> dict:
        """Name → total across label series (the pre-registry view)."""
        from ..obs.instruments import Counter

        return {
            name: inst.value()
            for name, inst in self.registry.instruments().items()
            if isinstance(inst, Counter)
        }

    def record_lane_utilization(self, fractions: list[float]) -> None:
        """Install a per-lane busy-fraction snapshot (one entry per CPU
        lane, measured over the benchmark window)."""
        self.lane_utilization = list(fractions)
        gauge = self.registry.gauge(
            "lane_busy_fraction", "per-lane busy fraction over the window")
        for lane, fraction in enumerate(fractions):
            gauge.set(fraction, lane=lane)

    def summary(self) -> dict:
        """A plain-dict summary for printing/serialization."""
        out = {
            "throughput_tx_s": self.throughput.throughput(),
            "committed": self.throughput.committed,
            "latency_mean_ms": self.latency.mean() * 1e3,
            "latency_p50_ms": self.latency.p50() * 1e3,
            "latency_p90_ms": self.latency.p90() * 1e3,
            "latency_p99_ms": self.latency.p99() * 1e3,
            "latency_p999_ms": self.latency.p999() * 1e3,
            "counters": dict(self.counters),
        }
        if self.queue_delay.count:
            out["queue_delay_mean_ms"] = self.queue_delay.mean() * 1e3
            out["queue_delay_p50_ms"] = self.queue_delay.p50() * 1e3
            out["queue_delay_p90_ms"] = self.queue_delay.p90() * 1e3
        if self.offered.committed:
            out["offered_tx_s"] = self.offered.throughput()
        if self.admitted.committed:
            out["admitted_tx_s"] = self.admitted.throughput()
        if self.goodput.committed:
            out["goodput_tx_s"] = self.goodput.throughput()
        if self.lane_utilization is not None:
            out["lane_utilization"] = list(self.lane_utilization)
        return out

    def snapshot(self) -> dict:
        """The full labeled registry dump plus the summary fields —
        everything the collector knows, JSON-serializable."""
        out = self.registry.collect()
        out["summary"] = self.summary()
        return out
