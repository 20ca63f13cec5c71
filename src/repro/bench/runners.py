"""Benchmark runners: one simulated measurement point per call (§6).

Methodology matches the paper: throughput is measured at the primary
replica over a window that excludes warm-up; latency is measured at the
clients.  Runs are deterministic for a given seed, so pytest-benchmark
variance reflects host CPU only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..baselines import (
    FabricDeployment,
    FabricParams,
    HotStuffDeployment,
    HotStuffParams,
    PompeDeployment,
    PompeParams,
)
from ..lpbft import Deployment, ProtocolParams
from ..network.latency import LatencyModel, cluster_latency
from ..sim.costs import CostModel, DEDICATED_CLUSTER
from ..workloads import (
    EmptyWorkload,
    SmallBankWorkload,
    initial_state,
    make_arrivals,
    register_noop,
    register_smallbank,
)


@dataclass
class BenchPoint:
    """One measurement: offered load in, throughput/latency out."""

    system: str
    offered_tps: float
    throughput_tps: float
    latency_mean_ms: float
    latency_p50_ms: float
    latency_p99_ms: float
    extra: dict = field(default_factory=dict)

    def row(self) -> str:
        return (
            f"{self.system:<24} offered={self.offered_tps:>9.0f}/s  "
            f"tput={self.throughput_tps:>9.0f}/s  "
            f"lat(mean/p50/p99)={self.latency_mean_ms:7.2f}/{self.latency_p50_ms:7.2f}/"
            f"{self.latency_p99_ms:7.2f} ms"
        )


def run_iaccf_point(
    rate: float,
    n_replicas: int = 4,
    params: ProtocolParams | None = None,
    costs: CostModel | None = None,
    latency: LatencyModel | None = None,
    accounts: int = 500_000,
    duration: float = 0.5,
    warmup: float = 0.15,
    workload: str = "smallbank",
    sites: dict | None = None,
    client_site: str = "local",
    seed: int = 0,
    label: str = "IA-CCF",
    partition: tuple[list[int], float, float] | None = None,
    arrival: str = "poisson",
    lane_metrics: bool = False,
    client_kwargs: dict | None = None,
    trace: bool = False,
) -> BenchPoint:
    """Measure IA-CCF (or a feature variant of it) at one offered load.

    ``arrival`` picks the open-loop arrival process (``"poisson"``, the
    paper-style default, or ``"fixed"``), seeded with ``seed``.
    ``lane_metrics`` reports exact per-lane utilization over the
    measurement window (``extra["lane_utilization"]``) from the primary
    CPU's windowed-utilization snapshot (no item trace needed).

    ``trace`` enables span tracing for the whole run: ``extra["stages"]``
    gets the per-stage latency breakdown (Tab. 3 view) and
    ``extra["tracer"]`` the live :class:`~repro.obs.trace.Tracer` for
    export.

    ``partition`` — ``(isolated_replica_ids, start, duration)`` — schedules
    a transient partition during the run (WAN outage scenarios); it heals
    automatically after ``duration`` seconds."""
    params = params or ProtocolParams(
        pipeline=2, max_batch=300, checkpoint_interval=10_000, batch_delay=0.0005,
        view_change_timeout=30.0,
    )
    costs = costs or DEDICATED_CLUSTER
    if workload == "smallbank":
        state = initial_state(accounts)
        registry_setup = register_smallbank
        wl = SmallBankWorkload(n_accounts=accounts, seed=seed)
    else:
        state = None
        registry_setup = register_noop
        wl = EmptyWorkload(seed=seed)
    dep = Deployment(
        n_replicas=n_replicas,
        params=params,
        costs=costs,
        latency=latency or cluster_latency(),
        registry_setup=registry_setup,
        initial_state=state,
        sites=sites or {},
    )
    load_kwargs = dict(
        site=client_site, stop_at=duration, verify_receipts=False,
        retry_timeout=10.0, arrivals=make_arrivals(arrival, rate, seed),
    )
    load_kwargs.update(client_kwargs or {})
    load = dep.add_load_generator(wl, rate=rate, **load_kwargs)
    load.recording = False
    primary_metrics = dep.metrics
    if lane_metrics:
        dep.replicas[0].cpu.enable_utilization_tracking()
    tracer = dep.enable_tracing() if trace else None
    dep.start()
    if partition is not None:
        isolated_ids, p_start, p_duration = partition
        dep.partition_replicas(isolated_ids, start=p_start, duration=p_duration)
    dep.net.scheduler.after(warmup, lambda: _open_window(primary_metrics, load))
    dep.net.scheduler.at(duration, lambda: _close_window(primary_metrics, load))
    dep.run(until=duration + 0.2)
    if lane_metrics:
        primary_metrics.record_lane_utilization(
            dep.replicas[0].cpu.utilization_window(warmup, duration)
        )
    summary = primary_metrics.summary()
    lat = load.metrics.latency
    counters = summary["counters"]
    load_counters = load.metrics.counters
    extra = {
        "committed": summary["committed"],
        "counters": counters,
        "submitted": load.submitted,
        "offered_tps": load.metrics.offered.throughput(),
        "admitted_tps": primary_metrics.admitted.throughput(),
        "goodput_tps": load.metrics.goodput.throughput(),
        "messages_dropped": dep.net.messages_dropped,
        # Overload pipeline: shed/drop counts at the replicas, rejection/
        # retry/abandonment counts at the load generator, and the verify
        # CPU wasted on requests that were shed after verification (summed
        # across replicas).
        "requests_shed": sum(
            r.metrics.counters.get("requests_shed", 0) for r in dep.replicas
        ),
        "requests_deadline_dropped": counters.get("requests_deadline_dropped", 0),
        "requests_rejected": load_counters.get("requests_rejected", 0),
        "request_retries": load_counters.get("request_retries", 0),
        "requests_abandoned": load_counters.get("requests_abandoned", 0),
        "wasted_verify_s": round(
            sum(r.wasted_verify_seconds() for r in dep.replicas), 6
        ),
        "latency_p999_ms": lat.p999() * 1e3,
    }
    if tracer is not None:
        from ..obs.export import stage_breakdown

        extra["stages"] = stage_breakdown(tracer)
        extra["tracer"] = tracer
    if primary_metrics.queue_delay.count:
        extra["queue_delay_p50_ms"] = primary_metrics.queue_delay.p50() * 1e3
        extra["queue_delay_p90_ms"] = primary_metrics.queue_delay.p90() * 1e3
    if lane_metrics:
        extra["lane_utilization"] = [
            round(u, 4) for u in primary_metrics.lane_utilization
        ]
        extra["cpu_busy_by_kind"] = {
            kind: round(seconds, 6)
            for kind, seconds in sorted(dep.replicas[0].cpu.busy_by_kind().items())
        }
    extra["verify_cache"] = {
        "hits": dep.verify_cache.stats.hits,
        "misses": dep.verify_cache.stats.misses,
        "hit_rate": round(dep.verify_cache.stats.hit_rate(), 4),
    }
    return BenchPoint(
        system=label,
        offered_tps=rate,
        throughput_tps=summary["throughput_tx_s"],
        latency_mean_ms=lat.mean() * 1e3,
        latency_p50_ms=lat.p50() * 1e3,
        latency_p99_ms=lat.p99() * 1e3,
        extra=extra,
    )


def _open_window(metrics, load) -> None:
    now = metrics_now(load)
    metrics.throughput.start_window(now)
    metrics.admitted.start_window(now)
    load.metrics.offered.start_window(now)
    load.metrics.goodput.start_window(now)
    load.recording = True


def _close_window(metrics, load) -> None:
    now = metrics_now(load)
    metrics.throughput.end_window(now)
    metrics.admitted.end_window(now)
    load.metrics.offered.end_window(now)
    load.metrics.goodput.end_window(now)
    load.recording = False


def metrics_now(node) -> float:
    return node.net.scheduler.now if node.net is not None else 0.0


def backpressure_client_kwargs() -> dict:
    """Client backpressure knobs for the overload benches, fresh per
    measurement point so the seeded backoff RNG starts identically at
    every point: rejected requests retry under exponential backoff and
    abandon after three retransmissions.  The backoff base (250 ms)
    matches the service's queued-drain budget — retrying sooner than the
    backlog can drain just amplifies the overload — and the retry timer
    period (150 ms) sits above the plateau's queue delay, so
    admitted-but-slow requests are not spuriously retransmitted."""
    from ..workloads.loadgen import ExponentialBackoff

    return dict(
        retry_budget=3,
        retry_timeout=0.15,
        backoff=ExponentialBackoff(base=0.25, cap=1.0, seed=1),
    )


def _run_baseline_point(
    dep, rate: float, duration: float, warmup: float, drain: float,
    label: str, arrival: str, seed: int, **client_kwargs,
) -> BenchPoint:
    """Drive a baseline deployment at one offered load (leader-side
    meters in ``dep.metrics``, client-side in ``client.metrics``)."""
    client = dep.add_client(
        rate=rate, stop_at=duration, arrivals=make_arrivals(arrival, rate, seed),
        **client_kwargs,
    )
    client.recording = False
    dep.net.start()
    dep.net.scheduler.after(warmup, lambda: _open_window(dep.metrics, client))
    dep.net.scheduler.at(duration, lambda: _close_window(dep.metrics, client))
    dep.net.run(until=duration + drain)
    lat = client.metrics.latency
    return BenchPoint(
        system=label,
        offered_tps=rate,
        throughput_tps=dep.metrics.throughput.throughput(),
        latency_mean_ms=lat.mean() * 1e3,
        latency_p50_ms=lat.p50() * 1e3,
        latency_p99_ms=lat.p99() * 1e3,
        extra={
            "offered_tps": client.metrics.offered.throughput(),
            "admitted_tps": dep.metrics.admitted.throughput(),
            "goodput_tps": client.metrics.goodput.throughput(),
            "requests_shed": dep.metrics.counters.get("requests_shed", 0),
            "requests_rejected": client.metrics.counters.get("requests_rejected", 0),
        },
    )


def run_hotstuff_point(
    rate: float,
    n_replicas: int = 4,
    params: HotStuffParams | None = None,
    costs: CostModel | None = None,
    latency: LatencyModel | None = None,
    duration: float = 0.5,
    warmup: float = 0.15,
    sites: dict | None = None,
    client_site: str = "local",
    label: str = "HotStuff",
    arrival: str = "fixed",
    seed: int = 0,
) -> BenchPoint:
    dep = HotStuffDeployment(
        n_replicas=n_replicas,
        params=params or HotStuffParams(),
        costs=costs or DEDICATED_CLUSTER,
        latency=latency or cluster_latency(),
        sites=sites or {},
    )
    return _run_baseline_point(
        dep, rate, duration, warmup, 0.3, label, arrival, seed, site=client_site
    )


def run_fabric_point(
    rate: float,
    n_peers: int = 4,
    params: FabricParams | None = None,
    costs: CostModel | None = None,
    latency: LatencyModel | None = None,
    duration: float = 4.0,
    warmup: float = 1.0,
    accounts: int = 500_000,
    label: str = "Fabric 2.2",
    arrival: str = "fixed",
    seed: int = 0,
) -> BenchPoint:
    dep = FabricDeployment(
        n_peers=n_peers,
        params=params or FabricParams(),
        costs=costs or DEDICATED_CLUSTER,
        latency=latency or cluster_latency(),
        store_size=accounts,
    )
    return _run_baseline_point(dep, rate, duration, warmup, 3.0, label, arrival, seed)


def run_pompe_point(
    rate: float,
    n_replicas: int = 4,
    params: PompeParams | None = None,
    costs: CostModel | None = None,
    latency: LatencyModel | None = None,
    duration: float = 0.5,
    warmup: float = 0.15,
    label: str = "Pompe",
    arrival: str = "fixed",
    seed: int = 0,
) -> BenchPoint:
    dep = PompeDeployment(
        n_replicas=n_replicas,
        params=params or PompeParams(),
        costs=costs or DEDICATED_CLUSTER,
        latency=latency or cluster_latency(),
    )
    return _run_baseline_point(dep, rate, duration, warmup, 0.3, label, arrival, seed)


def saturation_sweep(run_point, rates: list[float], **kwargs) -> list[BenchPoint]:
    """Run a throughput/latency curve over increasing offered load."""
    return [run_point(rate=rate, **kwargs) for rate in rates]


@dataclass
class KneeResult:
    """Outcome of a :func:`find_knee` probe."""

    knee_tps: float  # highest offered rate measured as sustainable
    goodput_tps: float  # goodput measured at the knee
    sustainable: bool  # False if even the lowest probe was unsustainable
    probes: list[BenchPoint] = field(default_factory=list)  # in probe order

    def point(self) -> BenchPoint | None:
        """The probe measured at the knee rate."""
        for p in self.probes:
            if p.offered_tps == self.knee_tps:
                return p
        return None


def find_knee(
    run_point,
    lo: float,
    hi: float,
    sustain_ratio: float = 0.9,
    rel_tol: float = 0.05,
    max_probes: int = 12,
    **kwargs,
) -> KneeResult:
    """Locate the saturation knee by bisection instead of hand-picked
    rates: the highest offered load the system still *sustains*, where a
    probe is sustainable when measured goodput >= ``sustain_ratio`` times
    measured offered load.

    ``lo`` should be comfortably below the knee and ``hi`` above it; the
    bracket is validated by probing (an unsustainable ``lo`` returns
    immediately with ``sustainable=False``; a sustainable ``hi`` returns
    ``hi`` as the knee).  Bisection stops when the bracket is within
    ``rel_tol`` (relative) or after ``max_probes`` measurements.  Every
    probe is a full ``run_point`` measurement, so the result is exactly
    as deterministic as the runner (seeded).
    """
    if not 0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got lo={lo} hi={hi}")
    probes: list[BenchPoint] = []

    def sustainable(rate: float) -> tuple[BenchPoint, bool]:
        p = run_point(rate=rate, **kwargs)
        probes.append(p)
        offered = p.extra.get("offered_tps") or rate
        goodput = p.extra.get("goodput_tps", p.throughput_tps)
        return p, goodput >= sustain_ratio * offered

    lo_point, ok = sustainable(lo)
    if not ok:
        return KneeResult(
            knee_tps=lo, goodput_tps=lo_point.extra.get("goodput_tps", 0.0),
            sustainable=False, probes=probes,
        )
    best = lo_point
    _, ok = sustainable(hi)
    if ok:
        best, lo = probes[-1], hi
    else:
        while len(probes) < max_probes and (hi - lo) > rel_tol * lo:
            mid = (lo + hi) / 2.0
            p, ok = sustainable(mid)
            if ok:
                best, lo = p, mid
            else:
                hi = mid
    return KneeResult(
        knee_tps=lo,
        goodput_tps=best.extra.get("goodput_tps", best.throughput_tps),
        sustainable=True,
        probes=probes,
    )


def print_table(title: str, points: list[BenchPoint]) -> None:
    print(f"\n== {title} ==")
    for point in points:
        print("  " + point.row())


def wan_sites(n_replicas: int, regions: tuple[str, ...] | None = None) -> dict[int, str]:
    """Assign replicas round-robin to WAN regions (default: the three
    Azure regions of §6; pass e.g. ``REGIONS_GLOBAL`` for other
    topologies)."""
    from ..network.latency import REGIONS_WAN

    regions = regions or REGIONS_WAN
    return {i: regions[i % len(regions)] for i in range(n_replicas)}
