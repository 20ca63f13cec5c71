"""Multi-lane VirtualCPU invariants, open-loop load generation, and
per-lane utilization reporting."""

import math
import random

import pytest

from repro.errors import SimulationError
from repro.network import Node, SimNetwork, constant_latency
from repro.sim import VirtualCPU
from repro.sim.metrics import LatencyStats, MetricsCollector
from repro.workloads import (
    FixedRateArrivals,
    PoissonArrivals,
    SmallBankWorkload,
    make_arrivals,
)

from helpers import FAST_PARAMS, build_deployment


def overlapping(intervals):
    """Pairs of (start, end) intervals that overlap."""
    ordered = sorted(intervals)
    return [
        (a, b)
        for a, b in zip(ordered, ordered[1:])
        if b[0] < a[1] - 1e-12
    ]


class TestVirtualCPU:
    def test_parallel_kind_fans_out_across_lanes(self):
        cpu = VirtualCPU(cores=4)
        done = cpu.submit_many("verify", [1.0] * 4, not_before=0.0)
        assert done == pytest.approx(1.0)  # 4 items, 4 lanes: one round

    def test_parallel_batch_wraps_when_items_exceed_cores(self):
        cpu = VirtualCPU(cores=4)
        done = cpu.submit_many("verify", [1.0] * 10, not_before=0.0)
        assert done == pytest.approx(3.0)  # ceil(10/4) rounds

    def test_serial_kind_chains_on_its_pinned_lane(self):
        cpu = VirtualCPU(cores=8)
        first = cpu.submit("execute", 1.0, not_before=0.0)
        second = cpu.submit("execute", 1.0, not_before=0.0)
        assert (first, second) == (pytest.approx(1.0), pytest.approx(2.0))

    def test_serial_items_never_overlap(self):
        cpu = VirtualCPU(cores=8)
        cpu.trace = []
        for i in range(20):
            cpu.submit("execute", 0.5, not_before=0.1 * i)
        intervals = [(s, e) for kind, _, s, e in cpu.trace if kind == "execute"]
        assert overlapping(intervals) == []

    def test_never_more_lanes_than_cores(self):
        cpu = VirtualCPU(cores=3)
        cpu.trace = []
        cpu.submit_many("verify", [1.0] * 50, not_before=0.0)
        cpu.submit_many("hash", [0.5] * 20, not_before=0.0)
        assert {lane for _, lane, _, _ in cpu.trace} <= set(range(3))

    def test_within_lane_intervals_never_overlap(self):
        cpu = VirtualCPU(cores=4)
        cpu.trace = []
        for i in range(30):
            cpu.submit_many("verify", [0.3, 0.7], not_before=0.05 * i)
            cpu.submit("execute", 0.2, not_before=0.05 * i)
        for lane in range(4):
            intervals = [(s, e) for _, l, s, e in cpu.trace if l == lane]
            assert overlapping(intervals) == []

    def test_serial_lanes_pinned_modulo_cores(self):
        cpu = VirtualCPU(cores=2)  # execute policy lane 1, append lane 2 -> 0
        cpu.trace = []
        cpu.submit("execute", 1.0, not_before=0.0)
        cpu.submit("append", 1.0, not_before=0.0)
        lanes = {kind: lane for kind, lane, _, _ in cpu.trace}
        assert lanes == {"execute": 1, "append": 0}

    def test_unknown_kind_defaults_to_serial_lane_zero(self):
        cpu = VirtualCPU(cores=4)
        cpu.trace = []
        cpu.submit("mystery", 1.0, not_before=0.0)
        cpu.submit("mystery", 1.0, not_before=0.0)
        assert [lane for _, lane, _, _ in cpu.trace] == [0, 0]
        assert cpu.lane_free(0) == pytest.approx(2.0)

    def test_policy_override_pins_parallel_kind(self):
        # The Fabric 2.2 baseline pins verify: items must serialize.
        cpu = VirtualCPU(cores=8, policies={"verify": 1})
        done = cpu.submit_many("verify", [1.0] * 4, not_before=0.0)
        assert done == pytest.approx(4.0)

    def test_single_core_serializes_everything(self):
        cpu = VirtualCPU(cores=1)
        cpu.submit("verify", 1.0, not_before=0.0)
        cpu.submit("execute", 1.0, not_before=0.0)
        assert cpu.completion_time() == pytest.approx(2.0)

    def test_busy_between_is_exact(self):
        cpu = VirtualCPU(cores=2)
        cpu.trace = []
        cpu.submit("execute", 2.0, not_before=0.0)  # lane 1: [0, 2]
        busy = cpu.busy_between(1.0, 3.0)
        assert busy[1] == pytest.approx(1.0)  # half the item is inside
        assert busy[0] == 0.0
        assert cpu.utilization_between(1.0, 3.0)[1] == pytest.approx(0.5)

    def test_busy_between_requires_trace(self):
        cpu = VirtualCPU(cores=2)
        with pytest.raises(SimulationError):
            cpu.busy_between(0.0, 1.0)

    def test_negative_work_rejected(self):
        cpu = VirtualCPU(cores=2)
        with pytest.raises(SimulationError):
            cpu.submit("verify", -1.0, not_before=0.0)
        with pytest.raises(SimulationError):
            VirtualCPU(cores=0)

    def test_busy_accounting_by_kind(self):
        cpu = VirtualCPU(cores=4)
        cpu.submit_many("verify", [1.0] * 3, not_before=0.0)
        cpu.submit("execute", 0.5, not_before=0.0)
        by_kind = cpu.busy_by_kind()
        assert by_kind["verify"] == pytest.approx(3.0)
        assert by_kind["execute"] == pytest.approx(0.5)
        assert sum(cpu.busy_seconds()) == pytest.approx(3.5)


class _ReferenceCPU(VirtualCPU):
    """The lane rule ``free.index(min(free))`` replaced: the first lane
    with the smallest busy-until, found with a key function."""

    def _lane_for(self, kind):
        policy = self.policies.get(kind, 0)
        if policy == "parallel":
            return min(range(self.cores), key=lambda i: self._free[i])
        return int(policy) % self.cores


@pytest.mark.parametrize("seed, cores", [(0, 1), (1, 3), (2, 4), (3, 8)])
def test_lane_choice_matches_the_key_function_rule(seed, cores):
    """Whole-tick costs and release times make busy-until ties common;
    each tie goes to the lowest lane under both rules."""
    rng = random.Random(seed)
    cpu, reference = VirtualCPU(cores=cores), _ReferenceCPU(cores=cores)
    cpu.trace, reference.trace = [], []
    kinds = list(cpu.policies) + ["unknown"]
    ties = 0
    for _ in range(2000):
        kind = rng.choice(kinds)
        seconds = rng.choice([0.0, 0.5, 1.0, 1.0, 2.0])
        not_before = float(rng.randrange(0, 200)) / 2
        free = list(cpu._free)
        ties += free.count(min(free)) > 1
        assert cpu.backlog(kind, not_before) == reference.backlog(kind, not_before)
        assert cpu.submit(kind, seconds, not_before) == reference.submit(kind, seconds, not_before)
    assert cpu.trace == reference.trace
    assert cores == 1 or ties > 100


class TestNodeActivities:
    class Worker(Node):
        def __init__(self, cores):
            super().__init__("w", cores=cores)
            self.frontiers = []

        def on_message(self, src, msg):
            kind, items = msg
            if len(items) == 1:
                self.submit(kind, items[0])
            else:
                self.submit_many(kind, items)
            self.frontiers.append(self.cpu_time())

    def _net(self, cores):
        net = SimNetwork(latency=constant_latency(0.0))
        worker = self.Worker(cores)
        driver = _Driver()
        net.register(worker)
        net.register(driver)
        return net, worker, driver

    def test_frontier_joins_on_parallel_batch(self):
        net, worker, driver = self._net(cores=4)
        driver.send("w", ("verify", [1.0] * 8))
        net.run()
        assert worker.frontiers == [pytest.approx(2.0)]

    def test_activities_overlap_on_different_lanes(self):
        net, worker, driver = self._net(cores=4)
        driver.send("w", ("execute", [1.0]))
        driver.send("w", ("verify", [1.0]))
        net.run()
        # Both messages arrive at ~0; the verify does not queue behind
        # the execute — the serial timeline is gone.
        assert worker.frontiers == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_timer_callbacks_run_as_activities(self):
        net, worker, driver = self._net(cores=4)
        fired = []
        worker.set_timer(1.0, lambda: fired.append(worker.submit("execute", 0.5)))
        net.run()
        assert fired == [pytest.approx(1.5)]


class _Driver(Node):
    def __init__(self):
        super().__init__("driver")

    def on_message(self, src, msg):
        pass


class TestArrivalProcesses:
    def test_fixed_rate_spacing(self):
        arr = FixedRateArrivals(100.0)
        assert arr.due(0.0) == 0  # primes: first arrival at +10 ms
        assert arr.due(0.0105) == 1
        assert arr.due(0.1) == 9  # arrivals at 20, 30, ..., 100 ms

    def test_poisson_deterministic_given_seed(self):
        a = PoissonArrivals(1000.0, seed=42)
        b = PoissonArrivals(1000.0, seed=42)
        assert [a.interarrival() for _ in range(50)] == [b.interarrival() for _ in range(50)]

    def test_poisson_seeds_differ(self):
        a = PoissonArrivals(1000.0, seed=1)
        b = PoissonArrivals(1000.0, seed=2)
        assert [a.interarrival() for _ in range(10)] != [b.interarrival() for _ in range(10)]

    def test_poisson_mean_rate(self):
        arr = PoissonArrivals(1000.0, seed=7)
        arr.due(0.0)  # prime the process at t=0
        n = arr.due(1.0)  # arrivals in one second
        assert 850 < n < 1150

    def test_delay_until_next_floors_at_min_tick(self):
        arr = FixedRateArrivals(1e6)
        arr.due(0.0)
        assert arr.delay_until_next(0.0) == pytest.approx(1e-3)
        slow = FixedRateArrivals(10.0)
        slow.due(0.0)
        assert slow.delay_until_next(0.0) == pytest.approx(0.1)

    def test_make_arrivals(self):
        assert isinstance(make_arrivals("fixed", 10.0), FixedRateArrivals)
        assert isinstance(make_arrivals("poisson", 10.0, seed=3), PoissonArrivals)
        with pytest.raises(ValueError):
            make_arrivals("uniform", 10.0)
        with pytest.raises(ValueError):
            make_arrivals("fixed", 0.0)


class TestLatencyStatsCache:
    def test_record_invalidates_sorted_view(self):
        stats = LatencyStats()
        for v in (3.0, 1.0, 2.0):
            stats.record(v)
        assert stats.p50() == 2.0
        stats.record(0.1)  # must invalidate the cached sort
        assert stats.p50() == 1.0
        assert stats.percentile(100) == 3.0

    def test_p90(self):
        stats = LatencyStats()
        for v in range(1, 11):
            stats.record(float(v))
        assert stats.p90() == 9.0

    def test_summary_includes_p90(self):
        m = MetricsCollector()
        m.latency.record(1.0)
        assert "latency_p90_ms" in m.summary()

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 999, 1000, 1001, 5000])
    def test_packed_samples_report_what_a_list_would(self, n):
        """Samples are packed doubles; every statistic equals the one a
        list of the same floats gives (nearest rank, left-to-right sum)."""
        rng = random.Random(n)
        samples = [rng.expovariate(200.0) * rng.choice((1, 1, 1, 50)) for _ in range(n)]
        stats = LatencyStats()
        for v in samples:
            stats.record(v)
        ordered = sorted(samples)

        def nearest_rank(p):
            return ordered[max(1, math.ceil(p / 100.0 * n)) - 1] if n else 0.0

        assert stats.count == n
        assert stats.p50() == nearest_rank(50) and stats.p90() == nearest_rank(90)
        assert stats.p99() == nearest_rank(99) and stats.p999() == nearest_rank(99.9)
        assert stats.mean() == (sum(samples) / n if n else 0.0)
        assert stats.max() == (max(samples) if n else 0.0)


class TestDeploymentIntegration:
    def _run_poisson(self, seed):
        dep = build_deployment(params=FAST_PARAMS, accounts=200)
        load = dep.add_load_generator(
            SmallBankWorkload(n_accounts=200, seed=5),
            rate=2_000,
            stop_at=0.25,
            arrivals=PoissonArrivals(2_000, seed=seed),
            verify_receipts=False,
            retry_timeout=5.0,
        )
        dep.start()
        dep.run(until=1.0)
        lat = load.metrics.latency
        return (
            load.submitted,
            dep.replicas[0].committed_upto,
            [round(s, 12) for s in lat._samples],
        )

    def test_seeded_open_loop_run_is_deterministic(self):
        assert self._run_poisson(9) == self._run_poisson(9)

    def test_different_seeds_change_the_schedule(self):
        assert self._run_poisson(1)[2] != self._run_poisson(2)[2]

    def test_replica_stage_lanes(self):
        """Execution never overlaps itself; bursts of client-signature
        verification really do fan out across lanes."""
        dep = build_deployment(params=FAST_PARAMS, accounts=200)
        replica = dep.replicas[1]  # a backup: verifies and re-executes
        replica.cpu.trace = []
        client = dep.add_client(retry_timeout=5.0)
        dep.start()
        wl = SmallBankWorkload(n_accounts=200, seed=3)
        for _ in range(30):
            client.submit(*wl.next_transaction(), min_index=0)
        dep.run(until=2.0)
        trace = replica.cpu.trace
        assert {lane for _, lane, _, _ in trace} <= set(range(replica.cpu.cores))
        execs = [(s, e) for kind, _, s, e in trace if kind == "execute"]
        assert execs and overlapping(execs) == []
        verify_lanes = {lane for kind, lane, _, _ in trace if kind == "verify"}
        assert len(verify_lanes) > 1  # the burst really used multiple lanes

    def test_queue_delay_recorded_at_primary(self):
        dep = build_deployment(params=FAST_PARAMS, accounts=200)
        client = dep.add_client(retry_timeout=5.0)
        dep.start()
        wl = SmallBankWorkload(n_accounts=200, seed=3)
        for _ in range(10):
            client.submit(*wl.next_transaction(), min_index=0)
        dep.run(until=2.0)
        assert dep.metrics.queue_delay.count >= 10
        assert "queue_delay_mean_ms" in dep.metrics.summary()


class TestPerLaneUtilizationReporting:
    def test_bench_point_reports_one_fraction_per_lane(self):
        from repro.bench import run_iaccf_point
        from repro.sim.costs import DEDICATED_CLUSTER

        point = run_iaccf_point(
            rate=1_000, duration=0.2, warmup=0.05, accounts=1_000,
            lane_metrics=True,
        )
        lanes = point.extra["lane_utilization"]
        assert len(lanes) == DEDICATED_CLUSTER.cores
        assert all(0.0 <= u <= 1.0 for u in lanes)
        assert sum(lanes) > 0.0
        assert point.extra["offered_tps"] > 0
        assert point.extra["goodput_tps"] > 0

    def test_collector_summary_carries_lane_utilization(self):
        m = MetricsCollector()
        m.record_lane_utilization([0.5, 0.25])
        assert m.summary()["lane_utilization"] == [0.5, 0.25]
