"""Discrete-event core and simulated network: clocks, scheduling, CPU
accounting, latency models, fault injection."""

import pytest

from repro.errors import NetworkError, SimulationError
from repro.network import Node, SimNetwork, constant_latency, lan_latency, wan_latency
from repro.network.latency import REGIONS_WAN, cluster_latency
from repro.sim import EventScheduler, VirtualClock
from repro.sim.costs import CostModel
from repro.sim.metrics import LatencyStats, MetricsCollector, ThroughputMeter


class TestClockScheduler:
    def test_clock_monotone(self):
        clock = VirtualClock()
        clock.advance_to(1.0)
        with pytest.raises(SimulationError):
            clock.advance_to(0.5)

    def test_events_run_in_time_order(self):
        sched = EventScheduler()
        seen = []
        sched.at(2.0, lambda: seen.append("b"))
        sched.at(1.0, lambda: seen.append("a"))
        sched.run()
        assert seen == ["a", "b"]

    def test_ties_broken_by_insertion(self):
        sched = EventScheduler()
        seen = []
        sched.at(1.0, lambda: seen.append(1))
        sched.at(1.0, lambda: seen.append(2))
        sched.run()
        assert seen == [1, 2]

    def test_cancel(self):
        sched = EventScheduler()
        seen = []
        eid = sched.at(1.0, lambda: seen.append("x"))
        sched.cancel(eid)
        sched.run()
        assert seen == []

    def test_run_until_stops_clock_at_horizon(self):
        sched = EventScheduler()
        sched.at(5.0, lambda: None)
        sched.run(until=2.0)
        assert sched.now == 2.0
        sched.run()
        assert sched.now == 5.0

    def test_cannot_schedule_in_past(self):
        sched = EventScheduler()
        sched.at(1.0, lambda: None)
        sched.run()
        with pytest.raises(SimulationError):
            sched.at(0.5, lambda: None)

    def test_after_relative(self):
        sched = EventScheduler()
        fired = []
        sched.at(1.0, lambda: sched.after(0.5, lambda: fired.append(sched.now)))
        sched.run()
        assert fired == [1.5]


class TestCostModel:
    def test_kv_op_grows_with_store(self):
        costs = CostModel()
        assert costs.kv_op(1_000_000) > costs.kv_op(1_000)

    def test_parallel_helper_is_gone(self):
        # Wall-clock parallelism now comes from VirtualCPU lane
        # scheduling; no caller may divide costs by the core count.
        assert not hasattr(CostModel, "parallel")

    def test_scaled_override(self):
        costs = CostModel().scaled(sign=1.0)
        assert costs.sign == 1.0

    def test_execute_tx_combines(self):
        costs = CostModel()
        assert costs.execute_tx(3, 1000) == pytest.approx(
            costs.exec_overhead + 3 * costs.kv_op(1000)
        )


class TestMetrics:
    def test_latency_percentiles(self):
        stats = LatencyStats()
        for v in [1.0, 2.0, 3.0, 4.0]:
            stats.record(v)
        assert stats.mean() == 2.5
        assert stats.p50() == 2.0
        assert stats.max() == 4.0
        assert stats.percentile(100) == 4.0

    def test_empty_latency(self):
        stats = LatencyStats()
        assert stats.mean() == 0.0 and stats.p99() == 0.0

    def test_throughput_window(self):
        meter = ThroughputMeter()
        meter.start_window(1.0)
        meter.record_commit(0.5, 10)  # before window: ignored
        meter.record_commit(1.5, 10)
        meter.end_window(2.0)
        meter.record_commit(2.5, 10)  # after window: ignored
        assert meter.throughput() == 10.0

    def test_collector_counters(self):
        m = MetricsCollector()
        m.bump("x")
        m.bump("x", 2)
        assert m.summary()["counters"]["x"] == 3


class Echo(Node):
    def __init__(self, address, site="local"):
        super().__init__(address, site)
        self.received = []

    def on_message(self, src, msg):
        self.received.append((src, msg, self.now))
        if msg == "ping":
            self.send(src, "pong")


class TestSimNetwork:
    def test_delivery_with_latency(self):
        net = SimNetwork(latency=constant_latency(0.010))
        a, b = Echo("a"), Echo("b")
        net.register(a)
        net.register(b)
        a.send("b", "ping")
        net.run()
        assert b.received[0][1] == "ping"
        assert b.received[0][2] == pytest.approx(0.010, rel=0.2)
        assert a.received[0][1] == "pong"

    def test_duplicate_address_rejected(self):
        net = SimNetwork()
        net.register(Echo("a"))
        with pytest.raises(NetworkError):
            net.register(Echo("a"))

    def test_unknown_destination(self):
        net = SimNetwork()
        net.register(Echo("a"))
        with pytest.raises(NetworkError):
            net.node("a").send("nowhere", "x")

    def test_partition_blocks_both_ways(self):
        net = SimNetwork()
        a, b = Echo("a"), Echo("b")
        net.register(a)
        net.register(b)
        net.partition({"a"}, {"b"})
        a.send("b", "ping")
        net.run()
        assert b.received == []
        net.heal_partitions()
        a.send("b", "ping")
        net.run()
        assert len(b.received) == 1

    def test_drop_rule(self):
        net = SimNetwork()
        a, b = Echo("a"), Echo("b")
        net.register(a)
        net.register(b)
        net.add_drop_rule(lambda src, dst, msg: msg == "ping")
        a.send("b", "ping")
        a.send("b", "other")
        net.run()
        assert [m for _, m, _ in b.received] == ["other"]

    def test_serial_work_from_two_messages_chains_on_one_lane(self):
        class Busy(Node):
            def __init__(self):
                super().__init__("busy", cores=4)
                self.done_at = []

            def on_message(self, src, msg):
                self.done_at.append(self.submit("execute", 1.0))

        net = SimNetwork(latency=constant_latency(0.0))
        busy = Busy()
        sender = Echo("s")
        net.register(busy)
        net.register(sender)
        sender.send("busy", 1)
        sender.send("busy", 2)
        net.run()
        # Both arrive at ~0, but execution is a serial-lane kind: the
        # second item queues behind the first even with idle lanes.
        assert busy.done_at == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_parallel_work_from_two_messages_overlaps(self):
        class Verifier(Node):
            def __init__(self):
                super().__init__("v", cores=4)
                self.done_at = []

            def on_message(self, src, msg):
                self.done_at.append(self.submit("verify", 1.0))

        net = SimNetwork(latency=constant_latency(0.0))
        v = Verifier()
        sender = Echo("s")
        net.register(v)
        net.register(sender)
        sender.send("v", 1)
        sender.send("v", 2)
        net.run()
        # Verification fans out: the two items land on different lanes
        # and complete together instead of serializing.
        assert v.done_at == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_bytes_and_messages_counted(self):
        net = SimNetwork()
        a, b = Echo("a"), Echo("b")
        net.register(a)
        net.register(b)
        a.send("b", "ping", size=100)
        net.run()
        assert net.messages_sent >= 1
        assert net.bytes_sent >= 100


class TestLatencyModels:
    def test_wan_cross_region_slower_than_local(self):
        model = wan_latency()
        local = model.one_way(REGIONS_WAN[0], REGIONS_WAN[0])
        cross = model.one_way(REGIONS_WAN[0], REGIONS_WAN[1])
        assert cross > local * 10

    def test_wan_symmetric(self):
        model = wan_latency()
        assert model.one_way(REGIONS_WAN[0], REGIONS_WAN[1]) == model.one_way(
            REGIONS_WAN[1], REGIONS_WAN[0]
        )

    def test_transfer_delay_scales_with_size(self):
        model = lan_latency()
        assert model.transfer_delay(10_000) == pytest.approx(10 * model.transfer_delay(1_000))

    def test_cluster_faster_than_lan(self):
        assert cluster_latency().one_way("a", "a") < lan_latency().one_way("a", "a")


class TestSchedulerEngine:
    """Heap-engine features added by the hot-path overhaul."""

    def test_peek_time_skips_cancelled(self):
        sched = EventScheduler()
        eid = sched.at(1.0, lambda: None)
        sched.at(2.0, lambda: None)
        sched.cancel(eid)
        assert sched.peek_time() == 2.0

    def test_pending_active_tracks_cancellations(self):
        sched = EventScheduler()
        ids = [sched.at(1.0 + i, lambda: None) for i in range(5)]
        for eid in ids[:3]:
            sched.cancel(eid)
        assert sched.pending_active == 2

    def test_cancel_unknown_id_is_noop(self):
        sched = EventScheduler()
        sched.cancel(12345)
        sched.at(1.0, lambda: None)
        sched.run()
        assert sched.events_processed == 1

    def test_every_repeats_until_cancelled(self):
        sched = EventScheduler()
        fired = []
        eid = sched.every(1.0, lambda: fired.append(sched.now))
        sched.run(until=3.5)
        assert fired == [1.0, 2.0, 3.0]
        sched.cancel(eid)
        sched.run(until=6.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_every_with_start(self):
        sched = EventScheduler()
        fired = []
        sched.every(2.0, lambda: fired.append(sched.now), start=0.5)
        sched.run(until=5.0)
        assert fired == [0.5, 2.5, 4.5]

    def test_repeating_callback_can_cancel_itself(self):
        sched = EventScheduler()
        fired = []
        def cb():
            fired.append(sched.now)
            if len(fired) == 2:
                sched.cancel(eid)
        eid = sched.every(1.0, cb)
        sched.run(until=10.0)
        assert fired == [1.0, 2.0]

    def test_bad_interval_rejected(self):
        sched = EventScheduler()
        with pytest.raises(SimulationError):
            sched.every(0.0, lambda: None)

    def test_equal_time_events_pop_in_insertion_order(self):
        """Heap entries are ``(time, seq, event)``: at one time, events
        run in the order they were scheduled, a repeating event re-armed
        onto a later tick keeps its original place there, and a
        cancelled one leaves no gap."""
        sched = EventScheduler()
        fired = []
        ids = {}
        def note(name):
            return lambda: fired.append((sched.now, name))
        ids["r1"] = sched.every(1.0, note("r1"))
        for i in range(6):
            ids[i] = sched.at(1.0, note(i))
        ids["r2"] = sched.every(0.5, note("r2"))
        ids["late"] = sched.at(2.0, note("late"))
        sched.cancel(ids[2])
        sched.cancel(ids[4])
        sched.at(1.0, lambda: sched.cancel(ids["late"]) or fired.append((sched.now, "x")))
        sched.run(until=2.0)
        assert fired == [
            (0.5, "r2"),
            (1.0, "r1"), (1.0, 0), (1.0, 1), (1.0, 3), (1.0, 5), (1.0, "r2"), (1.0, "x"),
            (1.5, "r2"),
            (2.0, "r1"), (2.0, "r2"),
        ]
        assert sched.events_processed == len(fired)
        assert sched.pending_active == 2


class TestWanTopologies:
    def test_latency_matrix_builder(self):
        from repro.network import latency_matrix

        model = latency_matrix("m", {("a", "b"): 10.0}, default_delay_ms=0.5)
        assert model.one_way("a", "b") == pytest.approx(10e-3)
        assert model.one_way("b", "a") == pytest.approx(10e-3)  # symmetric
        assert model.one_way("a", "a") == pytest.approx(0.5e-3)

    def test_latency_matrix_asymmetric(self):
        from repro.network import latency_matrix

        model = latency_matrix(
            "asym", {("a", "b"): 30.0}, default_delay_ms=1.0, symmetric=False
        )
        assert model.one_way("a", "b") == pytest.approx(30e-3)
        assert model.one_way("b", "a") == pytest.approx(1e-3)

    def test_regions_matrix_builder(self):
        from repro.network import regions_matrix

        model = regions_matrix("r", ("x", "y"), [[0.0, 5.0], [7.0, 0.0]])
        assert model.one_way("x", "y") == pytest.approx(5e-3)
        assert model.one_way("y", "x") == pytest.approx(7e-3)

    def test_regions_matrix_shape_checked(self):
        from repro.network import regions_matrix

        with pytest.raises(ValueError):
            regions_matrix("bad", ("x", "y"), [[0.0, 5.0]])

    def test_with_asymmetry_preserves_rtt(self):
        from repro.network import with_asymmetry

        base = wan_latency()
        skewed = with_asymmetry(base, 2.0)
        a, b = REGIONS_WAN[0], REGIONS_WAN[1]
        rtt_base = base.one_way(a, b) + base.one_way(b, a)
        rtt_skew = skewed.one_way(a, b) + skewed.one_way(b, a)
        assert skewed.one_way(a, b) != skewed.one_way(b, a)
        # factor + 1/factor on equal halves: RTT grows by (2 + 0.5) / 2.
        assert rtt_skew == pytest.approx(rtt_base * 1.25)

    def test_global_wan_five_regions(self):
        from repro.network import REGIONS_GLOBAL, global_wan

        model = global_wan()
        for src in REGIONS_GLOBAL:
            for dst in REGIONS_GLOBAL:
                if src != dst:
                    assert model.one_way(src, dst) > model.one_way(src, src)


class TestScheduledPartitions:
    def _pair(self, net):
        a, b = Echo("a"), Echo("b")
        net.register(a)
        net.register(b)
        return a, b

    def test_partition_ids_heal_selectively(self):
        net = SimNetwork()
        a, b = self._pair(net)
        c = Echo("c")
        net.register(c)
        p1 = net.partition({"a"}, {"b"})
        p2 = net.partition({"a"}, {"c"})
        net.heal(p1)
        a.send("b", "x")
        a.send("c", "y")
        net.run()
        assert [m for _, m, _ in b.received] == ["x"]
        assert c.received == []
        net.heal(p2)
        a.send("c", "y2")
        net.run()
        assert [m for _, m, _ in c.received] == ["y2"]

    def test_partition_between_applies_and_heals_on_schedule(self):
        net = SimNetwork(latency=constant_latency(0.001))
        a, b = self._pair(net)
        net.partition_between({"a"}, {"b"}, start=1.0, duration=2.0)
        # Before the partition starts: delivered.
        a.send("b", "before")
        net.run(until=0.5)
        # During [1.0, 3.0): dropped.
        net.scheduler.at(1.5, lambda: a.send("b", "during"))
        # After auto-heal: delivered, no manual intervention.
        net.scheduler.at(3.5, lambda: a.send("b", "after"))
        net.run(until=5.0)
        assert [m for _, m, _ in b.received if m != "pong"] == ["before", "after"]
        assert net.messages_dropped == 1

    def test_isolate_cuts_node_both_ways(self):
        net = SimNetwork()
        a, b = self._pair(net)
        net.isolate("a", duration=1.0)
        a.send("b", "x")
        b.send("a", "y")
        net.run(until=0.5)
        assert b.received == [] and a.received == []
        net.scheduler.at(1.5, lambda: a.send("b", "late"))
        net.run(until=2.0)
        assert [m for _, m, _ in b.received] == ["late"]

    def test_drop_rule_counts_drops(self):
        net = SimNetwork()
        a, b = self._pair(net)
        net.add_drop_rule(lambda src, dst, msg: True)
        a.send("b", "x")
        net.run()
        assert net.messages_dropped == 1


class TestThreeRegionScenario:
    def test_three_region_matrix_run_completes(self):
        """A SmallBank deployment over a 3-region latency matrix commits
        transactions end to end."""
        from repro.bench import wan_sites
        from repro.lpbft import ProtocolParams
        from repro.workloads import SmallBankWorkload

        from helpers import build_deployment

        params = ProtocolParams(
            pipeline=2, max_batch=20, checkpoint_interval=50,
            batch_delay=0.001, view_change_timeout=10.0,
        )
        dep = build_deployment(params=params, latency=wan_latency(), sites=wan_sites(4))
        client = dep.add_client(site=REGIONS_WAN[0], retry_timeout=2.0)
        dep.start()
        wl = SmallBankWorkload(n_accounts=200, seed=3)
        digests = [client.submit(*wl.next_transaction(), min_index=0) for _ in range(25)]
        dep.run(until=8.0)
        assert dep.committed_seqnos()[0] >= 1
        assert dep.ledgers_agree()
        assert len(client.receipts) == len(digests)
        # Commit latency reflects cross-region round trips, not LAN speeds.
        assert client.metrics.latency.mean() > 10e-3


class TestReviewRegressions:
    """Fixes from the PR 1 review pass."""

    def test_unbounded_run_with_only_repeating_events_raises(self):
        sched = EventScheduler()
        sched.every(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sched.run()  # no until/max_events: would never terminate

    def test_unbounded_run_ok_after_repeat_cancelled(self):
        sched = EventScheduler()
        eid = sched.every(1.0, lambda: None)
        sched.cancel(eid)
        sched.at(0.5, lambda: None)
        sched.run()
        assert sched.events_processed == 1

    def test_bounded_run_with_repeating_events_ok(self):
        sched = EventScheduler()
        fired = []
        sched.every(1.0, lambda: fired.append(sched.now))
        sched.run(max_events=2)
        assert fired == [1.0, 2.0]

    def test_with_asymmetry_rejects_default_only_models(self):
        from repro.network import with_asymmetry

        with pytest.raises(ValueError):
            with_asymmetry(lan_latency(), 2.0)
        with pytest.raises(ValueError):
            with_asymmetry(constant_latency(0.001), 2.0)

    def test_regions_matrix_honors_nonzero_diagonal(self):
        from repro.network import regions_matrix

        model = regions_matrix("diag", ("x", "y"), [[5.0, 10.0], [10.0, 0.0]])
        assert model.one_way("x", "x") == pytest.approx(5e-3)   # diagonal honored
        assert model.one_way("y", "y") == pytest.approx(0.25e-3)  # zero -> default


class TestReviewRegressionsRound2:
    def test_with_asymmetry_rejects_already_asymmetric_model(self):
        from repro.network import regions_matrix, with_asymmetry

        model = regions_matrix("r", ("x", "y"), [[0.0, 10.0], [50.0, 0.0]])
        with pytest.raises(ValueError):
            with_asymmetry(model, 2.0)

    def test_partition_window_entirely_in_past_is_noop(self):
        net = SimNetwork()
        a, b = Echo("a"), Echo("b")
        net.register(a)
        net.register(b)
        net.scheduler.at(2.0, lambda: None)
        net.run()
        assert net.scheduler.now == 2.0
        net.partition_between({"a"}, {"b"}, start=0.5, duration=1.0)  # ended at 1.5
        a.send("b", "x")
        net.run()
        assert [m for _, m, _ in b.received] == ["x"]

    def test_partition_heal_uses_absolute_window_end(self):
        net = SimNetwork(latency=constant_latency(0.0))
        a, b = Echo("a"), Echo("b")
        net.register(a)
        net.register(b)
        net.scheduler.at(1.0, lambda: None)
        net.run()  # now == 1.0
        # Window [0.5, 2.0): started in the past, heals at 2.0 — not 1.0+1.5.
        net.partition_between({"a"}, {"b"}, start=0.5, duration=1.5)
        net.scheduler.at(1.9, lambda: a.send("b", "blocked"))
        net.scheduler.at(2.1, lambda: a.send("b", "open"))
        net.run(until=3.0)
        assert [m for _, m, _ in b.received] == ["open"]
        assert net.messages_dropped == 1


def test_failed_every_does_not_corrupt_repeat_counter():
    """A rejected every() (start in the past) must not leak _repeat_live,
    which would make later unbounded runs raise spuriously."""
    sched = EventScheduler()
    sched.at(1.0, lambda: None)
    sched.run()  # now == 1.0
    with pytest.raises(SimulationError):
        sched.every(0.5, lambda: None, start=0.2)
    fired = []
    sched.at(2.0, lambda: fired.append(True))
    sched.run()  # must not raise "only repeating events remain"
    assert fired == [True]


class TestAdversarialFaults:
    """Message duplication and bounded reordering (state-sync PR)."""

    def _pair(self, net):
        a, b = Echo("a"), Echo("b")
        net.register(a)
        net.register(b)
        return a, b

    def test_duplicate_rule_delivers_extra_copies(self):
        net = SimNetwork(latency=constant_latency(0.001))
        a, b = self._pair(net)
        net.add_duplicate_rule(probability=1.0, copies=2)
        a.send("b", "x")
        net.run()
        assert [m for _, m, _ in b.received] == ["x", "x", "x"]
        assert net.messages_duplicated == 2

    def test_duplicate_rule_filters_by_rule(self):
        net = SimNetwork()
        a, b = self._pair(net)
        net.add_duplicate_rule(rule=lambda src, dst, msg: msg == "dup-me")
        a.send("b", "dup-me")
        a.send("b", "not-me")
        net.run()
        assert sorted(m for _, m, _ in b.received) == ["dup-me", "dup-me", "not-me"]

    def test_duplication_deterministic_given_seed(self):
        def run_once():
            net = SimNetwork()
            a, b = Echo("a"), Echo("b")
            net.register(a)
            net.register(b)
            net.add_duplicate_rule(probability=0.5, seed=42)
            for i in range(50):
                a.send("b", i)
            net.run()
            return net.messages_duplicated, [m for _, m, _ in b.received]

        first, second = run_once(), run_once()
        assert first == second
        assert 0 < first[0] < 50

    def test_reorder_within_window_bound(self):
        net = SimNetwork(latency=constant_latency(0.001))
        a, b = self._pair(net)
        net.set_reorder(0.005, seed=1)
        for i in range(30):
            a.send("b", i)
        net.run()
        received = [m for _, m, _ in b.received]
        assert sorted(received) == list(range(30))
        assert received != list(range(30))  # some pair actually swapped
        # Bounded: nothing arrives later than base latency + window.
        assert all(t <= 0.001 + 0.005 + 1e-9 for _, _, t in b.received)
        assert net.messages_reordered > 0

    def test_reorder_deterministic_given_seed(self):
        def run_once(seed):
            net = SimNetwork(latency=constant_latency(0.001))
            a, b = Echo("a"), Echo("b")
            net.register(a)
            net.register(b)
            net.set_reorder(0.004, seed=seed)
            for i in range(40):
                a.send("b", i)
            net.run()
            return [m for _, m, _ in b.received]

        assert run_once(7) == run_once(7)
        assert run_once(7) != run_once(8)

    def test_zero_window_disables_reorder(self):
        net = SimNetwork(latency=constant_latency(0.001))
        a, b = self._pair(net)
        net.set_reorder(0.004, seed=3)
        net.set_reorder(0.0)
        for i in range(20):
            a.send("b", i)
        net.run()
        assert [m for _, m, _ in b.received] == list(range(20))
        assert net.messages_reordered == 0

    def test_bad_parameters_rejected(self):
        net = SimNetwork()
        with pytest.raises(NetworkError):
            net.add_duplicate_rule(probability=1.5)
        with pytest.raises(NetworkError):
            net.add_duplicate_rule(copies=0)
        with pytest.raises(NetworkError):
            net.set_reorder(-1.0)
        with pytest.raises(NetworkError):
            net.set_reorder(0.01, probability=2.0)

    def test_clear_duplicate_rules(self):
        net = SimNetwork()
        a, b = self._pair(net)
        net.add_duplicate_rule()
        net.clear_duplicate_rules()
        a.send("b", "x")
        net.run()
        assert [m for _, m, _ in b.received] == ["x"]

    def test_duplicates_respect_partitions(self):
        net = SimNetwork()
        a, b = self._pair(net)
        net.add_duplicate_rule()
        net.partition({"a"}, {"b"})
        a.send("b", "x")
        net.run()
        assert b.received == []
        assert net.messages_duplicated == 0

    def test_lpbft_commits_under_duplication_and_reordering(self):
        from helpers import build_deployment, run_waves

        dep = build_deployment()
        dep.net.set_reorder(0.002, seed=42)
        dep.net.add_duplicate_rule(probability=0.3, seed=7)
        client = dep.add_client(retry_timeout=0.5)
        dep.start()
        digests = run_waves(dep, client)
        assert len(client.receipts) == len(digests)
        assert dep.net.messages_duplicated > 0
        assert dep.net.messages_reordered > 0
        assert dep.ledgers_agree()


def test_regions_matrix_upper_triangle_is_symmetric():
    """Zero cells mean 'unspecified': filling only the upper triangle
    falls back to the reverse direction, yielding a symmetric model."""
    from repro.network import regions_matrix

    model = regions_matrix("upper", ("x", "y"), [[0.0, 5.0], [0.0, 0.0]])
    assert model.one_way("x", "y") == pytest.approx(5e-3)
    assert model.one_way("y", "x") == pytest.approx(5e-3)  # not a 0-second link


class TestCrashModeling:
    """A crash is first-class network state, not a partition snapshot:
    it must hold against ``heal()``-all, against partitions registered
    while the node was down, and against nodes registered later."""

    def _pair(self, net):
        a, b = Echo("a"), Echo("b")
        net.register(a)
        net.register(b)
        return a, b

    def test_crash_survives_heal_before_recover(self):
        # Regression: a partition registered while a replica is crashed,
        # then healed *before* the recover, must not resurrect delivery.
        net = SimNetwork()
        a, b = self._pair(net)
        net.mark_crashed("b")
        net.partition({"a"}, {"b"})
        net.heal_partitions()  # heal-before-recover ordering
        a.send("b", "ping")
        b.send("a", "pong")
        net.run()
        assert b.received == []
        assert a.received == []
        net.mark_recovered("b")
        a.send("b", "ping")
        net.run()
        assert len(b.received) == 1

    def test_crash_holds_against_nodes_registered_later(self):
        net = SimNetwork()
        a = Echo("a")
        net.register(a)
        net.mark_crashed("a")
        c = Echo("c")
        net.register(c)  # joins after the crash; no snapshot could cover it
        c.send("a", "ping")
        net.run()
        assert a.received == []
        assert net.crashed_addresses() == frozenset({"a"})
        net.mark_recovered("a")
        assert net.crashed_addresses() == frozenset()
        c.send("a", "ping")
        net.run()
        assert len(a.received) == 1
