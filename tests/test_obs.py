"""Observability layer: instruments, span tracing, sampling, export.

Covers the PR 7 acceptance criteria directly: the disabled path is a
true no-op (no spans, no contexts, no per-request allocations), same
seed produces a byte-identical Perfetto export, and a single traced
request on a 4-replica deployment yields the full causal chain with
stage durations that telescope exactly to the measured end-to-end
latency.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import SimulationError
from repro.lpbft import Deployment
from repro.obs import (
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PeriodicSampler,
    Tracer,
    perfetto_trace,
    request_stages,
    spans_from_trace,
    stage_breakdown,
    write_perfetto,
)
from repro.obs.__main__ import main as obs_main
from repro.sim.cpu import VirtualCPU
from repro.sim.metrics import LatencyStats, MetricsCollector
from repro.workloads import register_noop


# -- instruments ----------------------------------------------------------------


class TestInstruments:
    def test_counter_labels_sum_to_total(self):
        c = Counter("shed")
        c.inc(2, reason="overloaded")
        c.inc(1, reason="deadline")
        c.inc(1)  # unlabeled series
        assert c.value() == 4
        assert c.value(reason="overloaded") == 2
        assert c.value(reason="deadline") == 1
        assert "reason=deadline" in c.series()

    def test_counter_rejects_negative(self):
        c = Counter("x")
        with pytest.raises(SimulationError):
            c.inc(-1)

    def test_gauge_set_inc_dec(self):
        g = Gauge("depth")
        g.set(5, lane=0)
        g.inc(2, lane=0)
        g.dec(1, lane=0)
        assert g.value(lane=0) == 6

    def test_histogram_is_latency_stats(self):
        h = Histogram("lat")
        for v in (0.1, 0.2, 0.3):
            h.observe(v)
        assert isinstance(h, LatencyStats)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["max"] == pytest.approx(0.3)

    def test_registry_get_or_create_and_type_check(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        with pytest.raises(SimulationError):
            reg.gauge("a")
        dump = reg.collect()
        assert "a" in dump["counters"]

    def test_collector_keeps_counters_shape(self):
        m = MetricsCollector()
        m.bump("requests_shed", reason="overloaded")
        m.bump("requests_shed", 2, reason="deadline")
        assert m.counters["requests_shed"] == 3
        assert m.counter_value("requests_shed", reason="deadline") == 2
        assert m.summary()["counters"]["requests_shed"] == 3

    def test_latency_p999_degenerates_to_max_when_sparse(self):
        ls = LatencyStats()
        for v in (0.1, 0.9):
            ls.record(v)
        assert ls.p999() == 0.9
        assert "latency_p999_ms" in MetricsCollector().summary()


# -- deployment helpers ---------------------------------------------------------


def _run_one_request(traced: bool):
    dep = Deployment(n_replicas=4, registry_setup=register_noop)
    tracer = dep.enable_tracing() if traced else None
    client = dep.add_client("c1")
    dep.start()
    client.submit("noop", {}, min_index=0)
    dep.run(until=5.0)
    assert client.receipts  # request completed
    return dep, tracer, client


# -- no-op path -----------------------------------------------------------------


class TestDisabledPath:
    def test_null_tracer_returns_none(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.root_span("x", "n", 0.0) is None
        assert NULL_TRACER.span("x", "n", 0.0) is None
        assert NULL_TRACER.annotate("x", "n", 0.0) is None

    def test_untraced_run_allocates_nothing(self):
        dep, _, client = _run_one_request(traced=False)
        for node in [*dep.replicas, *dep.clients]:
            assert node.tracer is NULL_TRACER
            assert node._send_ctx is None
            assert node._inbound_ctx is None
        for replica in dep.replicas:
            assert replica.admission.trace_ctxs == {}
        assert client._root_spans == {}

    def test_tracing_does_not_change_outcomes(self):
        dep_a, _, client_a = _run_one_request(traced=False)
        dep_b, _, client_b = _run_one_request(traced=True)
        assert [r.committed_upto for r in dep_a.replicas] == [
            r.committed_upto for r in dep_b.replicas]
        assert client_a.metrics.latency.mean() == client_b.metrics.latency.mean()


# -- causal chain (acceptance) --------------------------------------------------


class TestCausalChain:
    def test_single_request_full_chain(self):
        dep, tracer, client = _run_one_request(traced=True)
        spans = tracer.finished_spans()
        names = [s.name for s in spans]
        assert names.count("request") == 1
        assert names.count("admission") == 1  # primary only
        assert names.count("stash") == 3  # each backup
        assert names.count("pre-prepare") == 1
        assert names.count("accept-pre-prepare") == 3
        assert names.count("execute") == 4
        assert names.count("quorum") == 4
        assert names.count("receipt") == 1
        root = next(s for s in spans if s.name == "request")
        assert root.parent_id is None
        # Every span belongs to the request's trace, parented within it.
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            assert span.trace_id == root.trace_id
            if span.parent_id is not None:
                assert span.parent_id in by_id
        # The backups' accept spans hang off the primary's pre-prepare.
        pp = next(s for s in spans if s.name == "pre-prepare")
        accepts = [s for s in spans if s.name == "accept-pre-prepare"]
        assert all(s.parent_id == pp.span_id for s in accepts)

    def test_stages_telescope_to_e2e_latency(self):
        dep, tracer, client = _run_one_request(traced=True)
        row = request_stages(tracer.spans)
        assert row is not None
        assert sum(row["stages"].values()) == pytest.approx(row["e2e_s"], abs=1e-12)
        # and e2e matches what the client measured
        assert row["e2e_s"] == pytest.approx(client.metrics.latency.mean())
        breakdown = stage_breakdown(tracer)
        assert breakdown["requests"] == 1
        stage_sum = sum(v["mean_ms"] for v in breakdown["stages"].values())
        assert stage_sum == pytest.approx(breakdown["e2e"]["mean_ms"], abs=1e-9)


# -- export determinism ---------------------------------------------------------


def _export_bytes(tmp_path, tag: str) -> bytes:
    dep = Deployment(n_replicas=4, registry_setup=register_noop)
    tracer = dep.enable_tracing()
    client = dep.add_client("c1")
    dep.start()
    for i in range(3):
        client.submit("noop", {"i": i}, min_index=0)
    dep.run(until=5.0)
    path = tmp_path / f"trace_{tag}.json"
    write_perfetto(path, tracer, {r.address: r.cpu for r in dep.replicas})
    return path.read_bytes()


class TestExport:
    def test_same_seed_byte_identical(self, tmp_path):
        assert _export_bytes(tmp_path, "a") == _export_bytes(tmp_path, "b")

    def test_perfetto_shape_and_roundtrip(self, tmp_path):
        dep, tracer, _ = _run_one_request(traced=True)
        trace = perfetto_trace(tracer)
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert "X" in phases and "M" in phases
        # flow arrows exist for the cross-node client -> replica edges
        assert "s" in phases and "f" in phases
        spans = spans_from_trace(json.loads(json.dumps(trace)))
        assert len(spans) == len(tracer.finished_spans())
        row = request_stages(spans)
        assert row is not None
        assert sum(row["stages"].values()) == pytest.approx(row["e2e_s"], abs=1e-9)

    def test_summarize_cli(self, tmp_path, capsys):
        dep, tracer, _ = _run_one_request(traced=True)
        path = tmp_path / "trace.json"
        write_perfetto(path, tracer)
        assert obs_main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "requests: 1" in out
        assert "quorum" in out
        assert "critical path" in out


# -- sampler --------------------------------------------------------------------


class TestSampler:
    def test_rows_and_determinism(self):
        def run():
            dep = Deployment(n_replicas=4, registry_setup=register_noop)
            sampler = PeriodicSampler(dep, interval=0.5).install()
            client = dep.add_client("c1")
            dep.start()
            for i in range(4):
                client.submit("noop", {"i": i}, min_index=0)
            dep.run(until=2.0)
            return sampler

        a, b = run(), run()
        assert a.rows == b.rows
        replica_rows = a.series(kind="replica")
        assert replica_rows
        row = replica_rows[0]
        assert set(row) >= {"t", "goodput_tps", "lane_busy_fraction",
                            "stash_depth", "ledger_resident_entries"}
        assert sum(r["goodput_tps"] for r in replica_rows) > 0
        assert a.series(kind="clients")

    def test_bad_interval_rejected(self):
        dep = Deployment(n_replicas=4, registry_setup=register_noop)
        with pytest.raises(SimulationError):
            PeriodicSampler(dep, interval=0.0)


# -- windowed CPU utilization (satellite) ---------------------------------------


class TestWindowedUtilization:
    def test_matches_trace_based_computation(self):
        a, b = VirtualCPU(cores=4), VirtualCPU(cores=4)
        a.trace = []
        b.enable_utilization_tracking()
        work = [("verify", 0.004), ("execute", 0.01), ("hash", 0.002),
                ("append", 0.003), ("sign", 0.001), ("verify", 0.006)]
        for t in (0.0, 0.005, 0.012, 0.02):
            for kind, cost in work:
                a.submit(kind, cost, t)
                b.submit(kind, cost, t)
        for window in ((0.0, 0.05), (0.004, 0.02), (0.01, 0.011)):
            assert b.busy_window(*window) == pytest.approx(
                a.busy_between(*window))
            assert b.utilization_window(*window) == pytest.approx(
                a.utilization_between(*window))

    def test_requires_enabling(self):
        cpu = VirtualCPU(cores=2)
        with pytest.raises(SimulationError):
            cpu.busy_up_to(1.0)

    def test_queries_are_pure_and_order_independent(self):
        cpu = VirtualCPU(cores=2)
        cpu.enable_utilization_tracking()
        cpu.submit("verify", 0.01, 0.0)
        late = cpu.busy_up_to(1.0)
        early = cpu.busy_up_to(0.005)
        assert cpu.busy_up_to(1.0) == late  # repeatable
        assert early[0] == pytest.approx(0.005)
        assert late[0] == pytest.approx(0.01)
