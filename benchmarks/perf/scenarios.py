"""The four benchmark workloads and the code that sets them up and runs them.

Every workload is an open loop: one ``LoadGenerator`` client submits
SmallBank transactions on a seeded Poisson schedule whatever the service
does.  The modelled machine is the paper's dedicated cluster — N=4
replicas (f=1), 8 CPU lanes each (``DEDICATED_CLUSTER``), 25 us one-way
delay at 40 Gbps (``cluster_latency()``) — so simulated latency is
CPU-lane time plus that injected delay.

Sizes are given at ``scale`` 1.0, which the runner derives from
``--seconds`` (``scale = seconds / 10``): only the measurement window
grows with ``scale``; warm-up, drain and the fault schedule are fixed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro import codec
from repro.audit import Auditor
from repro.byzantine import forge_alternate_output
from repro.enforcement.enforcer import make_enforcer
from repro.lpbft import Deployment, ProtocolParams
from repro.network.latency import cluster_latency
from repro.obs.export import STAGE_NAMES, stage_breakdown
from repro.receipts import verify_receipt
from repro.sim.costs import DEDICATED_CLUSTER
from repro.workloads import SmallBankWorkload, initial_state, register_smallbank

from .recorder import (
    ReceiptRecorder,
    RecordingArrivals,
    latency_table,
    window_metrics,
)

SLO_SECONDS = 0.100  # a receipt later than this after its due time misses the SLO
AUDIT_PASSES = 3  # audit_replay's run phase audits the same receipts this many times
CPU_KINDS = ("verify", "execute", "hash", "message", "sign", "append")

_PAPER_PARAMS = dict(
    pipeline=2, max_batch=300, checkpoint_interval=10_000,
    batch_delay=0.0005, view_change_timeout=30.0,
)


@dataclass(frozen=True)
class Spec:
    """One workload: the inputs that differ between the four."""

    name: str
    accounts: int
    rate: float
    params: dict
    warmup: float  # simulated seconds before the window opens
    window: float  # simulated seconds of window per unit of scale
    drain: float  # simulated seconds run after the load stops
    retry_timeout: float = 10.0
    crash_at: float | None = None  # primary_crash: replica 0 crashes ...
    recover_at: float | None = None  # ... and recovers (with state sync)

    def stop_at(self, scale: float) -> float:
        """When the load stops and the window closes.  With a fault
        schedule the window always spans it and ``scale`` extends the
        tail after recovery."""
        base = self.warmup if self.recover_at is None else self.recover_at
        return base + self.window * scale


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="lan_steady",
            accounts=500_000, rate=40_000, params=_PAPER_PARAMS,
            warmup=0.05, window=0.075, drain=0.2,
        ),
        Spec(
            name="lan_overload",
            accounts=100_000, rate=65_000, params=_PAPER_PARAMS,
            # Queues fill to an ~80 ms plateau and batches reach full size
            # only by 0.15 s; goodput read any earlier follows the transient.
            warmup=0.15, window=0.075, drain=0.3,
        ),
        Spec(
            name="primary_crash",
            accounts=10_000, rate=8_000,
            params=dict(_PAPER_PARAMS, checkpoint_interval=50, view_change_timeout=0.2),
            # View-change timers fire on a 0.2 s grid: a crash on the grid
            # gives a 210 or a 412 ms outage depending on the seed.  A
            # recovery nearer the view change resyncs in 3 s on one seed in
            # ten; the drain outlasts that (README, Known findings).
            warmup=0.05, window=0.10, drain=3.5, retry_timeout=0.1,
            crash_at=0.35, recover_at=0.8,
        ),
        Spec(
            name="audit_replay",
            accounts=10_000, rate=20_000,
            params=dict(_PAPER_PARAMS, max_batch=100),
            warmup=0.02, window=0.14, drain=0.2,
        ),
    )
}


class SimRun:
    """One simulated deployment under open-loop load, built and started
    but not yet run.  ``observe`` turns on the program's own sim-clock
    instruments (span tracing, lane-utilization tracking); they must not
    change any simulated outcome."""

    def __init__(self, spec: Spec, seed: int, scale: float, observe: bool = False) -> None:
        self.spec = spec
        self.start = spec.warmup
        self.stop = spec.stop_at(scale)
        self.end = self.stop + spec.drain
        self.params = ProtocolParams(**spec.params)
        self.dep = Deployment(
            n_replicas=4, params=self.params, costs=DEDICATED_CLUSTER,
            latency=cluster_latency(), registry_setup=register_smallbank,
            initial_state=initial_state(spec.accounts),
        )
        self.arrivals = RecordingArrivals(spec.rate, seed)
        self.load = self.dep.add_load_generator(
            SmallBankWorkload(n_accounts=spec.accounts, seed=seed), rate=spec.rate,
            stop_at=self.stop, verify_receipts=False,
            retry_timeout=spec.retry_timeout, arrivals=self.arrivals,
        )
        self.recorder = ReceiptRecorder(self.load)
        self.tracer = None
        if observe:
            self.tracer = self.dep.enable_tracing()
            for replica in self.dep.replicas:
                replica.cpu.enable_utilization_tracking()
        # Snapshots at the window edges are scheduled in every mode so
        # observed and unobserved runs process the same event sequence.
        self._busy_at: dict[float, list[dict]] = {}
        scheduler = self.dep.net.scheduler
        for edge in (self.start, self.stop):
            scheduler.at(edge, lambda edge=edge: self._snapshot(edge))
        if spec.crash_at is not None:
            scheduler.at(spec.crash_at, lambda: self.dep.crash_replica(0))
            scheduler.at(spec.recover_at, lambda: self.dep.recover_replica(0))
        self.dep.start()

    def _snapshot(self, edge: float) -> None:
        self._busy_at[edge] = [r.cpu.busy_by_kind() for r in self.dep.replicas]

    def run(self) -> None:
        self.dep.run(until=self.end)

    def events_processed(self) -> int:
        return self.dep.net.scheduler.events_processed

    # -- results (computed after the run, outside any timed phase) -------------

    def results(self) -> dict:
        """End-to-end simulated metrics, operation counts and the checks."""
        load, dep = self.load, self.dep
        due = self.arrivals.due_times(load.submitted)
        completions = self.recorder.completions
        table = latency_table(due, completions)
        out = window_metrics(due, table, completions, self.start, self.stop, SLO_SECONDS)
        # A request fails when the run ends without an answer to it.  The
        # answer is a receipt or, for a request still pending, the admission
        # point's refusal of its latest transmission (backpressure: it
        # misses the SLO but was not lost).  Judged request by request from
        # the client's retry bookkeeping: a refused attempt that was
        # retransmitted and then met silence is a failure, and so is a
        # request the client abandoned.
        refused = sum(
            1 for digest in load.collector.pending_digests()
            if load._rejected_attempt.get(digest) == load._attempts.get(digest, 0))
        out["attempted"] = load.submitted
        out["refused"] = refused
        out["failed"] = load.submitted - len(load.receipts) - refused
        out["tx"] = len(load.receipts)  # transactions the run phase processed
        out["fingerprint"] = self._fingerprint(table)
        out["problems"] = self._check(table)
        return out

    def _fingerprint(self, table) -> str:
        """Everything the simulation decided, no host timing: identical
        for a change that only makes the simulator faster."""
        live = self._live_replicas()
        h = hashlib.sha256()
        h.update(repr(self.dep.committed_seqnos()).encode())
        h.update(live[0].ledger.root())
        h.update(live[0].kv.state_digest())
        h.update(repr([None if row is None else row[1] for row in table]).encode())
        return h.hexdigest()

    def _live_replicas(self):
        crashed = self.dep.crashed_replica_ids()
        return [r for r in self.dep.replicas if r.id not in crashed]

    def _check(self, table) -> list[str]:
        dep, problems = self.dep, []
        live = self._live_replicas()
        if not dep.ledgers_agree():
            problems.append("replica ledgers disagree on the committed prefix")
        if len({r.kv.state_digest() for r in live}) != 1:
            problems.append("replicas hold different KV state digests")
        completions = self.recorder.completions
        for _, _, receipt in completions[:: max(1, len(completions) // 64)]:
            if not verify_receipt(receipt, dep.genesis_config):
                problems.append(f"receipt for seqno {receipt.seqno} fails verify_receipt")
                break
        for _, due_latency, submit_latency in filter(None, table):
            # Due-time latency adds the generator's lateness: never less than
            # submit-time latency, at most the 1 ms wake-up floor plus a tick more.
            if not -1e-9 <= due_latency - submit_latency <= 2e-3 + 1e-9:
                problems.append("due-time and submit-time latency disagree by more than a tick")
                break
        if self.spec.crash_at is not None:
            if len({r.view for r in dep.replicas}) != 1 or dep.replicas[0].view < 1:
                problems.append(f"views did not converge: {[r.view for r in dep.replicas]}")
            if len(set(dep.committed_seqnos())) != 1:
                problems.append(f"replica 0 did not catch up: {dep.committed_seqnos()}")
        return problems

    def layer_metrics(self) -> dict:
        """Per-layer numbers the program itself publishes on the
        simulated clock (source S in the README), per receipted request."""
        dep, load = self.dep, self.load
        primary = dep.primary()
        tx = len(load.receipts)
        per_tx = lambda value: value / tx if tx else 0.0
        total = lambda name: sum(r.metrics.counters.get(name, 0) for r in dep.replicas)
        client = load.metrics.counters
        m = {
            "crypto.signatures_verified_per_tx": per_tx(total("signatures_verified")),
            "crypto.verify_cache_hit_ratio":
                dep.verify_cache.stats.hit_rate() if dep.verify_cache is not None else 0.0,
            "kvstore.checkpoints_taken": primary.metrics.counters.get("checkpoints_taken", 0),
            "ledger.entries_per_tx": per_tx(len(primary.ledger)),
            "ledger.resident_entries": primary.ledger.resident_entries(),
            "sim.scheduler_events_per_tx": per_tx(dep.net.scheduler.events_processed),
            "network.msgs_per_tx": per_tx(dep.net.messages_sent),
            "network.bytes_per_tx": per_tx(dep.net.bytes_sent),
            "network.msgs_dropped": dep.net.messages_dropped,
            "lpbft.batch_size_mean":
                primary.metrics.counters.get("requests_committed", 0)
                / max(1, primary.metrics.counters.get("batches_committed", 0)),
            "lpbft.queue_delay_p50_ms": primary.metrics.queue_delay.p50() * 1e3,
            "lpbft.queue_delay_p90_ms": primary.metrics.queue_delay.p90() * 1e3,
            "lpbft.shed_ratio": total("requests_shed") / max(1, load.submitted),
            "lpbft.deadline_dropped": total("requests_deadline_dropped"),
            "lpbft.wasted_verify_s": sum(r.wasted_verify_seconds() for r in dep.replicas),
            "lpbft.client_retries_per_tx": per_tx(client.get("request_retries", 0)),
            "lpbft.client_abandoned": client.get("requests_abandoned", 0),
            "lpbft.view_changes": max(r.view for r in dep.replicas),
            "lpbft.replies_resent": total("replies_resent"),
            "statesync.sessions_completed": total("sync_sessions_completed"),
            "statesync.chunks_received": total("sync_chunks_received"),
        }
        sync = dep.replicas[0].sync_client.last_result
        m["statesync.catchup_ms"] = 0.0 if sync is None else sync["duration"] * 1e3
        sample = self.recorder.completions[:: max(1, len(self.recorder.completions) // 256)]
        sizes = [len(codec.encode(receipt.to_wire())) for _, _, receipt in sample]
        m["receipts.bytes_mean"] = sum(sizes) / len(sizes) if sizes else 0.0

        # Simulated CPU of the replica that ends the run as primary, in the window.
        index = dep.replicas.index(primary)
        before, after = self._busy_at[self.start][index], self._busy_at[self.stop][index]
        done = sum(1 for at, _, _ in self.recorder.completions if self.start <= at < self.stop)
        for kind in CPU_KINDS:
            busy = after.get(kind, 0.0) - before.get(kind, 0.0)
            m[f"sim.cpu_{kind}_us_per_tx"] = busy * 1e6 / done if done else 0.0
        lanes = primary.cpu.utilization_window(self.start, self.stop)
        m["sim.cpu_max_lane_util"] = max(lanes)
        m["sim.cpu_execute_lane_util"] = lanes[int(primary.cpu.policies["execute"]) % len(lanes)]

        stages = stage_breakdown(self.tracer)
        for name in STAGE_NAMES:
            m[f"lpbft.stage_{name.replace('-', '_')}_ms"] = stages["stages"][name]["mean_ms"]
        staged = sum(stages["stages"][name]["mean_ms"] for name in STAGE_NAMES)
        if abs(staged - stages["e2e"]["mean_ms"]) > 1e-3:
            raise AssertionError(
                f"stage means sum to {staged} ms, traced e2e mean is {stages['e2e']['mean_ms']} ms")
        m["lpbft.view_change_ms"] = self._view_change_ms()
        m["obs.spans_per_tx"] = per_tx(len(self.tracer.spans))
        return m

    def _view_change_ms(self) -> float:
        """Crash until the new view is accepted by 2f+1 replicas."""
        crash = self.spec.crash_at
        if crash is None:
            return 0.0
        ends = sorted(
            s.end for s in self.tracer.spans
            if s.name == "view-change" and s.end is not None and s.end >= crash
        )
        quorum = self.dep.genesis_config.quorum
        return (ends[quorum - 1] - crash) * 1e3 if len(ends) >= quorum else 0.0


class AuditRun:
    """``audit_replay``: set-up produces a ledger by simulation; the run
    phase is pure host work — verify every receipt, then audit them
    against the ledger with replay — repeated ``AUDIT_PASSES`` times."""

    def __init__(self, spec: Spec, seed: int, scale: float, observe: bool = False) -> None:
        self.sim = SimRun(spec, seed, scale, observe)
        self.sim.run()
        self.receipts = [receipt for _, _, receipt in self.sim.recorder.completions]
        self.bad_receipts = 0
        self.audit_result = None

    def run(self) -> None:
        dep, load = self.sim.dep, self.sim.load
        config = dep.genesis_config
        for _ in range(AUDIT_PASSES):
            self.bad_receipts = sum(
                1 for receipt in self.receipts if not verify_receipt(receipt, config))
            self.audit_result = Auditor(dep.registry, self.sim.params).audit(
                self.receipts, [load.gov_chain], make_enforcer(dep))

    def results(self) -> dict:
        out = self.sim.results()
        dep = self.sim.dep
        problems = out["problems"]
        if out["failed"]:
            problems.append(f"{out['failed']} requests of the ledger-producing run got no answer")
        if not self.audit_result.consistent:
            problems.append(
                f"honest ledger audited inconsistent: {[u.kind for u in self.audit_result.upoms]}")
        base = next(r for r in self.receipts if r.request().procedure == "smallbank.balance")
        colluders = {i: dep.replica_keys[i] for i in range(3)}
        forged = forge_alternate_output(
            colluders, dep.genesis_config, base,
            {"reply": {"ok": True, "balance": 10**9}, "ws": base.output["ws"]},
        )
        verdict = Auditor(dep.registry, self.sim.params).audit(
            [base, forged], [self.sim.load.gov_chain], make_enforcer(dep))
        if len(verdict.blamed_replicas()) < dep.genesis_config.f + 1:
            problems.append("forged receipt did not yield a uPoM blaming f+1 replicas")
        out["attempted"] = len(self.receipts)
        out["failed"] = (
            self.bad_receipts if self.audit_result.consistent else len(self.receipts))
        out["tx"] = len(self.receipts) * AUDIT_PASSES
        return out

    def events_processed(self) -> int:
        return self.sim.events_processed()

    def layer_metrics(self) -> dict:
        return self.sim.layer_metrics()


def set_up(name: str, seed: int, scale: float, observe: bool = False):
    spec = SPECS[name]
    factory = AuditRun if name == "audit_replay" else SimRun
    return factory(spec, seed, scale, observe)
