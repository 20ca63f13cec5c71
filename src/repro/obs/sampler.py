"""Scheduler-driven time-series sampling over a running deployment.

:class:`PeriodicSampler` ticks on the deployment's event scheduler and
emits one row per replica per tick — goodput (committed tx/s over the
interval), per-lane CPU busy fraction, stash depth, ledger resident
entries, and shed/retry rates — plus one aggregate client row (offered
submissions, retries, abandonments).  Rows are plain dicts keyed by sim
time, suitable for :func:`~repro.obs.export.write_jsonl`.

Rates are *interval deltas* of monotonic counters (never cumulative
averages), so a Fig. 4-style run shows the knee as it happens rather
than smeared over the whole run.  Sampling reads counters and the
windowed-utilization arrays only — it never schedules CPU work or sends
messages, so enabling it does not perturb the simulation outcome.
"""

from __future__ import annotations


class PeriodicSampler:
    """Samples per-replica/client series every ``interval`` sim seconds.

    Call :meth:`install` *before* ``deployment.run`` (it enables windowed
    utilization tracking on each replica CPU and registers the periodic
    scheduler event); rows accumulate in :attr:`rows` and can be written
    out with :meth:`to_jsonl`.
    """

    def __init__(self, deployment, interval: float = 0.05) -> None:
        if interval <= 0:
            from ..errors import SimulationError

            raise SimulationError(f"sampler interval must be > 0, got {interval}")
        self.deployment = deployment
        self.interval = interval
        self.rows: list[dict] = []
        self._installed = False
        self._last_t: float | None = None
        self._prev_replica: dict[str, dict[str, float]] = {}
        self._prev_busy: dict[str, list[float]] = {}
        self._prev_client: dict[str, float] = {}

    # -- wiring ---------------------------------------------------------------

    def install(self) -> "PeriodicSampler":
        """Enable CPU tracking and register the periodic tick."""
        if self._installed:
            return self
        self._installed = True
        for replica in self.deployment.replicas:
            replica.cpu.enable_utilization_tracking()
        scheduler = self.deployment.net.scheduler
        self._last_t = scheduler.now
        self._snapshot_baselines()
        scheduler.every(self.interval, self._tick)
        return self

    def _snapshot_baselines(self) -> None:
        for replica in self.deployment.replicas:
            self._prev_replica[replica.address] = self._replica_counters(replica)
            self._prev_busy[replica.address] = replica.cpu.busy_up_to(
                self._last_t)
        self._prev_client = self._client_counters()

    @staticmethod
    def _replica_counters(replica) -> dict[str, float]:
        counters = replica.metrics.counters
        return {
            "committed": counters.get("requests_committed", 0),
            "shed": counters.get("requests_shed", 0),
        }

    def _client_counters(self) -> dict[str, float]:
        offered = retries = abandoned = completed = 0.0
        for client in self.deployment.clients:
            counters = client.metrics.counters
            offered += counters.get("requests_submitted", 0)
            retries += counters.get("request_retries", 0)
            abandoned += counters.get("requests_abandoned", 0)
            completed += counters.get("receipts_completed", 0)
        return {"offered": offered, "retries": retries,
                "abandoned": abandoned, "completed": completed}

    # -- sampling -------------------------------------------------------------

    def _tick(self) -> None:
        now = self.deployment.net.scheduler.now
        dt = now - self._last_t
        if dt <= 0:
            return
        for replica in self.deployment.replicas:
            addr = replica.address
            cur = self._replica_counters(replica)
            prev = self._prev_replica.get(addr, {"committed": 0, "shed": 0})
            busy = replica.cpu.busy_up_to(now)
            prev_busy = self._prev_busy.get(addr, [0.0] * replica.cpu.cores)
            self.rows.append({
                "t": round(now, 9),
                "kind": "replica",
                "node": addr,
                "goodput_tps": (cur["committed"] - prev["committed"]) / dt,
                "shed_rate_tps": (cur["shed"] - prev["shed"]) / dt,
                "lane_busy_fraction": [
                    round((b - p) / dt, 6) for b, p in zip(busy, prev_busy)
                ],
                "stash_depth": len(replica.admission),
                "pending_pps": len(replica.pending_pps),
                "window_occupancy": replica.window_occupancy(),
                "ledger_resident_entries": replica.ledger.resident_entries(),
                "committed_upto": replica.committed_upto,
                "view": replica.view,
            })
            self._prev_replica[addr] = cur
            self._prev_busy[addr] = busy
        cur_client = self._client_counters()
        prev_client = self._prev_client
        self.rows.append({
            "t": round(now, 9),
            "kind": "clients",
            "node": "clients",
            "offered_tps": (cur_client["offered"] - prev_client["offered"]) / dt,
            "retry_tps": (cur_client["retries"] - prev_client["retries"]) / dt,
            "abandon_tps": (
                cur_client["abandoned"] - prev_client["abandoned"]) / dt,
            "completed_tps": (
                cur_client["completed"] - prev_client["completed"]) / dt,
        })
        self._prev_client = cur_client
        self._last_t = now

    # -- output ---------------------------------------------------------------

    def to_jsonl(self, path) -> None:
        from .export import write_jsonl

        write_jsonl(path, self.rows)

    def series(self, kind: str | None = None, node: str | None = None) -> list[dict]:
        """Filter rows by kind ("replica"/"clients") and/or node address."""
        return [r for r in self.rows
                if (kind is None or r["kind"] == kind)
                and (node is None or r["node"] == node)]
