"""Multi-lane virtual CPU: typed work items over ``cores`` lanes.

The paper's replicas run on 8–16 hardware threads and fan client-signature
verification out across them (§3.4 "Cryptography"), while execution and
ledger writes stay on dedicated threads.  A :class:`VirtualCPU` models one
such machine: it owns ``cores`` *lanes* (one per hardware thread), and
work arrives as typed items —

========== ================================================= ============
kind       meaning                                           policy
========== ================================================= ============
``verify`` signature verification                            parallel
``hash``   hashing / serialization / checkpoint snapshots    parallel
``message`` deserialization + channel auth (receive loop)    lane 0
``sign``   signing (protocol thread)                         lane 0
``execute`` transaction execution                            lane 1
``append`` ledger writes                                     lane 2
========== ================================================= ============

*Parallel* kinds are placed on the earliest-available lane (greedy
earliest-finish scheduling, deterministic lowest-index tie-break);
*serial* kinds are pinned to one lane (modulo ``cores``), so two items of
a serial kind can never overlap — execution is single-threaded no matter
how many requests are in flight.  Completion times therefore come from
lane availability, not from dividing a cost by the core count: an idle
15-core machine finishes a verification batch almost ``cores`` times
faster, a saturated one doesn't.

Per-node integration (activity frontiers, message departure times) lives
in :class:`repro.network.Node`; this module is pure scheduling state and
knows nothing about the event loop.
"""

from __future__ import annotations

from bisect import bisect_right

from ..errors import SimulationError

#: Policy marker: place items on the earliest-available lane.
PARALLEL = "parallel"

#: Default per-kind placement policies.  Values are either :data:`PARALLEL`
#: or a pinned lane index (taken modulo the core count).
DEFAULT_POLICIES: dict[str, object] = {
    "verify": PARALLEL,
    "hash": PARALLEL,
    "message": 0,
    "sign": 0,
    "execute": 1,
    "append": 2,
}


class VirtualCPU:
    """Lane-scheduling state for one simulated machine.

    ``policies`` overrides/extends :data:`DEFAULT_POLICIES` — e.g. the
    Fabric 2.2 baseline pins ``verify`` to a lane because its validation
    phase checks endorsements sequentially.  Unknown kinds default to
    serial on lane 0.

    Set ``trace`` to a list to record every scheduled item as
    ``(kind, lane, start, end)`` — used by tests (lane invariants) and
    benchmarks (exact within-window utilization); off by default because
    long runs schedule millions of items.
    """

    def __init__(self, cores: int = 1, policies: dict | None = None) -> None:
        if cores < 1:
            raise SimulationError(f"a CPU needs at least one core, got {cores}")
        self.cores = cores
        self.policies = dict(DEFAULT_POLICIES)
        if policies:
            self.policies.update(policies)
        self._free = [0.0] * cores  # per-lane busy-until
        self._busy = [0.0] * cores  # per-lane cumulative assigned seconds
        self._busy_by_kind: dict[str, float] = {}
        self.items_scheduled = 0
        self.trace: list[tuple[str, int, float, float]] | None = None
        # Windowed-utilization tracking (enable_utilization_tracking):
        # per-lane sorted segment starts and inclusive cumulative busy
        # seconds through each segment.  Within one lane segments never
        # overlap and starts are non-decreasing (start >= previous end),
        # so busy-in-window queries are a bisect plus one partial term.
        self._win_starts: list[list[float]] | None = None
        self._win_cum: list[list[float]] | None = None

    # -- scheduling -----------------------------------------------------------

    def _lane_for(self, kind: str) -> int:
        policy = self.policies.get(kind, 0)
        if policy == PARALLEL:
            free = self._free
            return free.index(min(free))  # the lowest index among ties
        return int(policy) % self.cores

    def submit(self, kind: str, seconds: float, not_before: float) -> float:
        """Schedule ``seconds`` of ``kind`` work starting no earlier than
        ``not_before``; returns the completion time."""
        if seconds < 0:
            raise SimulationError(f"negative work item {kind}={seconds}")
        lane = self._lane_for(kind)
        start = max(not_before, self._free[lane])
        end = start + seconds
        self._free[lane] = end
        self._busy[lane] += seconds
        self._busy_by_kind[kind] = self._busy_by_kind.get(kind, 0.0) + seconds
        self.items_scheduled += 1
        if self.trace is not None:
            self.trace.append((kind, lane, start, end))
        if self._win_starts is not None:
            cum = self._win_cum[lane]
            self._win_starts[lane].append(start)
            cum.append((cum[-1] if cum else 0.0) + seconds)
        return end

    def submit_many(self, kind: str, costs, not_before: float) -> float:
        """Fan a batch of items out (all released at ``not_before``);
        returns the completion time of the *last* item — the join point a
        caller that consumes all the results must wait for."""
        done = not_before
        for seconds in costs:
            done = max(done, self.submit(kind, seconds, not_before))
        return done

    # -- inspection -----------------------------------------------------------

    def lane_free(self, lane: int) -> float:
        """The time at which ``lane`` finishes its accepted work."""
        return self._free[lane]

    def backlog(self, kind: str, now: float) -> float:
        """Seconds of accepted-but-unfinished work ahead of a new ``kind``
        item submitted at ``now`` — the lane-schedule congestion signal
        admission control reads (for parallel kinds: the earliest lane)."""
        return max(0.0, self._free[self._lane_for(kind)] - now)

    def completion_time(self) -> float:
        """When every lane has drained its accepted work."""
        return max(self._free)

    def busy_seconds(self) -> list[float]:
        """Cumulative assigned busy seconds per lane (snapshot copy)."""
        return list(self._busy)

    def busy_by_kind(self) -> dict[str, float]:
        """Cumulative assigned busy seconds per work kind."""
        return dict(self._busy_by_kind)

    def busy_between(self, start: float, end: float) -> list[float]:
        """Exact busy seconds per lane within ``[start, end)``.

        Requires ``trace`` to have been enabled before the window opened;
        raises :class:`SimulationError` otherwise.
        """
        if self.trace is None:
            raise SimulationError("busy_between requires trace recording")
        if end < start:
            raise SimulationError(f"bad window [{start}, {end})")
        busy = [0.0] * self.cores
        for _, lane, s, e in self.trace:
            overlap = min(e, end) - max(s, start)
            if overlap > 0:
                busy[lane] += overlap
        return busy

    def utilization_between(self, start: float, end: float) -> list[float]:
        """Per-lane busy fraction within ``[start, end)`` (trace-based)."""
        elapsed = end - start
        if elapsed <= 0:
            return [0.0] * self.cores
        return [b / elapsed for b in self.busy_between(start, end)]

    # -- windowed utilization (self-serve, no trace required) -----------------

    def enable_utilization_tracking(self) -> None:
        """Record per-lane busy segments so :meth:`utilization_window`
        works without a full item trace.  Enable *before* the window of
        interest opens (items scheduled earlier are not counted); costs
        one appended float pair per scheduled item, nothing when off."""
        if self._win_starts is None:
            self._win_starts = [[] for _ in range(self.cores)]
            self._win_cum = [[] for _ in range(self.cores)]

    def busy_up_to(self, t: float) -> list[float]:
        """Cumulative busy seconds per lane in ``[0, t)`` — a pure query
        (call with any ``t``, in any order).  Requires
        :meth:`enable_utilization_tracking`."""
        if self._win_starts is None:
            raise SimulationError(
                "busy_up_to requires enable_utilization_tracking()")
        out = []
        for lane in range(self.cores):
            starts = self._win_starts[lane]
            cum = self._win_cum[lane]
            idx = bisect_right(starts, t) - 1  # last segment starting < t
            if idx < 0:
                out.append(0.0)
                continue
            # All segments before idx finished at or before starts[idx]
            # (non-overlapping, ordered), so they count fully; the idx
            # segment may straddle t.
            seg_busy = cum[idx] - (cum[idx - 1] if idx else 0.0)
            seg_end = starts[idx] + seg_busy
            out.append(cum[idx] - max(0.0, seg_end - t))
        return out

    def busy_window(self, start: float, end: float) -> list[float]:
        """Exact busy seconds per lane within ``[start, end)`` from the
        windowed-utilization segments (no trace needed)."""
        if end < start:
            raise SimulationError(f"bad window [{start}, {end})")
        lo = self.busy_up_to(start)
        hi = self.busy_up_to(end)
        return [h - l for h, l in zip(hi, lo)]

    def utilization_window(self, start: float, end: float) -> list[float]:
        """Per-lane busy fraction within ``[start, end)`` — the
        self-serve replacement for the bench harness's trace-based
        computation."""
        elapsed = end - start
        if elapsed <= 0:
            return [0.0] * self.cores
        return [b / elapsed for b in self.busy_window(start, end)]
