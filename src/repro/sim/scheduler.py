"""Event scheduler: a deterministic heap-based discrete-event engine.

Events are ``(time, seq)``-ordered on a binary heap over a virtual clock;
ties are broken by insertion order, so runs are reproducible given the
same seed and inputs.  A heap entry is the tuple ``(time, seq, event)``:
``(time, seq)`` is unique per entry, so ``heapq`` orders entries in C and
never compares two events.  Entities schedule callbacks with :meth:`at`
(absolute), :meth:`after` (relative), or :meth:`every` (repeating), and
may cancel them by id; cancellation is O(1) via tombstones on the heap
entries (lazy deletion), so timer churn — every message arms/disarms view
change timers — never pays for heap surgery.  :meth:`run` drains events
until a time horizon, an event budget, or an empty queue.
"""

from __future__ import annotations

import heapq
from typing import Callable

from ..errors import SimulationError
from .clock import VirtualClock


class _Event:
    """One scheduled callback (the last item of its heap entry)."""

    __slots__ = ("callback", "interval", "cancelled")

    def __init__(self, callback: Callable[[], None], interval: float | None) -> None:
        self.callback = callback
        self.interval = interval  # None for one-shot events
        self.cancelled = False


class EventScheduler:
    """Deterministic discrete-event scheduler over a virtual clock."""

    def __init__(self, clock: VirtualClock | None = None) -> None:
        self.clock = clock or VirtualClock()
        self._queue: list[tuple[float, int, _Event]] = []
        self._live: dict[int, _Event] = {}  # id -> event, for O(1) cancel
        self._next_seq = 0
        self._events_processed = 0
        self._cancel_count = 0
        self._repeat_live = 0  # live repeating events (they never drain)

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def pending(self) -> int:
        """Number of scheduled (possibly cancelled) heap entries."""
        return len(self._queue)

    @property
    def pending_active(self) -> int:
        """Number of scheduled events that have not been cancelled."""
        return len(self._queue) - self._cancel_count

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def _schedule(self, t: float, callback: Callable[[], None], interval: float | None) -> int:
        if t < self.clock.now:
            raise SimulationError(f"cannot schedule in the past ({t} < {self.clock.now})")
        seq = self._next_seq
        self._next_seq += 1
        event = _Event(callback, interval)
        heapq.heappush(self._queue, (t, seq, event))
        self._live[seq] = event
        return seq

    def at(self, t: float, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` at absolute time ``t``; returns an id
        usable with :meth:`cancel`."""
        return self._schedule(t, callback, None)

    def after(self, delay: float, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self._schedule(self.clock.now + delay, callback, None)

    def every(self, interval: float, callback: Callable[[], None], start: float | None = None) -> int:
        """Schedule ``callback`` repeatedly, ``interval`` seconds apart,
        first at ``start`` (default: one interval from now).  The returned
        id cancels all future firings."""
        if interval <= 0:
            raise SimulationError(f"repeat interval must be positive, got {interval}")
        first = self.clock.now + interval if start is None else start
        event_id = self._schedule(first, callback, interval)
        self._repeat_live += 1  # only after _schedule() can no longer raise
        return event_id

    def cancel(self, event_id: int) -> None:
        """Cancel a scheduled event (no-op if already fired or unknown)."""
        event = self._live.pop(event_id, None)
        if event is not None and not event.cancelled:
            event.cancelled = True
            self._cancel_count += 1
            if event.interval is not None:
                self._repeat_live -= 1

    def peek_time(self) -> float | None:
        """The virtual time of the next live event (None when idle)."""
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)
            self._cancel_count -= 1
        return self._queue[0][0] if self._queue else None

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        while self._queue:
            time, seq, event = heapq.heappop(self._queue)
            if event.cancelled:
                self._cancel_count -= 1
                continue
            self.clock.advance_to(time)
            self._events_processed += 1
            if event.interval is not None:
                # Re-arm before the callback so the callback can cancel it.
                heapq.heappush(self._queue, (time + event.interval, seq, event))
            else:
                self._live.pop(seq, None)
            event.callback()
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain events until the queue empties, virtual time would pass
        ``until``, or ``max_events`` have run.

        Repeating events never drain, so once they are the only live
        events an unbounded run would spin forever; that case raises
        :class:`SimulationError` — pass ``until`` or ``max_events`` when
        repeating timers are armed."""
        count = 0
        while True:
            if max_events is not None and count >= max_events:
                return
            if (
                until is None
                and max_events is None
                and self._repeat_live > 0
                and self._repeat_live == self.pending_active
            ):
                raise SimulationError(
                    "run() without until/max_events would never terminate: "
                    "only repeating events remain"
                )
            next_time = self.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.clock.advance_to(until)
                return
            self.step()
            count += 1
        if until is not None and self.clock.now < until:
            self.clock.advance_to(until)
