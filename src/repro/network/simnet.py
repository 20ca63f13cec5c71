"""The simulated network: message delivery + per-node CPU accounting.

Each :class:`Node` has an address, a site (for latency), and a multi-lane
:class:`~repro.sim.cpu.VirtualCPU` with one lane per core.  Handlers and
timer callbacks run as *activities*: work is submitted as typed items
(:meth:`Node.submit` / :meth:`Node.submit_many`), each item is placed on a
lane per its kind's policy (verification fans out, execution stays
serial), and the activity's *frontier* — the completion time of everything
it has submitted so far — determines when its outgoing messages depart.
Two activities overlap in CPU time exactly when their work lands on
different lanes, so nodes are compute-bound under load (what the paper
observes: "all experiments are compute-bound") without pretending a
single serial timeline.

Fault injection, applied at send time:

- per-link drop rules and partitions (:meth:`SimNetwork.add_drop_rule`,
  :meth:`SimNetwork.partition`);
- message *duplication* (:meth:`SimNetwork.add_duplicate_rule`) — extra
  copies of matching messages, delivered slightly later;
- bounded *reordering* (:meth:`SimNetwork.set_reorder`) — each delivery
  gets an extra seeded-random delay in ``[0, reorder_window]``, so
  messages sent close together may arrive out of order, but never more
  than the window apart.

Both adversarial knobs draw from their own seeded RNGs, so runs remain
deterministic for a given seed and message sequence.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from .. import codec
from ..errors import CodecError, NetworkError
from ..obs.trace import NULL_TRACER
from ..sim.cpu import VirtualCPU
from ..sim.scheduler import EventScheduler
from .latency import LatencyModel, constant_latency


class Node:
    """Base class for simulated network endpoints.

    Subclasses implement :meth:`on_message`.  Inside a handler, use
    :meth:`submit` / :meth:`submit_many` to account typed CPU cost,
    :meth:`send` to transmit, and :meth:`set_timer` / :meth:`cancel_timer`
    for timeouts.  ``cores`` sizes the node's :class:`VirtualCPU`
    (clients default to 1 — the paper scales client machines with load,
    so they are never the bottleneck); ``cpu_policies`` overrides the
    per-kind lane policies.
    """

    def __init__(
        self,
        address: str,
        site: str = "local",
        cores: int = 1,
        cpu_policies: dict | None = None,
    ) -> None:
        self.address = address
        self.site = site
        self.net: "SimNetwork | None" = None
        self.cpu = VirtualCPU(cores, cpu_policies)
        self._frontier = 0.0
        self._processing = False
        # Observability: tracer is the shared no-op singleton unless a
        # deployment enables tracing; _inbound_ctx is the SpanContext the
        # message being handled arrived with (network metadata, set by
        # SimNetwork._deliver), _send_ctx the context outgoing messages
        # carry.  _begin_activity copies inbound → send so replies and
        # relays inherit the causal edge without per-handler plumbing.
        self.tracer = NULL_TRACER
        self._inbound_ctx = None
        self._send_ctx = None

    # -- to be overridden ---------------------------------------------------

    def on_message(self, src: str, msg: Any) -> None:
        """Handle a delivered message."""
        raise NotImplementedError

    def on_start(self) -> None:
        """Called once when the network starts (override to seed timers)."""

    # -- services -----------------------------------------------------------

    @property
    def now(self) -> float:
        if self.net is None:
            return 0.0
        return self.net.scheduler.now

    def _begin_activity(self) -> None:
        """Start a handler/timer activity: its causal frontier begins at
        the current instant — lane backlog is applied per submitted item,
        so activities touching free lanes proceed immediately."""
        self._processing = True
        self._frontier = self.now
        self._send_ctx = self._inbound_ctx

    def _end_activity(self) -> None:
        self._processing = False
        self._send_ctx = None

    def _base_time(self) -> float:
        # Inside an activity, work chains off the activity's frontier.
        # Outside one (direct calls from tests/integration code), fall
        # back to the old serial semantics: chain off whatever the node
        # has already accepted.
        if self._processing:
            return self._frontier
        return max(self.now, self._frontier)

    def submit(self, kind: str, seconds: float) -> float:
        """Account one typed work item; returns its completion time.
        The activity frontier joins on it — subsequent code in the same
        handler (and its outgoing messages) happens after."""
        if seconds < 0:
            raise NetworkError(f"negative charge {seconds}")
        done = self.cpu.submit(kind, seconds, self._base_time())
        self._frontier = max(self._frontier, done)
        return done

    def submit_many(self, kind: str, costs) -> float:
        """Fan a batch of typed items out across lanes (released
        together), joining the frontier on the last completion."""
        done = self.cpu.submit_many(kind, costs, self._base_time())
        self._frontier = max(self._frontier, done)
        return done

    def cpu_time(self) -> float:
        """The causal completion time of the current activity's work so
        far.  Outgoing messages depart then, and completion-style
        measurements (e.g. commit timestamps) should use it instead of
        ``now``."""
        return self._frontier

    def send(self, dst: str, msg: Any, size: int | None = None) -> None:
        """Send ``msg`` to the node addressed ``dst``."""
        if self.net is None:
            raise NetworkError(f"node {self.address} not attached to a network")
        self.net.transmit(self.address, dst, msg, size)

    def broadcast(self, addresses: list[str], msg: Any, size: int | None = None) -> None:
        """Send ``msg`` to every address in ``addresses`` except self."""
        for dst in addresses:
            if dst != self.address:
                self.send(dst, msg, size)

    def set_timer(self, delay: float, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` after ``delay`` seconds of virtual time.
        The callback runs as a CPU activity, like a message handler."""
        if self.net is None:
            raise NetworkError(f"node {self.address} not attached to a network")

        def fire() -> None:
            self._begin_activity()
            try:
                callback()
            finally:
                self._end_activity()

        return self.net.scheduler.after(delay, fire)

    def cancel_timer(self, timer_id: int) -> None:
        if self.net is not None:
            self.net.scheduler.cancel(timer_id)


class SimNetwork:
    """Delivers messages between registered nodes via the scheduler."""

    def __init__(
        self,
        scheduler: EventScheduler | None = None,
        latency: LatencyModel | None = None,
        size_of: Callable[[Any], int] | None = None,
    ) -> None:
        self.scheduler = scheduler or EventScheduler()
        self.latency = latency or constant_latency(0.1e-3)
        self._nodes: dict[str, Node] = {}
        self._partitions: dict[int, tuple[frozenset[str], frozenset[str]]] = {}
        self._partition_counter = 0
        self._crashed: set[str] = set()
        self._drop_rules: list[Callable[[str, str, Any], bool]] = []
        self._duplicate_rules: list[dict] = []
        self.reorder_window = 0.0
        self._reorder_probability = 0.0
        self._reorder_rng: random.Random | None = None
        self._size_of = size_of or _default_size_of
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_reordered = 0

    # -- topology -------------------------------------------------------------

    def register(self, node: Node) -> None:
        """Attach a node to the network."""
        if node.address in self._nodes:
            raise NetworkError(f"duplicate node address {node.address!r}")
        node.net = self
        self._nodes[node.address] = node

    def node(self, address: str) -> Node:
        try:
            return self._nodes[address]
        except KeyError:
            raise NetworkError(f"unknown node {address!r}") from None

    def addresses(self) -> list[str]:
        return sorted(self._nodes)

    def start(self) -> None:
        """Invoke :meth:`Node.on_start` on every node."""
        for address in sorted(self._nodes):
            self._nodes[address].on_start()

    # -- fault injection ---------------------------------------------------------

    def partition(self, group_a: set[str], group_b: set[str]) -> int:
        """Drop all traffic between the two groups until healed.  Returns
        a partition id usable with :meth:`heal`."""
        self._partition_counter += 1
        self._partitions[self._partition_counter] = (frozenset(group_a), frozenset(group_b))
        return self._partition_counter

    def heal(self, partition_id: int | None = None) -> None:
        """Heal one partition by id, or all of them when id is None.
        Healing never touches crashed nodes: a crash is not a partition,
        so ``heal()`` between overlapping partition windows cannot
        resurrect delivery to a node that has not recovered."""
        if partition_id is None:
            self._partitions.clear()
        else:
            self._partitions.pop(partition_id, None)

    def mark_crashed(self, address: str) -> None:
        """Stop all delivery to and from ``address`` until
        :meth:`mark_recovered`.  Unlike a partition snapshot, this holds
        against nodes registered later and against ``heal()``-all."""
        self._crashed.add(address)

    def mark_recovered(self, address: str) -> None:
        self._crashed.discard(address)

    def crashed_addresses(self) -> frozenset[str]:
        return frozenset(self._crashed)

    def heal_partitions(self) -> None:
        self.heal()

    def partition_between(
        self,
        group_a: set[str],
        group_b: set[str],
        start: float | None = None,
        duration: float | None = None,
    ) -> None:
        """Schedule a partition as simulation events: applied at ``start``
        (default: now) and — when ``duration`` is given — healed
        ``duration`` seconds later, with no manual intervention.  This is
        the WAN-scenario building block: region cuts, transient link
        failures, rolling outages are all timed partitions."""
        start = self.scheduler.now if start is None else start
        if duration is not None and start + duration <= self.scheduler.now:
            return  # the whole window [start, start+duration) already elapsed

        def apply() -> None:
            partition_id = self.partition(group_a, group_b)
            if duration is not None:
                # Heal at the absolute end of the window, so a start in
                # the past does not stretch the partition.
                self.scheduler.at(start + duration, lambda: self.heal(partition_id))

        if start <= self.scheduler.now:
            apply()
        else:
            self.scheduler.at(start, apply)

    def isolate(self, address: str, start: float | None = None, duration: float | None = None) -> None:
        """Cut one node off from every currently-registered node (a crash
        that keeps local state), optionally healing after ``duration``."""
        others = {a for a in self._nodes if a != address}
        self.partition_between({address}, others, start=start, duration=duration)

    def add_drop_rule(self, rule: Callable[[str, str, Any], bool]) -> None:
        """Drop messages for which ``rule(src, dst, msg)`` is True."""
        self._drop_rules.append(rule)

    def add_duplicate_rule(
        self,
        rule: Callable[[str, str, Any], bool] | None = None,
        probability: float = 1.0,
        copies: int = 1,
        extra_delay: float | None = None,
        seed: int = 0,
    ) -> None:
        """Deliver ``copies`` extra copies of matching messages (``rule``
        None matches everything), each with probability ``probability``.

        Copies arrive after the original, delayed by ``extra_delay`` (or
        a seeded-random fraction of the link delay when None) — the
        at-least-once delivery an adversarial or retransmitting network
        produces.  Deterministic for a given seed and message sequence.
        """
        if not 0.0 <= probability <= 1.0:
            raise NetworkError(f"duplicate probability must be in [0, 1], got {probability}")
        if copies < 1:
            raise NetworkError(f"duplicate copies must be >= 1, got {copies}")
        self._duplicate_rules.append(
            {
                "rule": rule,
                "probability": probability,
                "copies": copies,
                "extra_delay": extra_delay,
                "rng": random.Random(seed),
            }
        )

    def clear_duplicate_rules(self) -> None:
        self._duplicate_rules.clear()

    def set_reorder(self, window: float, probability: float = 1.0, seed: int = 0) -> None:
        """Bounded reordering: each delivery (with ``probability``) gets
        an extra seeded-random delay in ``[0, window]`` seconds, so sends
        close together may arrive out of order — but never more than
        ``window`` later than the fault-free schedule.  ``window`` 0
        disables the fault."""
        if window < 0:
            raise NetworkError(f"reorder window must be non-negative, got {window}")
        if not 0.0 <= probability <= 1.0:
            raise NetworkError(f"reorder probability must be in [0, 1], got {probability}")
        self.reorder_window = window
        self._reorder_probability = probability
        self._reorder_rng = random.Random(seed) if window > 0 else None

    def has_node(self, address: str) -> bool:
        """Whether ``address`` is registered on this network."""
        return address in self._nodes

    def _blocked(self, src: str, dst: str) -> bool:
        if src in self._crashed or dst in self._crashed:
            return True
        for a, b in self._partitions.values():
            if (src in a and dst in b) or (src in b and dst in a):
                return True
        return False

    # -- transmission ---------------------------------------------------------------

    def transmit(self, src: str, dst: str, msg: Any, size: int | None = None) -> None:
        """Schedule delivery of ``msg`` from ``src`` to ``dst``."""
        if dst not in self._nodes:
            raise NetworkError(f"unknown destination {dst!r}")
        if self._blocked(src, dst):
            self.messages_dropped += 1
            return
        for rule in self._drop_rules:
            if rule(src, dst, msg):
                self.messages_dropped += 1
                return
        size = self._size_of(msg) if size is None else size
        self.messages_sent += 1
        self.bytes_sent += size
        src_node = self._nodes.get(src)
        dst_node = self._nodes[dst]
        # Trace context rides as network-layer metadata (never in the wire
        # tuple); _send_ctx is always None while tracing is disabled.
        ctx = src_node._send_ctx if src_node is not None else None
        # Departure: when the sender's CPU finishes its current work,
        # including the cost the running handler has charged so far.
        depart = max(self.scheduler.now, src_node.cpu_time() if src_node else self.scheduler.now)
        src_site = src_node.site if src_node else dst_node.site
        delay = self.latency.delivery_delay(src_site, dst_node.site, size)
        if self._reorder_rng is not None:
            rng = self._reorder_rng
            if self._reorder_probability >= 1.0 or rng.random() < self._reorder_probability:
                jitter = rng.random() * self.reorder_window
                if jitter > 0:
                    self.messages_reordered += 1
                    delay += jitter
        self.scheduler.at(depart + delay, lambda: self._deliver(src, dst_node, msg, ctx))
        for dup in self._duplicate_rules:
            if dup["rule"] is not None and not dup["rule"](src, dst, msg):
                continue
            rng = dup["rng"]
            if dup["probability"] < 1.0 and rng.random() >= dup["probability"]:
                continue
            for copy in range(dup["copies"]):
                if dup["extra_delay"] is not None:
                    extra = (copy + 1) * dup["extra_delay"]
                else:
                    extra = rng.random() * max(delay, 1e-4)
                self.messages_duplicated += 1
                self.messages_sent += 1
                self.bytes_sent += size
                self.scheduler.at(
                    depart + delay + extra, lambda: self._deliver(src, dst_node, msg, ctx)
                )

    def _deliver(self, src: str, node: Node, msg: Any, ctx=None) -> None:
        # CPU model: the handler runs as an activity — each typed work
        # item it submits queues behind the lane its kind maps to, and the
        # activity's frontier (max completion so far) gates its sends.
        node._inbound_ctx = ctx
        node._begin_activity()
        try:
            node.on_message(src, msg)
        finally:
            node._end_activity()
            node._inbound_ctx = None

    # -- running ----------------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run the simulation (delegates to the scheduler)."""
        self.scheduler.run(until=until, max_events=max_events)


def _default_size_of(msg: Any) -> int:
    """Estimate wire size via the canonical codec when possible."""
    wire = getattr(msg, "to_wire", None)
    try:
        return codec.encoded_size(msg if wire is None else wire())
    except CodecError:
        return 256
