"""Fault schedules and their seeded generator.

A :class:`Schedule` is the entire input of a chaos run: the integer seed
it was drawn from, the :class:`ChaosParams` that shaped it, and a tuple
of timestamped :class:`FaultEvent`\\ s.  Generation is a pure function of
``(seed, params)`` — no global randomness, no wall clock — which is what
makes exact replay and schedule shrinking possible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

# Every fault kind the generator can draw.  The harness additionally
# understands "recover" / "byzantine_clear", which the generator emits
# as the paired closing half of "crash" / "byzantine".
FAULT_KINDS = (
    "partition",  # (ids, duration) — isolate replicas from everyone else
    "crash",  # (id,) — replica goes dark (network-level crash state)
    "recover",  # (id, resync) — recover a crashed replica
    "duplicate",  # (probability, duration) — network duplication window
    "reorder",  # (window, probability, duration) — reordering window
    "byzantine",  # (id, behavior, duration) — flip a replica Byzantine
    "reconfigure",  # (id,) — governance referendum adding replica ``id``
    "late_join",  # (id,) — deploy the proposed replica after activation
)


@dataclass(frozen=True)
class ChaosParams:
    """Knobs for one chaos run.  Defaults make a run finish in a few
    wall-clock seconds, small enough for a CI soak matrix; longer soaks
    raise ``n_events`` / ``fault_end`` / ``quiescence``."""

    n_replicas: int = 4
    n_events: int = 8
    fault_start: float = 0.3  # let the service commit something first
    fault_end: float = 2.5  # global heal: everything recovers here
    quiescence: float = 6.0  # sim-seconds after heal for convergence
    load_rate: float = 250.0  # open-loop offered load (tx/s)
    checkpoint_interval: int = 10
    ledger_gc_min_age: float = 0.4  # small: GC races state sync on purpose
    view_change_timeout: float = 1.0
    max_crashed: int = 2  # may exceed f: stalls must heal, not wedge
    pipeline: int = 2  # P: consensus rounds in flight
    kinds: tuple[str, ...] = FAULT_KINDS

    def cli_args(self) -> str:
        """The non-default parameters, rendered as CLI flags, so a
        failure message contains the exact replay command."""
        default = ChaosParams()
        parts = []
        for flag, attr in (
            ("--replicas", "n_replicas"),
            ("--events", "n_events"),
            ("--fault-end", "fault_end"),
            ("--quiescence", "quiescence"),
            ("--rate", "load_rate"),
            ("--pipeline", "pipeline"),
        ):
            if getattr(self, attr) != getattr(default, attr):
                parts.append(f"{flag} {getattr(self, attr)}")
        return " ".join(parts)


@dataclass(frozen=True)
class FaultEvent:
    time: float
    kind: str
    args: tuple = ()

    def describe(self) -> str:
        return f"t={self.time:.4f} {self.kind}{list(self.args)}"


@dataclass(frozen=True)
class Schedule:
    seed: int
    params: ChaosParams = field(default_factory=ChaosParams)
    events: tuple[FaultEvent, ...] = ()

    def without(self, indices: set[int]) -> "Schedule":
        kept = tuple(e for i, e in enumerate(self.events) if i not in indices)
        return replace(self, events=kept)

    def describe(self) -> str:
        return "\n".join(e.describe() for e in self.events) or "(no fault events)"


BYZANTINE_BEHAVIORS = ("suppress_receipts", "silent")


def generate_schedule(seed: int, params: ChaosParams | None = None) -> Schedule:
    """Draw a fault schedule from ``seed``.  Structural rules keep every
    schedule *survivable*: crashes are paired with recoveries inside the
    fault window, at most ``max_crashed`` replicas are down at once, at
    most one replica is Byzantine at a time, and a late join is always
    preceded by the referendum that proposes it.  Liveness may be lost
    *during* the window (that is the point); the oracles only demand it
    return after the global heal."""
    params = params or ChaosParams()
    rng = random.Random(seed)
    events: list[FaultEvent] = []
    window = params.fault_end - params.fault_start
    crashed: dict[int, float] = {}  # id -> crash time (generation-time model)
    byz_busy_until = 0.0
    join_rid: int | None = None
    reconfig_time: float | None = None

    def draw_time(lo: float | None = None) -> float:
        lo = params.fault_start if lo is None else lo
        return round(rng.uniform(lo, params.fault_end), 4)

    kinds = [k for k in params.kinds if k not in ("recover", "late_join")]
    for _ in range(params.n_events):
        kind = rng.choice(kinds)
        t = draw_time()
        if kind == "partition":
            n_isolated = rng.choice((1, 1, 2))
            ids = sorted(rng.sample(range(params.n_replicas), n_isolated))
            duration = round(rng.uniform(0.2, max(0.25, window / 2)), 4)
            events.append(FaultEvent(t, "partition", (tuple(ids), duration)))
        elif kind == "crash":
            if len(crashed) >= params.max_crashed:
                continue
            alive = [i for i in range(params.n_replicas) if i not in crashed]
            rid = rng.choice(alive)
            crashed[rid] = t
            events.append(FaultEvent(t, "crash", (rid,)))
            # Pair every crash with a recovery before the global heal so
            # shrinking can drop either half independently.
            t_rec = draw_time(lo=min(t + 0.2, params.fault_end))
            resync = rng.random() < 0.7
            events.append(FaultEvent(t_rec, "recover", (rid, resync)))
            del crashed[rid]
        elif kind == "duplicate":
            probability = round(rng.uniform(0.05, 0.4), 3)
            duration = round(rng.uniform(0.2, window), 4)
            events.append(FaultEvent(t, "duplicate", (probability, duration)))
        elif kind == "reorder":
            reorder_window = round(rng.uniform(0.001, 0.005), 4)
            probability = round(rng.uniform(0.1, 0.6), 3)
            duration = round(rng.uniform(0.2, window), 4)
            events.append(FaultEvent(t, "reorder", (reorder_window, probability, duration)))
        elif kind == "byzantine":
            if t < byz_busy_until:
                continue
            rid = rng.randrange(params.n_replicas)
            behavior = rng.choice(BYZANTINE_BEHAVIORS)
            duration = round(rng.uniform(0.2, max(0.25, window / 2)), 4)
            byz_busy_until = t + duration
            events.append(FaultEvent(t, "byzantine", (rid, behavior, duration)))
        elif kind == "reconfigure":
            if join_rid is not None:
                continue
            join_rid = params.n_replicas  # first spare id
            # Propose early enough that activation can land mid-window.
            reconfig_time = round(
                rng.uniform(params.fault_start, params.fault_start + window / 3), 4
            )
            events.append(FaultEvent(reconfig_time, "reconfigure", (join_rid,)))
            # The new member deploys only after activation — the
            # late-join path (state sync must hand it the governance
            # chain when GC has eaten the prefix).
            t_join = draw_time(lo=min(reconfig_time + 0.8, params.fault_end))
            events.append(FaultEvent(t_join, "late_join", (join_rid,)))
    events.sort(key=lambda e: (e.time, e.kind, e.args))
    return Schedule(seed=seed, params=params, events=tuple(events))
