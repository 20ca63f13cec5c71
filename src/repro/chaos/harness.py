"""Execute a fault schedule against a live deployment and judge it.

:func:`run_schedule` is a pure function of its :class:`Schedule`: the
deployment seed, the workload, every fault application, and the global
heal are all derived from ``(seed, params)``, and the run emits a
deterministic event *trace* — byte-identical across replays of the same
schedule — whose digest CI can pin.

Run shape::

    [0, fault_start)          warm-up: open-loop load, no faults
    [fault_start, fault_end)  fault window: schedule events fire;
                              cheap safety oracles after each one
    fault_end                 global heal: partitions healed, crashed
                              replicas recovered (resync), Byzantine
                              behaviors cleared, network pristine;
                              a closed-loop probe wave is submitted
    [fault_end, end]          quiescence: convergence window, then the
                              full oracle suite
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass, field

from .oracles import quiescence_oracles, step_oracles
from .schedule import ChaosParams, FaultEvent, Schedule, generate_schedule

PROBE_WAVE = 10  # closed-loop transactions submitted at the global heal


@dataclass
class ChaosResult:
    schedule: Schedule
    violations: list[str] = field(default_factory=list)
    trace: tuple[str, ...] = ()
    summary: dict = field(default_factory=dict)
    #: Live span tracer when the run was started with ``trace=True``
    #: (spans + fault annotations); exportable via
    #: :func:`repro.obs.export.write_perfetto`.  Excluded from the event
    #: trace and its digest, which stay byte-identical either way.
    span_tracer: object = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def trace_digest(self) -> str:
        return hashlib.sha256("\n".join(self.trace).encode()).hexdigest()

    @property
    def replay_command(self) -> str:
        extra = self.schedule.params.cli_args()
        suffix = f" {extra}" if extra else ""
        return f"PYTHONPATH=src python -m repro.chaos --seed {self.schedule.seed}{suffix}"


def run_seed(seed: int, params: ChaosParams | None = None,
             trace: bool = False) -> ChaosResult:
    """Generate the schedule for ``seed`` and run it."""
    return run_schedule(generate_schedule(seed, params), trace=trace)


def run_schedule(schedule: Schedule, trace: bool = False) -> ChaosResult:
    """Run ``schedule`` to quiescence and evaluate every oracle.

    ``trace=True`` additionally records request/fault spans (the span
    tracer is passive — it never schedules work — so the event trace and
    its pinned digest are identical with or without it)."""
    from repro.lpbft import Deployment, ProtocolParams
    from repro.workloads import SmallBankWorkload, initial_state, register_smallbank

    cp = schedule.params
    proto = ProtocolParams(
        pipeline=cp.pipeline,
        max_batch=20,
        checkpoint_interval=cp.checkpoint_interval,
        batch_delay=0.0005,
        view_change_timeout=cp.view_change_timeout,
        ledger_gc_min_age=cp.ledger_gc_min_age,
    )
    dep = Deployment(
        n_replicas=cp.n_replicas,
        params=proto,
        registry_setup=register_smallbank,
        initial_state=initial_state(200),
        seed=b"chaos|" + str(schedule.seed).encode(),
    )
    span_tracer = dep.enable_tracing() if trace else None
    # Provision (but do not deploy) every replica the schedule may add,
    # so a referendum can propose it before it exists — the late-join
    # flow under test.
    for event in schedule.events:
        if event.kind in ("reconfigure", "late_join"):
            dep.provision_replica(event.args[0])

    loadgen = dep.add_load_generator(
        SmallBankWorkload(n_accounts=200, seed=schedule.seed % 65521),
        rate=cp.load_rate,
        stop_at=cp.fault_end,
        retry_timeout=0.5,
    )
    probe = dep.add_client(retry_timeout=0.5)
    probe.chaos_probe_digests = []
    members = {
        m.member_id: dep.member_client(m.member_id)
        for m in dep.genesis_config.members
    }

    trace: list[str] = []
    violations: list[str] = []
    runner = _EventRunner(dep, schedule, members, trace, violations)
    for event in schedule.events:
        dep.net.scheduler.at(event.time, lambda e=event: runner.apply(e))

    dep.start()
    try:
        dep.run(until=cp.fault_end)
        runner.global_heal()
        trace.append(f"t={cp.fault_end:.4f} global-heal crashed={sorted(runner.healed)}")

        wl = SmallBankWorkload(n_accounts=200, seed=(schedule.seed + 1) % 65521)
        for _ in range(PROBE_WAVE):
            probe.chaos_probe_digests.append(probe.submit(*wl.next_transaction(), min_index=0))
        dep.run(until=cp.fault_end + cp.quiescence)
        violations += quiescence_oracles(dep, probe, loadgen)
    except Exception as exc:
        # A node raising out of the event loop is a finding like any
        # other: report it with the trace so far, so the shrinker can
        # minimise the schedule instead of dying with it.
        violations.append(f"exception: {type(exc).__name__}: {exc} at {_innermost_src_frame(exc)}")
    trace.append(_snapshot(dep, probe, loadgen))
    return ChaosResult(
        schedule=schedule,
        violations=violations,
        trace=tuple(trace),
        span_tracer=span_tracer,
        summary={
            "committed": [r.committed_upto for r in dep.replicas],
            "views": [r.view for r in dep.replicas],
            "probe_receipts": len([d for d in probe.chaos_probe_digests if d in probe.receipts]),
            "load_receipts": len(loadgen.receipts),
            "load_submitted": loadgen.submitted,
            "replicas": len(dep.replicas),
        },
    )


class _EventRunner:
    """Applies fault events to a live deployment, recording what actually
    happened (an event can be a no-op, e.g. recovering a replica a
    shrunken schedule never crashed) so traces stay byte-identical."""

    def __init__(self, dep, schedule: Schedule, members, trace, violations) -> None:
        self.dep = dep
        self.schedule = schedule
        self.members = members
        self.trace = trace
        self.violations = violations
        self.healed: list[int] = []
        self._dup_seed = schedule.seed * 31 + 7

    def apply(self, event: FaultEvent) -> None:
        outcome = getattr(self, f"_apply_{event.kind}")(event)
        self.trace.append(f"{event.describe()} -> {outcome}")
        if self.dep.tracer.enabled:
            self.dep.tracer.annotate(
                f"fault:{event.kind}", "chaos", event.time,
                args=list(event.args), outcome=outcome)
        self.violations.extend(step_oracles(self.dep, event))

    # -- one method per fault kind ------------------------------------------------

    def _apply_partition(self, event: FaultEvent) -> str:
        ids, duration = event.args
        self.dep.partition_replicas(list(ids), duration=duration)
        return "applied"

    def _apply_crash(self, event: FaultEvent) -> str:
        (rid,) = event.args
        if rid in self.dep.crashed_replica_ids() or rid >= len(self.dep.replicas):
            return "noop"
        self.dep.crash_replica(rid)
        return "applied"

    def _apply_recover(self, event: FaultEvent) -> str:
        rid, resync = event.args
        if rid not in self.dep.crashed_replica_ids():
            return "noop"
        self.dep.recover_replica(rid, resync=resync)
        return "applied"

    def _apply_duplicate(self, event: FaultEvent) -> str:
        probability, duration = event.args
        self.dep.net.add_duplicate_rule(probability=probability, seed=self._dup_seed)
        self.dep.net.scheduler.at(
            event.time + duration, self.dep.net.clear_duplicate_rules
        )
        return "applied"

    def _apply_reorder(self, event: FaultEvent) -> str:
        window, probability, duration = event.args
        self.dep.net.set_reorder(window, probability, seed=self._dup_seed)
        self.dep.net.scheduler.at(
            event.time + duration, lambda: self.dep.net.set_reorder(0.0)
        )
        return "applied"

    def _apply_byzantine(self, event: FaultEvent) -> str:
        rid, behavior_name, duration = event.args
        if rid >= len(self.dep.replicas):
            return "noop"
        from repro.byzantine import SilentReplica, SuppressReceipts

        replica = self.dep.replicas[rid]
        replica.behavior = (
            SuppressReceipts() if behavior_name == "suppress_receipts" else SilentReplica()
        )
        self.dep.net.scheduler.at(
            event.time + duration, lambda: setattr(replica, "behavior", None)
        )
        return "applied"

    def _apply_reconfigure(self, event: FaultEvent) -> str:
        (rid,) = event.args
        if any(r.id == rid for r in self.dep.replicas):
            return "noop"
        new_config = self.dep.propose_successor(add=[rid])
        names = sorted(self.members)
        proposer = names[0]
        self.members[proposer].submit(
            "gov.propose", {"member": proposer, "config": new_config.to_wire()}, min_index=0
        )
        # Stagger the votes so each lands in its own batch, as real
        # members would; referendum then EOC then activation follow the
        # normal pipeline-delayed path — racing whatever else the
        # schedule throws at the run, which is the point.
        for offset, name in enumerate(names):
            self.dep.net.scheduler.at(
                event.time + 0.05 * (offset + 1),
                lambda n=name: self.members[n].submit(
                    "gov.vote", {"member": n, "accept": True}, min_index=0
                ),
            )
        return "applied"

    def _apply_late_join(self, event: FaultEvent) -> str:
        (rid,) = event.args
        if any(r.id == rid for r in self.dep.replicas):
            return "noop"
        self.dep.add_replica(rid)
        return "applied"

    # -- global heal ---------------------------------------------------------------

    def global_heal(self) -> None:
        dep = self.dep
        dep.net.heal_partitions()
        dep.net.clear_duplicate_rules()
        dep.net.set_reorder(0.0)
        for replica in dep.replicas:
            replica.behavior = None
        for rid in sorted(dep.crashed_replica_ids()):
            dep.recover_replica(rid, resync=True)
            self.healed.append(rid)


def _innermost_src_frame(exc: BaseException) -> str:
    """``file:line in function`` of the deepest frame inside ``src/``."""
    frames = [f for f in traceback.extract_tb(exc.__traceback__) if "/src/" in f.filename]
    if not frames:
        return "<no src/ frame>"
    frame = frames[-1]
    return f"src/{frame.filename.rsplit('/src/', 1)[1]}:{frame.lineno} in {frame.name}"


def _snapshot(dep, probe, loadgen) -> str:
    """The end-of-run state line: everything here is a deterministic
    function of the schedule, so it pins replays byte-for-byte."""
    root = dep.replicas[0].ledger.root().hex() if dep.replicas[0].committed_upto > 0 else "-"
    kv = sorted({r.kv.state_digest().hex()[:16] for r in dep.replicas})
    return (
        f"final committed={[r.committed_upto for r in dep.replicas]} "
        f"views={[r.view for r in dep.replicas]} "
        f"ledger_root={root[:16]} kv_digests={kv} "
        f"probe={len([d for d in probe.chaos_probe_digests if d in probe.receipts])}"
        f"/{len(probe.chaos_probe_digests)} "
        f"load_receipts={len(loadgen.receipts)}/{loadgen.submitted} "
        f"messages={dep.net.messages_sent}"
    )
