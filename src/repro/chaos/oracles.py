"""Invariant oracles for chaos runs.

Each oracle inspects a deployment and returns a list of violation
strings (empty = invariant holds).  Step oracles are cheap and run after
every applied fault event; quiescence oracles run once, after the global
heal plus a convergence window, and check the full safety/liveness
contract: committed prefixes agree, the service recovered, receipts are
fetchable and verifiable, and a checkpoint-rooted audit reproduces the
clean verdict (no spurious uPoM blame against correct replicas).
"""

from __future__ import annotations


def step_oracles(dep, event) -> list[str]:
    """Safety checks cheap enough to run after every fault event."""
    violations = []
    if not dep.ledgers_agree():
        violations.append(
            f"committed-prefix divergence immediately after {event.describe()}"
        )
    return violations


def quiescence_oracles(dep, probe, loadgen, sample_size: int = 8) -> list[str]:
    violations = []
    violations += _convergence(dep)
    violations += _request_tables_in_step(dep)
    violations += _slot_tables_in_step(dep)
    violations += _goodput_recovered(probe)
    violations += _receipts_verifiable(dep, probe, loadgen, sample_size)
    violations += _audit_reproduces(dep, probe, sample_size)
    return violations


def _correct_replicas(dep):
    """Replicas the safety oracles hold to account: everything deployed
    and not currently flagged Byzantine (after the global heal nothing is
    crashed and no behavior remains installed, so normally all of them)."""
    return [r for r in dep.replicas if r.behavior is None]


def _convergence(dep) -> list[str]:
    violations = []
    replicas = _correct_replicas(dep)
    if not dep.ledgers_agree():
        violations.append("quiescence: committed prefixes diverge across replicas")
    frontiers = {r.id: r.committed_upto for r in replicas}
    if len(set(frontiers.values())) != 1:
        violations.append(
            f"quiescence: commit frontiers did not converge: {frontiers}"
        )
    digests = {r.kv.state_digest() for r in replicas}
    if len(digests) != 1:
        violations.append(
            f"quiescence: {len(digests)} distinct KV state digests across replicas"
        )
    stranded = [
        r.id for r in replicas if r.syncing or not r.ready
    ]
    if stranded:
        violations.append(f"quiescence: replicas still syncing/not ready: {stranded}")
    views = {r.id: r.view for r in replicas}
    if len(set(views.values())) != 1:
        violations.append(f"quiescence: views did not converge: {views}")
    return violations


def _request_tables_in_step(dep) -> list[str]:
    """Every arrival time and verified mark a replica holds describes a
    request it still has queued — rollbacks, ledger adoptions and
    restarts must not leave entries behind for requests that left."""
    stale = {r.id: len(r.admission.orphans()) for r in _correct_replicas(dep)}
    return [
        f"quiescence: replica {rid} holds arrival/verified entries for {n} requests "
        "no longer queued"
        for rid, n in stale.items()
        if n
    ]


def _slot_tables_in_step(dep) -> list[str]:
    """Every slot-keyed message-table entry names a retained batch or a
    slot at/above the GC horizon: garbage collection, view-change
    rollbacks and ledger installs release a slot's messages with its
    batch.  One residual is out of reach: a prepare whose pre-prepare
    digest was never indexed carries no seqno to release it by."""
    violations = []
    for r in _correct_replicas(dep):
        slots = [seqno for _, seqno in r.ppd_index.values()]
        for table in (r.pps, r.commit_nonces, r.pending_commits, r.own_nonces):
            slots += [seqno for _, seqno in table]
        stale = sum(1 for seqno in slots if seqno < r.gc_horizon and seqno not in r.batches)
        if stale:
            violations.append(
                f"quiescence: replica {r.id} holds {stale} message-table entries for "
                f"slots below its GC horizon {r.gc_horizon} with no retained batch"
            )
    return violations


def _goodput_recovered(probe) -> list[str]:
    """The post-heal probe wave must fully commit: goodput returns once
    faults heal.  The probe client retries forever, so anything missing
    here is a wedge, not a lost message."""
    missing = [d for d in probe.chaos_probe_digests if d not in probe.receipts]
    if missing:
        return [
            f"goodput: {len(missing)} of {len(probe.chaos_probe_digests)} "
            f"post-heal probe transactions never earned a receipt"
        ]
    return []


def _receipts_verifiable(dep, probe, loadgen, sample_size: int) -> list[str]:
    """A deterministic sample of collected receipts must pass Alg. 3
    verification against the configuration that produced them."""
    from repro.receipts import verify_receipt

    violations = []
    reference = dep.replicas[0]
    receipts = list(probe.receipts.values()) + list(loadgen.receipts.values())
    step = max(1, len(receipts) // sample_size)
    for receipt in receipts[::step][:sample_size]:
        config = reference.config_for(receipt.seqno)
        if not verify_receipt(receipt, config, backend=dep.backend, cache=dep.verify_cache):
            violations.append(
                f"receipt for seqno {receipt.seqno} fails verification at quiescence"
            )
    return violations


def _audit_reproduces(dep, probe, sample_size: int) -> list[str]:
    """A checkpoint-rooted audit of sampled receipts must come back
    consistent: no run without injected *tampering* may produce uPoM
    blame, no matter what crash/partition/timing chaos happened."""
    from repro.audit import Auditor
    from repro.enforcement import make_enforcer
    from repro.errors import AuditError

    receipts = list(probe.receipts.values())
    if not receipts:
        return []
    step = max(1, len(receipts) // sample_size)
    sample = receipts[::step][:sample_size]
    try:
        result = Auditor(dep.registry, dep.params, backend=dep.backend).audit(
            sample, [probe.gov_chain], make_enforcer(dep)
        )
    except AuditError as exc:
        return [f"audit: rejected honest inputs: {exc}"]
    if not result.consistent:
        blamed = sorted(result.blamed_replicas())
        return [f"audit: spurious uPoM blame against correct replicas {blamed}"]
    return []
