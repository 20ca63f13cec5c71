"""Admission: the replica's request queue and every decision made over it.

One :class:`Admission` is owned by each replica (built in
``LPBFTReplica.__init__``).  It holds every table keyed by a
client-request digest ``H(t)`` and is the only code that writes them; the
rest of the replica asks through methods.

Overload control is *primary-coordinated*.  A request travels::

    admit ──(primary)──▶ check ──admit──▶ verify now ──▶ queue (T)
      │                    └─shed──▶ reject to client       │
      │ (backup)                                            ▼
      ▼                                                  select
    _stash_has_room ──full──▶ evict oldest while expired (deadline shed)
      │                                                     │
      └─room──▶ stash raw (pre-verify while the             ▼
                verify lanes are idle)                     take
                                                        (execution)
    backups at pre-prepare time: ensure_verified — one batched fan-out;
    a sequenced bad signature ⇒ the caller suspects the primary

The queue (the primary's T, a backup's stash) is one ordered map,
``requests``: digest → request, O(1) insert, delete-by-digest and
peek-oldest.  ``arrivals``, ``verified`` and ``sources`` (reply routing)
describe queued requests only: execution moves a request's reply address
into its batch record (``BatchRecord.sources``) and a rollback hands it
back.  ``trace_ctxs`` (tracing) outlives the queue entry while the
request's batch record is retained.

Budgets (module constants: no workload has needed another value):

- :data:`QUEUE_CAP`: hard memory bound on the queue/stash;
- :data:`LANE_BACKLOG_BUDGET`: execute-lane occupancy (seconds) beyond
  which ingress sheds regardless of queue length — lane backlog delays
  every protocol round, so it must stay small for consensus cadence;
- :data:`ADMISSION_BUDGET` (``CLIENT_TIMEOUT / 4``): projected queue drain
  budget; :meth:`Admission.service_time_estimate` (execute-cost EWMA +
  amortized verify) converts queue length into seconds;
- :data:`CLIENT_TIMEOUT`: :meth:`Admission.expired` is the one expiry rule —
  :meth:`Admission.select` drops queued work whose projected completion
  (waited + lane backlog + position × service estimate) the client would
  no longer wait for, the stash evicts its expired head, and a backup's
  view-change timer evicts every expired request before judging pendency.

Under churn a CPython table keeps the size of its peak, not of its live
entries; after :data:`COMPACT_SLACK` plus twice the live count of
removals, ``requests``, ``arrivals`` and ``verified`` are rebuilt in place
at their live size (amortised O(1) per removal, order kept).

Invariants: the map's order is arrival order (every insert is a new key,
so it lands at the tail); a digest is queued at most once; a request that
was dropped or rolled back and arrives again is a fresh tail entry, not a
return to its old place; every ``arrivals``/``verified`` key is queued
(:meth:`Admission.orphans` is empty), every ``sources`` key is queued and
every ``trace_ctxs`` key is queued or in a retained batch.  The primary is the *only*
admission point (backups never shed what the primary may sequence — no
fetch storms), verification is paid at most once per request
(``wasted_verify_s`` counts the exceptions), and every shed is audible to
the client as a reject.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

from ..crypto.hashing import Digest
from .messages import TransactionRequest

QUEUE_CAP = 3000  # requests
CLIENT_TIMEOUT = 2.0  # seconds: the client patience replicas shed against
ADMISSION_BUDGET = CLIENT_TIMEOUT / 4  # seconds of projected queue drain
LANE_BACKLOG_BUDGET = 0.05  # seconds of execute-lane occupancy
COMPACT_SLACK = 1024  # removals beyond twice the live count that trigger a compaction


class Admission:
    """The request queue of one replica: ingress verdicts, the backup
    stash, deferred verification, batch selection and deadline shedding."""

    def __init__(self, replica) -> None:
        self.replica = replica
        # T, the request queue: insertion order is arrival order.
        self.requests: OrderedDict[Digest, TransactionRequest] = OrderedDict()
        self.arrivals: dict[Digest, float] = {}  # admission time, for queue delay
        # Queued requests whose client signature has been verified
        # (backups defer verification until the primary sequences one).
        self.verified: set[Digest] = set()
        self.sources: dict[Digest, str] = {}  # where a queued request's replies go
        # Per-request parent span context (the client's root span, carried
        # as network metadata).  Populated only while tracing is enabled.
        self.trace_ctxs: dict[Digest, object] = {}
        # Per-request execute cost (EWMA of observed submissions) that the
        # admission budget and deadline shedding project with.
        self.exec_cost_ewma: float | None = None
        self._removed = 0  # queue removals since the last compaction

    def __len__(self) -> int:
        return len(self.requests)

    def __contains__(self, tx_digest: Digest) -> bool:
        return tx_digest in self.requests

    def get(self, tx_digest: Digest) -> TransactionRequest | None:
        return self.requests.get(tx_digest)

    # -- ingress ---------------------------------------------------------------------

    def admit(
        self, src: str, request: TransactionRequest, tx_digest: Digest,
        force: bool = False, record_source: bool = True,
    ) -> bool:
        """Queue a request that is neither queued nor executed; False when
        it was shed, refused by the stash, or carried a bad signature.
        ``force`` bypasses the verdicts (requests fetched for an
        already-proposed batch)."""
        replica = self.replica
        params = replica.params
        now = replica.now
        # The primary is the single admission point; backups stash raw
        # requests and admit exactly what the primary sequences.
        admission_point = replica.is_primary()
        tracing = replica.tracer.enabled
        if not force:
            if admission_point:
                reason = self.check()
                if reason is not None:
                    # Shed at ingress, *before* paying any verification
                    # cost; the rejection tells the client to back off.
                    replica.metrics.bump("requests_shed", reason=reason)
                    if tracing:
                        replica.tracer.annotate(
                            "shed", replica.address, now,
                            reason=reason, tx=tx_digest.hex()[:16])
                    replica.send(src, ("reject", tx_digest, reason))
                    return False
            elif not self._stash_has_room():
                replica.metrics.bump("requests_stash_dropped")
                return False
        # The admission point verifies what it admits.  Backups verify
        # *opportunistically*: eagerly while their verify lanes are idle
        # and the stash is shallow (keeping verification off the batch
        # critical path below the knee), deferred to pre-prepare time
        # once either congests — a deep stash means the primary is
        # shedding, so most stashed requests will never be sequenced and
        # pre-paying their verification would be pure waste.
        verify_now = admission_point or (
            len(self.requests) < params.max_batch
            and replica.cpu.backlog("verify", now) < LANE_BACKLOG_BUDGET
        )
        if verify_now and params.sign_client_requests:
            if not replica._verify(request.client, request.signed_payload(), request.signature):
                replica.metrics.bump("bad_client_signatures")
                return False
            self.verified.add(tx_digest)
        self.requests[tx_digest] = request
        self.arrivals[tx_digest] = now
        if tracing:
            if replica._inbound_ctx is not None:
                self.trace_ctxs.setdefault(tx_digest, replica._inbound_ctx)
            # Admission at the admission point, stash on backups — either
            # way the causal child of the client's request span.
            replica.tracer.span(
                "admission" if admission_point else "stash", replica.address, now,
                parent=self.trace_ctxs.get(tx_digest),
                end=replica.cpu_time(), verified=bool(verify_now))
        if record_source:
            self.sources[tx_digest] = src
        if admission_point:
            replica.metrics.bump("requests_admitted")
            replica.metrics.admitted.record(now)
        return True

    def service_time_estimate(self) -> float:
        """Projected serial-capacity seconds one queued request consumes:
        its execute cost (EWMA of observed submissions; cost-model
        estimate before any request ran) plus its verification cost
        amortized over the lanes verification fans out across."""
        replica = self.replica
        est = self.exec_cost_ewma
        if est is None:
            est = replica.costs.execute_tx(3, max(1, len(replica.kv)))
        if replica.params.sign_client_requests and replica.params.use_signatures:
            est += replica.costs.verify / max(1, replica.costs.cores - 2)
        return est

    def observe_execute_cost(self, cost: float) -> None:
        if self.exec_cost_ewma is None:
            self.exec_cost_ewma = cost
        else:
            self.exec_cost_ewma += 0.1 * (cost - self.exec_cost_ewma)

    def check(self) -> str | None:
        """Admission verdict at the admission point: ``None`` to admit, a
        rejection reason to shed.  The hard queue cap bounds memory; the
        backlog budget bounds the projected drain time of the backlog
        against the execute-lane schedule."""
        replica = self.replica
        params = replica.params
        queued = len(self.requests)
        if queued >= QUEUE_CAP:
            return "overloaded"
        backlog = replica.cpu.backlog("execute", replica.now)
        # Lane occupancy over its (small) budget: the CPU is drowning in
        # already-accepted work (verification floods every lane, so the
        # execute lane's backlog sees it), and every protocol message
        # round is stalling behind it — shed regardless of how short the
        # batching queue looks.
        if backlog > LANE_BACKLOG_BUDGET:
            return "overloaded"
        # Otherwise keep at least a pipeline's worth of full batches
        # queued — shedding below that starves batch formation — and
        # beyond it shed when the projected queue drain time busts the
        # backlog budget.
        if queued >= params.max_batch * params.pipeline and (
            backlog + (queued + 1) * self.service_time_estimate() > ADMISSION_BUDGET
        ):
            return "overloaded"
        return None

    def _stash_has_room(self) -> bool:
        """Backup stash bound.  The stash is *not* an admission point —
        dropping a request the primary later sequences forces a fetch
        round-trip — so it is bounded by memory (a generous multiple of
        the queue cap), with entries older than the client timeout
        evicted first (their client has given up; the primary would shed
        them too)."""
        # Runs per arrival under overload: peek the oldest entry, evict it
        # if expired, stop at the first fresh one.
        while len(self.requests) >= QUEUE_CAP and self.expired(next(iter(self.requests))):
            self.drop(next(iter(self.requests)), "requests_stash_evicted")
        return len(self.requests) < 16 * QUEUE_CAP

    def expired(self, tx_digest: Digest, ahead: float = 0.0) -> bool:
        """Will the client of a queued request have given up ``ahead``
        seconds from now?  Its wait counts from its arrival (from now
        when unknown) against the client timeout."""
        now = self.replica.now
        waited = now - self.arrivals.get(tx_digest, now)
        return waited + ahead > CLIENT_TIMEOUT

    def evict_expired(self) -> None:
        """Drop the expired requests anywhere in the queue: a primary
        sheds them (:meth:`select`), so a backup keeping one would suspect
        every primary over a request no primary will order."""
        for tx_digest in [d for d in self.requests if self.expired(d)]:
            self.drop(tx_digest, "requests_stash_evicted")

    def drop(
        self, tx_digest: Digest, counter: str | None, reject_reason: str | None = None
    ) -> None:
        """Remove a queued request (shed/evicted), accounting any CPU
        already sunk into it as wasted work and optionally telling the
        client."""
        replica = self.replica
        if self.requests.pop(tx_digest, None) is None:
            return
        self.arrivals.pop(tx_digest, None)
        if replica.tracer.enabled:
            replica.tracer.annotate(
                "shed", replica.address, replica.now,
                reason=reject_reason or (counter or "dropped"),
                tx=tx_digest.hex()[:16])
            self.trace_ctxs.pop(tx_digest, None)
        if tx_digest in self.verified:
            self.verified.discard(tx_digest)
            if replica.params.sign_client_requests and replica.params.use_signatures:
                # Shed-after-verify: the verification was pure waste.
                replica.metrics.bump("requests_wasted_verify")
                replica.metrics.bump("wasted_verify_s", replica.costs.verify)
        if counter is not None:
            replica.metrics.bump(counter)
        self._note_removal()
        # A dropped request can never be replied to — release its source
        # mapping (kept for executed requests to route replies).
        src = self.sources.pop(tx_digest, None)
        if reject_reason is not None and src is not None:
            replica.send(src, ("reject", tx_digest, reject_reason))

    def wasted_verify_seconds(self) -> float:
        """Verification CPU sunk into requests that were shed after being
        verified, plus verified requests still queued (admitted but never
        sequenced)."""
        replica = self.replica
        wasted = float(replica.metrics.counters.get("wasted_verify_s", 0.0))
        if replica.params.sign_client_requests and replica.params.use_signatures:
            wasted += len(self.verified) * replica.costs.verify
        return wasted

    # -- sequencing --------------------------------------------------------------------

    def ensure_verified(self, digests: Iterable[Digest]) -> bool:
        """Verify the client signatures of any still-unverified queued
        requests among ``digests`` in one batched fan-out (the deferred
        verification of coordinated admission).  Invalid requests are
        dropped; returns False if any were."""
        replica = self.replica
        if not replica.params.sign_client_requests:
            return True
        unverified = [d for d in digests if d not in self.verified and d in self.requests]
        if not unverified:
            return True
        verify_span = None
        if replica.tracer.enabled:
            verify_span = replica.tracer.span(
                "verify", replica.address, replica.cpu_time(),
                parent=self.trace_parent(unverified), count=len(unverified))
        verdicts = replica._verify_many(
            [
                (r.client, r.signed_payload(), r.signature)
                for r in (self.requests[d] for d in unverified)
            ]
        )
        if verify_span is not None:
            verify_span.finish(replica.cpu_time())
        all_ok = True
        for tx_digest, ok in zip(unverified, verdicts):
            if ok:
                self.verified.add(tx_digest)
            else:
                all_ok = False
                replica.metrics.bump("bad_client_signatures")
                self.drop(tx_digest, None)
        return all_ok

    def select(self, base_index: int) -> list[Digest]:
        """Pick the next batch's requests in arrival order, honoring each
        request's minimum ledger index (mi, §B.1).

        Queued requests whose projected completion — execute-lane backlog
        plus their queue position times the per-request service estimate
        — exceeds the client timeout are dropped here, *before* paying
        execute costs: their client will have given up before the reply
        could arrive."""
        replica = self.replica
        max_batch = replica.params.max_batch
        service_est = self.service_time_estimate()
        exec_backlog = replica.cpu.backlog("execute", replica.now)
        selected: list[Digest] = []
        expired: list[Digest] = []
        projected = base_index
        for position, (tx_digest, request) in enumerate(self.requests.items(), 1):
            if len(selected) >= max_batch:
                break
            # Projected completion = wait already accrued + remaining
            # queue drain + the request's own slot.  A retransmission
            # after the drop re-enqueues with a fresh arrival time.
            if self.expired(tx_digest, exec_backlog + service_est * position):
                expired.append(tx_digest)
                continue
            if request.min_index > projected:
                continue  # stays queued until the ledger grows past mi
            selected.append(tx_digest)
            projected += 1
        # Dropped after the walk: the map must not change under iteration.
        for tx_digest in expired:
            self.drop(tx_digest, "requests_deadline_dropped", reject_reason="deadline")
        return selected

    def take(self, tx_digest: Digest) -> tuple[TransactionRequest, float | None, str | None]:
        """Hand a queued request to execution: it leaves the queue with
        its arrival time, for the queue delay, and its reply address,
        for its batch record (each None when unknown).  Trace context
        stays until :meth:`forget`."""
        self.verified.discard(tx_digest)
        request = self.requests.pop(tx_digest)
        self._note_removal()
        return request, self.arrivals.pop(tx_digest, None), self.sources.pop(tx_digest, None)

    def _note_removal(self) -> None:
        """Count one queue removal; past the slack, rebuild the three
        queue tables at their live size (in place, order kept)."""
        self._removed += 1
        if self._removed > 2 * len(self.requests) + COMPACT_SLACK:
            self._removed = 0
            for table in (self.requests, self.arrivals, self.verified):
                kept = table.copy()
                table.clear()
                table.update(kept)

    def requeue(self, record, arrival: float | None = None) -> None:
        """Return a rolled-back batch's requests, with their reply
        addresses, to the tail of the queue, still marked verified — they
        were verified before they were sequenced.  Without ``arrival`` a
        request has no known age: at the head it stops the stash scan,
        and its deadline wait counts from zero."""
        for position, (tx_digest, src) in enumerate(zip(record.tx_digests, record.sources)):
            if tx_digest is not None and tx_digest not in self.requests:
                self.requests[tx_digest] = record.run.entry(position).request()
                self.verified.add(tx_digest)
                if arrival is not None:
                    self.arrivals[tx_digest] = arrival
            if src is not None:
                self.sources.setdefault(tx_digest, src)

    # -- release -----------------------------------------------------------------------

    def discard(self, digests: Iterable[Digest]) -> None:
        """Unqueue requests an adopted ledger already executed (their
        reply addresses went to its batch records first)."""
        for tx_digest in digests:
            if tx_digest in self.requests:
                self.take(tx_digest)

    def forget(self, record) -> None:
        """Release the trace context of the requests of a batch whose
        record is garbage-collected: a later reply is rebuilt from the
        ledger and routed to whoever asks."""
        for tx_digest in record.tx_digests:
            self.trace_ctxs.pop(tx_digest, None)

    def reset(self) -> None:
        """Lose everything a process restart would (in place: the queue
        stays the ordered map ``__init__`` built)."""
        for table in (self.requests, self.arrivals, self.verified, self.sources, self.trace_ctxs):
            table.clear()
        self._removed = 0

    def orphans(self) -> set[Digest]:
        """Keys of ``arrivals``/``verified`` that outlived their queue
        entry: empty while the invariant holds (a chaos oracle checks)."""
        return (self.arrivals.keys() | self.verified) - self.requests.keys()

    # -- reply routing and tracing -----------------------------------------------------

    def note_source(self, tx_digest: Digest, src: str, replace: bool = False) -> None:
        """Remember where replies for ``tx_digest`` go (first sender wins
        unless ``replace``): here while it is queued, in its retained
        batch record once it executed."""
        if tx_digest in self.requests:
            if replace or tx_digest not in self.sources:
                self.sources[tx_digest] = src
            return
        replica = self.replica
        found = replica.batches.executed(tx_digest, replica.tx_locations.get(tx_digest))
        if found is not None:
            record, position = found
            if replace or record.sources[position] is None:
                record.sources[position] = src

    def trace_parent(self, digests: Iterable[Digest]):
        """The first traced request's span context among ``digests``."""
        return next((self.trace_ctxs[d] for d in digests if d in self.trace_ctxs), None)
