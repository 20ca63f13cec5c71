"""IA-CCF clients (paper §2, §3.3, §5.2).

A client signs transaction requests, broadcasts them to the replicas, and
assembles receipts from ``N − f`` replies plus the designated replica's
``replyx``.  Clients never hold the ledger; across reconfigurations they
maintain a governance receipt chain fetched from replicas, which tells
them the signing keys to verify receipts against.

:class:`LPBFTClient` is the interactive client; :class:`LoadGenerator`
drives open-loop benchmark load through the same code path.
"""

from __future__ import annotations

from typing import Any, Callable

from .. import codec
from ..crypto import signatures
from ..crypto.hashing import Digest
from ..errors import ReceiptError
from ..lpbft.messages import Reply, ReplyX, TransactionRequest
from ..network import Node
from ..receipts import GovernanceChain, Receipt, ReceiptCollector, verify_chain
from ..sim.costs import CostModel
from ..sim.metrics import MetricsCollector


class LPBFTClient(Node):
    """A client: signs requests, collects receipts, tracks governance.

    ``on_receipt`` (if given) is called with ``(tx_digest, receipt,
    latency_seconds)`` whenever a receipt completes.

    Backpressure: replicas that shed a request send a ``reject`` back;
    the client then retries under seeded exponential backoff
    (``backoff``, defaulting to a policy based at ``retry_timeout``) and
    gives up after ``retry_budget`` retransmissions (None = never),
    counting ``requests_rejected`` / ``request_retries`` /
    ``requests_abandoned``.  Requests that simply time out keep the
    legacy fixed retransmission cadence unless a ``backoff`` policy is
    passed explicitly.
    """

    def __init__(
        self,
        name: str,
        keypair: signatures.KeyPair,
        service_name: Digest,
        genesis_config,
        replica_addresses: list[str],
        params,
        costs: CostModel | None = None,
        metrics: MetricsCollector | None = None,
        site: str = "local",
        backend: signatures.SignatureBackend | None = None,
        on_receipt: Callable[[Digest, Receipt, float], None] | None = None,
        retry_timeout: float = 2.0,
        verify_receipts: bool = True,
        retry_budget: int | None = None,
        backoff=None,
        backoff_seed: int = 0,
    ) -> None:
        super().__init__(address=name, site=site)
        self.keypair = keypair
        self.service_name = service_name
        self.params = params
        self.costs = costs or CostModel()
        self.metrics = metrics or MetricsCollector()
        self.backend = backend or signatures.default_backend()
        self.replica_addresses = list(replica_addresses)
        self.collector = ReceiptCollector(
            genesis_config,
            verify=verify_receipts,
            backend=self.backend,
            completion_gate=self._governance_covers,
            aggregate=params.aggregate_signatures,
        )
        self.gov_chain = GovernanceChain.genesis(genesis_config)
        self.on_receipt = on_receipt
        self.retry_timeout = retry_timeout
        self.recording = True
        self.max_seen_index = 0
        self.receipts: dict[Digest, Receipt] = {}
        self._nonce = 0
        self._known_gov_index = 0
        self._fetching_gov = False
        self._gov_fetch_at = 0.0
        self._retry_cursor = 0
        # Backpressure state (per in-flight request).
        self.retry_budget = retry_budget
        self.backoff = backoff
        self._explicit_backoff = backoff is not None
        self._backoff_seed = backoff_seed
        self._attempts: dict[Digest, int] = {}
        self._next_retry: dict[Digest, float] = {}
        self._rejected_attempt: dict[Digest, int] = {}
        # Transactions whose batch fell below the service's ledger-GC
        # retention horizon before a receipt could be assembled:
        # tx digest -> (checkpoint seqno, checkpoint digest dC) that now
        # vouches for their effects — or None when the reporters did not
        # agree on a single checkpoint.  Individual ``replyx-gone``
        # reports accumulate per sender below; only f+1 distinct replicas
        # saying "collected" is believed (a single Byzantine replica must
        # not be able to make the client abandon a live receipt).
        self.gc_unavailable: dict[Digest, tuple[int, bytes] | None] = {}
        self._gone_reports: dict[Digest, dict[str, tuple[int, bytes]]] = {}
        # Tracing (populated only while a deployment tracer is enabled):
        # root "request" span per in-flight tx, and the first reply's
        # arrival instant (start of the receipt-assembly stage).
        self._root_spans: dict[Digest, Any] = {}
        self._first_reply: dict[Digest, float] = {}

    # -- submitting requests ----------------------------------------------------

    def submit(
        self,
        procedure: str,
        args: dict,
        min_index: int | None = None,
    ) -> Digest:
        """Sign and broadcast a transaction request; returns ``H(t)``.

        ``min_index`` defaults to one past the largest ledger index this
        client has a receipt for, encoding real-time ordering dependencies
        (§B.1 "minimum ledger index")."""
        self._nonce += 1
        request = TransactionRequest(
            procedure=procedure,
            args=args,
            client=self.keypair.public_key,
            service=self.service_name,
            min_index=self.max_seen_index + 1 if min_index is None else min_index,
            nonce=self._nonce,
        )
        if self.params.sign_client_requests:
            signature = self.backend.sign(self.keypair, request.signed_payload())
        else:
            signature = b""
        request = request.with_signature(signature)
        tx_digest = request.request_digest()
        self.collector.track(tx_digest, request.to_wire(), now=self.now)
        # Sealed, so the network sizes the one payload once for all replicas.
        payload = codec.seal(("request", request.to_wire()))
        if self.tracer.enabled:
            root = self.tracer.root_span(
                "request", self.address, self.now,
                tx=tx_digest.hex()[:16], procedure=procedure)
            self._root_spans[tx_digest] = root
            prev_ctx = self._send_ctx
            self._send_ctx = root.context
            try:
                for address in self.replica_addresses:
                    self.send(address, payload)
            finally:
                self._send_ctx = prev_ctx
            return tx_digest
        for address in self.replica_addresses:
            self.send(address, payload)
        return tx_digest

    def pending_count(self) -> int:
        return len(self.collector.pending_digests())

    def receipt_for(self, tx_digest: Digest) -> Receipt | None:
        return self.receipts.get(tx_digest)

    # -- message handling -----------------------------------------------------------

    def on_message(self, src: str, msg: Any) -> None:
        # Client CPU is deliberately not modeled: the paper scales client
        # machines with offered load, so clients are never the bottleneck.
        kind = msg[0]
        if kind == "reply":
            reply = Reply.from_wire(msg[1])
            for tx_digest in msg[2]:
                if self.tracer.enabled and tx_digest in self._root_spans:
                    self._first_reply.setdefault(tx_digest, self.now)
                finished = self.collector.add_reply(tx_digest, reply)
                if finished is not None:
                    self._complete(tx_digest, finished)
        elif kind == "replyx":
            replyx = ReplyX.from_wire(msg[1])
            if self.tracer.enabled and replyx.tx_digest in self._root_spans:
                self._first_reply.setdefault(replyx.tx_digest, self.now)
            self._note_gov_index(replyx.gov_index)
            finished = self.collector.add_replyx(replyx.tx_digest, replyx)
            if finished is not None:
                self._complete(replyx.tx_digest, finished)
        elif kind == "reject":
            self._handle_reject(msg[1], msg[2])
        elif kind == "replyx-gone":
            self._handle_replyx_gone(src, msg[1], msg[2], msg[3])
        elif kind == "gov-chain-resp":
            self._handle_gov_chain(msg[1], msg[2] if len(msg) > 2 else ())

    def _complete(self, tx_digest: Digest, receipt: Receipt) -> None:
        if tx_digest in self.receipts:
            return
        self.receipts[tx_digest] = receipt
        self._attempts.pop(tx_digest, None)
        self._next_retry.pop(tx_digest, None)
        self._rejected_attempt.pop(tx_digest, None)
        self._gone_reports.pop(tx_digest, None)
        if receipt.index is not None:
            self.max_seen_index = max(self.max_seen_index, receipt.index)
        sent = self.collector.sent_at(tx_digest)
        latency = 0.0 if sent is None else self.now - sent
        if self.recording:
            self.metrics.latency.record(latency)
            self.metrics.goodput.record(self.now)
            self.metrics.bump("receipts_completed")
        if self.tracer.enabled:
            root = self._root_spans.pop(tx_digest, None)
            if root is not None:
                first = self._first_reply.pop(tx_digest, self.now)
                self.tracer.span(
                    "receipt", self.address, first, parent=root, end=self.now,
                    replies=True)
                root.set(seqno=receipt.seqno)
                root.finish(self.now)
        if self.on_receipt is not None:
            self.on_receipt(tx_digest, receipt, latency)

    # -- governance chain maintenance (§5.2) -------------------------------------------

    def _governance_covers(self, receipt: Receipt) -> bool:
        """Completion gate: accept a receipt only once every governance
        transaction it references (``gov_index``) has been verified.

        Without the gate, a quorum of replies collected under a
        superseded configuration can assemble — and *verify* — for a
        sequence number the successor configuration owns: the signatures
        are genuine, only the signer set is stale.  The ledger index of
        the newest governance transaction the batch saw (``gov_index``,
        carried in every replyx) is the tell: if it points past what the
        client has verified, the receipt stays pending (still
        retransmitting) and a chain fetch races to close the gap."""
        if receipt.gov_index <= self._known_gov_index:
            return True
        self._note_gov_index(receipt.gov_index)
        return False

    def _note_gov_index(self, gov_index: int) -> None:
        """A receipt referencing a newer governance transaction than we
        know about triggers a chain fetch."""
        if gov_index > self._known_gov_index and not self._fetching_gov:
            self._fetching_gov = True
            self._send_gov_fetch()

    def _send_gov_fetch(self) -> None:
        """Ask a replica for its governance chain, rotating through the
        directory: any single fixed target could be crashed or partitioned
        exactly when the chain is needed, and an unanswered fetch would
        otherwise wedge ``_fetching_gov`` forever — leaving the collector
        assembling receipts against a stale configuration whose quorum no
        longer matches (the retry timer re-fires this until answered)."""
        self._gov_fetch_at = self.now
        self._retry_cursor = (self._retry_cursor + 1) % len(self.replica_addresses)
        self.send(self.replica_addresses[self._retry_cursor], ("get-gov-chain",))

    def _handle_gov_chain(self, wire: tuple, suffix: tuple = ()) -> None:
        self._fetching_gov = False
        try:
            chain = GovernanceChain.from_wire(wire)
            schedule = verify_chain(chain, self.params.pipeline, self.backend)
        except ReceiptError:
            self.metrics.bump("bad_gov_chains")
            return
        if len(chain) > len(self.gov_chain):
            self.gov_chain = chain
            self.collector.update_schedule(schedule)
            self.metrics.bump("gov_chain_updates")
        if len(chain) >= len(self.gov_chain):
            # Every governance transaction the chain carries a receipt
            # for is covered; the member-signed suffix past the last
            # link (failed proposals, in-flight referendums) extends
            # coverage further.
            for link in chain.links:
                for receipt in (link.propose_receipt, *link.vote_receipts):
                    if receipt.index is not None and receipt.index > self._known_gov_index:
                        self._known_gov_index = receipt.index
            self._extend_coverage(schedule, suffix)
        # Coverage or configuration may have moved: deferred receipts can
        # now complete without waiting for another reply.
        for tx_digest, receipt in self.collector.recheck():
            self._complete(tx_digest, receipt)

    def _extend_coverage(self, schedule, suffix: tuple) -> None:
        """Advance the covered governance index through member-signed
        transactions past the chain's last link (§5.2).

        Failed proposals and non-final votes never activate a
        configuration, so receipts referencing them are safe to accept
        once their member signatures check out.  Replaying them on a
        scratch store detects a referendum that *passed*: coverage stops
        just short of it, keeping receipts at or past the pending
        activation deferred until the chain grows the matching link.
        Entry positions are claimed by the serving replica (signatures
        bind content, not ledger position), so a Byzantine responder can
        delay coverage but cannot forge membership or passage; the retry
        path rotates to another replica."""
        if not suffix:
            return
        from ..governance.transactions import (
            accepted_configuration,
            install_configuration,
            register_governance_procedures,
        )
        from ..kvstore import KVStore, ProcedureRegistry
        from ..ledger.entries import TxEntry, entry_from_wire

        config = schedule.current()
        member_keys = {m.public_key for m in config.members}
        registry = ProcedureRegistry()
        register_governance_procedures(registry)
        scratch = KVStore()
        scratch.execute(lambda tx: install_configuration(tx, config))
        covered = self._known_gov_index
        for index, entry_wire in sorted(suffix):
            if index <= covered:
                continue
            try:
                entry = entry_from_wire(entry_wire)
            except Exception:
                break
            if not isinstance(entry, TxEntry):
                continue
            request = entry.request()
            if not request.procedure.startswith("gov."):
                break
            if request.client not in member_keys:
                break
            if self.params.sign_client_requests and not self.backend.verify(
                request.client, request.signed_payload(), request.signature
            ):
                break
            scratch.execute(
                lambda tx, r=request: registry.invoke(r.procedure, tx, r.args)
            )
            passed = [None]
            scratch.execute(
                lambda tx, out=passed: out.__setitem__(0, accepted_configuration(tx))
            )
            if passed[0] is not None:
                break  # referendum passed: wait for its chain link
            covered = index
        self._known_gov_index = covered

    # -- retries and backpressure -------------------------------------------------

    def on_start(self) -> None:
        self._arm_retry_timer()

    def _arm_retry_timer(self) -> None:
        self.set_timer(self.retry_timeout, self._on_retry_timer)

    def _backoff_policy(self):
        """The backoff policy, created lazily (seeded) on first use so
        clients that never see rejections pay nothing."""
        if self.backoff is None:
            from ..workloads.loadgen import ExponentialBackoff

            self.backoff = ExponentialBackoff(
                base=self.retry_timeout, cap=8.0 * self.retry_timeout, seed=self._backoff_seed
            )
        return self.backoff

    def _handle_reject(self, tx_digest: Digest, reason: str) -> None:
        """A replica shed this request: back off before retransmitting,
        or give up if the retry budget is spent (§3.3 retransmission,
        throttled)."""
        if tx_digest in self.receipts or self.collector.request_wire(tx_digest) is None:
            return
        attempt = self._attempts.get(tx_digest, 0)
        if self._rejected_attempt.get(tx_digest) == attempt:
            return  # one backoff step per attempt, however many replicas shed
        self._rejected_attempt[tx_digest] = attempt
        if self.recording:  # counters are windowed, like the baselines'
            self.metrics.bump("requests_rejected")
        if self.retry_budget is not None and attempt >= self.retry_budget:
            self._abandon(tx_digest)
            return
        self._next_retry[tx_digest] = self.now + self._backoff_policy().delay(attempt)

    def _handle_replyx_gone(
        self, src: str, tx_digest: Digest, cp_seqno: int, cp_digest: bytes
    ) -> None:
        """A replica reports the transaction's batch was garbage-collected
        below the retention horizon: no ``replyx`` can ever be rebuilt
        there.  A single report is not believed — a lone Byzantine replica
        could otherwise kill receipt assembly for a live transaction —
        but once **f + 1 distinct replicas** report the batch collected,
        at least one correct replica vouches, so assembly is abandoned
        and the newest reported vouching checkpoint (seqno, dC) is
        recorded: the client's proof duty moves to the checkpoint chain
        (it should have collected the receipt promptly; §4.1 audits of
        that span now run from checkpoint state too).  The retry loop
        keeps rotating through replicas meanwhile, so an honest holder is
        still asked."""
        if tx_digest in self.receipts or self.collector.request_wire(tx_digest) is None:
            return
        reports = self._gone_reports.setdefault(tx_digest, {})
        reports[src] = (cp_seqno, cp_digest)
        # The *abandon* decision needs f + 1 distinct reporters (at least
        # one correct replica then vouches the batch is collected).  The
        # recorded *anchor* is held to a higher bar: f + 1 reporters must
        # agree on the same (seqno, dC) — honest replicas GC with some
        # skew and may cite different oldest-stable checkpoints, and a
        # lone Byzantine claim must never become the digest the client
        # anchors its proof duty on.  Without agreement the transaction is
        # still marked collected, anchor None (re-derivable from any later
        # audit or governance fetch).
        f = self.collector.config.f
        if len(reports) < f + 1:
            return
        counts: dict[tuple[int, bytes], int] = {}
        for claim in reports.values():
            counts[claim] = counts.get(claim, 0) + 1
        agreed, n = max(counts.items(), key=lambda item: item[1])
        self.gc_unavailable[tx_digest] = agreed if n >= f + 1 else None
        if self.collector.abandon(tx_digest) and self.recording:
            self.metrics.bump("receipts_gc_unavailable")
        self._gone_reports.pop(tx_digest, None)
        self._attempts.pop(tx_digest, None)
        self._next_retry.pop(tx_digest, None)
        self._rejected_attempt.pop(tx_digest, None)

    def _abandon(self, tx_digest: Digest) -> None:
        if self.collector.abandon(tx_digest) and self.recording:
            self.metrics.bump("requests_abandoned")
        if self.tracer.enabled:
            root = self._root_spans.pop(tx_digest, None)
            if root is not None:
                root.set(abandoned=True)
                root.finish(self.now)
            self._first_reply.pop(tx_digest, None)
        self._attempts.pop(tx_digest, None)
        self._next_retry.pop(tx_digest, None)
        self._rejected_attempt.pop(tx_digest, None)
        self._gone_reports.pop(tx_digest, None)

    def _on_retry_timer(self) -> None:
        """Retransmit stale requests and ask an alternate replica for the
        missing ``replyx`` (§3.3: "it retransmits the request and selects
        a different replica to send back replyx").  Requests under
        backoff wait for their scheduled instant; requests out of retry
        budget are abandoned."""
        now = self.now
        if self._fetching_gov and now - self._gov_fetch_at >= self.retry_timeout:
            self._send_gov_fetch()  # previous target lost/crashed: re-ask
        for tx_digest in self.collector.pending_digests():
            sent = self.collector.sent_at(tx_digest)
            if sent is None:
                continue
            due = self._next_retry.get(tx_digest)
            if due is None:
                if now - sent < self.retry_timeout:
                    continue
                if self._explicit_backoff:
                    # Timeouts back off too when a policy was configured.
                    due = now
            if due is not None and now < due:
                continue
            attempt = self._attempts.get(tx_digest, 0)
            if self.retry_budget is not None and attempt >= self.retry_budget:
                self._abandon(tx_digest)
                continue
            self._attempts[tx_digest] = attempt + 1
            payload = codec.seal(("request", self.collector.request_wire(tx_digest)))
            if self.tracer.enabled:
                # Retransmissions rejoin the original request's trace.
                root = self._root_spans.get(tx_digest)
                self._send_ctx = root.context if root is not None else None
                self.tracer.annotate("retry", self.address, now,
                                     tx=tx_digest.hex()[:16], attempt=attempt + 1)
            for address in self.replica_addresses:
                self.send(address, payload)
            self._retry_cursor = (self._retry_cursor + 1) % len(self.replica_addresses)
            self.send(self.replica_addresses[self._retry_cursor], ("get-replyx", tx_digest))
            if self.recording:
                self.metrics.bump("request_retries")
            if tx_digest in self._next_retry or self._explicit_backoff:
                self._next_retry[tx_digest] = now + self._backoff_policy().delay(attempt + 1)
        self._arm_retry_timer()


class LoadGenerator(LPBFTClient):
    """Open-loop load: submits workload transactions at an offered rate
    that never throttles to the service's capacity.

    ``workload`` must provide ``next_transaction() -> (procedure, args)``.
    ``arrivals`` is an :class:`~repro.workloads.loadgen.ArrivalProcess`
    (Poisson or fixed-rate); when omitted, arrivals default to
    deterministic ``1 / rate`` spacing — either way runs are seeded and
    reproducible.  Submissions are recorded into ``metrics.offered`` and
    completed receipts into ``metrics.goodput``, so a saturation sweep
    can report offered load vs. goodput directly.
    """

    def __init__(
        self,
        *args,
        workload=None,
        rate: float = 1000.0,
        arrivals=None,
        start_at: float = 0.0,
        stop_at: float | None = None,
        max_in_flight: int | None = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        from ..workloads.loadgen import default_arrivals

        self.workload = workload
        self.rate = rate
        self.arrivals = default_arrivals(arrivals, rate)
        self.start_at = start_at
        self.stop_at = stop_at
        self.max_in_flight = max_in_flight
        self.submitted = 0

    def on_start(self) -> None:
        super().on_start()
        if self.workload is not None and self.arrivals is not None:
            self.set_timer(max(0.0, self.start_at - self.now), self._tick)

    def _tick(self) -> None:
        if self.stop_at is not None and self.now >= self.stop_at:
            return
        # Submit every arrival due by now (wake-ups are floored at 1 ms
        # so high offered rates batch instead of flooding the event queue).
        for _ in range(self.arrivals.due(self.now)):
            if self.max_in_flight is not None and self.pending_count() >= self.max_in_flight:
                break
            procedure, args = self.workload.next_transaction()
            self.submit(procedure, args, min_index=0)
            self.submitted += 1
            self.metrics.offered.record(self.now)
            self.metrics.bump("requests_submitted")
        self.set_timer(self.arrivals.delay_until_next(self.now), self._tick)
