"""Overload pipeline: the admission component (coordinated admission,
deadline shedding), client backpressure, and the knee finder.

The deployment-level tests run against a cost model scaled ~100x slower
than the dedicated cluster so the saturation knee sits at a few hundred
tx/s and a full past-the-knee sweep stays cheap.  Everything is seeded:
two runs of any scenario here are bit-identical.
"""

from __future__ import annotations

import pytest
from helpers import build_deployment

from repro import forkmap
from repro.bench import runners
from repro.bench.runners import BenchPoint, find_knee, run_iaccf_point
from repro.lpbft import ProtocolParams, admission
from repro.lpbft.messages import BATCH_REGULAR, Prepare, TransactionRequest
from repro.sim.costs import CostModel
from repro.workloads.loadgen import ExponentialBackoff

# A machine ~100x slower than the dedicated cluster: the knee lands near
# ~150 tx/s, so overload scenarios need only a few hundred requests.
SLOW = CostModel(
    cores=4,
    sign=5e-3,
    verify=20e-3,
    mac=50e-6,
    hash_fixed=40e-6,
    kv_op_base=55e-6,
    kv_op_log_factor=1.5e-6,
    exec_overhead=1e-3,
    ledger_append=30e-6,
    message_overhead=100e-6,
    checkpoint_per_entry=5e-6,
)

BASE = dict(
    pipeline=2, max_batch=100, checkpoint_interval=10_000,
    batch_delay=0.0005, view_change_timeout=30.0,
)
PARAMS = ProtocolParams(**BASE)


def set_budgets(monkeypatch, **constants):
    """Run at other admission budgets: they are constants of
    :mod:`repro.lpbft.admission`, read at call time (and inherited by the
    knee finder's forked probes)."""
    for name, value in constants.items():
        monkeypatch.setattr(admission, name, value)


def overload_point(rate, params, duration=1.5, warmup=0.4, **kwargs):
    # The default policy of run_iaccf_point's client (based at its 10 s
    # retry timeout), seeded 1.
    backoff = ExponentialBackoff(base=10.0, cap=80.0, seed=1)
    return run_iaccf_point(
        rate=rate, params=params, costs=SLOW, accounts=500, duration=duration,
        warmup=warmup, client_kwargs=dict(retry_budget=3, backoff=backoff),
        **kwargs,
    )


class TestBackoff:
    def test_same_seed_same_delays(self):
        a = ExponentialBackoff(base=0.1, seed=42)
        b = ExponentialBackoff(base=0.1, seed=42)
        assert [a.delay(i) for i in range(8)] == [b.delay(i) for i in range(8)]

    def test_different_seeds_differ(self):
        a = ExponentialBackoff(base=0.1, seed=1)
        b = ExponentialBackoff(base=0.1, seed=2)
        assert [a.delay(i) for i in range(8)] != [b.delay(i) for i in range(8)]

    def test_shape(self):
        policy = ExponentialBackoff(base=0.1, factor=2.0, cap=1.0, jitter=0.5, seed=0)
        delays = [policy.delay(i) for i in range(10)]
        # Every delay sits within [raw, raw * 1.5] of its uncapped base.
        for attempt, delay in enumerate(delays):
            raw = min(0.1 * 2.0 ** attempt, 1.0)
            assert raw <= delay <= raw * 1.5
        assert max(delays) <= 1.5  # cap * (1 + jitter)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            ExponentialBackoff(base=0.0)
        with pytest.raises(ValueError):
            ExponentialBackoff(base=0.1, cap=0.01)
        with pytest.raises(ValueError):
            ExponentialBackoff(jitter=2.0)


class TestClientRetryRule:
    def test_timeouts_keep_cadence_and_only_a_reject_backs_off(self):
        """One retransmission rule: a timeout retransmits every
        ``retry_timeout`` even when the client holds a backoff policy;
        a ``reject`` defers the next retransmission by a backoff delay."""
        dep = build_deployment(params=PARAMS, accounts=20)
        backoff = dict(base=1.0, cap=1.0, seed=3)
        client = dep.add_client(retry_timeout=0.1, backoff=ExponentialBackoff(**backoff))
        sends = []

        def cut_off(src, dst, msg):
            # The client is partitioned from every replica: it hears no
            # reply, so every retransmission is a timeout's.
            if src == client.address and dst == "replica-0" and msg[0] == "request":
                sends.append(dep.net.scheduler.now)
            return src == client.address

        dep.net.add_drop_rule(cut_off)
        dep.start()
        tx = client.submit("smallbank.balance", {"customer": 1}, min_index=0)
        dep.run(until=0.55)
        assert sends == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])

        rejected_at = dep.net.scheduler.now
        client.on_message("replica-0", ("reject", tx, "overloaded"))
        delay = ExponentialBackoff(**backoff).delay(len(sends) - 1)
        assert 1.0 <= delay <= 1.5
        dep.run(until=rejected_at + delay + 0.5)
        after = [t for t in sends if t > rejected_at]
        # The first timer tick at or past the backoff instant, and nothing
        # before it; the next retransmission waits a further backoff step.
        assert len(after) == 1
        assert rejected_at + delay <= after[0] < rejected_at + delay + 0.1 + 1e-9


class TestFindKnee:
    @staticmethod
    def synthetic_runner(capacity):
        """A fake run_point whose goodput saturates at ``capacity``."""

        def run_point(rate, **kwargs):
            goodput = min(rate, capacity)
            return BenchPoint(
                system="synthetic", offered_tps=rate, throughput_tps=goodput,
                latency_mean_ms=1.0, latency_p50_ms=1.0, latency_p99_ms=2.0,
                extra={"offered_tps": rate, "goodput_tps": goodput},
            )

        return run_point

    def test_bisection_converges(self):
        # Sustainable iff goodput >= 0.9 * offered iff rate <= capacity/0.9.
        result = find_knee(self.synthetic_runner(1000.0), lo=200, hi=4000, rel_tol=0.02)
        assert result.sustainable
        assert 1000.0 <= result.knee_tps <= 1000.0 / 0.9 * 1.03
        assert result.goodput_tps == 1000.0
        assert result.point() is not None

    def test_unsustainable_bracket(self):
        result = find_knee(self.synthetic_runner(100.0), lo=500, hi=1000)
        assert not result.sustainable
        assert result.knee_tps == 500
        assert len(result.probes) == 1

    def test_sustainable_hi_returns_hi(self):
        result = find_knee(self.synthetic_runner(10_000.0), lo=100, hi=500)
        assert result.sustainable
        assert result.knee_tps == 500
        assert len(result.probes) == 2

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            find_knee(self.synthetic_runner(100.0), lo=500, hi=400)

    @pytest.mark.parametrize("capacity", [100.0, 1000.0, 3000.0, 10_000.0])
    def test_parallel_probes_give_the_serial_result(self, capacity, monkeypatch):
        """Speculative bisection keeps exactly the probes serial bisection
        makes, in its order, however many steps the CPUs measured ahead."""

        def knee(cpus, max_probes=12):
            monkeypatch.setattr(runners, "available_cpus", lambda: cpus)
            monkeypatch.setattr(forkmap, "available_cpus", lambda: cpus)
            return find_knee(self.synthetic_runner(capacity), lo=200, hi=4000, rel_tol=0.02,
                             max_probes=max_probes)

        serial, short = knee(1), knee(1, max_probes=5)
        assert knee(3) == knee(7) == serial
        assert knee(7, max_probes=5) == short


class TestCoordinatedAdmission:
    def test_only_primary_sheds_and_backups_follow(self, monkeypatch):
        """2x past the knee: the primary is the single admission point —
        backups shed nothing, the client hears rejections, and the
        replicas still agree on a non-trivial committed prefix."""
        set_budgets(monkeypatch, QUEUE_CAP=50_000)
        point = overload_point(400, PARAMS, label="coordinated")
        extra = point.extra
        assert extra["requests_shed"] > 0
        assert extra["requests_rejected"] > 0
        # All shedding happened at the primary (counter summed over all
        # replicas equals the primary's own).
        assert extra["requests_shed"] == extra["counters"]["requests_shed"]
        # Shed-before-verify: no verification was wasted on shed requests
        # at the primary, and backups deferred verification for the deep
        # stash instead of paying for never-sequenced requests.
        assert extra["counters"].get("requests_wasted_verify", 0) == 0
        assert extra["goodput_tps"] > 0
        assert extra["admitted_tps"] < extra["offered_tps"]

    def test_retry_budget_abandons(self, monkeypatch):
        """A budgeted client retries rejected requests under backoff and
        gives up once the budget is spent."""
        set_budgets(monkeypatch, QUEUE_CAP=50_000, CLIENT_TIMEOUT=0.4, ADMISSION_BUDGET=0.2)
        point = run_iaccf_point(
            rate=500, params=PARAMS, costs=SLOW, accounts=500, duration=2.5,
            warmup=0.4, label="budgeted",
            client_kwargs=dict(
                retry_budget=2, retry_timeout=0.2,
                backoff=ExponentialBackoff(base=0.1, cap=0.4, seed=1),
            ),
        )
        extra = point.extra
        assert extra["requests_rejected"] > 0
        assert extra["request_retries"] > 0
        assert extra["requests_abandoned"] > 0


class TestDeadlineShedding:
    def test_expired_queue_tail_dropped(self, monkeypatch):
        """With a client timeout shorter than the projected queue drain,
        the primary drops the tail of its queue before executing it."""
        set_budgets(
            monkeypatch, QUEUE_CAP=50_000, CLIENT_TIMEOUT=0.15,
            ADMISSION_BUDGET=10.0,  # admission never sheds: deadline does
            LANE_BACKLOG_BUDGET=10.0,
        )
        point = overload_point(500, PARAMS, label="deadline")
        extra = point.extra
        assert extra["requests_deadline_dropped"] > 0
        assert extra["requests_rejected"] > 0  # deadline rejects reach the client
        # Dropped requests never reached the execute lane: everything the
        # primary executed was committed or still in flight, and queue
        # delay stayed bounded near the timeout.
        assert extra["queue_delay_p90_ms"] < 4 * 150


class TestRequestQueue:
    """The admission component (``replica.admission``: the ordered-map
    queue and its side tables) on a single constructed replica: nothing
    is started and no event runs; the tests call the handlers directly
    and move the clock by hand."""

    CAP = 4

    @pytest.fixture(autouse=True)
    def small_queue(self, monkeypatch):
        set_budgets(monkeypatch, QUEUE_CAP=self.CAP, CLIENT_TIMEOUT=2.0)

    @staticmethod
    def build(params=PARAMS):
        dep = build_deployment(params=params, accounts=20)
        return dep, dep.add_client()

    @staticmethod
    def request(dep, client, nonce, min_index=0):
        """One signed request as it arrives off the wire."""
        req = TransactionRequest(
            procedure="smallbank.balance", args={"customer": nonce % 20},
            client=client.keypair.public_key, service=dep.service_name,
            min_index=min_index, nonce=nonce,
        )
        req = req.with_signature(client.backend.sign(client.keypair, req.signed_payload()))
        return req.request_digest(), ("request", req.to_wire())

    def arrive(self, dep, client, replica, nonces, **kwargs):
        digests = []
        for nonce in nonces:
            digest, msg = self.request(dep, client, nonce)
            replica.handle_request(client.address, msg, **kwargs)
            digests.append(digest)
        return digests

    @staticmethod
    def at(dep, t):
        dep.net.scheduler.clock.advance_to(t)

    @staticmethod
    def marks(replica):
        """The undo's two marks, then the checkpoint counters it restores."""
        return (len(replica.ledger), replica.kv.tx_count,
                (replica.checkpoints.last_recorded, replica.checkpoints.last_taken))

    def test_dropped_then_retransmitted_request_is_queued_once(self):
        """Regression: a drop followed by a retransmission used to leave
        the digest in the arrival order twice, so one batch executed the
        transaction twice."""
        dep, client = self.build()
        queue = dep.primary().admission
        digest, msg = self.request(dep, client, 1)
        dep.primary().handle_request(client.address, msg)
        queue.drop(digest, "requests_deadline_dropped")
        dep.primary().handle_request(client.address, msg)
        assert queue.select(0) == [digest]

    def test_retransmission_after_drop_reenters_at_the_tail(self):
        dep, client = self.build()
        backup = dep.replicas[1]
        a, b, c = self.arrive(dep, client, backup, [1, 2, 3])
        backup.admission.drop(a, None)
        assert self.arrive(dep, client, backup, [1]) == [a]
        assert list(backup.admission.requests) == [b, c, a]

    def test_below_cap_admits_without_touching_the_head(self):
        dep, client = self.build()
        backup = dep.replicas[1]
        first = self.arrive(dep, client, backup, range(self.CAP - 1))
        self.at(dep, 10.0)  # the whole queue is long expired, but under the cap
        last = self.arrive(dep, client, backup, [self.CAP - 1])
        assert list(backup.admission.requests) == first + last
        assert "requests_stash_evicted" not in backup.metrics.counters

    def test_at_cap_expired_head_is_evicted_oldest_first(self):
        dep, client = self.build()
        backup = dep.replicas[1]
        queue = backup.admission
        old = self.arrive(dep, client, backup, [0, 1])
        self.at(dep, 1.5)
        fresh = self.arrive(dep, client, backup, [2, 3])
        self.at(dep, 2.5)  # old: waited 2.5 > CLIENT_TIMEOUT; fresh: 1.0
        new = self.arrive(dep, client, backup, [4])
        # One eviction makes room; the second expired entry is still ahead
        # of the fresh ones and goes on the next arrival.
        assert list(queue.requests) == old[1:] + fresh + new
        assert backup.metrics.counters["requests_stash_evicted"] == 1
        newer = self.arrive(dep, client, backup, [5])
        assert list(queue.requests) == fresh + new + newer
        assert backup.metrics.counters["requests_stash_evicted"] == 2
        assert old[0] not in queue.arrivals and old[0] not in queue.sources

    def test_at_cap_fresh_head_keeps_admitting_to_the_memory_bound(self):
        dep, client = self.build()
        backup = dep.replicas[1]
        bound = 16 * self.CAP
        admitted = self.arrive(dep, client, backup, range(bound))
        assert list(backup.admission.requests) == admitted
        refused = self.arrive(dep, client, backup, [bound])
        assert refused[0] not in backup.admission and len(backup.admission) == bound
        assert backup.metrics.counters["requests_stash_dropped"] == 1
        assert "requests_stash_evicted" not in backup.metrics.counters

    def test_head_of_unknown_arrival_stops_the_scan(self):
        """A view-change rollback re-inserts requests without an arrival
        time; such a head is never evicted and shields what is behind it."""
        dep, client = self.build()
        backup = dep.replicas[1]
        queued = self.arrive(dep, client, backup, range(self.CAP))
        del backup.admission.arrivals[queued[0]]
        self.at(dep, 10.0)
        new = self.arrive(dep, client, backup, [self.CAP])
        assert list(backup.admission.requests) == queued + new
        assert "requests_stash_evicted" not in backup.metrics.counters

    def test_undo_reinserts_each_request_once_at_the_tail_still_verified(self):
        dep, client = self.build()
        backup = dep.replicas[1]
        queue = backup.admission
        a, b, c, d = self.arrive(dep, client, backup, [1, 2, 3, 4])
        queue.ensure_verified([a, b])
        marks = self.marks(backup)
        record, _ = backup._execute_batch(1, 0, BATCH_REGULAR, [a, b])
        assert list(queue.requests) == [c, d]
        backup._undo_batch_execution(record, *marks[:2])
        assert self.marks(backup) == marks
        assert list(queue.requests) == [c, d, a, b]
        assert {a, b} <= queue.verified
        assert a not in backup.tx_locations

    def test_view_change_rollback_reinserts_each_request_once_at_the_tail(self):
        dep, client = self.build()
        primary = dep.primary()
        queue = primary.admission
        batch = self.arrive(dep, client, primary, [1, 2, 3], force=True)
        primary.maybe_send_pre_prepare()
        assert not queue and primary.next_seqno == 2
        later = self.arrive(dep, client, primary, [4], force=True)
        primary.views.rollback_to_batch(0)
        assert list(queue.requests) == later + batch
        assert set(batch) <= queue.verified
        assert queue.select(0) == later + batch

    def test_requeue_with_and_without_arrival(self):
        """``_undo_batch_execution`` requeues with ``arrival = now``; the
        view-change rollback requeues with none, so its wait counts from
        zero however long ago the request first arrived."""
        dep, client = self.build()
        primary = dep.primary()
        queue = primary.admission
        undone, rolled = self.arrive(dep, client, primary, [1, 2], force=True)
        marks = self.marks(primary)
        self.at(dep, 1.0)
        record, _ = primary._execute_batch(1, 0, BATCH_REGULAR, [undone])
        assert undone not in queue.arrivals  # taken: the arrival left with it
        primary._undo_batch_execution(record, *marks[:2])
        assert self.marks(primary) == marks
        assert queue.arrivals[undone] == 1.0
        primary.maybe_send_pre_prepare()  # batch 1 = [rolled, undone]
        primary.views.rollback_to_batch(0)
        assert list(queue.requests) == [rolled, undone]
        assert rolled not in queue.arrivals and undone not in queue.arrivals
        assert {rolled, undone} <= queue.verified and not queue.orphans()
        self.at(dep, 10.0)  # far past CLIENT_TIMEOUT, yet nothing is shed
        assert queue.select(0) == [rolled, undone]
        assert "requests_deadline_dropped" not in primary.metrics.counters

    def test_take_hands_routing_to_the_batch_record(self):
        """Execution takes a request's reply address along into its batch
        record: the queue keeps the addresses of queued requests only."""
        dep, client = self.build()
        backup = dep.replicas[1]
        queue = backup.admission
        a, b, c = self.arrive(dep, client, backup, [1, 2, 3])
        request, arrival, src = queue.take(a)
        assert request.request_digest() == a and arrival == 0.0 and src == client.address
        assert a not in queue and a not in queue.arrivals and a not in queue.verified
        record, _ = backup._execute_batch(1, 0, BATCH_REGULAR, [b])
        assert record.tx_digests == [b] and record.sources == [client.address]
        assert list(queue.sources) == list(queue.requests) == [c] and not queue.orphans()

    def test_discard_leaves_no_entry_describing_a_queued_request(self):
        """Ledger adoption unqueues what the adopted ledger executed;
        arrival and verified marks must go with the queue entry (they
        used to stay behind), and so does the reply address (adoption
        hands it to the adopted batch record first)."""
        dep, client = self.build()
        backup = dep.replicas[1]
        queue = backup.admission
        a, b = self.arrive(dep, client, backup, [1, 2])
        assert {a, b} <= queue.verified and {a, b} <= set(queue.arrivals)
        queue.discard([a, b"\x00" * 32])  # a digest that was never queued is ignored
        assert list(queue.requests) == [b]
        assert a not in queue.arrivals and a not in queue.verified
        assert not queue.orphans()
        assert list(queue.sources) == [b]

    def test_ledger_adoption_unqueues_executed_requests_with_their_marks(self):
        """End to end through a state-sync session and ``install_ledger``:
        a backup that only ever stashed three requests adopts a ledger in
        which they executed.
        Adoption used to pop the queue map alone and strand the arrival
        times and verified marks."""
        dep, client = self.build()
        backup = dep.replicas[3]
        cut_off = [True]  # the backup hears clients, not replicas
        dep.net.add_drop_rule(
            lambda src, dst, msg: cut_off[0] and dst == backup.address
            and src.startswith("replica-"))
        dep.start()
        digests = [
            client.submit("smallbank.balance", {"customer": i}, min_index=0) for i in range(3)
        ]
        dep.run(until=0.5)
        queue = backup.admission
        assert list(queue.requests) == digests and set(digests) <= queue.verified
        assert backup.committed_upto == 0 < dep.primary().committed_upto
        cut_off[0] = False
        backup.sync_client.start("lag")
        dep.run(until=1.0)
        assert backup.metrics.counters["ledger_adoptions"] == 1
        assert set(digests) <= set(backup.tx_locations)
        assert not queue and not queue.arrivals and not queue.verified and not queue.sources
        # Each reply address moved to the adopted record holding its request.
        routes = {
            d: src for record in backup.batches.values() for d, src in zip(record.tx_digests, record.sources)}
        assert all(routes[d] == client.address for d in digests)

    def test_reset_empties_every_table_in_place(self):
        dep, client = self.build()
        backup = dep.replicas[1]
        queue = backup.admission
        names = ("requests", "arrivals", "verified", "sources", "trace_ctxs")
        tables = [getattr(queue, name) for name in names]
        self.arrive(dep, client, backup, [1, 2])
        queue.trace_ctxs[b"t"] = object()
        assert all(tables)
        backup.reset_volatile_state()
        assert not any(tables)
        assert all(getattr(queue, name) is table for name, table in zip(names, tables))

    def test_pre_prepare_naming_a_request_twice_is_dropped(self):
        """A queued request is taken exactly once; a (Byzantine) batch
        that names it twice is consumed without executing anything."""
        dep, client = self.build()
        primary, backup = dep.primary(), dep.replicas[1]
        (a,) = self.arrive(dep, client, primary, [1], force=True)
        self.arrive(dep, client, backup, [1])
        primary.maybe_send_pre_prepare()
        pp = primary.batches[1].pp
        assert backup._try_accept_pre_prepare(pp, (a, a)) is True
        assert 1 not in backup.batches and a in backup.admission

    def test_forged_early_prepare_is_not_counted(self):
        """Regression (safety): a prepare that arrives before its
        pre-prepare is stored unchecked.  Accepting the pre-prepare must
        verify it before it can count — with N = 4 a backup's own prepare
        plus one forged early one used to reach the N−f−1 quorum."""
        dep, client = self.build()
        primary, backup = dep.primary(), dep.replicas[1]
        (a,) = self.arrive(dep, client, primary, [1], force=True)
        self.arrive(dep, client, backup, [1])
        primary.maybe_send_pre_prepare()
        pp = primary.batches[1].pp
        forged = Prepare(
            replica=3, nonce_commitment=b"\0" * 32, pp_digest=pp.digest(), signature=b"forged"
        )
        backup.on_message("anyone", ("prepare", forged.to_wire()))
        assert backup.batches.prepares_by_ppd[pp.digest()][3].signature == b"forged"
        assert backup._try_accept_pre_prepare(pp, (a,)) is True
        assert set(backup.batches.prepares_by_ppd[pp.digest()]) == {backup.id}
        assert not backup.batches[1].prepared
        assert backup.metrics.counters["bad_prepare_signatures"] == 1

    def test_select_skips_min_index_and_drops_expired_while_walking_the_map(self):
        dep, client = self.build()
        primary = dep.primary()
        queue = primary.admission
        expired = self.arrive(dep, client, primary, [0, 1], force=True)
        self.at(dep, 1.5)
        held, held_msg = self.request(dep, client, 2, min_index=10_000)
        primary.handle_request(client.address, held_msg, force=True)
        ready = self.arrive(dep, client, primary, [3, 4], force=True)
        self.at(dep, 2.5)  # expired: waited 2.5 > CLIENT_TIMEOUT; the rest: 1.0
        assert queue.select(0) == ready
        assert list(queue.requests) == [held] + ready
        assert primary.metrics.counters["requests_deadline_dropped"] == 2
        assert not set(expired) & set(queue.arrivals)

    def test_select_stops_at_max_batch(self):
        dep, client = self.build(ProtocolParams(**{**BASE, "max_batch": 2}))
        primary = dep.primary()
        queued = self.arrive(dep, client, primary, range(5), force=True)
        assert primary.admission.select(0) == queued[:2]
        assert list(primary.admission.requests) == queued


class TestGoodputPlateau:
    def test_goodput_2x_past_knee(self, monkeypatch):
        """The acceptance property, scaled down: find the knee, then
        offer twice as much — goodput must hold >= 90% of knee goodput
        instead of collapsing."""
        set_budgets(monkeypatch, QUEUE_CAP=50_000, CLIENT_TIMEOUT=4.0, ADMISSION_BUDGET=1.0)
        knee = find_knee(
            overload_point, lo=60, hi=600, rel_tol=0.15, max_probes=6,
            params=PARAMS, label="knee-probe",
        )
        assert knee.sustainable
        past = overload_point(2.0 * knee.knee_tps, PARAMS, label="2x-knee")
        assert past.extra["goodput_tps"] >= 0.9 * knee.goodput_tps
