"""SmallBank workload semantics and baseline-system smoke tests."""

import pytest

from repro.baselines import (
    FabricDeployment,
    FabricParams,
    HotStuffDeployment,
    HotStuffParams,
    PompeDeployment,
    PompeParams,
)
from repro.kvstore import KVStore, ProcedureRegistry
from repro.workloads import (
    EmptyWorkload,
    SmallBankWorkload,
    initial_state,
    register_noop,
    register_smallbank,
)


@pytest.fixture
def bank():
    registry = ProcedureRegistry()
    register_smallbank(registry)
    kv = KVStore(initial_state(100))
    return registry, kv


def invoke(registry, kv, name, args):
    result, _ = kv.execute(lambda tx: registry.invoke(name, tx, args))
    return result


class TestSmallBankProcedures:
    def test_balance(self, bank):
        registry, kv = bank
        result = invoke(registry, kv, "smallbank.balance", {"customer": 1})
        assert result == {"ok": True, "balance": 2000}

    def test_deposit(self, bank):
        registry, kv = bank
        invoke(registry, kv, "smallbank.deposit_checking", {"customer": 1, "amount": 50})
        assert kv.get("checking:1") == 1050

    def test_negative_deposit_aborts(self, bank):
        registry, kv = bank
        result = invoke(registry, kv, "smallbank.deposit_checking", {"customer": 1, "amount": -5})
        assert not result["ok"]
        assert kv.get("checking:1") == 1000

    def test_transact_savings_floor(self, bank):
        registry, kv = bank
        result = invoke(registry, kv, "smallbank.transact_savings", {"customer": 1, "amount": -5000})
        assert not result["ok"]

    def test_send_payment_conserves_money(self, bank):
        registry, kv = bank
        invoke(registry, kv, "smallbank.send_payment", {"src": 1, "dst": 2, "amount": 100})
        assert kv.get("checking:1") == 900
        assert kv.get("checking:2") == 1100

    def test_send_payment_insufficient_funds(self, bank):
        registry, kv = bank
        result = invoke(registry, kv, "smallbank.send_payment", {"src": 1, "dst": 2, "amount": 10**6})
        assert not result["ok"]

    def test_write_check_overdraft_penalty(self, bank):
        registry, kv = bank
        invoke(registry, kv, "smallbank.write_check", {"customer": 3, "amount": 5000})
        assert kv.get("checking:3") == 1000 - 5000 - 1  # $1 penalty

    def test_amalgamate(self, bank):
        registry, kv = bank
        invoke(registry, kv, "smallbank.amalgamate", {"src": 1, "dst": 2})
        assert kv.get("checking:1") == 0
        assert kv.get("savings:1") == 0
        assert kv.get("checking:2") == 1000 + 2000

    def test_unknown_customer_aborts(self, bank):
        registry, kv = bank
        result = invoke(registry, kv, "smallbank.balance", {"customer": 12345})
        assert not result["ok"]


class TestGenerators:
    def test_deterministic_given_seed(self):
        a = SmallBankWorkload(n_accounts=100, seed=5)
        b = SmallBankWorkload(n_accounts=100, seed=5)
        assert [a.next_transaction() for _ in range(20)] == [b.next_transaction() for _ in range(20)]

    def test_all_types_generated(self):
        wl = SmallBankWorkload(n_accounts=100, seed=1)
        kinds = {wl.next_transaction()[0] for _ in range(300)}
        assert len(kinds) >= 5

    def test_hotspot_concentrates(self):
        wl = SmallBankWorkload(n_accounts=10_000, seed=2, hotspot=0.9, hotspot_size=10)
        customers = []
        for _ in range(300):
            _, args = wl.next_transaction()
            customers.extend(v for k, v in args.items() if k in ("customer", "src", "dst"))
        hot = sum(1 for c in customers if c < 10)
        assert hot / len(customers) > 0.5

    def test_initial_state_cached_and_consistent(self):
        a = initial_state(100)
        b = initial_state(100)
        assert a is b and a.accumulator == b.accumulator
        assert len(a) == 200 and a.digest() == KVStore(dict(a)).state_digest()

    def test_empty_workload(self):
        wl = EmptyWorkload()
        proc, args = wl.next_transaction()
        assert proc == "noop"
        registry = ProcedureRegistry()
        register_noop(registry)
        kv = KVStore()
        result, _ = kv.execute(lambda tx: registry.invoke(proc, tx, args))
        assert result["ok"]


class TestHotStuffBaseline:
    def test_commits_and_replies(self):
        dep = HotStuffDeployment(n_replicas=4, params=HotStuffParams(batch_size=50))
        client = dep.add_client(rate=20_000, stop_at=0.1)
        dep.run(until=0.3)
        assert client.completed > 0
        assert dep.metrics.counters.get("blocks_committed", 0) > 0

    def test_latency_is_multiple_round_trips(self):
        from repro.network import constant_latency

        dep = HotStuffDeployment(
            n_replicas=4, params=HotStuffParams(batch_size=10),
            latency=constant_latency(0.010),
        )
        client = dep.add_client(rate=500, stop_at=0.5)
        dep.run(until=2.0)
        # 3-chain commit ⇒ at least 3 round trips ≈ 60 ms one-way×6.
        assert client.metrics.latency.mean() > 0.050

    def test_scales_to_more_replicas(self):
        dep = HotStuffDeployment(n_replicas=16, params=HotStuffParams(batch_size=50))
        client = dep.add_client(rate=10_000, stop_at=0.1)
        dep.run(until=0.5)
        assert client.completed > 0


class TestFabricBaseline:
    def test_endorse_order_validate_pipeline(self):
        dep = FabricDeployment(n_peers=4, params=FabricParams(block_timeout=0.05, block_max_size=50))
        client = dep.add_client(rate=500, stop_at=0.3)
        dep.run(until=2.0)
        assert client.completed > 0
        assert dep.metrics.counters.get("blocks_validated", 0) > 0

    def test_block_timeout_dominates_latency(self):
        dep = FabricDeployment(n_peers=4, params=FabricParams(block_timeout=0.5, block_max_size=10_000))
        client = dep.add_client(rate=100, stop_at=0.3)
        dep.run(until=3.0)
        assert client.metrics.latency.mean() > 0.2

    def test_throughput_far_below_iaccf(self):
        dep = FabricDeployment(n_peers=4)
        client = dep.add_client(rate=5_000, stop_at=1.0)
        dep.metrics.throughput.start_window(0.0)
        dep.run(until=4.0)
        dep.metrics.throughput.end_window(4.0)
        assert dep.metrics.throughput.throughput() < 3_000  # paper: 1.2k vs 47.8k


class TestPompeBaseline:
    def test_two_phase_commit_flow(self):
        dep = PompeDeployment(n_replicas=4, params=PompeParams(batch_size=50))
        client = dep.add_client(rate=50_000, stop_at=0.1)
        dep.run(until=0.5)
        assert client.completed > 0

    def test_higher_throughput_than_hotstuff_empty(self):
        hs = HotStuffDeployment(n_replicas=4)
        hs_client = hs.add_client(rate=600_000, stop_at=0.3)
        hs.run(until=0.6)
        po = PompeDeployment(n_replicas=4)
        po_client = po.add_client(rate=600_000, stop_at=0.3)
        po.run(until=0.6)
        assert po_client.completed > hs_client.completed  # Tab. 3 ordering
