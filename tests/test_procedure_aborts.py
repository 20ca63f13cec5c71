"""A procedure that raises is an aborted transaction.

One correctly signed request with a bad argument, or naming no
procedure, used to raise out of the primary's batch execution and stop
the whole simulated service.  Now it is ordered, receipted and replayed
like any other abort, with the exception's class name as the reason."""

import pytest

from repro.audit import Auditor
from repro.enforcement import make_enforcer
from repro.errors import KVError, TransactionAborted
from repro.kvstore import EMPTY_WS, KVStore, ProcedureRegistry
from repro.ledger import TxEntry
from repro.receipts import verify_receipt
from repro.workloads import register_smallbank

from helpers import build_deployment

HOSTILE = [
    ("smallbank.deposit_checking", {}, "KeyError", False),
    ("smallbank.deposit_checking", {"customer": 1, "amount": "x"}, "TypeError", False),
    ("no.such.procedure", {}, "KVError", False),
    ("gov.propose", {"member": "member-1", "config": (1, 2)}, "GovernanceError", True),
]


@pytest.mark.parametrize("procedure, args, error, as_member", HOSTILE)
def test_hostile_request_is_receipted_as_an_abort_and_replays(procedure, args, error, as_member):
    dep = build_deployment()
    client = dep.member_client("member-1") if as_member else dep.add_client()
    dep.start()
    before = client.submit("smallbank.balance", {"customer": 3}, min_index=0)
    hostile = client.submit(procedure, args, min_index=0)
    dep.run(until=1.0)
    after = client.submit("smallbank.deposit_checking", {"customer": 3, "amount": 5}, min_index=0)
    dep.run(until=2.0)

    receipt = client.receipts[hostile]
    assert receipt.output["reply"] == {"ok": False, "error": error}
    assert verify_receipt(receipt, dep.genesis_config)
    assert client.receipts[after].output["reply"]["ok"] is True
    assert dep.ledgers_agree()
    assert len({r.kv.state_digest() for r in dep.replicas}) == 1

    receipts = [client.receipts[d] for d in (before, hostile, after)]
    result = Auditor(dep.registry, dep.params).audit(
        receipts, [client.gov_chain], make_enforcer(dep), replay=True
    )
    assert result.consistent


def test_invoke_turns_any_exception_into_an_abort_and_keeps_aborts():
    registry = ProcedureRegistry()
    registry.register("boom", lambda tx, args: (tx.put("k", 1), 1 / 0))
    registry.register("no", lambda tx, args: tx.abort("insufficient funds"))
    kv = KVStore()
    for name, reason in (("boom", "ZeroDivisionError"), ("no", "insufficient funds"),
                         ("missing", "KVError")):
        with pytest.raises(TransactionAborted, match=f"^{reason}$"):
            registry.invoke(name, kv.begin(), {})
        assert kv.execute(lambda tx: registry.invoke(name, tx, {})) == (
            {"ok": False, "error": reason}, None)
    assert "k" not in kv and len(kv) == 0


def _register_delete(registry):
    register_smallbank(registry)
    registry.register("test.delete", lambda tx, args: (tx.delete(args["k"]), {"ok": True})[1])


def test_delete_of_a_non_str_key_is_an_abort_on_every_replica_and_replays():
    """``tx.delete(7)`` used to be buffered unchecked: the write-set
    digest then raised (``CodecError`` for one such key, ``TypeError``
    from the sort beside a ``str`` key) out of the batch execution, past
    the procedure's abort handling, and stopped the run."""
    dep = build_deployment(registry_setup=_register_delete)
    client = dep.add_client()
    dep.start()
    hostile = client.submit("test.delete", {"k": 7}, min_index=0)
    dep.run(until=1.0)
    after = client.submit("test.delete", {"k": "checking:3"}, min_index=0)
    dep.run(until=2.0)

    receipt = client.receipts[hostile]
    assert receipt.output == {"reply": {"ok": False, "error": "KVError"}, "ws": EMPTY_WS}
    assert verify_receipt(receipt, dep.genesis_config)
    assert client.receipts[after].output["reply"] == {"ok": True}
    assert dep.ledgers_agree()
    outputs = [
        [entry.output for entry in replica.ledger
         if isinstance(entry, TxEntry) and entry.request().procedure == "test.delete"]
        for replica in dep.replicas
    ]
    assert len(outputs) == 4
    assert all(out == [receipt.output, client.receipts[after].output] for out in outputs)

    result = Auditor(dep.registry, dep.params).audit(
        [receipt, client.receipts[after]], [client.gov_chain], make_enforcer(dep), replay=True
    )
    assert result.consistent


def test_delete_checks_its_key_like_put():
    kv = KVStore()
    tx = kv.begin()
    for write in (lambda: tx.put(7, 1), lambda: tx.delete(7), lambda: tx.delete(("a",))):
        with pytest.raises(KVError, match="keys must be str"):
            write()
    assert tx.write_set_digest() == EMPTY_WS
