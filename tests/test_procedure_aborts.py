"""A procedure that raises is an aborted transaction.

One correctly signed request with a bad argument, or naming no
procedure, used to raise out of the primary's batch execution and stop
the whole simulated service.  Now it is ordered, receipted and replayed
like any other abort, with the exception's class name as the reason."""

import pytest

from repro.audit import Auditor
from repro.enforcement import make_enforcer
from repro.errors import TransactionAborted
from repro.kvstore import KVStore, ProcedureRegistry
from repro.receipts import verify_receipt

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
