#!/usr/bin/env python3
"""Quickstart: run an IA-CCF service, execute transactions, verify receipts.

Builds a 4-replica deployment on the simulated network, submits SmallBank
transactions as a client, and shows what a receipt contains and how anyone
can verify it against the consortium's signing keys (paper §3.3, Alg. 3).

Run:  python examples/quickstart.py
"""

from repro.lpbft import Deployment, ProtocolParams
from repro.receipts import verify_receipt
from repro.workloads import initial_state, register_smallbank


def main() -> None:
    params = ProtocolParams(pipeline=2, max_batch=100, checkpoint_interval=50)
    deployment = Deployment(
        n_replicas=4,
        params=params,
        registry_setup=register_smallbank,
        initial_state=initial_state(1_000),  # 1,000 pre-funded accounts
    )
    alice = deployment.add_client()
    deployment.start()

    print("== submitting transactions ==")
    deposit = alice.submit("smallbank.deposit_checking", {"customer": 7, "amount": 250})
    payment = alice.submit("smallbank.send_payment", {"src": 7, "dst": 8, "amount": 100})
    balance = alice.submit("smallbank.balance", {"customer": 7})
    deployment.run(until=1.0)

    for name, digest in [("deposit", deposit), ("payment", payment), ("balance", balance)]:
        receipt = alice.receipt_for(digest)
        reply = receipt.output["reply"]
        print(f"  {name:<8} -> ledger index {receipt.index:>3}, batch {receipt.seqno}, reply {reply}")

    print("\n== what a receipt proves ==")
    receipt = alice.receipt_for(balance)
    print(f"  signed by replicas {receipt.signers()} "
          f"(quorum is {deployment.genesis_config.quorum} of {deployment.genesis_config.n})")
    print(f"  binds the whole ledger prefix via root_m = {receipt.root_m.hex()[:16]}…")
    print(f"  encoded size: {receipt.encoded_size()} bytes")

    ok = verify_receipt(receipt, deployment.genesis_config)
    print(f"  verify_receipt(...) = {ok}")
    assert ok

    # Receipts are tamper-evident: change anything and verification fails.
    import dataclasses

    from repro import codec

    forged = dataclasses.replace(
        receipt,
        output_wire=codec.encode({"reply": {"ok": True, "balance": 10**9}, "ws": receipt.output["ws"]}),
    )
    print(f"  verify of a doctored copy = {verify_receipt(forged, deployment.genesis_config)}")

    print("\n== service state is replicated and agreed ==")
    digests = {r.kv.state_digest().hex()[:16] for r in deployment.replicas}
    print(f"  state digests across replicas: {digests}")
    assert len(digests) == 1
    print("  checking:7 =", deployment.replicas[0].kv.get("checking:7"))


if __name__ == "__main__":
    main()
