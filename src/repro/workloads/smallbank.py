"""SmallBank benchmark workload (paper §6, [Alomari et al. 2008]).

Models a bank with N customer accounts, each holding a checking and a
savings balance.  Clients randomly execute five transaction types —
deposit, transfer, and withdraw funds; check balances; and amalgamate
accounts — matching the mix the paper drives IA-CCF with (500K accounts
by default; Figs. 6–7 sweep 100K–1M).
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Any

from ..kvstore import KVTransaction, ProcedureRegistry
from ..kvstore.store import Snapshot, state_accumulator

DEFAULT_ACCOUNTS = 500_000
INITIAL_CHECKING = 1_000
INITIAL_SAVINGS = 1_000

# Transaction mix: uniform across the five types, as in the paper's
# "clients randomly execute 5 transaction types".
TX_TYPES = ("balance", "deposit_checking", "transact_savings", "send_payment", "write_check")


def _checking_key(customer: int) -> str:
    return f"checking:{customer}"


def _savings_key(customer: int) -> str:
    return f"savings:{customer}"


# -- stored procedures ---------------------------------------------------------


def _balance(tx: KVTransaction, args: dict) -> Any:
    """Read a customer's total balance (checking + savings)."""
    customer = args["customer"]
    checking = tx.get(_checking_key(customer))
    savings = tx.get(_savings_key(customer))
    if checking is None or savings is None:
        tx.abort(f"unknown customer {customer}")
    return {"ok": True, "balance": checking + savings}


def _deposit_checking(tx: KVTransaction, args: dict) -> Any:
    """Deposit into a customer's checking account."""
    customer, amount = args["customer"], args["amount"]
    if amount < 0:
        tx.abort("negative deposit")
    checking = tx.get(_checking_key(customer))
    if checking is None:
        tx.abort(f"unknown customer {customer}")
    tx.put(_checking_key(customer), checking + amount)
    return {"ok": True, "balance": checking + amount}


def _transact_savings(tx: KVTransaction, args: dict) -> Any:
    """Deposit into (or withdraw from) a customer's savings account;
    aborts rather than going negative."""
    customer, amount = args["customer"], args["amount"]
    savings = tx.get(_savings_key(customer))
    if savings is None:
        tx.abort(f"unknown customer {customer}")
    if savings + amount < 0:
        tx.abort("insufficient savings")
    tx.put(_savings_key(customer), savings + amount)
    return {"ok": True, "balance": savings + amount}


def _send_payment(tx: KVTransaction, args: dict) -> Any:
    """Transfer between two customers' checking accounts."""
    src, dst, amount = args["src"], args["dst"], args["amount"]
    if amount < 0:
        tx.abort("negative payment")
    src_balance = tx.get(_checking_key(src))
    dst_balance = tx.get(_checking_key(dst))
    if src_balance is None or dst_balance is None:
        tx.abort("unknown customer")
    if src_balance < amount:
        tx.abort("insufficient funds")
    tx.put(_checking_key(src), src_balance - amount)
    tx.put(_checking_key(dst), dst_balance + amount)
    return {"ok": True, "src_balance": src_balance - amount}


def _write_check(tx: KVTransaction, args: dict) -> Any:
    """Write a check against total funds; an overdraft incurs a $1
    penalty (SmallBank semantics) instead of aborting."""
    customer, amount = args["customer"], args["amount"]
    checking = tx.get(_checking_key(customer))
    savings = tx.get(_savings_key(customer))
    if checking is None or savings is None:
        tx.abort(f"unknown customer {customer}")
    total = checking + savings
    penalty = 1 if amount > total else 0
    tx.put(_checking_key(customer), checking - amount - penalty)
    return {"ok": True, "balance": checking - amount - penalty}


def _amalgamate(tx: KVTransaction, args: dict) -> Any:
    """Move all of one customer's funds into another's checking."""
    src, dst = args["src"], args["dst"]
    src_checking = tx.get(_checking_key(src))
    src_savings = tx.get(_savings_key(src))
    dst_checking = tx.get(_checking_key(dst))
    if src_checking is None or src_savings is None or dst_checking is None:
        tx.abort("unknown customer")
    tx.put(_checking_key(src), 0)
    tx.put(_savings_key(src), 0)
    tx.put(_checking_key(dst), dst_checking + src_checking + src_savings)
    return {"ok": True, "moved": src_checking + src_savings}


def register_smallbank(registry: ProcedureRegistry) -> None:
    """Install the five SmallBank stored procedures (plus amalgamate)."""
    registry.register("smallbank.balance", _balance)
    registry.register("smallbank.deposit_checking", _deposit_checking)
    registry.register("smallbank.transact_savings", _transact_savings)
    registry.register("smallbank.send_payment", _send_payment)
    registry.register("smallbank.write_check", _write_check)
    registry.register("smallbank.amalgamate", _amalgamate)


# -- initial state -------------------------------------------------------------


@lru_cache(maxsize=8)
def initial_state(
    n_accounts: int = DEFAULT_ACCOUNTS,
    checking: int = INITIAL_CHECKING,
    savings: int = INITIAL_SAVINGS,
) -> Snapshot:
    """The pre-populated account table, hashed once.

    Cached because benchmarks rebuild deployments repeatedly over the
    same account counts; every store and genesis checkpoint built from
    the returned :class:`Snapshot` shares its one table by reference.
    The table is filled and hashed in one pass: the accumulator consumes
    each entry as it is inserted.
    """
    state: dict[str, int] = {}

    def inserted():
        for customer in range(n_accounts):
            key = f"checking:{customer}"  # _checking_key, inlined
            state[key] = checking
            yield key, checking
            key = f"savings:{customer}"  # _savings_key, inlined
            state[key] = savings
            yield key, savings

    acc = state_accumulator(inserted())
    return Snapshot(state, acc=acc)


# -- request generation -----------------------------------------------------------


class SmallBankWorkload:
    """Seeded generator of SmallBank transactions.

    ``hotspot`` concentrates a fraction of accesses on a small account
    range (SmallBank's standard skew knob); 0.0 means uniform.
    """

    def __init__(
        self,
        n_accounts: int = DEFAULT_ACCOUNTS,
        seed: int = 0,
        hotspot: float = 0.0,
        hotspot_size: int = 100,
        mix: dict[str, float] | None = None,
    ) -> None:
        self.n_accounts = n_accounts
        self.rng = random.Random(seed)
        self.hotspot = hotspot
        self.hotspot_size = min(hotspot_size, n_accounts)
        weights = mix or {name: 1.0 for name in TX_TYPES}
        self._types = list(weights)
        self._weights = [weights[t] for t in self._types]

    def _customer(self) -> int:
        if self.hotspot > 0 and self.rng.random() < self.hotspot:
            return self.rng.randrange(self.hotspot_size)
        return self.rng.randrange(self.n_accounts)

    def next_transaction(self) -> tuple[str, dict]:
        """One ``(procedure, args)`` pair drawn from the mix."""
        kind = self.rng.choices(self._types, weights=self._weights, k=1)[0]
        if kind == "balance":
            return ("smallbank.balance", {"customer": self._customer()})
        if kind == "deposit_checking":
            return (
                "smallbank.deposit_checking",
                {"customer": self._customer(), "amount": self.rng.randrange(1, 100)},
            )
        if kind == "transact_savings":
            return (
                "smallbank.transact_savings",
                {"customer": self._customer(), "amount": self.rng.randrange(-50, 100)},
            )
        if kind == "send_payment":
            src = self._customer()
            dst = self._customer()
            while dst == src and self.n_accounts > 1:
                dst = self._customer()
            return ("smallbank.send_payment", {"src": src, "dst": dst, "amount": self.rng.randrange(1, 50)})
        if kind == "write_check":
            return (
                "smallbank.write_check",
                {"customer": self._customer(), "amount": self.rng.randrange(1, 100)},
            )
        return ("smallbank.amalgamate", {"src": self._customer(), "dst": self._customer()})


class EmptyWorkload:
    """No-op requests for the Tab. 3 "empty requests" variant."""

    def __init__(self, seed: int = 0) -> None:
        self._counter = 0

    def next_transaction(self) -> tuple[str, dict]:
        self._counter += 1
        return ("noop", {"n": self._counter})


def register_noop(registry: ProcedureRegistry) -> None:
    """The no-op stored procedure used by :class:`EmptyWorkload`."""
    registry.register("noop", lambda tx, args: {"ok": True})
