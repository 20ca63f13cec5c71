"""Dict-backed transactional key-value store with undo-log rollback.

Keys are strings; values are any codec-encodable value.  Every committed
transaction appends a :class:`TxRecord` to the store's transaction log so
that a suffix of executed transactions can be rolled back (paper Lemma 1:
"the key-value store maintains a roll back transaction log; transactions
can be rolled back at a single transaction granularity").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from .. import codec
from ..crypto.hashing import Digest, digest_value
from ..errors import KVError, TransactionAborted

_MISSING = object()

_ACC_MODULUS = 2**256


def entry_accumulator_term(key: str, value: Any) -> int:
    """The additive term one ``(key, value)`` pair contributes to the
    state accumulator."""
    return int.from_bytes(digest_value((key, value)), "big")


def state_accumulator(items) -> int:
    """Commutative accumulator over ``(key, value)`` pairs.

    The state digest is a hash of the *sum* of per-entry digests modulo
    2^256, which lets the store maintain it incrementally in O(1) per
    write instead of re-hashing the whole map at every checkpoint.  (The
    paper hashes a CHAMP-map snapshot; the substitution trades
    collision-resistance margin for replay speed — see DESIGN.md.)
    """
    acc = 0
    for key, value in items:
        acc = (acc + entry_accumulator_term(key, value)) % _ACC_MODULUS
    return acc


def accumulator_digest(acc: int) -> Digest:
    """The digest corresponding to an accumulator value."""
    return digest_value(("state-acc", acc))


@dataclass
class TxRecord:
    """Undo information for one committed transaction.

    ``undo`` maps each written key to its prior value (or the ``_MISSING``
    sentinel when the key did not exist).  ``write_set`` holds the new
    values in write order, used for write-set hashing.
    """

    tx_id: int
    undo: dict[str, Any]
    write_set: dict[str, Any]

    def write_set_digest(self) -> Digest:
        """Canonical digest of the write set (key-sorted)."""
        normalized = {k: (None if v is _MISSING else v) for k, v in sorted(self.write_set.items())}
        deleted = tuple(sorted(k for k, v in self.write_set.items() if v is _MISSING))
        return digest_value({"writes": normalized, "deleted": deleted})


class KVTransaction:
    """Read/write handle for one transaction.

    Reads go through to the store (with read-your-writes); writes are
    buffered until :meth:`_commit`.  Stored procedures receive one of
    these and must not hold it past their return.
    """

    def __init__(self, store: "KVStore") -> None:
        self._store = store
        self._writes: dict[str, Any] = {}
        self._reads: set[str] = set()
        self._closed = False

    # -- reads -----------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """Read ``key`` (seeing this transaction's own writes)."""
        self._check_open()
        if key in self._writes:
            value = self._writes[key]
            return default if value is _MISSING else value
        self._reads.add(key)
        return self._store._data.get(key, default)

    def has(self, key: str) -> bool:
        """True iff ``key`` exists (seeing this transaction's writes)."""
        self._check_open()
        if key in self._writes:
            return self._writes[key] is not _MISSING
        self._reads.add(key)
        return key in self._store._data

    def keys_with_prefix(self, prefix: str) -> list[str]:
        """All live keys starting with ``prefix`` (sorted)."""
        self._check_open()
        live = set()
        for key in self._store._data:
            if key.startswith(prefix):
                live.add(key)
        for key, value in self._writes.items():
            if key.startswith(prefix):
                if value is _MISSING:
                    live.discard(key)
                else:
                    live.add(key)
        return sorted(live)

    # -- writes ----------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        """Buffer a write of ``value`` to ``key``."""
        self._check_open()
        if not isinstance(key, str):
            raise KVError(f"keys must be str, got {type(key).__name__}")
        codec.check_encodable(value)
        self._writes[key] = value

    def delete(self, key: str) -> None:
        """Buffer a delete of ``key`` (no-op if absent at commit)."""
        self._check_open()
        self._writes[key] = _MISSING

    def abort(self, reason: str = "aborted") -> None:
        """Abort the transaction; the enclosing execute() rolls back."""
        raise TransactionAborted(reason)

    @property
    def op_count(self) -> int:
        """Number of distinct keys this transaction has read or written —
        the unit the simulator's cost model charges per KV access."""
        return len(self._reads) + len(self._writes)

    # -- internals ---------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise KVError("transaction handle used after completion")

    def _commit(self) -> TxRecord:
        """Apply buffered writes; returns the undo record."""
        self._check_open()
        self._closed = True
        undo: dict[str, Any] = {}
        store = self._store
        data = store._data
        for key, value in self._writes.items():
            prior = data.get(key, _MISSING)
            undo[key] = prior
            if prior is not _MISSING:
                store._acc = (store._acc - entry_accumulator_term(key, prior)) % _ACC_MODULUS
            if value is _MISSING:
                data.pop(key, None)
            else:
                data[key] = value
                store._acc = (store._acc + entry_accumulator_term(key, value)) % _ACC_MODULUS
        record = TxRecord(tx_id=self._store._next_tx_id, undo=undo, write_set=dict(self._writes))
        self._store._next_tx_id += 1
        self._store._log.append(record)
        return record

    def _discard(self) -> None:
        self._closed = True
        self._writes.clear()


class KVStore:
    """The replicated service state: a transactional map with rollback.

    Transactions execute serially (L-PBFT orders them); concurrency
    control is therefore unnecessary, matching CCF's single-threaded
    execution of ordered batches.
    """

    def __init__(self, initial: dict[str, Any] | None = None, acc_hint: int | None = None) -> None:
        self._data: dict[str, Any] = dict(initial or {})
        self._log: list[TxRecord] = []
        self._next_tx_id = 0
        # ``acc_hint`` lets callers that pre-populate many stores from the
        # same snapshot (benchmark deployments) skip re-hashing it.
        self._acc = state_accumulator(self._data.items()) if acc_hint is None else acc_hint

    # -- transaction execution -------------------------------------------

    def execute(self, fn: Callable[[KVTransaction], Any]) -> tuple[Any, TxRecord | None]:
        """Run ``fn`` inside a transaction.

        Returns ``(result, record)`` on commit.  If ``fn`` raises
        :class:`TransactionAborted`, nothing is applied and
        ``(None, None)`` is returned with the abort reason attached as
        ``result`` via the exception message.
        """
        tx = KVTransaction(self)
        try:
            result = fn(tx)
        except TransactionAborted as abort:
            tx._discard()
            return {"ok": False, "error": str(abort)}, None
        except Exception:
            tx._discard()
            raise
        record = tx._commit()
        return result, record

    def begin(self) -> KVTransaction:
        """Explicit transaction handle (prefer :meth:`execute`)."""
        return KVTransaction(self)

    # -- rollback (paper Lemma 1) ------------------------------------------

    @property
    def tx_count(self) -> int:
        """Number of committed transactions in the log."""
        return len(self._log)

    def rollback_to(self, tx_count: int) -> None:
        """Undo committed transactions until only ``tx_count`` remain."""
        if not 0 <= tx_count <= len(self._log):
            raise KVError(f"cannot roll back to {tx_count}, log has {len(self._log)}")
        while len(self._log) > tx_count:
            record = self._log.pop()
            for key, prior in record.undo.items():
                current = self._data.get(key, _MISSING)
                if current is not _MISSING:
                    self._acc = (self._acc - entry_accumulator_term(key, current)) % _ACC_MODULUS
                if prior is _MISSING:
                    self._data.pop(key, None)
                else:
                    self._data[key] = prior
                    self._acc = (self._acc + entry_accumulator_term(key, prior)) % _ACC_MODULUS
            self._next_tx_id = record.tx_id

    def rollback_last(self, n: int = 1) -> None:
        """Undo the last ``n`` committed transactions."""
        self.rollback_to(len(self._log) - n)

    # -- direct state access -------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """Non-transactional read (for inspection and tests)."""
        return self._data.get(key, default)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def items(self) -> Iterator[tuple[str, Any]]:
        """Iterate over (key, value) pairs in sorted key order."""
        for key in sorted(self._data):
            yield key, self._data[key]

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A deep-enough copy of the current state (values are treated as
        immutable by convention; stored procedures must not mutate values
        in place)."""
        return dict(self._data)

    def restore(self, snapshot: dict[str, Any]) -> None:
        """Replace state with ``snapshot`` and clear the undo log."""
        self._data = dict(snapshot)
        self._log.clear()
        self._acc = state_accumulator(self._data.items())

    def state_digest(self) -> Digest:
        """Canonical digest of the full state (checkpoint digest dC),
        maintained incrementally — O(1) regardless of store size."""
        return accumulator_digest(self._acc)
