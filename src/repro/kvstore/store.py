"""Transactional key-value store: shared immutable base + per-store delta.

Keys are strings; values are any codec-encodable value.  Every committed
transaction appends the prior value of each key it wrote to the store's
undo log so that a suffix of executed transactions can be rolled back
(paper Lemma 1: "the key-value store maintains a roll back transaction
log; transactions can be rolled back at a single transaction
granularity").  A written key is interned (``sys.intern``), so every
replica's delta, undo log and checkpoints in one process hold one
object per key, not one per replica that decoded the request.

CCF keeps the state in a CHAMP persistent map, so a checkpoint is a
pointer copy.  The substitution here is a :class:`Snapshot`: a ``base``
read-only mapping shared by reference (a ``dict``, or a table generated
on read such as SmallBank's ``GenesisTable``), a small owned ``delta``
over it, and the state accumulator.  Three invariants make sharing safe:

- a base is never written after construction — every store and snapshot
  built on it writes only its own delta;
- a :class:`Snapshot` exposes no mutator;
- an accumulator is computed from the entries or carried from the store
  that maintained it incrementally, never taken from a peer (a received
  digest is compared, not adopted).
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from collections.abc import Mapping
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from .. import codec
from ..crypto.hashing import Digest, digest_value
from ..errors import KVError, TransactionAborted

_MISSING = object()  # "no such key": an undo prior, a buffered delete, a delta tombstone
_ABSENT = object()  # "the delta says nothing about this key"

_ACC_MODULUS = 2**256


def entry_accumulator_term(key: str, value: Any) -> int:
    """The additive term one ``(key, value)`` pair contributes to the
    state accumulator: ``H(encode((key, value)))`` as an integer."""
    return int.from_bytes(hashlib.sha256(codec.encode_pair(key, value)).digest(), "big")


def state_accumulator(items: Iterable[tuple[str, Any]]) -> int:
    """Commutative accumulator over ``(key, value)`` pairs.

    The state digest is a hash of the *sum* of per-entry digests modulo
    2^256, which lets the store maintain it incrementally in O(1) per
    write instead of re-hashing the whole map at every checkpoint.  (The
    paper hashes a CHAMP-map snapshot; the substitution trades
    collision-resistance margin for replay speed — see
    docs/ARCHITECTURE.md, "The KV store: state is a value".)

    This is the only place a whole state is hashed: once per table built
    from entries (``initial_state``, a plain ``dict`` handed to
    :class:`KVStore`, a reassembled or wire-decoded checkpoint).  A
    :class:`Snapshot` carries the result, so adopting one hashes nothing.
    The sum of :func:`entry_accumulator_term` over ``items``, with the
    value encodings remembered for this one pass.
    """
    sha256, encode_pair, to_int, ints = hashlib.sha256, codec.encode_pair, int.from_bytes, {}
    total = 0
    for key, value in items:
        total += to_int(sha256(encode_pair(key, value, ints)).digest(), "big")
    return total % _ACC_MODULUS


def merged_accumulator(parts: Iterable[int]) -> int:
    """The accumulator of a union of disjoint entry sets, from the
    :func:`state_accumulator` of each: the sum is order-free, so a table
    can be hashed in parts, anywhere."""
    return sum(parts) % _ACC_MODULUS


def accumulator_digest(acc: int) -> Digest:
    """The digest corresponding to an accumulator value."""
    return digest_value(("state-acc", acc))


class _Layered:
    """The one read path: a ``_delta`` (tombstones are ``_MISSING``) over
    a ``_base``, with the live-key count in ``_size``."""

    __slots__ = ()

    def get(self, key: str, default: Any = None) -> Any:
        """The value at ``key``, or ``default``."""
        value = self._delta.get(key, _ABSENT)
        if value is _ABSENT:
            return self._base.get(key, default)
        return default if value is _MISSING else value

    def __contains__(self, key: object) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def __len__(self) -> int:
        return self._size

    def items(self) -> Iterable[tuple[str, Any]]:
        """Live ``(key, value)`` pairs, unordered."""
        base, delta = self._base, self._delta
        if not delta:
            return base.items()
        return chain(
            (pair for pair in base.items() if pair[0] not in delta),
            (pair for pair in delta.items() if pair[1] is not _MISSING),
        )

    def __iter__(self) -> Iterator[str]:
        """Live keys, unordered."""
        return map(itemgetter(0), self.items())


class Snapshot(_Layered, Mapping):
    """An immutable state value: shared ``base`` + owned ``delta`` +
    accumulator.

    Reads like a mapping (``get`` / ``in`` / ``len`` / iteration /
    ``items()`` / ``==`` against any mapping) and has no mutator.  The
    base is any read-only mapping, read only through ``get`` / ``in`` /
    ``len`` / ``items()`` / iteration; the delta is a ``dict``.  The
    constructor takes ownership of both: the caller must not write
    either again.  ``acc``, when given, must be the
    :func:`state_accumulator` of exactly these entries, computed from them
    or maintained by the store they came from; left out, it is computed
    on first use and cached.
    """

    __slots__ = ("_base", "_delta", "_size", "_acc", "_digest")

    def __init__(
        self,
        base: Mapping[str, Any],
        delta: dict[str, Any] | None = None,
        size: int | None = None,
        acc: int | None = None,
    ) -> None:
        if delta and size is None:
            raise KVError("a snapshot with a delta needs its size")
        self._base = base
        self._delta = delta or {}
        self._size = len(base) if size is None else size
        self._acc = acc
        self._digest: Digest | None = None

    def __getitem__(self, key: str) -> Any:
        value = self.get(key, _MISSING)
        if value is _MISSING:
            raise KeyError(key)
        return value

    def __repr__(self) -> str:
        return f"Snapshot({len(self)} keys, {len(self._delta)} in delta)"

    @property
    def accumulator(self) -> int:
        """The state accumulator of these entries (hashed at most once)."""
        if self._acc is None:
            self._acc = state_accumulator(self.items())
        return self._acc

    def digest(self) -> Digest:
        """The checkpoint digest dC of this state (cached)."""
        if self._digest is None:
            self._digest = accumulator_digest(self.accumulator)
        return self._digest


def _write_set_digest(writes: dict[str, Any]) -> Digest:
    """SHA-256 of :func:`codec.encode_write_set`: the deleted keys, then
    every written key with its value (``None`` for a delete)."""
    return hashlib.sha256(codec.encode_write_set(writes, _MISSING)).digest()


# Digest of an empty write set: what every read-only transaction records,
# and the ws component of an aborted one so outputs stay comparable
# during replay.
EMPTY_WS = _write_set_digest({})


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
        return self._store.get(key, default)

    def has(self, key: str) -> bool:
        """True iff ``key`` exists (seeing this transaction's writes)."""
        self._check_open()
        if key in self._writes:
            return self._writes[key] is not _MISSING
        self._reads.add(key)
        return key in self._store

    def keys_with_prefix(self, prefix: str) -> list[str]:
        """All live keys starting with ``prefix`` (sorted)."""
        self._check_open()
        live = set()
        for key in self._store:
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
        if not isinstance(key, str):
            raise KVError(f"keys must be str, got {type(key).__name__}")
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

    def write_set_digest(self) -> Digest:
        """Canonical digest of the buffered writes (key-sorted): the
        ``ws`` of the transaction's output.  Taken before :meth:`_commit`,
        so the undo log keeps no copy of the write set."""
        return _write_set_digest(self._writes) if self._writes else EMPTY_WS

    def _commit(self) -> None:
        """Apply buffered writes, logging their priors in the store's undo
        log."""
        self._check_open()
        self._closed = True
        store = self._store
        store._apply(self._writes.items(), store._undo)
        store._ends.append(store._undo_base + len(store._undo))

    def _discard(self) -> None:
        self._closed = True
        self._writes.clear()


class KVStore(_Layered):
    """The replicated service state: a transactional map with rollback.

    The store is a reference to a shared read-only base plus its own
    delta: reads try the delta then the base, writes and rollbacks touch
    only the delta, and :meth:`snapshot` copies only the delta.  Built
    from (or restored to) a :class:`Snapshot` it adopts the base by
    reference and the accumulator as carried; a plain ``dict`` is copied
    once into a private base and hashed once.

    Transactions execute serially (L-PBFT orders them); concurrency
    control is therefore unnecessary, matching CCF's single-threaded
    execution of ordered batches.
    """

    def __init__(self, initial: Snapshot | dict[str, Any] | None = None) -> None:
        # The undo log, oldest first, as one flat list of ``key, prior``
        # slots (``_MISSING`` when the key did not exist) and, per
        # committed transaction, the offset one past its last slot in
        # ``_ends``.  Offsets are absolute: ``_undo[0]`` is slot
        # ``_undo_base``, the first one :meth:`forget_before` kept.
        self._undo: list = []
        self._ends = array("q")
        self.restore({} if initial is None else initial)

    # -- transaction execution -------------------------------------------

    def execute(self, fn: Callable[[KVTransaction], Any]) -> tuple[Any, int | None]:
        """Run ``fn`` inside a transaction.

        Returns ``(result, mark)`` on commit, ``mark`` the
        :attr:`tx_count` after it (``rollback_to(mark - 1)`` undoes it).
        If ``fn`` raises :class:`TransactionAborted`, nothing is applied
        and ``(error reply, None)`` is returned, the abort reason in the
        reply's ``error``.
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
        tx._commit()
        return result, self.tx_count

    def begin(self) -> KVTransaction:
        """Explicit transaction handle (prefer :meth:`execute`)."""
        return KVTransaction(self)

    def _apply(self, writes: Iterable[tuple[str, Any]], undo: list) -> None:
        """Set each key, interned, to its value (``_MISSING`` deletes it)
        in the delta, keeping size and accumulator current, and append
        ``key, prior`` to ``undo`` (``_MISSING`` where there was none).
        The only place state changes: a commit applies a write set, a
        rollback undo slots, newest first."""
        base, delta, intern = self._base, self._delta, sys.intern
        acc, size = self._acc, self._size
        for key, value in writes:
            key = intern(key)
            prior = delta.get(key, _ABSENT)  # the read path, inlined
            if prior is _ABSENT:
                prior = base.get(key, _MISSING)
            undo += (key, prior)
            if prior is not _MISSING:
                acc -= entry_accumulator_term(key, prior)
                size -= 1
            if value is not _MISSING:
                acc += entry_accumulator_term(key, value)
                size += 1
                delta[key] = value
            elif key in base:
                delta[key] = _MISSING
            else:
                delta.pop(key, None)
        self._acc, self._size = acc % _ACC_MODULUS, size

    # -- rollback (paper Lemma 1) ------------------------------------------

    @property
    def tx_count(self) -> int:
        """Number of transactions committed since construction or the
        last :meth:`restore` — absolute: :meth:`forget_before` does not
        shift it."""
        return self._forgotten + len(self._ends)

    def rollback_to(self, tx_count: int) -> None:
        """Undo committed transactions until only ``tx_count`` remain."""
        if not self._forgotten <= tx_count <= self.tx_count:
            raise KVError(
                f"cannot roll back to {tx_count}: undo log covers "
                f"{self._forgotten}..{self.tx_count}"
            )
        kept = tx_count - self._forgotten
        start = (self._ends[kept - 1] if kept else self._undo_base) - self._undo_base
        slots = self._undo[start:]
        del self._undo[start:], self._ends[kept:]
        # Newest slot first: a key written by several undone transactions
        # ends at its prior before the oldest of them.
        self._apply(zip(slots[-2::-2], slots[-1::-2]), [])

    def rollback_last(self, n: int = 1) -> None:
        """Undo the last ``n`` committed transactions."""
        self.rollback_to(self.tx_count - n)

    def forget_before(self, mark: int) -> None:
        """Drop the undo slots of transactions below ``mark`` (a
        :attr:`tx_count` value); rolling back below it is then an error."""
        if mark > self.tx_count:
            raise KVError(f"cannot forget up to {mark}, only {self.tx_count} committed")
        if mark > self._forgotten:
            dropped = mark - self._forgotten
            cut = self._ends[dropped - 1]
            del self._undo[: cut - self._undo_base], self._ends[:dropped]
            self._undo_base, self._forgotten = cut, mark

    # -- direct state access -------------------------------------------------
    # ``get`` / ``in`` / ``len`` / iteration are the shared read path.

    def items(self) -> Iterator[tuple[str, Any]]:
        """Iterate over (key, value) pairs in sorted key order."""
        return iter(sorted(super().items(), key=itemgetter(0)))

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """The current state as a value: O(keys written since the base),
        not O(state).  (Values are treated as immutable by convention;
        stored procedures must not mutate values in place.)"""
        return Snapshot(self._base, dict(self._delta), self._size, self._acc)

    def restore(self, state: Snapshot | dict[str, Any]) -> None:
        """Replace the state with ``state`` and clear the undo log.  A
        :class:`Snapshot`'s base is adopted by reference and its
        accumulator taken as carried; a ``dict`` is first copied into a
        private base (the caller may keep writing its own) and hashed."""
        if not isinstance(state, Snapshot):
            state = Snapshot(dict(state))
        self._base = state._base
        self._delta = dict(state._delta)
        self._size = len(state)
        self._acc = state.accumulator
        self._undo.clear()
        del self._ends[:]
        self._undo_base = self._forgotten = 0

    def state_digest(self) -> Digest:
        """Canonical digest of the full state (checkpoint digest dC),
        maintained incrementally — O(1) regardless of store size."""
        return accumulator_digest(self._acc)
