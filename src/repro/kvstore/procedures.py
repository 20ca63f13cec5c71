"""Stored procedures: the service logic (paper §2).

Clients invoke transactions by naming a stored procedure and passing
arguments; replicas execute the procedure deterministically against the
key-value store.  Procedures are plain functions
``fn(tx: KVTransaction, args: dict) -> codec-encodable result``.

The registry's *code digest* is stored in checkpoints so that an auditor
can retrieve the stored-procedure code from a checkpoint and replay the
ledger without understanding the service semantics (paper §4.1).
"""

from __future__ import annotations

from typing import Any, Callable

from ..crypto.hashing import Digest, digest_value
from ..errors import KVError, TransactionAborted
from .store import KVTransaction

Procedure = Callable[[KVTransaction, dict], Any]


def procedure_result(ok: bool = True, **fields: Any) -> dict:
    """Convention helper for building procedure results."""
    result = {"ok": ok}
    result.update(fields)
    return result


class ProcedureRegistry:
    """Named, versioned stored procedures.

    Governance transactions may update stored procedures (paper §2); each
    update bumps the registry version, and the code digest covers names
    and versions so divergent code is audit-visible.
    """

    def __init__(self) -> None:
        self._procedures: dict[str, Procedure] = {}
        self._versions: dict[str, int] = {}

    def register(self, name: str, fn: Procedure) -> None:
        """Register (or replace) the procedure called ``name``."""
        if not isinstance(name, str) or not name:
            raise KVError("procedure name must be a non-empty string")
        self._procedures[name] = fn
        self._versions[name] = self._versions.get(name, 0) + 1

    def get(self, name: str) -> Procedure:
        """Look up a procedure; raises :class:`KVError` if unknown."""
        try:
            return self._procedures[name]
        except KeyError:
            raise KVError(f"unknown stored procedure {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._procedures

    def names(self) -> list[str]:
        return sorted(self._procedures)

    def invoke(self, name: str, tx: KVTransaction, args: dict) -> Any:
        """Execute ``name`` against an open transaction handle.

        A procedure that raises, and a name with no procedure, abort the
        transaction: the exception becomes :class:`TransactionAborted`
        whose reason is its class name, which every replica and the
        auditor's replay reproduce, whatever arguments a client sent.
        """
        try:
            return self.get(name)(tx, args)
        except TransactionAborted:
            raise
        except Exception as exc:
            raise TransactionAborted(type(exc).__name__) from exc

    def code_digest(self) -> Digest:
        """Digest over procedure names and versions.

        A full system would hash the code itself; names + monotonically
        increasing versions give replay the same divergence-detection
        property inside one process space.
        """
        return digest_value(tuple(sorted(self._versions.items())))

    def copy(self) -> "ProcedureRegistry":
        clone = ProcedureRegistry()
        clone._procedures = dict(self._procedures)
        clone._versions = dict(self._versions)
        return clone
