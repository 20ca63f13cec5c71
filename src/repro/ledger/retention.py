"""Ledger prefix retention policy (PR 5 garbage collection).

Deciding *how much* ledger may be dropped is a policy question separate
from the mechanism (:meth:`~repro.ledger.ledger.Ledger.truncate_below`):

- never truncate at or above the oldest **stable** checkpoint — the
  newest safe boundary is the ledger size bound into the oldest retained
  checkpoint that a quorum has committed a record for (audits and state
  transfers replay from checkpoints, so everything at or past the oldest
  one must stay);
- never truncate past anything a concurrent consumer still **pins**.
  The state-sync server pins the checkpoint it is serving an in-flight
  transfer from; the pin API is likewise how a long-running audit
  collection would hold the ledger (this simulator's audits run
  synchronously, so they never race GC — tests model a pending audit
  with an explicit pin).

:class:`RetentionPolicy` tracks the pins and computes the boundary; the
replica applies it after checkpoint stabilization
(:meth:`~repro.lpbft.replica.LPBFTReplica._maybe_truncate_ledger`).
"""

from __future__ import annotations


class RetentionPolicy:
    """Pin registry + boundary arithmetic for ledger prefix GC.

    Pins are keyed by an arbitrary hashable token (a sync session, an
    audit id); each maps to the lowest absolute ledger index its holder
    still needs.  :meth:`boundary` clamps a proposed stable boundary to
    the lowest pin.
    """

    def __init__(self) -> None:
        self._pins: dict[object, int] = {}

    def pin(self, token: object, index: int) -> None:
        """Hold the ledger at or above ``index`` until ``token`` releases.
        Re-pinning the same token moves its hold."""
        self._pins[token] = index

    def release(self, token: object) -> None:
        self._pins.pop(token, None)

    def floor(self) -> int | None:
        """The lowest pinned index (None when nothing is pinned)."""
        return min(self._pins.values()) if self._pins else None

    def boundary(self, stable_boundary: int) -> int:
        """The highest index that may be truncated below, given the
        stable-checkpoint bound and every outstanding pin."""
        floor = self.floor()
        return stable_boundary if floor is None else min(stable_boundary, floor)
