"""The governance sub-ledger (§5.2).

Governance transactions are recorded in the ledger like any other
transaction; the *governance sub-ledger* is the subsequence of entries
needed to determine the active configuration at any point: the genesis
entry, every ``gov.*`` transaction entry, and the pre-prepares of the
end-of-configuration batches that carry each reconfiguration out.

:func:`extract_governance_subledger` walks a ledger (or a full-prefix
fragment) and replays just the governance procedures on a scratch
key-value store to derive the :class:`~repro.governance.schedule.ConfigSchedule`.
Replicas use it when joining from a fetched ledger; auditors use it to
determine signing keys and to cross-check the governance receipts clients
supply (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..crypto import signatures
from ..crypto.hashing import Digest
from ..errors import GovernanceError
from ..kvstore import KVStore, ProcedureRegistry
from ..ledger.entries import GenesisEntry, LedgerEntry, PrePrepareEntry, TxEntry, entry_from_wire
from ..lpbft.messages import BATCH_END_OF_CONFIG, PrePrepare, TransactionRequest
from .configuration import Configuration
from .schedule import ConfigSchedule, ConfigSpan
from .transactions import (
    accepted_configuration,
    clear_accepted_configuration,
    install_configuration,
    register_governance_procedures,
)


@dataclass(frozen=True)
class ReconfigRecord:
    """One completed reconfiguration, as seen in the ledger.

    ``new_config`` took effect at ``start_seqno``; ``final_vote_seqno`` is
    the batch whose last transaction passed the referendum, and
    ``eoc_pp_wire`` is the pre-prepare of the *P*-th end-of-configuration
    batch — the batch whose receipt clients keep, and whose
    ``committed_root`` commits signers to the governance decision
    (fork detection, Lemma 7).
    """

    new_config: Configuration
    final_vote_seqno: int
    final_vote_index: int
    eoc_seqno: int
    eoc_pp_wire: tuple
    start_seqno: int

    def eoc_pre_prepare(self) -> PrePrepare:
        return PrePrepare.from_wire(self.eoc_pp_wire)


@dataclass
class GovernanceSubLedger:
    """Governance entries plus the configuration schedule they imply.

    ``entries`` holds ``(ledger_index, entry_wire)`` pairs in ledger
    order — genesis, governance transactions, and end-of-configuration
    pre-prepares.  ``schedule`` is the derived configuration timeline and
    ``reconfigs`` the per-reconfiguration records.
    """

    entries: list[tuple[int, tuple]]
    schedule: ConfigSchedule
    reconfigs: list[ReconfigRecord]

    def to_wire(self) -> tuple:
        return (
            "gov-subledger",
            tuple((i, w) for i, w in self.entries),
            self.schedule.to_wire(),
        )

    @staticmethod
    def from_wire(raw: tuple) -> "GovernanceSubLedger":
        try:
            tag, entries, schedule = raw
        except (TypeError, ValueError) as exc:
            raise GovernanceError(f"malformed governance sub-ledger: {exc}") from exc
        if tag != "gov-subledger":
            raise GovernanceError(f"expected gov-subledger, got {tag!r}")
        return GovernanceSubLedger(
            entries=[(i, w) for i, w in entries],
            schedule=ConfigSchedule.from_wire(schedule),
            reconfigs=[],
        )

    # -- queries ------------------------------------------------------------

    def genesis_config(self) -> Configuration:
        return self.schedule.spans()[0].config

    def current_config(self) -> Configuration:
        return self.schedule.current()

    def verify_member_signatures(self, backend=None) -> bool:
        """Check that every governance request was signed by a member of
        the configuration in force when it executed."""
        backend = backend or signatures.default_backend()
        for index, wire in self.entries:
            entry = entry_from_wire(wire)
            if not isinstance(entry, TxEntry):
                continue
            request = entry.request()
            config = self.schedule.config_at_index(index)
            member_keys = {m.public_key for m in config.members}
            if request.client not in member_keys:
                return False
            if not backend.verify(request.client, request.signed_payload(), request.signature):
                return False
        return True


class GovernanceExtractor:
    """Resumable governance sub-ledger extraction.

    The one-shot :func:`extract_governance_subledger` walks a full-prefix
    entry sequence; with ledger prefix GC (PR 5) the full prefix stops
    existing, so replicas keep one of these *archives* instead: before a
    prefix is truncated its entries are fed in
    (:meth:`feed`, contiguous, genesis first), and a current sub-ledger is
    produced on demand by copying the archive and feeding it the retained
    suffix (:meth:`~repro.lpbft.replica.LPBFTReplica.governance_subledger`).
    Feeding is strictly contiguous — :attr:`next_index` says where the
    next batch of entries must start.
    """

    def __init__(self, pipeline: int) -> None:
        self.pipeline = pipeline
        self.next_index = 0
        self._registry = ProcedureRegistry()
        register_governance_procedures(self._registry)
        self._scratch = KVStore()
        self._collected: list[tuple[int, tuple]] = []
        self._reconfigs: list[ReconfigRecord] = []
        self._schedule: ConfigSchedule | None = None
        self._current_seqno = 0
        # A referendum that has passed but not yet activated:
        # (new_config, final_vote_seqno, final_vote_index, activation_seqno).
        self._pending: tuple[Configuration, int, int, int] | None = None
        self._pending_eoc: tuple[int, tuple] | None = None  # (seqno, pp_wire)

    def copy(self) -> "GovernanceExtractor":
        """An independent copy (the archive stays reusable after the copy
        is fed the retained suffix)."""
        clone = GovernanceExtractor(self.pipeline)
        clone.next_index = self.next_index
        clone._scratch = KVStore(initial=self._scratch.snapshot())
        clone._collected = list(self._collected)
        clone._reconfigs = list(self._reconfigs)
        clone._schedule = None if self._schedule is None else self._schedule.copy()
        clone._current_seqno = self._current_seqno
        clone._pending = self._pending
        clone._pending_eoc = self._pending_eoc
        return clone

    def feed(self, entries: Iterable[LedgerEntry], start_index: int) -> "GovernanceExtractor":
        """Consume ``entries``, which must start at absolute ledger index
        ``start_index`` — exactly where the previous feed stopped."""
        if start_index != self.next_index:
            raise GovernanceError(
                f"governance extraction is contiguous: expected entries from "
                f"{self.next_index}, got {start_index}"
            )
        for entry in entries:
            self._consume(self.next_index, entry)
            self.next_index += 1
        return self

    def _consume(self, index: int, entry: LedgerEntry) -> None:
        if isinstance(entry, GenesisEntry):
            if self._schedule is not None:
                raise GovernanceError(f"second genesis entry at ledger index {index}")
            config = Configuration.from_wire(entry.config_wire)
            self._schedule = ConfigSchedule.genesis(config)
            self._scratch.execute(lambda tx: install_configuration(tx, config))
            self._collected.append((index, entry.to_wire()))
            return
        if self._schedule is None:
            raise GovernanceError("ledger does not start with a genesis entry")
        if isinstance(entry, PrePrepareEntry):
            pp = entry.pre_prepare()
            self._current_seqno = pp.seqno
            if self._pending is not None and pp.flags == BATCH_END_OF_CONFIG:
                _, vote_seqno, _, _ = self._pending
                if pp.seqno == vote_seqno + self.pipeline:
                    # The Pth end-of-configuration batch: the one clients
                    # keep a receipt for, and the fork-detection anchor.
                    self._pending_eoc = (pp.seqno, pp.to_wire())
                    self._collected.append((index, entry.to_wire()))
            if self._pending is not None and pp.seqno >= self._pending[3]:
                new_config, vote_seqno, vote_index, activation = self._pending
                if self._pending_eoc is None:
                    raise GovernanceError(
                        f"configuration {new_config.number} activates at {activation} "
                        f"without a Pth end-of-configuration batch"
                    )
                self._schedule.append(
                    ConfigSpan(config=new_config, start_seqno=activation, start_index=index)
                )
                self._reconfigs.append(
                    ReconfigRecord(
                        new_config=new_config,
                        final_vote_seqno=vote_seqno,
                        final_vote_index=vote_index,
                        eoc_seqno=self._pending_eoc[0],
                        eoc_pp_wire=self._pending_eoc[1],
                        start_seqno=activation,
                    )
                )
                self._scratch.execute(lambda tx: install_configuration(tx, new_config))
                self._pending = None
                self._pending_eoc = None
            return
        if isinstance(entry, TxEntry) and entry.request_wire[1].startswith("gov."):
            request = entry.request()
            self._scratch.execute(
                lambda tx: self._registry.invoke(request.procedure, tx, request.args)
            )
            self._collected.append((index, entry.to_wire()))
            # Did this transaction pass a referendum?
            accepted: list[Configuration | None] = [None]

            def read_accepted(tx, out=accepted):
                out[0] = accepted_configuration(tx)
                if out[0] is not None:
                    clear_accepted_configuration(tx)
                return None

            self._scratch.execute(read_accepted)
            if accepted[0] is not None:
                self._pending = (
                    accepted[0],
                    self._current_seqno,
                    index,
                    self._current_seqno + 2 * self.pipeline + 1,
                )

    def subledger(self) -> GovernanceSubLedger:
        """The sub-ledger implied by everything fed so far (a snapshot —
        further feeds do not mutate it)."""
        if self._schedule is None:
            raise GovernanceError("no genesis entry found")
        return GovernanceSubLedger(
            entries=list(self._collected),
            schedule=self._schedule.copy(),
            reconfigs=list(self._reconfigs),
        )


def extract_governance_subledger(entries: Iterable[LedgerEntry], pipeline: int) -> GovernanceSubLedger:
    """Derive the governance sub-ledger from full-prefix ledger entries.

    ``entries`` must start at the genesis entry (ledger index 0);
    ``pipeline`` is the protocol's pipeline depth P, which fixes where a
    passed referendum takes effect (``final_vote_seqno + 2P + 1``).
    """
    return GovernanceExtractor(pipeline).feed(entries, 0).subledger()
