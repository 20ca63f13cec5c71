"""Universal proofs-of-misbehavior (paper §4.1).

A uPoM is self-contained, universally-verifiable evidence that at least
``f + 1`` replicas signed contradictory statements (or executed
transactions incorrectly).  Every uPoM names the replicas it blames and
carries the signed artifacts an enforcer needs to re-check the claim; the
enforcer maps blamed replicas to the consortium members operating them
(via the configuration's endorsements) and punishes those members.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# uPoM kinds, by the paper section that defines them.
UPOM_EQUIVOCATION = "equivocation"  # Lemma 5 case (i): two batches signed at one (v, s)
UPOM_RECEIPT_NOT_IN_LEDGER = "receipt-not-in-ledger"  # Lemma 5 cases (ii)/(iii)
UPOM_WRONG_EXECUTION = "wrong-execution"  # §4.1 replay mismatch
UPOM_BAD_CHECKPOINT = "bad-checkpoint"  # §4.1 checkpoint digest mismatch
UPOM_MIN_INDEX = "min-index-violation"  # Thm. 2 real-time ordering case
UPOM_MALFORMED_LEDGER = "malformed-ledger"  # §B.1 well-formedness violation
UPOM_GOVERNANCE_FORK = "governance-fork"  # Lemma 7
UPOM_CONFIG_MISMATCH = "configuration-mismatch"  # Lemma 9
UPOM_UNRESPONSIVE = "unresponsive"  # §4.2 failure to produce data

ALL_UPOM_KINDS = (
    UPOM_EQUIVOCATION,
    UPOM_RECEIPT_NOT_IN_LEDGER,
    UPOM_WRONG_EXECUTION,
    UPOM_BAD_CHECKPOINT,
    UPOM_MIN_INDEX,
    UPOM_MALFORMED_LEDGER,
    UPOM_GOVERNANCE_FORK,
    UPOM_CONFIG_MISMATCH,
    UPOM_UNRESPONSIVE,
)


@dataclass(frozen=True)
class UPoM:
    """One universal proof-of-misbehavior.

    ``evidence`` holds kind-specific signed artifacts (receipt wires,
    ledger fragments, checkpoint digests) sufficient for independent
    re-verification; ``detail`` is a human-readable explanation.
    """

    kind: str
    blamed_replicas: tuple[int, ...]
    blamed_members: tuple[str, ...]
    seqno: int = 0
    index: int = 0
    detail: str = ""
    evidence: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ALL_UPOM_KINDS:
            raise ValueError(f"unknown uPoM kind {self.kind!r}")

    def blames(self, replica_id: int) -> bool:
        return replica_id in self.blamed_replicas


@dataclass
class AuditResult:
    """Outcome of an audit: either consistent, or one or more uPoMs."""

    upoms: list[UPoM] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        """True iff the audit found no misbehavior."""
        return not self.upoms

    def blamed_replicas(self) -> set[int]:
        blamed: set[int] = set()
        for upom in self.upoms:
            blamed.update(upom.blamed_replicas)
        return blamed

    def blamed_members(self) -> set[str]:
        blamed: set[str] = set()
        for upom in self.upoms:
            blamed.update(upom.blamed_members)
        return blamed
