"""Protocol parameters and feature toggles.

``ProtocolParams`` collects the tunables of §3 (pipeline depth P, batch
size, checkpoint interval C, timers) and the feature toggles used by the
Tab. 3 overhead-breakdown variants and the baselines:

- ``receipts``: off → IA-CCF-NoReceipt (variant b);
- ``checkpoints``: off → variant c;
- ``sign_client_requests``: off → variant e;
- ``use_signatures``: off (MACs only) → variant f;
- ``ledger``: off → variant g;
- ``execute_transactions``: off (empty requests) → variant h;
- ``peer_review``: on → IA-CCF-PeerReview (sign every message, ack every
  message, sign every per-transaction reply).

The admission budgets are constants of :mod:`repro.lpbft.admission`;
docs/ARCHITECTURE.md "Knob table" says where each field here is set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ProtocolParams:
    """L-PBFT tunables and feature toggles."""

    # P: batch s orders the commitment evidence of batch s − P, so up to
    # P consensus rounds are in flight — the one sequencing window
    # (paper: 2 LAN, 6 WAN).
    pipeline: int = 2
    max_batch: int = 300  # max requests per batch (paper: 300 LAN, 800 WAN)
    checkpoint_interval: int = 100  # C (paper: 10K LAN, 4K WAN)
    view_change_timeout: float = 1.0  # seconds without progress before suspecting
    batch_delay: float = 0.0005  # primary waits this long to fill a batch

    # State sync (checkpoint transfer + ledger catch-up, §3.4/§5.1).
    # ``sync_lag_batches`` is the stash-gap that triggers a transfer
    # (0 = use the checkpoint interval).
    sync_lag_batches: int = 0

    # Ledger prefix garbage collection.  After a checkpoint
    # stabilizes, the ledger entries below the *oldest* retained stable
    # checkpoint are truncated (their tree M prefix is compacted to a
    # frontier): audits, receipt rebuilds, and state transfers then run
    # from checkpoint state instead of genesis.  Collection
    # additionally honors pins (``LPBFTReplica.retention``; the statesync
    # server pins the checkpoint it serves, and the same API holds the
    # ledger for long-running audit collection), and never collects
    # history younger than ``ledger_gc_min_age`` seconds — the grace
    # window in which clients still fetch receipts for recent
    # transactions (``replyx`` rebuilds) and auditors assemble packages.
    # ``math.inf`` never collects.
    ledger_gc_min_age: float = 5.0

    # Feature toggles (Tab. 3 variants).
    receipts: bool = True
    checkpoints: bool = True
    sign_client_requests: bool = True
    use_signatures: bool = True
    ledger: bool = True
    execute_transactions: bool = True
    peer_review: bool = False

    def variant(self, **overrides) -> "ProtocolParams":
        """A copy with some fields overridden."""
        return replace(self, **overrides)

    def __post_init__(self) -> None:
        if self.pipeline < 1:
            raise ValueError("pipeline depth P must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.checkpoint_interval < self.pipeline + 1:
            raise ValueError("checkpoint interval C must exceed the pipeline depth P")
        if self.view_change_timeout <= 0:
            raise ValueError("view_change_timeout must be positive")
        if self.batch_delay < 0:
            raise ValueError("batch_delay must be non-negative")
        if self.sync_lag_batches < 0:
            raise ValueError("sync_lag_batches must be non-negative (0 = auto)")
        if self.ledger_gc_min_age < 0:
            raise ValueError("ledger_gc_min_age must be non-negative")


# Named presets matching the paper's deployments.
LAN_PARAMS = ProtocolParams(pipeline=2, max_batch=300)
WAN_PARAMS = ProtocolParams(pipeline=6, max_batch=800)
