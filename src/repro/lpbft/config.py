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
    # Collapse each receipt's f+1 signature shares (primary pre-prepare
    # signature + f prepare signatures) into one BLS-style aggregate at
    # assembly time: client/auditor verification becomes one
    # ``verify_aggregate`` op and the f individual prepare-signature
    # strings leave the wire.  Off by default (byte-identical receipts).
    aggregate_signatures: bool = False
    view_change_timeout: float = 1.0  # seconds without progress before suspecting
    batch_delay: float = 0.0005  # primary waits this long to fill a batch
    request_queue_cap: int = 3000  # admission control: drop new requests beyond this backlog

    # Overload control.  The *primary* is the single admission point: it
    # sheds at ingress — before paying any verification cost — whenever
    # the projected backlog drain time (execute-lane occupancy plus queued
    # requests times the per-request service estimate) exceeds
    # ``admission_backlog`` seconds (0 = auto: ``client_timeout / 4``),
    # and drops queued requests whose projected completion exceeds
    # ``client_timeout`` before paying execute costs.  Backups stash raw
    # requests and admit exactly what the primary sequences
    # (:mod:`repro.lpbft.admission`).
    client_timeout: float = 2.0  # the client patience replicas shed against
    admission_backlog: float = 0.0  # queued-work drain budget in seconds (0 = auto)
    # CPU-lane occupancy bound: shed at ingress once the execute lane is
    # this many seconds behind.  Queued *requests* wait harmlessly, but
    # lane backlog delays every protocol message round, so it must stay
    # small for consensus to keep its cadence.  Backups also stop
    # pre-verifying stashed requests past this backlog and defer to
    # pre-prepare time instead.
    lane_backlog_budget: float = 0.05

    # State sync (checkpoint transfer + ledger catch-up, §3.4/§5.1).
    # ``sync_lag_batches`` is the stash-gap that triggers a transfer
    # (0 = use the checkpoint interval); chunks are at most
    # ``sync_chunk_bytes`` with ``sync_window`` requests in flight.
    sync_chunk_bytes: int = 65536
    sync_window: int = 4
    sync_lag_batches: int = 0

    # Ledger prefix garbage collection (PR 5).  After a checkpoint
    # stabilizes, the ledger entries below the *oldest* retained stable
    # checkpoint are truncated (their tree M prefix is compacted to a
    # frontier): audits, receipt rebuilds, and state transfers then run
    # from checkpoint state instead of genesis.  The retention policy
    # additionally honors pins (``LPBFTReplica.retention``; the statesync
    # server pins the checkpoint it serves, and the same API holds the
    # ledger for long-running audit collection), and never collects
    # history younger than ``ledger_gc_min_age`` seconds — the grace
    # window in which clients still fetch receipts for recent
    # transactions (``replyx`` rebuilds) and auditors assemble packages.
    ledger_gc: bool = True
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
        if self.sync_chunk_bytes < 1:
            raise ValueError("sync_chunk_bytes must be >= 1")
        if self.sync_window < 1:
            raise ValueError("sync_window must be >= 1")
        if self.client_timeout <= 0:
            raise ValueError("client_timeout must be positive")
        if self.admission_backlog < 0:
            raise ValueError("admission_backlog must be non-negative")
        if self.lane_backlog_budget <= 0:
            raise ValueError("lane_backlog_budget must be positive")
        if self.ledger_gc_min_age < 0:
            raise ValueError("ledger_gc_min_age must be non-negative")

    def admission_budget(self) -> float:
        """The ingress backlog budget in seconds (auto: a quarter of the
        client timeout, so admitted work drains well before clients give
        up even after a retry or two)."""
        return self.admission_backlog if self.admission_backlog > 0 else self.client_timeout / 4.0


# Named presets matching the paper's deployments.
LAN_PARAMS = ProtocolParams(pipeline=2, max_batch=300)
WAN_PARAMS = ProtocolParams(pipeline=6, max_batch=800)
