"""L-PBFT: the ledger-integrated BFT replication protocol (paper §3).

- :mod:`repro.lpbft.messages` — protocol message types and wire forms;
- :mod:`repro.lpbft.config` — tunables (pipeline P, batch size, checkpoint
  interval C) and the Tab. 3 feature toggles;
- :mod:`repro.lpbft.admission` — the request queue and overload control;
- :mod:`repro.lpbft.replica` — the replica and Alg. 1: ordering, early
  execution, the nonce commitment scheme, evidence, checkpoints,
  reconfiguration;
- :mod:`repro.lpbft.batch` — the per-batch record and transaction execution;
- :mod:`repro.lpbft.viewchange` — Alg. 2: the replica's view manager;
- :mod:`repro.lpbft.adoption` — verify + install of a fetched ledger;
- :mod:`repro.lpbft.client` — clients and receipt collection;
- :mod:`repro.lpbft.deployment` — harness wiring replicas + clients onto
  the simulated network.
"""

from .config import ProtocolParams, LAN_PARAMS, WAN_PARAMS
from .messages import (
    BATCH_REGULAR,
    BATCH_END_OF_CONFIG,
    BATCH_START_OF_CONFIG,
    BATCH_CHECKPOINT,
    TransactionRequest,
    PrePrepare,
    Prepare,
    Commit,
    Reply,
    ReplyX,
    ViewChange,
    NewView,
    SyncOffer,
    SyncManifest,
    bitmap_of,
    bitmap_members,
)
from .checkpointing import CheckpointDirectory, CheckpointRecord, reference_checkpoint_seqno
from .replica import LPBFTReplica, BatchRecord, designated_replica, execute_procedure, EMPTY_WS
from .viewchange import ViewManager
from .client import LPBFTClient, LoadGenerator
from .deployment import Deployment, make_genesis_config

__all__ = [
    "ProtocolParams",
    "LAN_PARAMS",
    "WAN_PARAMS",
    "BATCH_REGULAR",
    "BATCH_END_OF_CONFIG",
    "BATCH_START_OF_CONFIG",
    "BATCH_CHECKPOINT",
    "TransactionRequest",
    "PrePrepare",
    "Prepare",
    "Commit",
    "Reply",
    "ReplyX",
    "ViewChange",
    "NewView",
    "SyncOffer",
    "SyncManifest",
    "bitmap_of",
    "bitmap_members",
    "CheckpointDirectory",
    "CheckpointRecord",
    "reference_checkpoint_seqno",
    "LPBFTReplica",
    "ViewManager",
    "BatchRecord",
    "designated_replica",
    "execute_procedure",
    "EMPTY_WS",
    "LPBFTClient",
    "LoadGenerator",
    "Deployment",
    "make_genesis_config",
]
