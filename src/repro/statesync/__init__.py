"""State sync: checkpoint transfer and ledger catch-up (paper §3.4, §5.1).

A replica that falls behind — partitioned away, crashed and recovered, or
freshly added to a running service — cannot catch up batch-by-batch once
its peers have checkpointed past the gap.  This package implements the
pull-based state-transfer protocol that closes the gap: discover the
latest stable checkpoint from peers, fetch its state in bounded-size
digest-verified chunks plus the ledger suffix needed to replay up to the
commit frontier, verify everything against ``dC`` and the signed ledger
roots, install, and resume normal L-PBFT operation.

- :mod:`repro.statesync.messages` — wire forms (offer, manifest);
- :mod:`repro.statesync.client` — the fetching state machine with
  retry/timeout and Byzantine-server failover;
- :mod:`repro.statesync.server` — the serving side with chunk caching.

Each replica owns one client and one server and routes the ``sync-*``
message kinds straight to them.

All transfer happens over :class:`~repro.network.SimNetwork` messages, so
catch-up time is charged to the simulated bandwidth/latency cost model.
"""

# The replica package first: it imports our client, whose verifier lives there.
from .. import lpbft  # noqa: F401
from .client import StateSyncClient
from .messages import SyncManifest, SyncOffer
from .server import StateSyncServer

__all__ = [
    "StateSyncClient",
    "StateSyncServer",
    "SyncOffer",
    "SyncManifest",
]
