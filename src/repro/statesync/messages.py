"""State-sync protocol messages (paper §3.4 fetch, §5.1 join).

The protocol is pull-based and runs between one lagging *client* replica
and one serving peer at a time:

- ``sync-probe`` → ``sync-offer``: the client asks every peer what the
  latest *stable* checkpoint (recorded in the ledger, at or below the
  commit frontier) is; each server answers with an :class:`SyncOffer`.
- ``sync-get-manifest`` → ``sync-manifest``: the client fetches the
  :class:`SyncManifest` for the chosen checkpoint — per-chunk digests
  plus the ledger tree frontier at the checkpoint, everything needed to
  verify chunks and the ledger suffix before installing anything.
- ``sync-get-chunk`` → ``sync-chunk``: bounded-size state chunks,
  requested with a sliding window.
- ``sync-get-ledger`` → ``sync-ledger``: the ledger suffix past the
  offered checkpoint's boundary, with the server's governance chain and
  its index of executed requests.  The server stays silent when that
  boundary lies below what it retains.

None of these messages is signed: every payload is verified against
digests the client already trusts or can cross-check in the fetched
ledger itself (chunks against the manifest, the manifest against ``dC``
recorded by a checkpoint transaction, the suffix against the checkpoint's
ledger root and the pre-prepares' signed roots), so a Byzantine server
can waste a client's time but cannot make it install bad state.  The
server's view and its index of executed requests are hints the client
cannot check: a lying server can stall it or make it ignore a request,
never change what it installs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import codec
from ..crypto.hashing import Digest
from ..errors import ProtocolError


@codec.wire("sync-offer", ProtocolError)
@dataclass(frozen=True)
class SyncOffer:
    """A server's answer to a probe: its best stable checkpoint and tip.

    ``cp_seqno == 0`` is checkpoint 0, genesis (the genesis digest,
    ledger size 1, no chunks): a server without a stable checkpoint
    offers it, and every replica holds it.  ``tip_seqno`` is the server's
    committed frontier, and ``view`` the view the client should resume
    in.
    """

    cp_seqno: int
    cp_digest: Digest
    cp_ledger_size: int
    cp_ledger_root: Digest
    n_chunks: int
    tip_seqno: int
    view: int


@codec.wire(
    "sync-manifest", ProtocolError,
    chunk_digests=tuple, frontier=lambda peaks: tuple(tuple(p) for p in peaks),
)
@dataclass(frozen=True)
class SyncManifest:
    """Everything needed to verify a checkpoint transfer.

    ``chunk_digests`` bind each chunk's canonical bytes; ``frontier`` is
    the ledger tree M's peak decomposition at ``cp_ledger_size`` (so the
    client can extend the tree over the fetched suffix and compare the
    result with the signed ``root_m`` values without the prefix leaves).
    """

    cp_seqno: int
    cp_digest: Digest
    cp_ledger_size: int
    cp_ledger_root: Digest
    chunk_digests: tuple
    frontier: tuple  # tuple of (height, digest) pairs
