"""Replica-side integration of state sync: dispatch, lag detection,
suspend/resume, and crash-recovery volatile-state reset.

:class:`StateSyncMixin` is mixed into the deployable
:class:`~repro.lpbft.LPBFTReplica`.  It owns one
:class:`~repro.statesync.client.StateSyncClient` and one
:class:`~repro.statesync.server.StateSyncServer` per replica and provides
the hooks the core replica calls:

- ``_maybe_detect_lag`` — fired from the pre-prepare stash: when the
  service is visibly more than a checkpoint interval ahead of our commit
  frontier, batch-by-batch catch-up is hopeless and a checkpoint transfer
  is started instead;
- ``start_state_sync`` — the one recovery entry point: lag, join,
  crash recovery, a ``ledger-gone`` answer, and the view-change
  machinery when it detects it missed a view (or over-advanced its own
  view while partitioned);
- ``_finish_state_sync`` — resume normal operation after an install.

While ``syncing`` is True the replica is suspended: it stashes but does
not accept pre-prepares, does not suspect the primary, and its server
half declines to serve peers.
"""

from __future__ import annotations

from .client import StateSyncClient
from .server import StateSyncServer

STATESYNC_DISPATCH = {
    "sync-probe": "handle_sync_probe",
    "sync-offer": "handle_sync_offer",
    "sync-get-manifest": "handle_sync_get_manifest",
    "sync-manifest": "handle_sync_manifest",
    "sync-get-chunk": "handle_sync_get_chunk",
    "sync-chunk": "handle_sync_chunk",
    "sync-get-ledger": "handle_sync_get_ledger",
    "sync-ledger": "handle_sync_ledger",
    "sync-ledger-refused": "handle_sync_ledger_refused",
}


class StateSyncMixin:
    """State transfer for lagging, recovering, and newly-joined replicas."""

    def _init_state_sync(self) -> None:
        self.syncing = False
        self.sync_client = StateSyncClient(self)
        self.sync_server = StateSyncServer(self)
        self._sync_span = None  # open "state-sync" Span while tracing

    # -- entry points ---------------------------------------------------------

    def start_state_sync(self, reason: str = "manual") -> None:
        """Suspend normal operation and catch up from a peer."""
        if self.tracer.enabled and self._sync_span is None:
            self._sync_span = self.tracer.span(
                "state-sync", self.address, self.now, reason=reason)
        self.sync_client.start(reason)

    def _maybe_detect_lag(self) -> None:
        """Start a transfer when stashed pre-prepares show the service is
        further ahead than one checkpoint interval — those batches will
        never be individually retransmitted once peers checkpoint past
        them, so only a state transfer can recover.

        A deep stash alone is not lag: right after a resume the stash
        legitimately holds everything that arrived during the transfer,
        and draining it is normal processing.  Only a *gap* — the next
        needed pre-prepare absent while the horizon is far ahead — means
        we are cut off from batch-by-batch recovery.  (A stash that is
        contiguous but stuck anyway is caught by the view-change timer's
        no-progress branch.)
        """
        if self.syncing or not self.pending_pps:
            return
        if self._stash_gap() > self._lag_threshold():
            self.metrics.bump("sync_lag_detected")
            self.start_state_sync("lag")

    def _lag_threshold(self) -> int:
        return self.params.sync_lag_batches or self.params.checkpoint_interval

    def _stash_gap(self) -> int:
        """How far the stashed pre-prepare horizon is ahead of the commit
        frontier, or 0 when the stash reaches down to the next batch we
        can process (no gap — just work to do)."""
        if not self.pending_pps:
            return 0
        if any(item[0][2] <= self.next_seqno for item in self.pending_pps):
            return 0
        horizon = max(item[0][2] for item in self.pending_pps)  # wire field 2 = seqno
        return horizon - max(self.committed_upto, 0)

    def _finish_state_sync(self) -> None:
        """Resume normal operation after a (possibly no-op) install.
        The install itself already adopted the server's view wholesale;
        here we only lift the suspension and restart the machinery."""
        if self._sync_span is not None:
            self._sync_span.set(committed_upto=self.committed_upto)
            self._sync_span.finish(self.now)
            self._sync_span = None
        self.syncing = False
        self.ready = True
        self._progress_mark = self.committed_upto
        result = self.sync_client.last_result or {}
        source = result.get("server")
        if source:
            self.send(source, ("get-gov-chain",))
        self.metrics.bump("sync_resumes")
        self._retry_pending_pps()
        # If we resumed as the primary with admitted-but-unproposed
        # requests, propose them now: client retransmissions of a request
        # already queued do not re-arm the batch timer, so nothing else
        # would ever kick the pipeline.
        self.maybe_send_pre_prepare()
        self._arm_view_change_timer()

    # -- crash/recovery modeling ----------------------------------------------

    def reset_volatile_state(self) -> None:
        """Forget everything a process restart would lose, keeping only
        durable state (ledger, KV store, checkpoints, schedule, chain).
        Used by :meth:`~repro.lpbft.Deployment.recover_replica`."""
        self.admission.reset()
        for attr in ("_sync_span", "_vc_span"):
            span = getattr(self, attr, None)
            if span is not None:
                span.set(aborted=True)
                span.finish(self.now)
                setattr(self, attr, None)
        self.pending_pps = []
        self.pending_commits = {}
        self.prepares_by_ppd = {}
        self.commit_nonces = {}
        self.own_nonces = {}
        self._last_lower_view_drop = None
        self.view_changes = {}
        self._pending_new_view = None
        self._stashed_new_view = None
        self.sync_client.abort()
        self.syncing = False
        self.ready = True
        self.metrics.bump("volatile_resets")

    # -- dispatch targets -------------------------------------------------------

    def handle_sync_probe(self, src: str, msg: tuple) -> None:
        self.sync_server.on_probe(src, msg)

    def handle_sync_get_manifest(self, src: str, msg: tuple) -> None:
        self.sync_server.on_get_manifest(src, msg)

    def handle_sync_get_chunk(self, src: str, msg: tuple) -> None:
        self.sync_server.on_get_chunk(src, msg)

    def handle_sync_get_ledger(self, src: str, msg: tuple) -> None:
        self.sync_server.on_get_ledger(src, msg)

    def handle_sync_offer(self, src: str, msg: tuple) -> None:
        self.sync_client.on_offer(src, msg)

    def handle_sync_manifest(self, src: str, msg: tuple) -> None:
        self.sync_client.on_manifest(src, msg)

    def handle_sync_chunk(self, src: str, msg: tuple) -> None:
        self.sync_client.on_chunk(src, msg)

    def handle_sync_ledger(self, src: str, msg: tuple) -> None:
        self.sync_client.on_ledger(src, msg)

    def handle_sync_ledger_refused(self, src: str, msg: tuple) -> None:
        self.sync_client.on_ledger_refused(src, msg)
