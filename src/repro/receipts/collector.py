"""Client-side receipt assembly (paper §3.3).

A client that sent a transaction waits for ``N − f`` ``reply`` messages
for the same view and sequence number, plus one ``replyx`` from the
designated replica.  :class:`ReceiptCollector` accumulates those messages
per in-flight request and produces a :class:`~repro.receipts.receipt.Receipt`
once enough evidence has arrived; :func:`assemble_receipt` does the final
construction and is also used directly by tests and by replicas building
their own governance batch receipts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..crypto.hashing import Digest
from ..errors import ReceiptError
from ..governance.configuration import Configuration
from ..lpbft.messages import Reply, ReplyX, bitmap_of
from ..merkle import MerklePath
from .receipt import Receipt, verify_receipt


def assemble_receipt(
    request_wire: tuple | None,
    replies: dict[int, Reply],
    replyx: ReplyX,
    config: Configuration,
) -> Receipt:
    """Build a receipt from collected protocol messages.

    ``replies`` maps replica id to its reply for the batch; the primary's
    reply signature is its pre-prepare signature and every other reply
    signature is a prepare signature (§3.3 "no extra signing happens for
    replies").  Raises :class:`ReceiptError` if the primary's reply is
    missing or fewer than a quorum of replies are supplied.
    """
    primary_id = config.primary_for_view(replyx.view)
    if primary_id not in replies:
        raise ReceiptError(f"cannot assemble receipt without primary {primary_id}'s reply")
    if len(replies) < config.quorum:
        raise ReceiptError(f"only {len(replies)} replies, quorum is {config.quorum}")

    signer_ids = sorted(replies)
    prepare_signatures = tuple(
        replies[r].signature for r in signer_ids if r != primary_id
    )
    nonces = tuple(replies[r].nonce for r in signer_ids)

    is_batch = request_wire is None
    return Receipt(
        request_wire=request_wire,
        index=None if is_batch else replyx.index,
        output=None if is_batch else replyx.output,
        path=None if is_batch else MerklePath.from_wire(replyx.path),
        view=replyx.view,
        seqno=replyx.seqno,
        root_m=replyx.root_m,
        primary_nonce_commitment=replyx.primary_nonce_commitment,
        evidence_bitmap=replyx.evidence_bitmap,
        gov_index=replyx.gov_index,
        checkpoint_digest=replyx.checkpoint_digest,
        flags=replyx.flags,
        committed_root=replyx.committed_root,
        primary_signature=replies[primary_id].signature,
        signer_bitmap=bitmap_of(signer_ids),
        prepare_signatures=prepare_signatures,
        nonces=nonces,
        root_g=replyx.tx_digest if is_batch else None,
    )


@dataclass
class PendingRequest:
    """Collection state for one in-flight request."""

    request_wire: tuple
    sent_at: float
    replies: dict[tuple[int, int], dict[int, Reply]] = field(default_factory=dict)
    replyx: dict[tuple[int, int], ReplyX] = field(default_factory=dict)

    def slot(self, view: int, seqno: int) -> dict[int, Reply]:
        return self.replies.setdefault((view, seqno), {})


class ReceiptCollector:
    """Accumulates replies per request and emits receipts when complete.

    Keyed by the request digest ``H(t)``; tolerant of replies arriving
    before or after the ``replyx``, and of stale replies from earlier
    views (a receipt is built from whichever ``(view, seqno)`` slot first
    reaches a quorum together with its ``replyx``).
    """

    def __init__(
        self,
        config: Configuration,
        verify: bool = True,
        backend=None,
        completion_gate=None,
    ) -> None:
        self._config = config
        self._schedule = None
        self._verify = verify
        self._backend = backend
        # An assembled-and-verified receipt still only counts once the
        # gate (if any) passes it: clients gate on governance *coverage*
        # (§5.2) so a receipt referencing governance transactions they
        # have not verified stays pending instead of being accepted
        # against a configuration that may no longer be in force.
        self._completion_gate = completion_gate
        self._pending: dict[Digest, PendingRequest] = {}
        self._done: dict[Digest, Receipt] = {}
        self._sent_times: dict[Digest, float] = {}

    # -- configuration changes ------------------------------------------------

    def update_schedule(self, schedule) -> None:
        """Adopt a full configuration schedule (chain-derived, §5.2).

        With a schedule, receipts are assembled and verified against the
        configuration in force *at their sequence number* — a request that
        committed just before an activation must not be judged by the
        successor configuration's quorum, and vice versa."""
        self._schedule = schedule
        self._config = schedule.current()

    @property
    def config(self) -> Configuration:
        return self._config

    # -- request lifecycle -------------------------------------------------------

    def track(self, tx_digest: Digest, request_wire: tuple, now: float = 0.0) -> None:
        """Start collecting replies for a request."""
        if tx_digest not in self._done:
            self._pending.setdefault(tx_digest, PendingRequest(request_wire=request_wire, sent_at=now))
            self._sent_times.setdefault(tx_digest, now)

    def pending_digests(self) -> list[Digest]:
        return list(self._pending)

    def request_wire(self, tx_digest: Digest) -> tuple | None:
        """The wire form of a pending request (for retransmission)."""
        pending = self._pending.get(tx_digest)
        return None if pending is None else pending.request_wire

    def abandon(self, tx_digest: Digest) -> bool:
        """Stop collecting for a request (retry budget exhausted); returns
        True if it was still pending.  Late replies are ignored."""
        return self._pending.pop(tx_digest, None) is not None

    def sent_at(self, tx_digest: Digest) -> float | None:
        """When the request was first tracked (survives completion, so
        latency can be measured after the receipt finishes)."""
        return self._sent_times.get(tx_digest)

    def receipt_for(self, tx_digest: Digest) -> Receipt | None:
        return self._done.get(tx_digest)

    def receipts(self) -> dict[Digest, Receipt]:
        return dict(self._done)

    # -- message intake ---------------------------------------------------------

    def add_reply(self, tx_digest: Digest, reply: Reply) -> Receipt | None:
        """Record a reply; returns the finished receipt when complete."""
        pending = self._pending.get(tx_digest)
        if pending is None:
            return self._done.get(tx_digest)
        slot = pending.slot(reply.view, reply.seqno)
        slot[reply.replica] = reply
        return self._try_complete(tx_digest, pending, (reply.view, reply.seqno))

    def add_replyx(self, tx_digest: Digest, replyx: ReplyX) -> Receipt | None:
        """Record the designated replica's extended reply."""
        pending = self._pending.get(tx_digest)
        if pending is None:
            return self._done.get(tx_digest)
        if replyx.tx_digest != tx_digest:
            raise ReceiptError("replyx routed to the wrong request")
        pending.replyx[(replyx.view, replyx.seqno)] = replyx
        return self._try_complete(tx_digest, pending, (replyx.view, replyx.seqno))

    def recheck(self) -> list[tuple[Digest, Receipt]]:
        """Re-attempt completion of every pending request.

        Called after the configuration schedule or the completion gate's
        inputs change (a governance chain arrived): receipts that were
        deferred — or that now assemble under a different configuration —
        can complete without waiting for another reply."""
        finished: list[tuple[Digest, Receipt]] = []
        for tx_digest, pending in list(self._pending.items()):
            for key in list(pending.replyx):
                receipt = self._try_complete(tx_digest, pending, key)
                if receipt is not None:
                    finished.append((tx_digest, receipt))
                    break
        return finished

    def _config_for(self, seqno: int) -> Configuration:
        if self._schedule is not None:
            return self._schedule.config_at_seqno(seqno)
        return self._config

    def _try_complete(
        self, tx_digest: Digest, pending: PendingRequest, key: tuple[int, int]
    ) -> Receipt | None:
        config = self._config_for(key[1])
        replyx = pending.replyx.get(key)
        replies = pending.replies.get(key, {})
        primary_id = config.primary_for_view(key[0])
        if replyx is None or len(replies) < config.quorum or primary_id not in replies:
            return None
        try:
            receipt = assemble_receipt(pending.request_wire, replies, replyx, config)
        except ReceiptError:
            # Replies collected under an earlier configuration can be
            # unassemblable under the one now in force (e.g. a signer id
            # outside the replica set); keep collecting.
            return None
        if self._verify and not verify_receipt(receipt, config, self._backend):
            # Some reply carries invalid evidence.  With more than a quorum
            # of replies, retry quorum-sized subsets (primary always
            # included) — a correct quorum yields a verifiable receipt.
            receipt = self._retry_subsets(pending, replies, replyx, primary_id, config)
            if receipt is None:
                return None
        if self._completion_gate is not None and not self._completion_gate(receipt):
            return None
        del self._pending[tx_digest]
        self._done[tx_digest] = receipt
        return receipt

    def _retry_subsets(self, pending, replies, replyx, primary_id, config):
        """Quorum-subset retry: the subset that verifies leaves out the
        replica whose share was bad."""
        if len(replies) <= config.quorum:
            return None
        others = [r for r in sorted(replies) if r != primary_id]
        for dropped in others:
            subset = {r: m for r, m in replies.items() if r != dropped}
            if len(subset) < config.quorum:
                continue
            candidate = assemble_receipt(pending.request_wire, subset, replyx, config)
            if verify_receipt(candidate, config, self._backend):
                return candidate
        return None
