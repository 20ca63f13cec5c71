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

from .. import codec
from ..crypto.hashing import Digest
from ..errors import ReceiptError
from ..governance.configuration import Configuration
from ..lpbft.messages import Reply, ReplyX, bitmap_of
from ..merkle import MerklePath
from .receipt import Certificate, Receipt, verify_receipt


def assemble_receipt(
    request_wire: tuple | None,
    replies: dict[int, Reply],
    replyx: ReplyX,
    config: Configuration,
    shared: Certificate | None = None,
) -> Receipt:
    """Build a receipt from collected protocol messages.

    ``replies`` maps replica id to its reply for the batch; the primary's
    reply signature is its pre-prepare signature and every other reply
    signature is a prepare signature (§3.3 "no extra signing happens for
    replies").  The receipt holds ``shared`` as its certificate when that
    equals the one these messages make.  A sealed request is held packed
    (:func:`codec.pack`).  Raises :class:`ReceiptError` if the primary's
    reply is missing or fewer than a quorum of replies are supplied.
    """
    primary_id = config.primary_for_view(replyx.view)
    if primary_id not in replies:
        raise ReceiptError(f"cannot assemble receipt without primary {primary_id}'s reply")
    if len(replies) < config.quorum:
        raise ReceiptError(f"only {len(replies)} replies, quorum is {config.quorum}")

    signer_ids = sorted(replies)
    is_batch = request_wire is None
    certificate = Certificate(
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
        prepare_signatures=tuple(replies[r].signature for r in signer_ids if r != primary_id),
        nonces=tuple(replies[r].nonce for r in signer_ids),
        root_g=replyx.tx_digest if is_batch else None,
    )
    if certificate == shared:
        certificate = shared
    if is_batch:
        return Receipt(None, None, None, None, certificate)
    return Receipt(
        codec.pack(request_wire), replyx.index, codec.encoding_of(replyx.output), MerklePath.from_wire(replyx.path),
        certificate,
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
    reaches a quorum together with its ``replyx``).  A completed request
    is forgotten: its receipt and send time go to the caller, and later
    replies for it are ignored.
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
        # Per (view, seqno) slot: the certificate of each completed
        # receipt by signer bitmap, which the batch's later receipts from
        # the same signers share, and how many pending requests hold
        # messages for the slot.  A slot's certificates go with its last
        # pending request.
        self._certificates: dict[tuple[int, int], dict[int, Certificate]] = {}
        self._waiting: dict[tuple[int, int], int] = {}

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
        """Start collecting replies for a request sent at ``now``."""
        self._pending.setdefault(tx_digest, PendingRequest(request_wire=request_wire, sent_at=now))

    def pending_digests(self) -> list[Digest]:
        return list(self._pending)

    def request_wire(self, tx_digest: Digest) -> tuple | None:
        """The wire form of a pending request (for retransmission)."""
        pending = self._pending.get(tx_digest)
        return None if pending is None else pending.request_wire

    def abandon(self, tx_digest: Digest) -> bool:
        """Stop collecting for a request (retry budget exhausted); returns
        True if it was still pending.  Late replies are ignored."""
        pending = self._pending.pop(tx_digest, None)
        if pending is None:
            return False
        self._release(pending)
        return True

    def sent_at(self, tx_digest: Digest) -> float | None:
        """When a pending request was first tracked."""
        pending = self._pending.get(tx_digest)
        return None if pending is None else pending.sent_at

    # -- message intake ---------------------------------------------------------

    def add_reply(self, tx_digest: Digest, reply: Reply) -> tuple[Receipt, float] | None:
        """Record a reply; returns the finished receipt and the request's
        send time when this reply completes it."""
        pending = self._pending.get(tx_digest)
        if pending is None:
            return None
        key = (reply.view, reply.seqno)
        self._hold(pending, key)
        pending.slot(*key)[reply.replica] = reply
        return self._try_complete(tx_digest, pending, key)

    def add_replyx(self, tx_digest: Digest, replyx: ReplyX) -> tuple[Receipt, float] | None:
        """Record the designated replica's extended reply (returns as
        :meth:`add_reply`)."""
        pending = self._pending.get(tx_digest)
        if pending is None:
            return None
        if replyx.tx_digest != tx_digest:
            raise ReceiptError("replyx routed to the wrong request")
        key = (replyx.view, replyx.seqno)
        self._hold(pending, key)
        pending.replyx[key] = replyx
        return self._try_complete(tx_digest, pending, key)

    def recheck(self) -> list[tuple[Digest, Receipt, float]]:
        """Re-attempt completion of every pending request.

        Called after the configuration schedule or the completion gate's
        inputs change (a governance chain arrived): receipts that were
        deferred — or that now assemble under a different configuration —
        can complete without waiting for another reply."""
        finished = []
        for tx_digest, pending in list(self._pending.items()):
            for key in list(pending.replyx):
                done = self._try_complete(tx_digest, pending, key)
                if done is not None:
                    finished.append((tx_digest, *done))
                    break
        return finished

    def _config_for(self, seqno: int) -> Configuration:
        if self._schedule is not None:
            return self._schedule.config_at_seqno(seqno)
        return self._config

    def _try_complete(
        self, tx_digest: Digest, pending: PendingRequest, key: tuple[int, int]
    ) -> tuple[Receipt, float] | None:
        config = self._config_for(key[1])
        replyx = pending.replyx.get(key)
        replies = pending.replies.get(key, {})
        primary_id = config.primary_for_view(key[0])
        if replyx is None or len(replies) < config.quorum or primary_id not in replies:
            return None
        try:
            receipt = self._assemble(pending, replies, replyx, config)
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
        self._certificates.setdefault(key, {})[receipt.signer_bitmap] = receipt.certificate
        del self._pending[tx_digest]
        self._release(pending)
        return receipt, pending.sent_at

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
            candidate = self._assemble(pending, subset, replyx, config)
            if verify_receipt(candidate, config, self._backend):
                return candidate
        return None

    def _assemble(self, pending, replies, replyx, config) -> Receipt:
        """:func:`assemble_receipt`, sharing the certificate of an earlier
        receipt of the batch from the same signers."""
        shared = self._certificates.get((replyx.view, replyx.seqno), {}).get(bitmap_of(replies))
        return assemble_receipt(pending.request_wire, replies, replyx, config, shared)

    def _hold(self, pending: PendingRequest, key: tuple[int, int]) -> None:
        """Count ``pending`` as waiting on slot ``key`` (once)."""
        if key not in pending.replies and key not in pending.replyx:
            self._waiting[key] = self._waiting.get(key, 0) + 1

    def _release(self, pending: PendingRequest) -> None:
        """``pending`` waits no more: a slot nothing waits on lets its
        certificates go."""
        for key in pending.replies.keys() | pending.replyx.keys():
            left = self._waiting[key] - 1
            if left:
                self._waiting[key] = left
            else:
                del self._waiting[key]
                self._certificates.pop(key, None)
