"""Governance receipt chains (paper §5.2).

Clients do not keep the ledger; to verify receipts under a changing
replica set they keep *governance receipts*: for every reconfiguration,
the receipts of the ``gov.propose`` / ``gov.vote`` transactions and the
receipt for the P-th end-of-configuration batch.  A
:class:`GovernanceChain` is that sequence, starting from the genesis
configuration; verifying it yields the
:class:`~repro.governance.schedule.ConfigSchedule` a client (or auditor)
needs to pick signing keys for any receipt.

Fork detection (§5.3, Lemma 7): two chains fork if they contain
non-equivalent P-th end-of-configuration receipts for the same
configuration number; the replicas that signed both can be blamed.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .. import codec
from ..crypto import signatures
from ..errors import ReceiptError
from ..governance.configuration import Configuration
from ..governance.schedule import ConfigSchedule, ConfigSpan
from ..lpbft.messages import BATCH_END_OF_CONFIG
from .receipt import Receipt, receipts_equivalent, verify_receipt


@dataclass(frozen=True)
class GovernanceLink:
    """The receipts carrying one reconfiguration: the proposal, enough
    votes to pass it, and the P-th end-of-configuration batch receipt."""

    propose_receipt: Receipt
    vote_receipts: tuple[Receipt, ...]
    eoc_receipt: Receipt

    def to_wire(self) -> tuple:
        return (
            self.propose_receipt.to_wire(),
            tuple(r.to_wire() for r in self.vote_receipts),
            self.eoc_receipt.to_wire(),
        )

    @staticmethod
    def from_wire(raw: tuple) -> "GovernanceLink":
        return codec.parse(
            raw, None, 3, ReceiptError,
            lambda propose, votes, eoc: GovernanceLink(
                Receipt.from_wire(propose),
                tuple(Receipt.from_wire(v) for v in votes),
                Receipt.from_wire(eoc),
            ),
        )


@dataclass(frozen=True)
class GovernanceChain:
    """A client's supporting governance chain: genesis plus one link per
    reconfiguration, in order."""

    genesis_config_wire: tuple
    links: tuple[GovernanceLink, ...]
    wire_tag = "gov-chain"

    def to_wire(self) -> tuple:
        return (self.wire_tag, self.genesis_config_wire, tuple(l.to_wire() for l in self.links))

    @staticmethod
    def from_wire(raw: tuple) -> "GovernanceChain":
        return codec.parse(
            raw, GovernanceChain.wire_tag, 3, ReceiptError,
            lambda genesis, links: GovernanceChain(genesis, tuple(GovernanceLink.from_wire(l) for l in links)),
        )

    def extended(self, link: GovernanceLink) -> "GovernanceChain":
        """A copy with one more reconfiguration appended."""
        return GovernanceChain(
            genesis_config_wire=self.genesis_config_wire, links=self.links + (link,)
        )

    @staticmethod
    def genesis(config: Configuration) -> "GovernanceChain":
        return GovernanceChain(genesis_config_wire=config.to_wire(), links=())

    def __len__(self) -> int:
        return len(self.links)


def verify_chain(
    chain: GovernanceChain,
    pipeline: int,
    backend: signatures.SignatureBackend | None = None,
) -> ConfigSchedule:
    """Verify a governance chain and derive its configuration schedule.

    Each link is checked under the configuration the previous links
    establish: the proposal receipt must carry a valid successor
    configuration, the votes must come from distinct members and reach the
    threshold, and the end-of-configuration batch receipt must be a valid
    receipt for an end-of-configuration batch at the final vote's sequence
    number plus ``pipeline``.  Raises :class:`ReceiptError` on the first
    violation.
    """
    backend = backend or signatures.default_backend()
    config = Configuration.from_wire(chain.genesis_config_wire)
    if config.number != 0:
        raise ReceiptError(f"chain genesis configuration numbered {config.number}, expected 0")
    schedule = ConfigSchedule.genesis(config)

    for position, link in enumerate(chain.links):
        # Proposal: valid receipt for gov.propose carrying the new config.
        propose = link.propose_receipt
        if not verify_receipt(propose, config, backend):
            raise ReceiptError(f"link {position}: invalid propose receipt")
        propose_request = propose.request()
        if propose_request.procedure != "gov.propose":
            raise ReceiptError(
                f"link {position}: propose receipt is for {propose_request.procedure!r}"
            )
        result = propose.output.get("reply") if isinstance(propose.output, Mapping) else None
        if not (isinstance(result, dict) and result.get("ok")):
            raise ReceiptError(f"link {position}: proposal did not execute successfully")
        proposed = Configuration.from_wire(propose_request.args["config"])
        config.validate_successor(proposed)

        # Votes: distinct members of the current configuration, enough to pass.
        voters: set[str] = set()
        final_vote: Receipt | None = None
        for vote in link.vote_receipts:
            if not verify_receipt(vote, config, backend):
                raise ReceiptError(f"link {position}: invalid vote receipt")
            vote_request = vote.request()
            if vote_request.procedure != "gov.vote":
                raise ReceiptError(f"link {position}: vote receipt is for {vote_request.procedure!r}")
            member = vote_request.args.get("member")
            if not config.has_member(member):
                raise ReceiptError(f"link {position}: vote by non-member {member!r}")
            if member in voters:
                raise ReceiptError(f"link {position}: duplicate vote by {member!r}")
            voters.add(member)
            reply = vote.output.get("reply") if isinstance(vote.output, Mapping) else None
            if isinstance(reply, dict) and reply.get("passed"):
                final_vote = vote
        if len(voters) < config.vote_threshold:
            raise ReceiptError(
                f"link {position}: {len(voters)} votes, threshold is {config.vote_threshold}"
            )
        if final_vote is None:
            raise ReceiptError(f"link {position}: no vote receipt shows the referendum passing")

        # P-th end-of-configuration batch receipt.
        eoc = link.eoc_receipt
        if not eoc.is_batch_receipt:
            raise ReceiptError(f"link {position}: end-of-config receipt is not a batch receipt")
        if eoc.flags != BATCH_END_OF_CONFIG:
            raise ReceiptError(f"link {position}: end-of-config receipt has flags {eoc.flags}")
        if not verify_receipt(eoc, config, backend):
            raise ReceiptError(f"link {position}: invalid end-of-config receipt")
        if eoc.seqno != final_vote.seqno + pipeline:
            raise ReceiptError(
                f"link {position}: end-of-config batch at {eoc.seqno}, expected "
                f"{final_vote.seqno + pipeline} (final vote at {final_vote.seqno} + P)"
            )

        # The new configuration takes effect at s + 2P + 1 (§5.1).
        schedule.append(ConfigSpan.activated(proposed, final_vote.seqno, final_vote.index or 0, pipeline))
        config = proposed

    return schedule


def verify_served_chain(
    chain_wire: tuple,
    genesis_config_wire: tuple,
    pipeline: int,
    backend: signatures.SignatureBackend | None = None,
) -> tuple[GovernanceChain, ConfigSchedule]:
    """The check a party runs on a governance chain it was sent, before
    it adopts the chain: parse it, require our own genesis, then
    :func:`verify_chain`.  Returns the chain and its schedule; raises
    :class:`ReceiptError` on any failure."""
    chain = GovernanceChain.from_wire(chain_wire)
    if chain.genesis_config_wire != genesis_config_wire:
        raise ReceiptError("governance chain has a different genesis")
    return chain, verify_chain(chain, pipeline, backend)


def find_chain_fork(a: GovernanceChain, b: GovernanceChain) -> tuple[int, Receipt, Receipt] | None:
    """Detect a governance fork between two (individually valid) chains.

    Returns ``(config_number, receipt_a, receipt_b)`` for the first pair of
    non-equivalent P-th end-of-configuration receipts claiming the same
    configuration number, or ``None`` if one chain is a prefix of the
    other.  The replicas in both receipts' signer sets can be blamed
    (Lemma 7).
    """
    if a.genesis_config_wire != b.genesis_config_wire:
        raise ReceiptError("chains disagree on the genesis configuration")
    for number, (link_a, link_b) in enumerate(zip(a.links, b.links), start=1):
        if not receipts_equivalent(link_a.eoc_receipt, link_b.eoc_receipt):
            return (number, link_a.eoc_receipt, link_b.eoc_receipt)
    return None


def longest_chain(chains: list[GovernanceChain]) -> GovernanceChain:
    """The longest of a set of pairwise fork-free chains (§B.2 "longest
    supporting governance chain"); raises :class:`ReceiptError` if any two
    chains fork (callers should run :func:`find_chain_fork` first to
    assign blame)."""
    if not chains:
        raise ReceiptError("no chains supplied")
    best = chains[0]
    for chain in chains[1:]:
        if find_chain_fork(best, chain) is not None:
            raise ReceiptError("chains fork; audit the fork before merging")
        if len(chain) > len(best):
            best = chain
    return best
