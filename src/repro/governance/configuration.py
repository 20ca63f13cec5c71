"""Service configurations (paper §5.1).

A configuration holds the public signing keys of consortium members and
active replicas, each replica's operating member (the endorsement that
lets the enforcer translate replica blame into member punishment), and the
vote threshold for governance referendums.  Configurations are numbered by
their distance from genesis (§B.2 "configuration number").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..crypto.hashing import Digest, digest_value
from ..errors import GovernanceError


@dataclass(frozen=True)
class MemberInfo:
    """A consortium member: identifier and public signing key."""

    member_id: str
    public_key: bytes

    def to_wire(self) -> tuple:
        return (self.member_id, self.public_key)

    @staticmethod
    def from_wire(raw: tuple) -> "MemberInfo":
        member_id, public_key = raw
        return MemberInfo(member_id=member_id, public_key=public_key)


@dataclass(frozen=True)
class ReplicaInfo:
    """An active replica: id, public key, and the member operating it.

    ``endorsement`` is the operating member's signature over the replica's
    public key (paper §5.1: "an endorsement of each replica's signing key
    signed by the member responsible").
    """

    replica_id: int
    public_key: bytes
    operator: str
    endorsement: bytes = b""

    def to_wire(self) -> tuple:
        return (self.replica_id, self.public_key, self.operator, self.endorsement)

    @staticmethod
    def from_wire(raw: tuple) -> "ReplicaInfo":
        replica_id, public_key, operator, endorsement = raw
        return ReplicaInfo(
            replica_id=replica_id, public_key=public_key, operator=operator, endorsement=endorsement
        )

    def endorsement_payload(self) -> bytes:
        """The bytes the operating member signs to endorse this key."""
        from .. import codec

        return codec.encode(("endorse-replica", self.replica_id, self.public_key, self.operator))


@dataclass(frozen=True)
class Configuration:
    """The member/replica sets and voting rule at a point in the ledger."""

    number: int
    members: tuple[MemberInfo, ...]
    replicas: tuple[ReplicaInfo, ...]
    vote_threshold: int

    def __post_init__(self) -> None:
        ids = [r.replica_id for r in self.replicas]
        if len(set(ids)) != len(ids):
            raise GovernanceError("duplicate replica ids in configuration")
        member_ids = [m.member_id for m in self.members]
        if len(set(member_ids)) != len(member_ids):
            raise GovernanceError("duplicate member ids in configuration")
        operators = {m.member_id for m in self.members}
        for replica in self.replicas:
            if replica.operator not in operators:
                raise GovernanceError(
                    f"replica {replica.replica_id} operated by unknown member {replica.operator!r}"
                )
        if not 1 <= self.vote_threshold <= len(self.members):
            raise GovernanceError(f"vote threshold {self.vote_threshold} out of range")

    # -- quorum arithmetic -------------------------------------------------

    @property
    def n(self) -> int:
        """Number of replicas N."""
        return len(self.replicas)

    @property
    def f(self) -> int:
        """Fault threshold f = ⌈N/3⌉ − 1."""
        return (self.n + 2) // 3 - 1

    @property
    def quorum(self) -> int:
        """Commit quorum N − f."""
        return self.n - self.f

    # -- lookups ---------------------------------------------------------------

    def replica(self, replica_id: int) -> ReplicaInfo:
        for replica in self.replicas:
            if replica.replica_id == replica_id:
                return replica
        raise GovernanceError(f"no replica {replica_id} in configuration {self.number}")

    def replica_key(self, replica_id: int) -> bytes:
        return self.replica(replica_id).public_key

    @cached_property
    def _sorted_ids(self) -> tuple[int, ...]:
        # Once per (frozen) instance, in its ``__dict__`` and not in a
        # dataclass field: ``==``, ``to_wire`` and ``replace`` never see it.
        # ``is_primary``/``primary_for_view`` ask per message.
        return tuple(sorted(r.replica_id for r in self.replicas))

    def replica_ids(self) -> list[int]:
        """The sorted replica ids, as a fresh list the caller may mutate."""
        return list(self._sorted_ids)

    def has_replica(self, replica_id: int) -> bool:
        return replica_id in self._sorted_ids

    def member(self, member_id: str) -> MemberInfo:
        for member in self.members:
            if member.member_id == member_id:
                return member
        raise GovernanceError(f"no member {member_id!r} in configuration {self.number}")

    def has_member(self, member_id: str) -> bool:
        return any(m.member_id == member_id for m in self.members)

    def operator_of(self, replica_id: int) -> str:
        """The member responsible for ``replica_id`` (blame target)."""
        return self.replica(replica_id).operator

    def primary_for_view(self, view: int) -> int:
        """The primary replica id for ``view`` (p = v mod N over the sorted
        active replica ids)."""
        ids = self._sorted_ids
        return ids[view % len(ids)]

    # -- serialization ------------------------------------------------------------

    def to_wire(self) -> tuple:
        return (
            "configuration",
            self.number,
            tuple(m.to_wire() for m in self.members),
            tuple(r.to_wire() for r in self.replicas),
            self.vote_threshold,
        )

    @staticmethod
    def from_wire(raw: tuple) -> "Configuration":
        try:
            tag, number, members, replicas, threshold = raw
        except (TypeError, ValueError) as exc:
            raise GovernanceError(f"malformed configuration: {exc}") from exc
        if tag != "configuration":
            raise GovernanceError(f"expected configuration, got {tag!r}")
        return Configuration(
            number=number,
            members=tuple(MemberInfo.from_wire(m) for m in members),
            replicas=tuple(ReplicaInfo.from_wire(r) for r in replicas),
            vote_threshold=threshold,
        )

    def digest(self) -> Digest:
        return digest_value(self.to_wire())

    # -- change validation (§5.1) ---------------------------------------------------

    def validate_successor(self, new: "Configuration") -> None:
        """Check the §5.1 constraints on a proposed configuration: numbers
        increase by one and at most f replicas are added or removed (so a
        change cannot take out liveness)."""
        if new.number != self.number + 1:
            raise GovernanceError(
                f"successor configuration must be numbered {self.number + 1}, got {new.number}"
            )
        old_ids = set(self.replica_ids())
        new_ids = set(new.replica_ids())
        added = len(new_ids - old_ids)
        removed = len(old_ids - new_ids)
        limit = max(self.f, 1)
        if added > limit or removed > limit:
            raise GovernanceError(
                f"configuration change adds {added} and removes {removed} replicas; "
                f"at most f={limit} of each allowed (§5.1)"
            )
