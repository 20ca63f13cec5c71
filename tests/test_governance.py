"""Configurations, governance procedures, schedules, and the sub-ledger."""

import pytest

from repro.errors import GovernanceError
from repro.governance import (
    Configuration,
    MemberInfo,
    ReplicaInfo,
    register_governance_procedures,
)
from repro.governance.schedule import ConfigSchedule, ConfigSpan
from repro.governance.transactions import (
    accepted_configuration,
    current_configuration,
    install_configuration,
)
from repro.kvstore import KVStore, ProcedureRegistry
from repro.lpbft import make_genesis_config


def config_of(n, number=0, threshold=None):
    config, _, _ = make_genesis_config(n)
    if number == 0:
        return config
    return Configuration(
        number=number, members=config.members, replicas=config.replicas,
        vote_threshold=config.vote_threshold,
    )


class TestConfiguration:
    def test_quorum_arithmetic(self):
        for n, f in [(4, 1), (7, 2), (10, 3), (13, 4), (64, 21)]:
            config = config_of(n)
            assert config.f == f
            assert config.quorum == n - f

    def test_duplicate_replica_rejected(self):
        config = config_of(4)
        with pytest.raises(GovernanceError):
            Configuration(
                number=0, members=config.members,
                replicas=config.replicas + (config.replicas[0],),
                vote_threshold=1,
            )

    def test_unknown_operator_rejected(self):
        config = config_of(4)
        bad = ReplicaInfo(replica_id=99, public_key=b"\x02" * 33, operator="nobody")
        with pytest.raises(GovernanceError):
            Configuration(number=0, members=config.members,
                          replicas=config.replicas + (bad,), vote_threshold=1)

    def test_threshold_range(self):
        config = config_of(4)
        with pytest.raises(GovernanceError):
            Configuration(number=0, members=config.members, replicas=config.replicas,
                          vote_threshold=0)

    def test_primary_rotation(self):
        config = config_of(4)
        assert [config.primary_for_view(v) for v in range(5)] == [0, 1, 2, 3, 0]

    def test_lookups(self):
        config = config_of(4)
        assert config.replica(2).replica_id == 2
        assert config.operator_of(1) == "member-1"
        assert config.has_member("member-0")
        assert not config.has_member("stranger")
        with pytest.raises(GovernanceError):
            config.replica(99)

    def test_wire_roundtrip(self):
        config = config_of(4)
        assert Configuration.from_wire(config.to_wire()) == config

    def test_replica_id_lookups_are_memoised_outside_the_fields(self):
        import dataclasses

        config = config_of(4)
        wire = config.to_wire()
        ids = config.replica_ids()
        assert ids == [0, 1, 2, 3] and config.has_replica(3) and not config.has_replica(4)
        ids.append(99)  # callers own the list they get
        assert config.replica_ids() == [0, 1, 2, 3]
        # A used instance still equals, and encodes like, a fresh one.
        assert config == Configuration.from_wire(wire) and config.to_wire() == wire
        # A replaced copy starts with nothing remembered.
        smaller = dataclasses.replace(config, replicas=config.replicas[:3])
        assert smaller.replica_ids() == [0, 1, 2] and not smaller.has_replica(3)
        assert smaller.primary_for_view(3) == 0
        # Ids come off the wire unvalidated: an unhashable one names no replica.
        assert not config.has_replica({}) and not config.has_replica([0])

    def test_successor_number_must_increment(self):
        config = config_of(4)
        with pytest.raises(GovernanceError):
            config.validate_successor(config_of(4, number=0))

    def test_successor_change_bound(self):
        config = config_of(7)  # f = 2
        # Removing 3 replicas exceeds f.
        fewer = Configuration(
            number=1, members=config.members, replicas=config.replicas[:4],
            vote_threshold=config.vote_threshold,
        )
        with pytest.raises(GovernanceError):
            config.validate_successor(fewer)

    def test_successor_swap_allowed(self):
        config = config_of(4)
        other, _, _ = make_genesis_config(5, seed=b"other")
        swapped = Configuration(
            number=1,
            members=config.members + (MemberInfo("member-4", other.members[4].public_key),),
            replicas=config.replicas[1:] + (
                ReplicaInfo(replica_id=4, public_key=other.replicas[4].public_key, operator="member-4"),
            ),
            vote_threshold=config.vote_threshold,
        )
        config.validate_successor(swapped)  # one out, one in: allowed at f=1


class TestGovernanceProcedures:
    def setup_method(self):
        self.registry = ProcedureRegistry()
        register_governance_procedures(self.registry)
        self.config = config_of(4)
        self.kv = KVStore()
        self.kv.execute(lambda tx: install_configuration(tx, self.config))
        self.next_config = Configuration(
            number=1, members=self.config.members, replicas=self.config.replicas,
            vote_threshold=self.config.vote_threshold,
        )

    def invoke(self, name, args):
        result, _ = self.kv.execute(lambda tx: self.registry.invoke(name, tx, args))
        return result

    def test_propose_and_pass(self):
        result = self.invoke("gov.propose", {"member": "member-0", "config": self.next_config.to_wire()})
        assert result["ok"]
        for member in ("member-0", "member-1"):
            result = self.invoke("gov.vote", {"member": member, "accept": True})
            assert result["ok"] and not result["passed"]
        result = self.invoke("gov.vote", {"member": "member-2", "accept": True})
        assert result["passed"]
        accepted = [None]
        self.kv.execute(lambda tx: accepted.__setitem__(0, accepted_configuration(tx)))
        assert accepted[0] is not None and accepted[0].number == 1

    def test_non_member_cannot_propose(self):
        result = self.invoke("gov.propose", {"member": "stranger", "config": self.next_config.to_wire()})
        assert not result["ok"]

    def test_double_propose_rejected(self):
        self.invoke("gov.propose", {"member": "member-0", "config": self.next_config.to_wire()})
        result = self.invoke("gov.propose", {"member": "member-1", "config": self.next_config.to_wire()})
        assert not result["ok"]

    def test_double_vote_rejected(self):
        self.invoke("gov.propose", {"member": "member-0", "config": self.next_config.to_wire()})
        self.invoke("gov.vote", {"member": "member-1", "accept": True})
        result = self.invoke("gov.vote", {"member": "member-1", "accept": True})
        assert not result["ok"]

    def test_vote_without_proposal_rejected(self):
        result = self.invoke("gov.vote", {"member": "member-0", "accept": True})
        assert not result["ok"]

    def test_rejection_withdraws_proposal(self):
        self.invoke("gov.propose", {"member": "member-0", "config": self.next_config.to_wire()})
        result = self.invoke("gov.vote", {"member": "member-1", "accept": False})
        assert result["ok"] and not result["passed"]
        result = self.invoke("gov.vote", {"member": "member-2", "accept": True})
        assert not result["ok"]  # no pending proposal anymore

    def test_current_configuration_read(self):
        out = [None]
        self.kv.execute(lambda tx: out.__setitem__(0, current_configuration(tx)))
        assert out[0] == self.config


class TestSchedule:
    def test_genesis_and_lookup(self):
        config = config_of(4)
        schedule = ConfigSchedule.genesis(config)
        assert schedule.config_at_seqno(1) is config
        assert schedule.config_at_seqno(999) is config
        assert schedule.current() is config

    def test_append_and_spans(self):
        config = config_of(4)
        schedule = ConfigSchedule.genesis(config)
        next_config = Configuration(number=1, members=config.members,
                                    replicas=config.replicas, vote_threshold=2)
        schedule.append(ConfigSpan(config=next_config, start_seqno=20, start_index=100))
        assert schedule.config_at_seqno(19).number == 0
        assert schedule.config_at_seqno(20).number == 1
        assert schedule.config_at_index(99).number == 0
        assert schedule.config_at_index(100).number == 1
        assert schedule.config_number(1) is next_config

    def test_append_requires_increasing(self):
        config = config_of(4)
        schedule = ConfigSchedule.genesis(config)
        with pytest.raises(GovernanceError):
            schedule.append(ConfigSpan(config=config, start_seqno=5, start_index=5))

    def test_genesis_must_be_zero(self):
        config = config_of(4)
        c1 = Configuration(number=1, members=config.members, replicas=config.replicas,
                           vote_threshold=2)
        with pytest.raises(GovernanceError):
            ConfigSchedule.genesis(c1)

    def test_wire_roundtrip(self):
        config = config_of(4)
        schedule = ConfigSchedule.genesis(config)
        again = ConfigSchedule.from_wire(schedule.to_wire())
        assert again.current() == config
