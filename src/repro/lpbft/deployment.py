"""Deployment harness: wire replicas, clients, and the simulated network.

A :class:`Deployment` stands in for the paper's testbeds (§6): it builds a
genesis configuration (one consortium member operating each replica),
registers replica nodes on a :class:`~repro.network.SimNetwork` with the
chosen latency and cost models, and provides helpers to attach clients,
drive load, and inspect state for audits and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..crypto import signatures
from ..governance.configuration import Configuration, MemberInfo, ReplicaInfo
from ..governance.transactions import register_governance_procedures
from ..kvstore import ProcedureRegistry, Snapshot
from ..network import SimNetwork, constant_latency
from ..network.latency import LatencyModel
from ..obs.trace import NULL_TRACER, Tracer
from ..sim.costs import CostModel
from ..sim.metrics import MetricsCollector
from .client import LoadGenerator, LPBFTClient
from .config import ProtocolParams
from .replica import LPBFTReplica


def make_genesis_config(
    n_replicas: int,
    backend: signatures.SignatureBackend | None = None,
    seed: bytes = b"ia-ccf",
    vote_threshold: int | None = None,
) -> tuple[Configuration, dict[int, signatures.KeyPair], dict[str, signatures.KeyPair]]:
    """Build a genesis configuration with one member per replica.

    Returns ``(config, replica_keys, member_keys)``.  Key pairs are
    derived deterministically from ``seed`` so deployments are
    reproducible.
    """
    backend = backend or signatures.default_backend()
    replica_keys: dict[int, signatures.KeyPair] = {}
    member_keys: dict[str, signatures.KeyPair] = {}
    members = []
    replicas = []
    for i in range(n_replicas):
        member_id = f"member-{i}"
        member_kp = backend.generate(seed + b"|member|" + bytes([i]))
        replica_kp = backend.generate(seed + b"|replica|" + bytes([i]))
        member_keys[member_id] = member_kp
        replica_keys[i] = replica_kp
        members.append(MemberInfo(member_id=member_id, public_key=member_kp.public_key))
        info = ReplicaInfo(replica_id=i, public_key=replica_kp.public_key, operator=member_id)
        endorsement = backend.sign(member_kp, info.endorsement_payload())
        replicas.append(
            ReplicaInfo(
                replica_id=i,
                public_key=replica_kp.public_key,
                operator=member_id,
                endorsement=endorsement,
            )
        )
    threshold = vote_threshold if vote_threshold is not None else (n_replicas // 2) + 1
    config = Configuration(
        number=0,
        members=tuple(members),
        replicas=tuple(replicas),
        vote_threshold=min(threshold, n_replicas),
    )
    return config, replica_keys, member_keys


@dataclass
class Deployment:
    """A simulated IA-CCF service: N replicas plus attached clients.

    ``behaviors`` maps replica id to a byzantine behavior object
    (:mod:`repro.byzantine`); ``sites`` maps replica id to a network site
    for WAN latency models.
    """

    n_replicas: int = 4
    params: ProtocolParams = field(default_factory=ProtocolParams)
    costs: CostModel = field(default_factory=CostModel)
    latency: LatencyModel | None = None
    registry_setup: Callable[[ProcedureRegistry], None] | None = None
    behaviors: dict = field(default_factory=dict)
    sites: dict = field(default_factory=dict)
    seed: bytes = b"ia-ccf"
    backend: signatures.SignatureBackend | None = None
    initial_state: Snapshot | None = None  # genesis application state, shared by every replica
    spare_replicas: int = 0  # replicas outside genesis, available for reconfiguration

    def __post_init__(self) -> None:
        self.backend = self.backend or signatures.default_backend()
        self.net = SimNetwork(latency=self.latency or constant_latency(0.1e-3))
        # One verification cache for the whole deployment: replicas verify
        # the same client-request and protocol signatures, so the real
        # cryptography runs once per distinct triple (simulated CPU costs
        # are still charged per replica).
        self.verify_cache = signatures.SignatureVerifyCache()
        self.genesis_config, self.replica_keys, self.member_keys = make_genesis_config(
            self.n_replicas, self.backend, self.seed
        )
        self.registry = ProcedureRegistry()
        register_governance_procedures(self.registry)
        if self.registry_setup is not None:
            self.registry_setup(self.registry)
        total = self.n_replicas + self.spare_replicas
        directory = {i: f"replica-{i}" for i in range(total)}
        # Spare replicas (and their operating members) get keys now so a
        # later governance proposal can add them.
        for i in range(self.n_replicas, total):
            member_id = f"member-{i}"
            self.member_keys[member_id] = self.backend.generate(self.seed + b"|member|" + bytes([i]))
            self.replica_keys[i] = self.backend.generate(self.seed + b"|replica|" + bytes([i]))
        self.replicas: list[LPBFTReplica] = []
        self.metrics = MetricsCollector()
        for i in range(total):
            replica = LPBFTReplica(
                replica_id=i,
                keypair=self.replica_keys[i],
                genesis_config=self.genesis_config,
                registry=self.registry,
                params=self.params,
                costs=self.costs,
                site=self.sites.get(i, "local"),
                metrics=self.metrics if i == 0 else MetricsCollector(),
                behavior=self.behaviors.get(i),
                backend=self.backend,
                replica_directory=directory,
                initial_state=self.initial_state,
                verify_cache=self.verify_cache,
            )
            self.net.register(replica)
            self.replicas.append(replica)
        self.clients: list[LPBFTClient] = []
        self.service_name = self.replicas[0].service_name
        self._client_counter = 0
        self._crashed_ids: set[int] = set()
        self.tracer = NULL_TRACER

    # -- observability ---------------------------------------------------------

    def enable_tracing(self, tracer: Tracer | None = None) -> Tracer:
        """Turn span tracing on for every node attached to this deployment
        (replicas, clients — including ones added later, which pick the
        tracer up at registration).  Off by default: nodes carry the
        shared no-op :data:`~repro.obs.trace.NULL_TRACER` until this is
        called, so the untraced hot path never builds a span."""
        self.tracer = tracer or Tracer()
        for node in [*self.replicas, *self.clients]:
            node.tracer = self.tracer
        return self.tracer

    # -- clients ---------------------------------------------------------------

    def member_client(self, member_id: str, **kwargs) -> LPBFTClient:
        """A client signing with a consortium member's key, for issuing
        governance transactions (§5.1)."""
        return self.add_client(
            name=f"member-client-{member_id}", keypair=self.member_keys[member_id], **kwargs
        )

    def propose_successor(
        self,
        add: list[int] | None = None,
        remove: list[int] | None = None,
        vote_threshold: int | None = None,
    ) -> Configuration:
        """Build a successor configuration adding/removing the given
        replica ids (spares must have been provisioned at construction)."""
        current = self.replicas[0].schedule.current()
        members = {m.member_id: m for m in current.members}
        replicas = {r.replica_id: r for r in current.replicas}
        for rid in remove or []:
            replicas.pop(rid, None)
        for rid in add or []:
            member_id = f"member-{rid}"
            member_kp = self.member_keys[member_id]
            members.setdefault(member_id, MemberInfo(member_id=member_id, public_key=member_kp.public_key))
            info = ReplicaInfo(
                replica_id=rid, public_key=self.replica_keys[rid].public_key, operator=member_id
            )
            endorsement = self.backend.sign(member_kp, info.endorsement_payload())
            replicas[rid] = ReplicaInfo(
                replica_id=rid,
                public_key=self.replica_keys[rid].public_key,
                operator=member_id,
                endorsement=endorsement,
            )
        threshold = vote_threshold if vote_threshold is not None else current.vote_threshold
        return Configuration(
            number=current.number + 1,
            members=tuple(members[m] for m in sorted(members)),
            replicas=tuple(replicas[r] for r in sorted(replicas)),
            vote_threshold=min(threshold, len(members)),
        )

    def add_client(self, name: str | None = None, site: str = "local", keypair=None, **kwargs) -> LPBFTClient:
        """Attach an interactive client."""
        self._client_counter += 1
        client = LPBFTClient(
            name=name or f"client-{self._client_counter}",
            keypair=keypair
            or self.backend.generate(self.seed + b"|client|" + str(self._client_counter).encode()),
            service_name=self.service_name,
            genesis_config=self.genesis_config,
            replica_addresses=[r.address for r in self.replicas],
            params=self.params,
            costs=self.costs,
            site=site,
            backend=self.backend,
            **kwargs,
        )
        self.net.register(client)
        client.tracer = self.tracer
        self.clients.append(client)
        return client

    def add_load_generator(
        self,
        workload,
        rate: float,
        site: str = "local",
        name: str | None = None,
        **kwargs,
    ) -> LoadGenerator:
        """Attach an open-loop load generator client."""
        self._client_counter += 1
        client = LoadGenerator(
            name or f"load-{self._client_counter}",
            self.backend.generate(self.seed + b"|load|" + str(self._client_counter).encode()),
            self.service_name,
            self.genesis_config,
            [r.address for r in self.replicas],
            self.params,
            self.costs,
            MetricsCollector(),
            site,
            self.backend,
            workload=workload,
            rate=rate,
            **kwargs,
        )
        self.net.register(client)
        client.tracer = self.tracer
        self.clients.append(client)
        return client

    # -- replica lifecycle (state-sync scenarios) ---------------------------------------

    def add_replica(self, replica_id: int | None = None, site: str = "local", start_sync: bool = True) -> LPBFTReplica:
        """Spin up a fresh replica mid-run and point it at the service.

        The newcomer starts from genesis, registers on the network, is
        added to every existing replica's directory (the operator's
        discovery service), and — unless ``start_sync`` is False —
        immediately state-syncs to the commit frontier.  It mirrors the
        ledger passively until a governance referendum makes it a member
        (§5.1): pass its id to :meth:`propose_successor`.
        """
        rid = len(self.replicas) if replica_id is None else replica_id
        if any(r.id == rid for r in self.replicas):
            raise ValueError(f"replica {rid} already deployed")
        self.provision_replica(rid)
        directory = {r.id: r.address for r in self.replicas}
        directory[rid] = f"replica-{rid}"
        replica = LPBFTReplica(
            replica_id=rid,
            keypair=self.replica_keys[rid],
            genesis_config=self.genesis_config,
            registry=self.registry,
            params=self.params,
            costs=self.costs,
            site=site,
            metrics=MetricsCollector(),
            backend=self.backend,
            replica_directory=directory,
            initial_state=self.initial_state,
            verify_cache=self.verify_cache,
        )
        self.net.register(replica)
        replica.tracer = self.tracer
        self.replicas.append(replica)
        for peer in self.replicas[:-1]:
            peer.replica_directory[rid] = replica.address
        replica.on_start()
        if start_sync:
            replica.sync_client.start("join")
        return replica

    def provision_replica(self, replica_id: int) -> None:
        """Mint deterministic member and replica keys for ``replica_id``
        without deploying a process, so :meth:`propose_successor` can put
        it in a successor configuration *before* it exists — the late-join
        flow: referendum first, :meth:`add_replica` after activation."""
        member_id = f"member-{replica_id}"
        self.member_keys.setdefault(
            member_id, self.backend.generate(self.seed + b"|member|" + bytes([replica_id]))
        )
        self.replica_keys.setdefault(
            replica_id, self.backend.generate(self.seed + b"|replica|" + bytes([replica_id]))
        )

    def _replica_by_id(self, replica_id: int) -> LPBFTReplica:
        for replica in self.replicas:
            if replica.id == replica_id:
                return replica
        raise ValueError(f"no replica with id {replica_id}")

    def crash_replica(self, replica_id: int) -> None:
        """Crash a replica: it stops exchanging messages with everyone
        (durable state — ledger, KV store, checkpoints — survives).
        Modeled as a first-class crashed mark on the network, not a
        partition snapshot: nodes registered later cannot tunnel through,
        and healing partitions never resurrects delivery."""
        if replica_id in self._crashed_ids:
            return
        self._crashed_ids.add(replica_id)
        self.net.mark_crashed(self._replica_by_id(replica_id).address)

    def recover_replica(self, replica_id: int, resync: bool = True) -> None:
        """Restart a crashed replica: volatile state (message stores,
        pending requests, view-change progress) is lost, durable state is
        kept, and a state sync brings it back to the commit frontier."""
        if replica_id in self._crashed_ids:
            self._crashed_ids.discard(replica_id)
            self.net.mark_recovered(self._replica_by_id(replica_id).address)
        replica = self._replica_by_id(replica_id)
        replica.reset_volatile_state()
        if resync:
            replica.sync_client.start("recovery")

    def crashed_replica_ids(self) -> frozenset[int]:
        """Replica ids currently crashed (chaos oracles exclude these
        from agreement and liveness checks)."""
        return frozenset(self._crashed_ids)

    # -- fault injection ---------------------------------------------------------------

    def partition_replicas(
        self,
        isolated_ids: list[int],
        start: float | None = None,
        duration: float | None = None,
    ) -> None:
        """Cut the given replicas off from every other node (replicas and
        clients), optionally starting at ``start`` and auto-healing after
        ``duration`` — the WAN region-outage scenario.  Healing is a
        scheduled simulation event; no manual intervention needed."""
        isolated = {f"replica-{i}" for i in isolated_ids}
        others = {r.address for r in self.replicas if r.address not in isolated}
        others |= {c.address for c in self.clients}
        self.net.partition_between(isolated, others, start=start, duration=duration)

    def partition_region(
        self,
        region: str,
        start: float | None = None,
        duration: float | None = None,
    ) -> None:
        """Partition every replica sited in ``region`` away from the rest."""
        isolated = [i for i, r in enumerate(self.replicas) if r.site == region]
        if isolated:
            self.partition_replicas(isolated, start=start, duration=duration)

    # -- running ----------------------------------------------------------------------

    def start(self) -> None:
        self.net.start()

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        self.net.run(until=until, max_events=max_events)

    # -- inspection -------------------------------------------------------------------

    def replica(self, replica_id: int) -> LPBFTReplica:
        return self.replicas[replica_id]

    def primary(self) -> LPBFTReplica:
        """The current primary (per replica 0's view of the world)."""
        reference = self.replicas[0]
        config = reference.current_config()
        primary_id = config.primary_for_view(reference.view)
        return self.replicas[primary_id]

    def committed_seqnos(self) -> list[int]:
        return [r.committed_upto for r in self.replicas]

    def ledgers_agree(self, upto_batches: int | None = None) -> bool:
        """True iff all replicas' ledgers agree on their common committed
        prefix (the invariant every honest run must keep)."""
        frontier = min(r.committed_upto for r in self.replicas)
        if frontier < 1:
            return True
        ends = []
        for replica in self.replicas:
            record = replica.batches.get(frontier)
            if record is None:
                return True  # pruned; rely on checkpoint digests instead
            ends.append(record.ledger_end)
        end = min(ends)
        roots = {replica.ledger.root_at(end) for replica in self.replicas}
        return len(roots) == 1
