"""CPU cost model (calibrated to the paper's testbeds, §6).

The dedicated cluster uses 8-core 3.7 GHz Intel E-2288G machines with
secp256k1 signatures.  The calibration below reproduces the paper's
breakdown (Tab. 3): client-signature verification is roughly half of each
transaction's CPU budget, execution against a 500K-account SmallBank store
is the next largest component, and consensus/ledger overheads are small.

All costs are in seconds of single-core CPU time for **one** item of work.
Nodes account for them by submitting typed items to their multi-lane
:class:`~repro.sim.cpu.VirtualCPU` (``node.submit("verify", costs.verify)``);
parallelism comes from lane scheduling — verification fans out across the
machine's ``cores`` lanes while execution and ledger appends stay serial
on dedicated lanes — never from dividing a cost by the core count.  The
old ``CostModel.parallel`` helper encoded exactly that division and is
gone: wall-clock time for a batch of work is a property of lane
availability, not of the cost model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CostModel:
    """Per-operation virtual CPU costs and machine parameters."""

    # Machine.
    cores: int = 8

    # Asymmetric crypto (secp256k1-calibrated).
    sign: float = 60e-6
    verify: float = 100e-6
    # Symmetric crypto.
    mac: float = 0.5e-6
    hash_fixed: float = 0.4e-6
    hash_per_byte: float = 2.0e-9

    # Key-value store: per-operation base cost plus a log-growth component
    # (CCF's CHAMP map access grows logarithmically with item count).
    # Calibrated so the Tab. 3 variant ladder reproduces the paper's
    # ratios (see EXPERIMENTS.md "cost model calibration").
    kv_op_base: float = 0.55e-6
    kv_op_log_factor: float = 0.015e-6

    # Transaction execution overhead beyond KV accesses (dispatch,
    # serialization of results, write-set hashing).
    exec_overhead: float = 2.5e-6

    # Ledger writes (per entry, amortized disk/append cost).
    ledger_append: float = 0.3e-6

    # Checkpoint creation cost per KV entry (copy + hash).
    checkpoint_per_entry: float = 0.05e-6

    # Per-message fixed processing (deserialization, channel auth).
    message_overhead: float = 1.0e-6

    def kv_op(self, store_size: int) -> float:
        """Cost of one KV access in a store with ``store_size`` entries."""
        return self.kv_op_base + self.kv_op_log_factor * math.log2(max(2, store_size))

    def execute_tx(self, kv_ops: int, store_size: int) -> float:
        """Cost of executing one transaction doing ``kv_ops`` accesses."""
        return self.exec_overhead + kv_ops * self.kv_op(store_size)

    def scaled(self, **overrides) -> "CostModel":
        """A copy with some fields overridden."""
        return replace(self, **overrides)


# The three testbeds of §6.  Network parameters live in
# :mod:`repro.network.latency`; these capture the CPU side.
DEDICATED_CLUSTER = CostModel(cores=8)
AZURE_LAN = CostModel(cores=16, sign=80e-6, verify=130e-6)  # 2.7 GHz Xeon 8168
AZURE_WAN = CostModel(cores=16, sign=80e-6, verify=130e-6)
