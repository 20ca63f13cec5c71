"""Host-clock spans around each layer's public functions (source H).

The program is not edited: :func:`install` swaps each target for a
timing wrapper and :func:`uninstall` puts the originals back.  Modules
bind names at import (``from ..codec import encode``), so a module-level
function is rebound *by identity* in every loaded ``repro.*`` (and
harness) namespace, not only where it is defined; methods are swapped on
their class.

A span is ``(id, parent id, name, start, end)`` on ``time.perf_counter``.
Per name the store keeps calls, total time, time covered by child spans
(self time = total - child) and "outer" time: the total of spans with no
ancestor of the same name or ``OUTER_GROUPS`` group, so nested calls
count once.
The first ``KEEP`` spans of each phase are also kept whole for the dump.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

KEEP = 50_000

# label -> (module, attribute); the label's prefix names the layer.
FUNCTIONS = {
    "codec.encode": ("repro.codec", "encode"),
    "codec.decode": ("repro.codec", "decode"),
    "crypto.digest_value": ("repro.crypto.hashing", "digest_value"),
    "workloads.initial_state": ("repro.workloads.smallbank", "initial_state"),
    "kvstore.state_accumulator": ("repro.kvstore.store", "state_accumulator"),
    "kvstore.execute_procedure": ("repro.lpbft.replica", "execute_procedure"),
    "receipts.verify_receipt": ("repro.receipts.receipt", "verify_receipt"),
    "audit.parse_fragment": ("repro.ledger.wellformed", "parse_fragment"),
    "audit.check_well_formed": ("repro.ledger.wellformed", "check_well_formed"),
    "audit.replay_ledger": ("repro.audit.replay", "replay_ledger"),
    "audit.build_ledger_package": ("repro.audit.package", "build_ledger_package"),
}
# label -> (module, class, method)
METHODS = {
    "crypto.sign": ("repro.crypto.signatures", "HashSigBackend", "sign"),
    "crypto.verify": ("repro.crypto.signatures", "HashSigBackend", "verify"),
    "merkle.append": ("repro.merkle.tree", "MerkleTree", "append"),
    "merkle.root": ("repro.merkle.tree", "MerkleTree", "root"),
    "merkle.root_at": ("repro.merkle.tree", "MerkleTree", "root_at"),
    "merkle.path": ("repro.merkle.tree", "MerkleTree", "path"),
    "kvstore.init": ("repro.kvstore.store", "KVStore", "__init__"),
    "kvstore.snapshot": ("repro.kvstore.store", "KVStore", "snapshot"),
    "kvstore.restore": ("repro.kvstore.store", "KVStore", "restore"),
    "kvstore.execute": ("repro.kvstore.store", "KVStore", "execute"),
    "kvstore.rollback_to": ("repro.kvstore.store", "KVStore", "rollback_to"),
    "ledger.append": ("repro.ledger.ledger", "Ledger", "append"),
    "sim.cpu_submit": ("repro.sim.cpu", "VirtualCPU", "submit"),
    "network.transmit": ("repro.network.simnet", "SimNetwork", "transmit"),
    "lpbft.replica_on_message": ("repro.lpbft.replica", "LPBFTReplicaCore", "on_message"),
    "lpbft.client_on_message": ("repro.lpbft.client", "LPBFTClient", "on_message"),
    "lpbft.client_submit": ("repro.lpbft.client", "LPBFTClient", "submit"),
    "audit.audit": ("repro.audit.auditor", "Auditor", "audit"),
    "audit.collect_ledger_package":
        ("repro.enforcement.enforcer", "Enforcer", "collect_ledger_package"),
}

# Names whose nested calls are counted once by "outer" time, as a group.
OUTER_GROUPS = {
    "kvstore.init": "kvstore.init", "kvstore.snapshot": "kvstore.init",
    "kvstore.restore": "kvstore.init", "kvstore.state_accumulator": "kvstore.init",
    "audit.build_ledger_package": "audit.package",
    "audit.collect_ledger_package": "audit.package",
}

CALLS, TOTAL, CHILD, OUTER, TALLY = range(5)


class SpanStore:
    """Spans and per-name aggregates for the phase in progress."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.raw: list[tuple] = []
        self.stack: list[list] = []  # open spans: [child seconds, span id]
        self.depth: dict[str, list[int]] = {}  # open spans per outer group
        self.last_id = [0]
        self.originals: dict[int, object] = {}  # id(wrapper) -> wrapped function
        self.methods: list[tuple] = []  # (class, attribute, original)

    def take(self) -> dict:
        """Hand over the finished phase and start an empty one."""
        phase = {"stats": {k: list(v) for k, v in self.stats.items()}, "raw": list(self.raw)}
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0, 0.0, 0]
        del self.raw[:]
        return phase

    def wrap(self, name: str, fn, tally=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0, 0])
        depth = self.depth.setdefault(OUTER_GROUPS.get(name, name), [0])
        stack, raw, last_id, clock = self.stack, self.raw, self.last_id, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            last_id[0] += 1
            frame = [0.0, last_id[0]]
            parent = stack[-1] if stack else None
            stack.append(frame)
            depth[0] += 1
            began = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                depth[0] -= 1
                spent = ended - began
                stat[CALLS] += 1
                stat[TOTAL] += spent
                stat[CHILD] += frame[0]
                if not depth[0]:
                    stat[OUTER] += spent
                if parent is not None:
                    parent[0] += spent
                if len(raw) < KEEP:
                    raw.append((frame[1], parent[1] if parent else 0, name, began, ended))
            if tally is not None:
                stat[TALLY] += tally(result)
            return result

        return wrapper


def _namespaces():
    """Module dicts a name imported from ``repro`` may have been bound in."""
    return [
        vars(module) for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith(("repro.", "benchmarks.perf")))
    ]


def install() -> SpanStore:
    store = SpanStore()
    for label, (module_name, attr) in FUNCTIONS.items():
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = store.wrap(label, original, tally=len if label == "codec.encode" else None)
        store.originals[id(wrapper)] = original
        for namespace in _namespaces():
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
    for label, (module_name, class_name, attr) in METHODS.items():
        cls = getattr(importlib.import_module(module_name), class_name)
        store.methods.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, store.wrap(label, vars(cls)[attr]))
    return store


def uninstall(store: SpanStore) -> None:
    # Scan again instead of replaying a list: a module first imported
    # while the wrappers were in place bound the wrapper, not the original.
    for namespace in _namespaces():
        for key, value in list(namespace.items()):
            original = store.originals.get(id(value))
            if original is not None:
                namespace[key] = original
    for cls, attr, original in store.methods:
        setattr(cls, attr, original)


def bindings() -> dict:
    """Identity of every binding :func:`install` may touch (the smoke
    test compares this before install and after uninstall)."""
    seen = {}
    for namespace in _namespaces():
        for key, value in namespace.items():
            if callable(value):
                seen[(namespace["__name__"], key)] = id(value)
    for module_name, class_name, attr in METHODS.values():
        cls = getattr(importlib.import_module(module_name), class_name)
        seen[(module_name, class_name, attr)] = id(vars(cls)[attr])
    return seen


# -- per-layer metrics from the two phases ------------------------------------------


def layer_metrics(setup: dict, run: dict, tx: int) -> dict:
    """The host-clock per-layer numbers.  ``tx`` is the number of
    transactions the run phase processed."""

    def stat(phase, name, field):
        return phase["stats"].get(name, [0, 0.0, 0.0, 0.0, 0])[field]

    def self_s(phase, *names):
        return sum(stat(phase, n, TOTAL) - stat(phase, n, CHILD) for n in names)

    def us_per_tx(*names):
        return self_s(run, *names) * 1e6 / tx if tx else 0.0

    def calls_per_tx(name):
        return stat(run, name, CALLS) / tx if tx else 0.0

    verified = stat(run, "receipts.verify_receipt", CALLS)
    return {
        "codec.encode_calls_per_tx": calls_per_tx("codec.encode"),
        "codec.encode_host_us_per_tx": us_per_tx("codec.encode"),
        "codec.encode_bytes_per_tx": stat(run, "codec.encode", TALLY) / tx if tx else 0.0,
        "codec.decode_host_us_per_tx": us_per_tx("codec.decode"),
        "crypto.digest_value_calls_per_tx": calls_per_tx("crypto.digest_value"),
        "crypto.digest_value_host_us_per_tx": us_per_tx("crypto.digest_value"),
        "crypto.sign_calls_per_tx": calls_per_tx("crypto.sign"),
        "crypto.verify_calls_per_tx": calls_per_tx("crypto.verify"),
        "crypto.verify_host_us_per_tx": us_per_tx("crypto.verify"),
        "merkle.append_calls_per_tx": calls_per_tx("merkle.append"),
        "merkle.host_us_per_tx":
            us_per_tx("merkle.append", "merkle.root", "merkle.root_at", "merkle.path"),
        "workloads.initial_state_host_s": self_s(setup, "workloads.initial_state"),
        "kvstore.init_host_s": sum(
            stat(setup, n, OUTER) for n in
            ("kvstore.init", "kvstore.snapshot", "kvstore.restore", "kvstore.state_accumulator")),
        "kvstore.execute_host_us_per_tx":
            us_per_tx("kvstore.execute", "kvstore.execute_procedure"),
        "kvstore.rollback_calls": stat(run, "kvstore.rollback_to", CALLS),
        "ledger.append_host_us_per_tx": us_per_tx("ledger.append"),
        "sim.cpu_submit_calls_per_tx": calls_per_tx("sim.cpu_submit"),
        "sim.cpu_submit_host_us_per_tx": us_per_tx("sim.cpu_submit"),
        "network.transmit_host_us_per_tx": us_per_tx("network.transmit"),
        "lpbft.replica_host_us_per_tx": us_per_tx("lpbft.replica_on_message"),
        "lpbft.client_host_us_per_tx":
            us_per_tx("lpbft.client_on_message", "lpbft.client_submit"),
        "receipts.verify_host_us_per_receipt":
            self_s(run, "receipts.verify_receipt") * 1e6 / verified
            if verified else 0.0,
        "audit.receipts_host_us_per_tx": us_per_tx("audit.audit"),
        "audit.wellformed_host_us_per_tx":
            us_per_tx("audit.parse_fragment", "audit.check_well_formed"),
        "audit.replay_host_us_per_tx": us_per_tx("audit.replay_ledger"),
        "audit.package_host_s": sum(
            stat(run, n, OUTER) for n in
            ("audit.build_ledger_package", "audit.collect_ledger_package")),
    }


def dump(path: str, setup: dict, run: dict) -> None:
    """Write both phases' kept spans and aggregates as one JSON file."""
    def phase(p):
        return {
            "aggregates": {
                name: {"calls": s[CALLS], "total_s": s[TOTAL], "self_s": s[TOTAL] - s[CHILD],
                       "outer_s": s[OUTER]}
                for name, s in sorted(p["stats"].items()) if s[CALLS]
            },
            "spans_kept": len(p["raw"]),
            "spans": [list(span) for span in p["raw"]],
        }

    with open(path, "w") as fh:
        json.dump({"columns": ["id", "parent", "name", "start_s", "end_s"],
                   "setup": phase(setup), "run": phase(run)}, fh)
        fh.write("\n")
