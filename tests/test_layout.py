"""The design rules of the source tree, as one table.

Each row states a rule in one sentence, names the module that owns what
the rule protects, and checks it: with ``ast`` where the rule is about
calls, attribute writes or exception handlers, with a line grep
otherwise.  Each row also plants one violation, appended to a real file,
that its check must catch, so no row is weaker than it reads.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from test_params import REMOVED

ROOT = Path(__file__).resolve().parents[1]

# The replica is one class that has its components: the size ratchet only
# turns one way.  Lower REPLICA_MAX when a seam leaves replica.py, never
# raise it.
REPLICA_MAX = 1268
LPBFT_FILE_MAX = 800
# primary_crash's set-up is mostly imports: keep them from growing.
IMPORTED_MODULES_MAX = 66

Files = dict  # repo-relative path -> source text


def source_files() -> Files:
    return {
        path.relative_to(ROOT).as_posix(): path.read_text()
        for top in ("src", "benchmarks", "examples")
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def grep(pattern: str, roots: tuple[str, ...] = ("src/",), allow: str | None = None) -> Callable:
    """Lines under ``roots`` that match ``pattern``, outside the files
    ``allow`` matches."""
    regex = re.compile(pattern)

    def check(files: Files) -> list[str]:
        return [
            f"{path}:{n}: {line.strip()}"
            for path, text in files.items()
            if path.startswith(roots) and not (allow and re.fullmatch(allow, path))
            for n, line in enumerate(text.splitlines(), start=1)
            if regex.search(line)
        ]

    return check


def _trees(files: Files, allow: str | None):
    for path, text in files.items():
        if path.startswith("src/") and not (allow and re.fullmatch(allow, path)):
            yield path, ast.parse(text)


def _called(func: ast.expr) -> str | None:
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def calls(names: set[str], allow: str) -> Callable:
    """Calls of any of ``names`` (bare or as an attribute) in ``src/``,
    outside the files ``allow`` matches."""

    def check(files: Files) -> list[str]:
        return [
            f"{path}:{node.lineno}: {_called(node.func)}(...)"
            for path, tree in _trees(files, allow)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called(node.func) in names
        ]

    return check


_MUTATORS = {"pop", "popitem", "clear", "update", "setdefault", "__setitem__", "__delitem__"}


def batch_store_writes(files: Files) -> list[str]:
    """Writes to a replica's ``batches`` outside ``lpbft/batch.py``:
    item assignment or deletion, a mutating method, rebinding the
    attribute (but for the replica's one ``self.batches = BatchStore()``)
    — also through a local name bound to ``<x>.batches``."""
    found = []
    for path, tree in _trees(files, r"src/repro/lpbft/batch\.py"):
        aliases = {
            target.id
            for node in ast.walk(tree) if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and isinstance(node.value, ast.Attribute) and node.value.attr == "batches"
        }

        def store(node: ast.expr) -> bool:
            return (isinstance(node, ast.Attribute) and node.attr == "batches") or (
                isinstance(node, ast.Name) and node.id in aliases)

        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATORS and store(node.func.value):
                    found.append(f"{path}:{node.lineno}: batches.{node.func.attr}(...)")
                continue
            targets = (
                node.targets if isinstance(node, (ast.Assign, ast.Delete))
                else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
            )
            for target in targets:
                if isinstance(target, ast.Subscript) and store(target.value):
                    found.append(f"{path}:{node.lineno}: batches[...] written")
                elif isinstance(target, ast.Attribute) and target.attr == "batches":
                    constructed = (
                        path == "src/repro/lpbft/replica.py" and isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Call) and _called(node.value.func) == "BatchStore"
                    )
                    if not constructed:
                        found.append(f"{path}:{node.lineno}: batches rebound")
    return found


def wire_shape_catches(files: Files) -> list[str]:
    """``from_wire`` functions outside ``codec.py`` that catch a
    ``TypeError`` or ``ValueError``: a shape check of their own."""
    found = []
    for path, tree in _trees(files, r"src/repro/codec\.py"):
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name.endswith("from_wire"):
                for node in ast.walk(func):
                    if isinstance(node, ast.ExceptHandler) and node.type is not None:
                        caught = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                        if caught & {"TypeError", "ValueError"}:
                            found.append(f"{path}:{node.lineno}: {func.name} catches {sorted(caught)}")
    return found


def _annotation_names(node: ast.expr) -> set[str]:
    """Names read in an annotation, string annotations included."""
    names = set()
    for part in ast.walk(node):
        if isinstance(part, ast.Name):
            names.add(part.id)
        elif isinstance(part, ast.Constant) and isinstance(part.value, str):
            try:
                names |= _annotation_names(ast.parse(part.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(files: Files) -> list[str]:
    """Names a module under ``src/`` imports and never reads (in code or
    in an annotation), outside ``__init__.py`` and any import whose first
    line says it re-exports."""
    found = []
    for path, tree in _trees(files, r".*/__init__\.py"):
        lines = files[path].splitlines()
        imported = {
            alias.asname or alias.name.split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if "re-export" not in lines[node.lineno - 1]
        }
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
                read |= _annotation_names(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
                read |= _annotation_names(node.returns)
        found += [f"{path}:{line}: {name}" for name, line in imported.items() if name not in read]
    return found


def lpbft_file_sizes(files: Files) -> list[str]:
    """``lpbft/`` modules over their line ceiling (lines as ``wc -l``
    counts them)."""
    found = []
    for path, text in files.items():
        if re.fullmatch(r"src/repro/lpbft/[^/]+\.py", path):
            limit = REPLICA_MAX if path.endswith("/replica.py") else LPBFT_FILE_MAX
            if text.count("\n") > limit:
                found.append(f"{path}: more than {limit} lines")
    return found


def import_footprint(files: Files) -> list[str]:
    """More ``repro`` modules than ``IMPORTED_MODULES_MAX`` loaded by
    importing the replica, the workloads and the audit in a fresh
    interpreter, from these sources."""
    with tempfile.TemporaryDirectory() as tree:
        for path, text in files.items():
            if path.startswith("src/"):
                target = Path(tree, path)
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(text)
        script = (
            "import sys, repro.lpbft, repro.workloads, repro.audit; "
            "print(sum(m == 'repro' or m.startswith('repro.') for m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(tree, "src")), "PYTHONDONTWRITEBYTECODE": "1"}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    loaded = int(run.stdout)
    return [f"importing loads {loaded} repro modules > {IMPORTED_MODULES_MAX}"] if loaded > IMPORTED_MODULES_MAX else []


@dataclass(frozen=True)
class Rule:
    rule: str
    owner: str
    check: Callable[[Files], list[str]]
    planted: tuple[str, str]  # (path, lines appended to it) that break the rule


_EVERYWHERE = ("src/", "benchmarks/", "examples/")

RULES = [
    Rule(
        "The replica is one class that has its components: no mixin class.",
        "lpbft/replica.py",
        grep(r"class .*Mixin"),
        ("src/repro/lpbft/replica.py", "class ViewChangeMixin:\n    pass\n"),
    ),
    Rule(
        "lpbft/ modules stay under 800 lines, replica.py under REPLICA_MAX.",
        "lpbft/replica.py",
        lpbft_file_sizes,
        ("src/repro/lpbft/replica.py", "\n" * LPBFT_FILE_MAX),
    ),
    Rule(
        "One owner for a replica's checkpoints, their records and times: "
        "no second checkpoint directory or counter.",
        "lpbft/checkpointing.py",
        grep(r"last_taken_cp|last_recorded_cp|_cp_taken_at|cp_directory|_oldest_stable_checkpoint|CheckpointDirectory"),
        ("src/repro/lpbft/replica.py", "self.last_taken_cp = 0\n"),
    ),
    Rule(
        "One owner for a slot's messages: no record index, prepare table or "
        "release horizon on the replica.",
        "lpbft/batch.py",
        grep(r"(self|r|replica)\.(pps|ppd_index|prepares_by_ppd|gc_horizon)\b", allow=r"src/repro/lpbft/batch\.py"),
        ("src/repro/lpbft/replica.py", "horizon = self.gc_horizon\n"),
    ),
    Rule(
        "Only the batch store adds or removes a batch record.",
        "lpbft/batch.py",
        batch_store_writes,
        ("src/repro/lpbft/viewchange.py", "store = replica.batches\nstore.pop(3)\n"),
    ),
    Rule(
        "Commitment evidence is built only by the batch store (and read back "
        "only by the ledger entries).",
        "lpbft/batch.py",
        calls({"EvidenceEntry", "NoncesEntry"}, r"src/repro/(lpbft/batch|ledger/entries)\.py"),
        ("src/repro/lpbft/replica.py", "ks = NoncesEntry(seqno=1, view=0, bitmap=1, nonces=())\n"),
    ),
    Rule(
        "One owner for what survives GC: Retention holds the pins and the governance archive.",
        "lpbft/retention.py",
        grep(r"RetentionPolicy|_gov_archive"),
        ("src/repro/lpbft/replica.py", "self._gov_archive = None\n"),
    ),
    Rule(
        "A replica catches up only through state sync: no whole-ledger fetch.",
        "statesync/client.py",
        grep(r"fetch-ledger|ledger-bundle|ledger-gone"),
        ("src/repro/statesync/server.py", 'KIND = "fetch-ledger"\n'),
    ),
    Rule(
        "One replay: a transaction runs live in the replica and again only in "
        "the audit's replay loop.",
        "audit/replay.py",
        calls({"execute_procedure"}, r"src/repro/(lpbft/replica|audit/replay)\.py"),
        ("src/repro/lpbft/adoption.py", "output = execute_procedure(kv, registry, request)\n"),
    ),
    Rule(
        "A fetched fragment becomes a ledger only through LedgerFragment.to_ledger.",
        "ledger/ledger.py",
        grep(r"from_fragment_suffix|materialize_ledger", roots=_EVERYWHERE),
        ("examples/quickstart.py", "ledger = materialize_ledger(fragment)\n"),
    ),
    Rule(
        "State sync and the audit bind a fetched ledger to its signed roots only "
        "through Ledger.unbound.",
        "ledger/ledger.py",
        grep(r"\.root_[mg]\b", roots=("src/repro/audit/package.py", "src/repro/lpbft/adoption.py", "src/repro/statesync/")),
        ("src/repro/statesync/client.py", "ok = pp.root_m == tree.root()\n"),
    ),
    Rule(
        "A removed option stays removed, and a client has one retry rule.",
        "lpbft/config.py",
        grep(r"_explicit_backoff|backoff_seed|admission_budget|params\.(" + "|".join(REMOVED) + r")\b",
             roots=_EVERYWHERE),
        ("benchmarks/bench_pr4_overload.py", "seed = client.backoff_seed\n"),
    ),
    Rule(
        "A receipt carries one signature per signer: no aggregate form.",
        "crypto/signatures.py",
        grep(r"AggregateSignature|verify_aggregate|supports_aggregation|agg_add|agg_verify", roots=_EVERYWHERE),
        ("src/repro/crypto/signatures.py", "def verify_aggregate(keys, message, signature):\n    pass\n"),
    ),
    Rule(
        "The write-set digest is written directly (codec.encode_write_set), "
        "not encoded from a writes map.",
        "codec.py",
        grep(r'"writes":', roots=("src/repro/kvstore/",)),
        ("src/repro/kvstore/store.py", 'preimage = {"writes": writes}\n'),
    ),
    Rule(
        "Lane choice and event order make no Python-level callback per item.",
        "sim/cpu.py",
        grep(r"lambda|def __lt__", roots=("src/repro/sim/cpu.py", "src/repro/sim/scheduler.py")),
        ("src/repro/sim/scheduler.py", "order = sorted(events, key=lambda e: e.time)\n"),
    ),
    Rule(
        "The undo log holds bare undo tuples: no per-transaction record.",
        "kvstore/store.py",
        grep(r"TxRecord|_next_tx_id"),
        ("src/repro/kvstore/store.py", "class TxRecord:\n    pass\n"),
    ),
    Rule(
        "An output is sealed only by encoding it (codec.seal) or by reading back "
        "the encoding a ledger run or a receipt holds (codec.value_of).",
        "codec.py",
        calls({"SealedMap"}, r"src/repro/codec\.py"),
        ("src/repro/lpbft/replica.py", "output = codec.SealedMap(data)\n"),
    ),
    Rule(
        "A request is packed only from a seal this process made (codec.pack), "
        "never from bytes that arrived.",
        "codec.py",
        calls({"SealedSeq"}, r"src/repro/codec\.py"),
        ("src/repro/lpbft/client.py", "request = SealedSeq(data, None)\n"),
    ),
    Rule(
        "No collector tuning: it would move host time and RSS without retaining less.",
        "sim/scheduler.py",
        grep(r"gc\.(freeze|disable|enable|set_threshold|collect)\("),
        ("src/repro/sim/scheduler.py", "gc.freeze()\n"),
    ),
    Rule(
        "Importing the replica, the workloads and the audit loads at most "
        "IMPORTED_MODULES_MAX repro modules.",
        "lpbft/__init__.py",
        import_footprint,
        ("src/repro/lpbft/__init__.py", "import repro.chaos, repro.baselines, repro.bench\n"),
    ),
    Rule(
        "A record's wire shape is checked only by codec.parse: no from_wire "
        "elsewhere catches TypeError or ValueError.",
        "codec.py",
        wire_shape_catches,
        (
            "src/repro/lpbft/messages.py",
            "def nonce_from_wire(raw):\n    try:\n        tag, nonce = raw\n"
            "    except (TypeError, ValueError) as exc:\n        raise ProtocolError(str(exc)) from exc\n",
        ),
    ),
    Rule(
        "No module imports a name it never reads, outside __init__.py and an "
        "import marked as a re-export.",
        "src",
        unused_imports,
        ("src/repro/lpbft/batch.py", "from collections import OrderedDict\n"),
    ),
    Rule(
        "Execution builds no object per transaction entry: a batch's entries "
        "are packed into its run (ledger.TxRun), read through views the run builds.",
        "ledger/entries.py",
        calls({"TxEntry", "SealedMap"}, r"src/repro/(?!lpbft/|kvstore/).*"),
        ("src/repro/lpbft/replica.py", "entry = TxEntry(request_wire=wire, index=index, output=output)\n"),
    ),
    Rule(
        "A state-sync transfer is one request, the suffix past the offered "
        "checkpoint: no refusal round trip and no splice onto the client's prefix.",
        "statesync/client.py",
        grep(r"sync-ledger-refused|on_ledger_refused|_cp_rooted|_splice_point"),
        ("src/repro/statesync/client.py", "def _splice_point(self):\n    return 0\n"),
    ),
    Rule(
        "A committed transaction is held at its size: reply addresses live in "
        "BatchRecord.sources, not a per-client table, and the undo log is flat "
        "key, prior slots, not a tuple per transaction.",
        "lpbft/batch.py",
        grep(r"\brecord\.clients\b|\bclients: dict\b|\b_log\.append\(|\btuple\(undo\)",
             roots=("src/repro/lpbft/", "src/repro/kvstore/")),
        ("src/repro/lpbft/replica.py", "record.clients.setdefault(request.client, []).append(tx_digest)\n"),
    ),
]

_IDS = [f"{i:02d}-{rule.owner}" for i, rule in enumerate(RULES)]


@pytest.fixture(scope="module")
def files() -> Files:
    return source_files()


@pytest.mark.parametrize("rule", RULES, ids=_IDS)
def test_rule_holds(rule, files):
    assert rule.check(files) == [], rule.rule


@pytest.mark.parametrize("rule", RULES, ids=_IDS)
def test_planted_violation_is_caught(rule, files):
    path, lines = rule.planted
    assert path in files, path
    assert rule.check({**files, path: files[path] + "\n" + lines}), rule.rule
