#!/usr/bin/env python3
"""Docs check: fail if docs/*.md or the root README.md refer to something
that no longer exists, so the docs cannot silently rot as the codebase is
refactored.

- Paths: backtick tokens that look like repo paths (contain a '/' and end
  in a known extension, or match BENCH_*.json / BENCHMARK.json) are
  resolved against the repo root; shell-style globs must match something.
- Options: every ``ProtocolParams(<name>=`` / ``ProtocolParams.<name>``
  must name a field (or method) of ``repro.lpbft.ProtocolParams``, and no
  backticked name may be an option ``tests/test_params.py`` lists as
  removed (bare ``client_timeout`` as much as ``ProtocolParams.ledger_gc``).
- Retired shapes: the replica is one class with components, so no doc
  may mention a ``Mixin`` or ``statesync/integration.py``.
- Names, not PR numbers: no ``PR <n>`` in ``src/`` comments or
  docstrings, and no ``tests/test_pr<n>*.py``: code and tests are named for
  what they do."""

import dataclasses
import glob
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from repro.lpbft import ProtocolParams  # noqa: E402
from test_params import REMOVED  # noqa: E402

PATHISH = re.compile(r"`([^`\s]+)`")
EXTENSIONS = (".py", ".md", ".json", ".yml", ".yaml", ".toml")
PARAMS_CALL = re.compile(r"ProtocolParams\(([^()]*)\)")
PARAMS_ATTR = re.compile(r"ProtocolParams\.(\w+)")
KWARG = re.compile(r"(\w+)\s*=")
RETIRED = re.compile(r"Mixin|statesync/integration\.py")
NAME = re.compile(r"\w+")
FIELDS = {f.name for f in dataclasses.fields(ProtocolParams)}

DOCS = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]

failures = []
for doc in DOCS:
    where = doc.relative_to(ROOT)
    text = doc.read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        for token in PATHISH.findall(line):
            for name in set(NAME.findall(token)) & set(REMOVED):
                failures.append(f"{where}:{lineno}: removed option {name!r}")
            is_path = (
                ("/" in token and token.endswith(EXTENSIONS))
                or re.fullmatch(r"BENCH(_\w+|MARK)\.json", token)
            )
            if not is_path:
                continue
            if not glob.glob(str(ROOT / token)):
                failures.append(f"{where}:{lineno}: missing path {token!r}")
        for stale in RETIRED.findall(line):
            failures.append(f"{where}:{lineno}: retired name {stale!r}")
        for name in PARAMS_ATTR.findall(line):
            if name not in FIELDS and not hasattr(ProtocolParams, name):
                failures.append(f"{where}:{lineno}: ProtocolParams has no {name!r}")
    # Constructor calls may span lines (code blocks), so scan the whole text.
    for call in PARAMS_CALL.finditer(text):
        lineno = text.count("\n", 0, call.start()) + 1
        for name in KWARG.findall(call.group(1)):
            if name not in FIELDS:
                failures.append(f"{where}:{lineno}: ProtocolParams has no option {name!r}")

PR_NUMBER = re.compile(r"PR \d+")
for source in sorted((ROOT / "src").rglob("*.py")):
    for lineno, line in enumerate(source.read_text().splitlines(), start=1):
        if PR_NUMBER.search(line):
            failures.append(f"{source.relative_to(ROOT)}:{lineno}: PR number {line.strip()!r}")
for test in sorted((ROOT / "tests").glob("test_pr[0-9]*.py")):
    failures.append(f"{test.relative_to(ROOT)}: test file named for a PR")

if failures:
    print("\n".join(failures))
    sys.exit(1)
print(f"docs check OK ({len(DOCS)} files)")
