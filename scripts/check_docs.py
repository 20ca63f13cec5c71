#!/usr/bin/env python3
"""Docs link check: fail if any `path`-style reference in docs/*.md or the
root README.md names a file that no longer exists (so the docs cannot
silently rot as the codebase is refactored).  Backtick tokens that look
like repo paths (contain a '/' and end in a known extension, or match
BENCH_*.json / BENCHMARK.json) are resolved against the repo root;
shell-style globs must match something."""

import glob
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PATHISH = re.compile(r"`([^`\s]+)`")
EXTENSIONS = (".py", ".md", ".json", ".yml", ".yaml", ".toml")

DOCS = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]

failures = []
for doc in DOCS:
    for lineno, line in enumerate(doc.read_text().splitlines(), start=1):
        for token in PATHISH.findall(line):
            is_path = (
                ("/" in token and token.endswith(EXTENSIONS))
                or re.fullmatch(r"BENCH(_\w+|MARK)\.json", token)
            )
            if not is_path:
                continue
            if not glob.glob(str(ROOT / token)):
                failures.append(f"{doc.relative_to(ROOT)}:{lineno}: missing path {token!r}")

if failures:
    print("\n".join(failures))
    sys.exit(1)
print(f"docs check OK ({len(DOCS)} files)")
