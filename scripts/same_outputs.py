#!/usr/bin/env python3
"""Run the same configs under two source trees and list every output
that differs.

Usage, from anywhere:

    python3 scripts/same_outputs.py OLD_SRC [NEW_SRC]

OLD_SRC and NEW_SRC are directories holding the ``coupledchains``
package (the ``src/`` of a checkout); NEW_SRC defaults to this
checkout's src/.  The configs are:

- the six demo configs under scripts/configs/
- the ten benchmark invocations of perfbench/workloads.py, generated at
  workload seeds 1 and 7 (only perfbench/ is read for them)
- the eight scaled configs under scripts/configs/scaled/
- the four antitone golden configs under tests/golden/antitone/, the
  only runs whose coupled walks flip; extend-anchor is the only run that
  gives extend an anchor

38 runs in all.

Each runs once per tree as ``python -m coupledchains.harness <kind>``,
one run at a time, with that tree on PYTHONPATH and its outputs in a
temporary directory, removed afterwards.  A run's exit code, and every
file it writes (the CSV and the manifest), must be the same under both
trees.  For each file that differs the changed cells are printed: of a
CSV, one line per cell, naming its row by the first column (and its row
number where that column repeats), its column, old -> new and, for
numbers, the relative change; of a manifest, one line per changed key,
as a path into the JSON.  A summary line per file follows its cells:
the cells or keys changed and the largest relative change.  Then one
line counts the runs, the files and the differences (a differing file
or exit code is one difference); the exit status is 1 on any
difference, else 0.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"
ANTITONE = ROOT / "tests" / "golden" / "antitone"
BENCH_SEEDS = (1, 7)


def configs() -> list[tuple[str, str, dict]]:
    """(name, kind, config) of every config the check runs."""
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    runs = []
    for path in (sorted(CONFIGS.glob("*.json")) + sorted(CONFIGS.glob("scaled/*.json"))
                 + sorted(ANTITONE.glob("*/config.json"))):
        config = json.loads(path.read_text())
        runs.append((str(path.relative_to(ROOT)), config["kind"], config))
    for workload, invocations in WORKLOADS.items():
        for seed in BENCH_SEEDS:
            for inv in invocations(seed):
                runs.append((f"{workload}/{inv.name}@{seed}", inv.kind, inv.config))
    return runs


def run(src: Path, kind: str, config: dict, work: Path) -> tuple[int, dict]:
    """Run one config under the tree `src`: its exit code and the bytes
    of every file it writes, by name."""
    work.mkdir(parents=True)
    config_path, out = work / "config.json", work / "out"
    config_path.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(src))
    code = subprocess.run(
        [sys.executable, "-m", "coupledchains.harness", kind,
         "--config", str(config_path), "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.is_dir() else {}
    return code, files


def _relative(old: str, new: str) -> float | None:
    """|new - old| / |old| of two numeric cells (inf from 0), else None."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    return abs(b - a) / abs(a) if a else math.inf


def csv_changes(old: str, new: str) -> tuple[list[str], list[float | None]]:
    """Each changed cell of two CSV texts as "<row> <column>: old -> new
    (rel r)", and the relative changes.  A row is named by its first
    column, with its row number where that column repeats; a changed
    header or row count is one more line, and the rows and columns both
    sides have are compared."""
    (old_head, *old_rows), (new_head, *new_rows) = (
        list(csv.reader(io.StringIO(text))) for text in (old, new))
    lines, rels = [], []
    if old_head != new_head:
        lines.append(f"header {','.join(old_head)} -> {','.join(new_head)}")
    if len(old_rows) != len(new_rows):
        lines.append(f"{len(old_rows)} rows -> {len(new_rows)} rows")
    keys = [row[0] for row in new_rows]
    for i, (a, b) in enumerate(zip(old_rows, new_rows)):
        key = f"{new_head[0]}={b[0]}" + (f" (row {i + 1})" if keys.count(b[0]) > 1 else "")
        for column, x, y in zip(new_head, a, b):
            if x != y:
                rel = _relative(x, y)
                rels.append(rel)
                lines.append(f"{key} {column}: {x} -> {y}"
                             + ("" if rel is None else f" (rel {rel:.2g})"))
    return lines, rels


def _leaves(value, path: str = "") -> dict:
    """The scalars of a JSON value by their path, as a.b[0].c."""
    if isinstance(value, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return {path: value}
    return {p: leaf for k, v in items for p, leaf in _leaves(v, k).items()}


def manifest_changes(old: str, new: str) -> list[str]:
    """Each key of two JSON texts whose value changed, was added or went,
    as "<path>: old -> new" (a missing side reads <none>)."""
    a, b = _leaves(json.loads(old)), _leaves(json.loads(new))
    missing = "<none>"
    return [f"{p}: {json.dumps(a[p]) if p in a else missing} -> "
            f"{json.dumps(b[p]) if p in b else missing}"
            for p in sorted(set(a) | set(b)) if a.get(p, missing) != b.get(p, missing)]


def file_changes(run: str, name: str, old: bytes | None, new: bytes | None) -> list[str]:
    """The lines that say how one output file of one run differs: its
    changed cells, then a summary line."""
    if old is None or new is None:
        return [f"{run}: {name} only {'under the new tree' if old is None else 'under the old tree'}"]
    rels, unit = [], "cells"
    if name.endswith(".csv"):
        cells, rels = csv_changes(old.decode(), new.decode())
    elif name.endswith(".json"):
        cells, unit = manifest_changes(old.decode(), new.decode()), "keys"
    else:
        cells = []
    summary = f"{run}: {name} differs, {len(cells)} {unit} changed"
    numbers = [r for r in rels if r is not None]
    if numbers:
        summary += f", largest relative change {max(numbers):.2g}"
    return [f"{run}: {name} {cell}" for cell in cells] + [summary]


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print("usage: python3 scripts/same_outputs.py OLD_SRC [NEW_SRC]", file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv] + [ROOT / "src"] * (2 - len(argv))
    for tree in trees:
        if not (tree / "coupledchains" / "__init__.py").is_file():
            print(f"{tree}: no coupledchains package", file=sys.stderr)
            return 2
    differences, files = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, kind, config) in enumerate(configs()):
            (old_code, old), (new_code, new) = (
                run(tree, kind, config, Path(tmp) / f"{i}-{side}")
                for side, tree in enumerate(trees))
            files += len(new)
            if old_code != new_code:
                differences.append([f"{name}: exit code {old_code} -> {new_code}"])
            for out in sorted(set(old) | set(new)):
                if old.get(out) != new.get(out):
                    differences.append(file_changes(name, out, old.get(out), new.get(out)))
            print(f"{name}: exit {new_code}, {len(new)} files", file=sys.stderr)
    for lines in differences:
        print("\n".join(lines))
    print(f"{i + 1} runs, {files} files, {len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
