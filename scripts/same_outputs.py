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
- the three antitone golden configs under tests/golden/antitone/, the
  only runs whose coupled walks flip

Each runs once per tree as ``python -m coupledchains.harness <kind>``,
one run at a time, with that tree on PYTHONPATH and its outputs in a
temporary directory, removed afterwards.  A run's exit code, and every
file it writes (the CSV and the manifest), must be the same under both
trees.  One line is printed per difference, then a summary; the exit
status is 1 on any difference, else 0.
"""

from __future__ import annotations

import json
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
                differences.append(f"{name}: exit code {old_code} -> {new_code}")
            for out in sorted(set(old) | set(new)):
                if old.get(out) != new.get(out):
                    differences.append(f"{name}: {out} differs")
            print(f"{name}: exit {new_code}, {len(new)} files", file=sys.stderr)
    for line in differences:
        print(line)
    print(f"{i + 1} runs, {files} files, {len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
