#!/usr/bin/env python3
"""Run every config under scripts/configs/scaled/ cold and write each
run's wall time and peak memory to one JSON file; with a second source
tree, run both trees alternately and compare them.

Usage, from anywhere:

    python3 scripts/bench_scaled.py [--out BENCH_scaled.json] [BASE_SRC]

Each config runs as ``python -m coupledchains.harness <kind>``, the kind
its config names, with the package from this checkout's src/.  A small
launcher process starts the run, times it and reads its peak resident
set from RUSAGE_CHILDREN.  A child started by fork or vfork carries its
parent's high-water RSS into its own at exec; the launcher holds only an
interpreter, so that floor is its own few MB, not this script's.

The file has a fixed schema: the python and numpy versions; the thread
variables the runs saw (``thread_env``: OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS, null where unset;
with the first three unset the package loads numpy with one OpenBLAS
thread); then one row per config with its kind, its sizes (the kernel's
memory and every numeric parameter), the exit code, the wall seconds and
the peak RSS in MB.  One run per config, with the config's own seed;
no gate and no bound.  Each printed row ends with the wall time and peak
RSS of the same config's row in the file it replaces, if that has one.

BASE_SRC is a directory holding the ``coupledchains`` package (the
``src/`` of another checkout), as for scripts/same_outputs.py.  Given
it, the script runs ROUNDS rounds.  Each round first times a cold
``python -c pass`` and ``python -c "import numpy"``, a record of how
loaded the host was, then runs every config once under each tree, the
two back to back, in an order that swaps from round to round.  A row's
exit code, wall seconds and peak RSS are then this checkout's: the
first nonzero exit code, else 0, and the medians over the rounds.  The
row adds the same three for BASE_SRC (``base``) and the ratios of the
medians, this checkout's over the base's (``wall_ratio``,
``rss_ratio``); the file adds ``rounds`` and the per-round ``probes``.
With BASE_SRC this checkout's own src/, the ratios show the spread of
the host: the smallest effect the comparison can show.

The runs write their outputs to a temporary directory, removed
afterwards.  The exit status is 1 if any run exits nonzero (the file is
written first), else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIGS = ROOT / "scripts" / "configs" / "scaled"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")
# Rounds of a comparison of two trees.
ROUNDS = 5

# Runs argv[1:] with its stdout sent to stderr, then prints one JSON line:
# the exit code, the wall seconds and the child's peak RSS (ru_maxrss is
# in KiB on Linux).
LAUNCHER = """
import json, resource, subprocess, sys, time
start = time.perf_counter()
code = subprocess.call(sys.argv[1:], stdout=sys.stderr)
wall = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps({"exit_code": code, "wall_s": round(wall, 3),
                  "peak_rss_mb": round(peak / 1024, 1)}))
"""


def launch(argv: list[str], env: dict) -> dict:
    """One cold run of `argv` from the launcher: its exit code, wall
    seconds and peak RSS."""
    launched = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], env=env,
                              stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(launched.stdout)


def summarize(runs: list[dict]) -> dict:
    """One tree's runs of one config: the first nonzero exit code, else
    0, and the median wall seconds and peak RSS."""
    return {"exit_code": next((r["exit_code"] for r in runs if r["exit_code"]), 0),
            **{key: round(statistics.median(r[key] for r in runs), 3)
               for key in ("wall_s", "peak_rss_mb")}}


def compare(ours: dict, base: dict) -> dict:
    """The row `ours` with the base tree's summary and the ratios of the
    medians, this tree's over the base's."""
    return {**ours, "base": base,
            "wall_ratio": round(ours["wall_s"] / base["wall_s"], 3),
            "rss_ratio": round(ours["peak_rss_mb"] / base["peak_rss_mb"], 3)}


def make_row(head: dict, committed: dict, runs: list) -> dict:
    """The row of the config that `head` names (with its kind and sizes),
    from its runs under each tree (this checkout's last), printed as it
    is made: beside the committed row it replaces, or beside the base
    tree's runs."""
    made = {**head, **summarize(runs[-1])}
    if len(runs) == 2:
        made = compare(made, summarize(runs[0]))
        b = made["base"]
        note = (f"  (base {b['wall_s']:8.3f} s  {b['peak_rss_mb']:8.1f} MB;"
                f" ratios {made['wall_ratio']:.3f} {made['rss_ratio']:.3f})")
    else:
        before = committed.get(made["config"])
        note = (f"  (was {before['wall_s']:8.3f} s  {before['peak_rss_mb']:8.1f} MB)"
                if before else "")
    print(f"{made['config']:28s} exit {made['exit_code']}  "
          f"{made['wall_s']:8.3f} s  {made['peak_rss_mb']:8.1f} MB{note}", flush=True)
    return made


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_scaled.json"))
    parser.add_argument("base_src", nargs="?", metavar="BASE_SRC")
    args = parser.parse_args()
    trees = [SRC]
    if args.base_src:
        base = Path(args.base_src).resolve()
        if not (base / "coupledchains" / "__init__.py").is_file():
            print(f"{base}: no coupledchains package", file=sys.stderr)
            return 2
        trees = [base, SRC]
    rounds = ROUNDS if len(trees) == 2 else 1
    sys.path.insert(0, str(SRC))
    import numpy
    from coupledchains.harness import build_kernel

    envs = [dict(os.environ, PYTHONPATH=str(tree)) for tree in trees]
    out_path = Path(args.out)
    committed = {}
    if out_path.exists():  # read before the new rows overwrite it
        committed = {row["config"]: row
                     for row in json.loads(out_path.read_text())["runs"]}
    configs = []
    for config in sorted(CONFIGS.glob("*.json")):
        spec = json.loads(config.read_text())
        sizes = {"memory": build_kernel(spec["kernel"]).memory}
        sizes.update((k, v) for k, v in spec.items()
                     if k != "seed" and not isinstance(v, (str, dict)))
        head = {"config": config.name, "kind": spec["kind"], "sizes": sizes}
        configs.append((config, head, [[] for _ in trees]))  # runs per tree
    sides = list(range(len(trees)))
    probes, rows = [], []
    with tempfile.TemporaryDirectory() as out:
        for r in range(rounds):
            if len(trees) == 2:
                probes.append({name: launch([sys.executable, "-c", code], os.environ)["wall_s"]
                               for name, code in (("pass_s", "pass"),
                                                  ("import_numpy_s", "import numpy"))})
                print(f"round {r + 1} of {rounds}", file=sys.stderr, flush=True)
            for config, head, runs in configs:
                argv = [sys.executable, "-m", "coupledchains.harness", head["kind"],
                        "--config", str(config), "--out", os.path.join(out, config.stem)]
                for side in sides if r % 2 == 0 else sides[::-1]:
                    runs[side].append(launch(argv, envs[side]))
                if r == rounds - 1:
                    rows.append(make_row(head, committed, runs))
    record = {"python": platform.python_version(), "numpy": numpy.__version__,
              "thread_env": {var: envs[-1].get(var) for var in THREAD_VARS},
              "runs": rows}
    if len(trees) == 2:
        record.update(rounds=rounds, probes=probes)
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    failed = [row["config"] for row in rows
              if row["exit_code"] or row.get("base", {}).get("exit_code")]
    if failed:
        print(f"scaled configs failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
