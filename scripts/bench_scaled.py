#!/usr/bin/env python3
"""Run every config under scripts/configs/scaled/ once, cold, and write
each run's wall time and peak memory to one JSON file.

Usage, from anywhere:

    python3 scripts/bench_scaled.py [--out BENCH_scaled.json]

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
The runs write their outputs to a temporary directory, removed
afterwards.  The exit status is 1 if any run exits
nonzero (the file is written first), else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIGS = ROOT / "scripts" / "configs" / "scaled"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")

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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_scaled.json"))
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    import numpy
    from coupledchains.harness import build_kernel

    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path = Path(args.out)
    committed = {}
    if out_path.exists():  # read before the new rows overwrite it
        committed = {row["config"]: row
                     for row in json.loads(out_path.read_text())["runs"]}
    rows = []
    with tempfile.TemporaryDirectory() as out:
        for config in sorted(CONFIGS.glob("*.json")):
            spec = json.loads(config.read_text())
            sizes = {"memory": build_kernel(spec["kernel"]).memory}
            sizes.update((k, v) for k, v in spec.items()
                         if k != "seed" and not isinstance(v, (str, dict)))
            argv = [sys.executable, "-m", "coupledchains.harness", spec["kind"],
                    "--config", str(config), "--out", os.path.join(out, config.stem)]
            row = {"config": config.name, "kind": spec["kind"], "sizes": sizes,
                   **launch(argv, env)}
            before = committed.get(config.name)
            was = (f"  (was {before['wall_s']:8.3f} s  {before['peak_rss_mb']:8.1f} MB)"
                   if before else "")
            print(f"{row['config']:28s} exit {row['exit_code']}  "
                  f"{row['wall_s']:8.3f} s  {row['peak_rss_mb']:8.1f} MB{was}", flush=True)
            rows.append(row)
    record = {"python": platform.python_version(), "numpy": numpy.__version__,
              "thread_env": {var: env.get(var) for var in THREAD_VARS},
              "runs": rows}
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    failed = [row["config"] for row in rows if row["exit_code"] != 0]
    if failed:
        print(f"scaled configs failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
