#!/usr/bin/env python3
"""Benchmark of coupledchains: cold CLI runs and in-process experiments.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serial-long-memory --seed 1 --seconds 50 --trace 0

A run repeats whole rounds for about --seconds.  One round is a set-up
probe (a fresh interpreter that imports the package and builds the
workload's kernels), one cold CLI pass (every invocation as
``python -m coupledchains.harness``, one at a time) and one or more
in-process passes (every invocation through ``harness.main(argv)``).
The machine's speed drifts by tens of percent over tens of seconds, so
every time is the median of its repetitions, spread over the run: of
the probes for set-up time, of the pass totals for the CLI and
in-process times.  Every output is then checked (see checks.py).  The last line of stdout is one JSON object:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-out"

# A fresh interpreter: import the package, build the workload's kernels,
# print how long the import alone took.
PROBE = """
import json, sys, time
start = time.perf_counter()
import coupledchains
imported = time.perf_counter()
from coupledchains.harness import build_kernel
for spec in json.loads(sys.argv[1]):
    build_kernel(spec).prob0_table
print(imported - start)
"""


class Run:
    def __init__(self, invocations, work: Path, trace_layers: bool):
        from coupledchains import harness

        self.harness = harness
        self.invocations = invocations
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.kernels = json.dumps(
            list({json.dumps(i.config["kernel"], sort_keys=True): i.config["kernel"]
                  for i in invocations}.values()))
        self.configs = {}
        for inv in invocations:
            path = work / "configs" / f"{inv.name}.json"
            path.write_text(json.dumps(inv.config, indent=2) + "\n")
            self.configs[inv.name] = str(path)
        self.tracer = spans.Tracer(capture=["simulate_path"]) if trace_layers else None
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.csvs: dict[str, bytes] = {}
        self.manifests: dict[str, dict] = {}
        self.paths: dict[str, tuple] = {}  # audit name -> (kernel, PathSample)
        self.setup_s: list[float] = []
        self.import_s: list[float] = []
        self.cli_s = defaultdict(list)  # per invocation
        self.run_s = defaultdict(list)
        self.cli_pass_s: list[float] = []  # per pass, summed over invocations
        self.run_pass_s: list[float] = []
        self.peak_rss_mb: list[float] = []
        self.layers: list[dict[str, float]] = []

    def _out_dir(self, mode: str, inv) -> Path:
        out = self.work / "out" / mode / inv.name
        shutil.rmtree(out, ignore_errors=True)
        return out

    def _spawn(self, argv, stdout_path: Path, stderr_path: Path):
        """Run one child to its end: (exit code, wall seconds, peak RSS MB)."""
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, elapsed, usage.ru_maxrss / 1024.0

    def probe(self):
        log = self.work / "probe"
        code, elapsed, _ = self._spawn(["-c", PROBE, self.kernels],
                                       log.with_suffix(".out"), log.with_suffix(".err"))
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {log.with_suffix('.err').read_text()}")
        self.setup_s.append(elapsed)
        self.import_s.append(float(log.with_suffix(".out").read_text()))

    def _finish(self, inv, code: int, stderr: str, out_dir: Path):
        """Count one operation and check what every invocation must meet."""
        self.attempted += 1
        self.failed += code != 0
        csv_path = out_dir / f"{inv.kind}.csv"
        if code != 0:
            if inv.known_fault is None or code != 2 or inv.known_fault not in stderr:
                self.errors.append(f"{inv.name}: exit {code}: {stderr.strip()[-500:]}")
            elif csv_path.exists():
                self.errors.append(f"{inv.name}: failed but wrote {csv_path.name}")
            return
        csv = csv_path.read_bytes()
        if csv != self.csvs.setdefault(inv.name, csv):
            self.errors.append(f"{inv.name}: CSV differs between invocations")
        if inv.name not in self.manifests:
            self.manifests[inv.name] = json.loads((out_dir / "manifest.json").read_text())

    def cli(self, inv) -> tuple[float, float]:
        out_dir = self._out_dir("cli", inv)
        argv = ["-m", "coupledchains.harness", *inv.argv(self.configs[inv.name], str(out_dir))]
        err = self.work / "cli.err"
        code, elapsed, rss = self._spawn(argv, self.work / "cli.out", err)
        self._finish(inv, code, err.read_text(), out_dir)
        self.cli_s[inv.name].append(elapsed)
        return elapsed, rss

    def in_process(self, inv) -> float:
        out_dir = self._out_dir("in-process", inv)
        argv = inv.argv(self.configs[inv.name], str(out_dir))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = self.harness.main(argv)
            except Exception:  # an internal error is a failed operation
                code = -1
                traceback.print_exc()
            elapsed = time.perf_counter() - start
        self._finish(inv, code, stderr.getvalue(), out_dir)
        self.run_s[inv.name].append(elapsed)
        if self.tracer and self.tracer.captured:
            args, sample = self.tracer.captured.pop()
            self.paths.setdefault(inv.name, (args["kernel"], sample))
            self.tracer.captured.clear()
        return elapsed

    def round(self, in_process_passes: int):
        self.probe()
        times, rss = zip(*(self.cli(inv) for inv in self.invocations))
        self.cli_pass_s.append(sum(times))
        self.peak_rss_mb.append(max(rss))
        for _ in range(in_process_passes):
            if self.tracer:
                self.tracer.reset()
            per_kind = defaultdict(float)
            for inv in self.invocations:
                per_kind[f"harness.{inv.kind}_s"] += self.in_process(inv)
            self.run_pass_s.append(sum(per_kind.values()))
            if self.tracer:
                self.layers.append({**self.tracer.totals, **per_kind})

    def check_outputs(self):
        csvs = {name: csv.decode() for name, csv in self.csvs.items()}
        for inv in self.invocations:
            if inv.name in csvs:
                self.errors += checks.check_output(inv, csvs[inv.name],
                                                   self.manifests[inv.name], csvs)
            if inv.name in self.paths:
                kernel, sample = self.paths[inv.name]
                self.errors += checks.check_path(inv, kernel, sample)
            elif self.tracer and inv.kind == "audit":
                self.errors.append(f"{inv.name}: no simulated path was captured")

    def end_to_end(self) -> dict:
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "cli_s": (statistics.median(self.cli_pass_s), "s"),
            "run_s": (statistics.median(self.run_pass_s), "s"),
            "peak_rss_mb": (statistics.median(self.peak_rss_mb), "MB"),
        }

    def per_layer(self) -> dict:
        kinds = [f"harness.{k}_s" for k in ("gamma", "audit", "reconstruct",
                                              "vershik", "extend", "stitch")]
        out = {"harness.import_s": (statistics.median(self.import_s), "s")}
        for name in kinds + spans.TIME_METRICS:
            out[name] = (statistics.median(r.get(name, 0.0) for r in self.layers), "s")
        for name in spans.COUNT_METRICS:
            counts = {r.get(name, 0.0) for r in self.layers}
            if len(counts) != 1:
                self.errors.append(f"{name} differs between passes: {sorted(counts)}")
            out[name] = (int(max(counts)), "count")
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coupledchains" / "harness.py").is_file():
        print(f"perfbench: no coupledchains sources under {SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2

    # All load comes from this process; numeric libraries in the CLI
    # children get at most one thread per available core.
    os.environ["COUPLEDCHAINS_MAX_THREADS"] = str(len(os.sched_getaffinity(0)))
    sys.path.insert(0, str(SRC))
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    run = Run(workloads.WORKLOADS[args.workload](args.seed), work, bool(args.trace))
    if not run.harness.__file__.startswith(str(SRC)):
        print(f"perfbench: imported {run.harness.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # Untimed: compile the package's bytecode, as an installed package has it.
    run._spawn(["-m", "compileall", "-q", str(SRC / "coupledchains")],
               work / "compile.out", work / "compile.err")

    # Whole rounds only, so the share of failed operations is fixed.
    rounds = max(2, round(args.seconds / workloads.ROUND_SECONDS[args.workload]))
    start = time.perf_counter()
    with run.tracer.installed() if run.tracer else contextlib.nullcontext():
        for _ in range(rounds):
            run.round(workloads.IN_PROCESS_PASSES[args.workload])
    run.probe()
    run.check_outputs()

    metrics = run.per_layer() if args.trace else run.end_to_end()
    for error in run.errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{time.perf_counter() - start:.1f} s")
    for inv in run.invocations:
        print(f"  {inv.name:24s} cli {statistics.median(run.cli_s[inv.name]):8.3f} s"
              f"  in-process {statistics.median(run.run_s[inv.name]):8.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    if args.trace:
        print(f"  run_s with tracing on {statistics.median(run.run_pass_s):.6g} s")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
