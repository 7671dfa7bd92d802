#!/usr/bin/env python3
"""Run every demo experiment config under scripts/configs/ and collect the
outputs under results/<kind>/.

Usage:
    python3 scripts/run_all.py [--out results] [--seed N] [--pretty]

Each experiment writes <kind>.csv plus a manifest.json echoing the config,
the package version, and the verdicts.  Exit status is nonzero if any
experiment reports a verdict failure.
"""

import argparse
import sys
from pathlib import Path

from coupledchains.harness import KINDS, main as harness_main

CONFIG_DIR = Path(__file__).parent / "configs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output root directory")
    parser.add_argument("--seed", type=int, help="override the config seeds")
    parser.add_argument("--pretty", action="store_true",
                        help="also print aligned tables to stdout")
    args = parser.parse_args()

    worst = 0
    for kind in KINDS:
        argv = [kind, "--config", str(CONFIG_DIR / f"{kind}.json"),
                "--out", str(Path(args.out) / kind)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        if args.pretty:
            argv += ["--pretty"]
        print(f"== {kind} ==")
        code = harness_main(argv)
        if code != 0:
            print(f"{kind}: exit {code}", file=sys.stderr)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
