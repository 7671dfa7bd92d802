"""Refactor oracle: every demo config under scripts/configs/ must
reproduce, byte for byte, the CSV and manifest recorded in
tests/golden/<kind>/.  A change that alters a demo output on purpose
regenerates the golden files and says which outputs changed and why."""

import subprocess
import sys
from pathlib import Path

import pytest

from coupledchains.harness import KINDS, main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "scripts" / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("kind", KINDS)
def test_demo_outputs_match_golden(kind, tmp_path):
    out = tmp_path / kind
    assert main([kind, "--config", str(CONFIGS / f"{kind}.json"),
                 "--out", str(out)]) == 0
    for name in (f"{kind}.csv", "manifest.json"):
        assert (out / name).read_bytes() == (GOLDEN / kind / name).read_bytes(), name


@pytest.mark.parametrize("kind", KINDS)
def test_runs_without_scipy(kind, tmp_path):
    # numpy is the only runtime dependency: with every scipy import made
    # to fail, each demo config still reproduces its golden outputs.
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "from coupledchains.harness import main; sys.exit(main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, kind,
         "--config", str(CONFIGS / f"{kind}.json"), "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    for name in (f"{kind}.csv", "manifest.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / kind / name).read_bytes()
