"""Refactor oracle: every demo config under scripts/configs/ must
reproduce, byte for byte, the CSV and manifest recorded in
tests/golden/<kind>/, and every config.json under tests/golden/antitone/
the outputs beside it.  The antitone configs run an order-3 kernel whose
metric tables have antitone entries, so they cover the flip tables and
a flipped coupled walk, which no demo kernel reaches.  A change that
alters a golden output on purpose regenerates the golden files and says
which outputs changed and why."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from coupledchains.harness import KINDS, main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "scripts" / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"
ANTITONE = sorted(p.parent for p in (GOLDEN / "antitone").glob("*/config.json"))


@pytest.mark.parametrize("kind", KINDS)
def test_demo_outputs_match_golden(kind, tmp_path):
    out = tmp_path / kind
    assert main([kind, "--config", str(CONFIGS / f"{kind}.json"),
                 "--out", str(out)]) == 0
    for name in (f"{kind}.csv", "manifest.json"):
        assert (out / name).read_bytes() == (GOLDEN / kind / name).read_bytes(), name


@pytest.mark.parametrize("case", ANTITONE, ids=lambda p: p.name)
def test_antitone_outputs_match_golden(case, tmp_path):
    kind = json.loads((case / "config.json").read_text())["kind"]
    assert main([kind, "--config", str(case / "config.json"),
                 "--out", str(tmp_path)]) == 0
    for name in (f"{kind}.csv", "manifest.json"):
        assert (tmp_path / name).read_bytes() == (case / name).read_bytes(), name


def test_antitone_goldens_flip():
    # The antitone goldens are only worth their bytes if the kernel they
    # run has antitone tables at the depths the runs read.
    from coupledchains.harness import build_kernel
    from coupledchains.vershik import CouplingEngine

    config = json.loads((GOLDEN / "antitone" / "extend" / "config.json").read_text())
    engine = CouplingEngine.build(build_kernel(config["kernel"]), 8, config["depth"])
    flipped = [p for p in range(9) if engine.table(p).flip is not None]
    assert flipped == [2, 3, 5]
    assert len(ANTITONE) == 3


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
