"""The modules are the package's API: importing the package loads numpy
and nothing else of it, each module imports on its own, and the coupling
metric does not load the path replay or the stitch."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coupledchains

PACKAGE = Path(coupledchains.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

# A fresh interpreter imports argv[1], then prints the package modules it
# loaded and whether numpy is loaded.
CHILD = """
import json, sys
__import__(sys.argv[1])
print(json.dumps({"numpy": "numpy" in sys.modules,
                  "loaded": sorted(m.split(".", 1)[1] for m in sys.modules
                                   if m.startswith("coupledchains."))}))
"""


def _fresh(name: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHILD, name], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_package_loads_numpy_and_no_module():
    assert _fresh("coupledchains") == {"numpy": True, "loaded": []}


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    child = _fresh(f"coupledchains.{module}")
    assert child["numpy"] and module in child["loaded"]


def test_vershik_loads_neither_replay_nor_stitch():
    assert _fresh("coupledchains.vershik")["loaded"] == ["kernels", "rng", "vershik", "words"]
