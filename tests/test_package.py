"""The modules are the package's API: importing the package loads numpy
and nothing else of it, each module imports on its own, the coupling
metric does not load the path replay or the stitch, and every name the
benchmark (perfbench/) reads is there."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coupledchains

PACKAGE = Path(coupledchains.__file__).resolve().parent
SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
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
    assert _fresh("coupledchains.vershik")["loaded"] == ["kernels", "rng", "vershik"]


def _bench_spans() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SPANS


def test_benchmark_traced_names_exist():
    # The traced benchmark looks each span's function up by name in its
    # module, so a function that no CLI run calls is still read there.
    spans = _bench_spans()
    assert spans
    missing = [(module, name) for module, name, *_ in spans
               if not callable(getattr(importlib.import_module(f"coupledchains.{module}"),
                                       name, None))]
    assert not missing


def test_benchmark_path_check_names_exist():
    # The benchmark's path check decodes an audit's sample and replays it
    # from its start context, and its replay span reads these parameters.
    from coupledchains.harness import build_kernel
    from coupledchains.innovation import decode_xv
    from coupledchains.reconstruction import (disagreement_experiment, simulate_path,
                                              window_reconstruct)

    kernel = build_kernel({"variant": "builtin", "name": "markov1-demo"})
    sample = simulate_path(kernel, 200, 1)
    x, _ = decode_xv(sample.w, sample.f)
    assert np.array_equal(x, sample.x)
    assert np.array_equal(window_reconstruct(kernel, sample.w, sample.init_ctx), sample.x)
    assert list(inspect.signature(disagreement_experiment).parameters) == [
        "kernel", "n_start", "k_lags", "trials", "seed"]
