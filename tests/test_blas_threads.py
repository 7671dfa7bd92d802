"""No BLAS in the package, and the one-thread OpenBLAS load that rests on it.

`coupledchains/__init__.py` loads numpy with OPENBLAS_NUM_THREADS=1 when
numpy is not yet loaded and the caller set no thread variable.  That is
free only while no package code calls BLAS or LAPACK, which the AST scan
below enforces; criterion 11 (byte-identical output across thread
counts) rests on the same invariant."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

import coupledchains

PACKAGE = Path(coupledchains.__file__).resolve().parent

# Names whose numpy functions or methods reach BLAS or LAPACK.
BLAS_NAMES = {"dot", "matmul", "vdot", "inner", "tensordot", "linalg"}


def blas_uses(source: str) -> list[str]:
    """Every `@`, BLAS-named call, attribute or import, and `einsum` with
    an `optimize` keyword (which may route through tensordot) in `source`,
    as "line: what"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", None)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{line}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"{line}: .{node.attr}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if isinstance(func, ast.Name) and name in BLAS_NAMES:
                found.append(f"{line}: {name}()")
            if name == "einsum" and any(k.arg == "optimize" for k in node.keywords):
                found.append(f"{line}: einsum(optimize=...)")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [getattr(node, "module", None) or ""]
            modules += [alias.name for alias in node.names]
            if any(BLAS_NAMES & set(m.split(".")) for m in modules):
                found.append(f"{line}: import")
    return found


def test_package_calls_no_blas():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    found = {p.name: blas_uses(p.read_text()) for p in sources}
    assert {name: uses for name, uses in found.items() if uses} == {}


@pytest.mark.parametrize("snippet", [
    "c = a @ b",
    "a @= b",
    "np.dot(a, b)",
    "a.dot(b)",
    "dot(a, b)",
    "np.inner(a, b)",
    "np.linalg.solve(a, b)",
    "from numpy.linalg import solve",
    "from numpy import vdot",
    "np.einsum('ij,jk', a, b, optimize=True)",
])
def test_scan_catches(snippet):
    assert blas_uses(snippet)


def test_scan_catches_both_in_one_snippet():
    assert len(blas_uses("c = a @ b\nd = np.dot(a, b)\n")) == 2


def test_scan_passes_plain_numpy():
    assert blas_uses("np.einsum('ij,ij->i', a, b)\nnp.sum(a * b)\nx.inner_ = 1\n") == []


def _openblas() -> bool:
    deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    return "openblas" in deps["blas"]["name"].lower()


needs_openblas = pytest.mark.skipif(
    not sys.platform.startswith("linux") or not _openblas(),
    reason="reads /proc/self/status; counts OpenBLAS's threads")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")

# A fresh interpreter runs the imports named in argv[1], then prints its
# thread count and whether os.environ is as it was before them.
CHILD = """
import json, os, sys
before = dict(os.environ)
for name in sys.argv[1].split(","):
    __import__(name)
threads = next(int(l.split()[1]) for l in open("/proc/self/status")
               if l.startswith("Threads:"))
print(json.dumps({"threads": threads, "environ_kept": dict(os.environ) == before}))
"""


def _fresh(imports: str, **set_vars: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(set_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHILD, imports], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@needs_openblas
def test_import_loads_numpy_with_one_blas_thread():
    assert _fresh("coupledchains") == {"threads": 1, "environ_kept": True}


def _cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@needs_openblas
@pytest.mark.skipif(_cores() < 2, reason="OpenBLAS caps its threads at the core count")
@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_callers_thread_variable_wins(var):
    assert _fresh("coupledchains", **{var: "2"}) == {"threads": 2, "environ_kept": True}


@needs_openblas
def test_numpy_loaded_first_is_left_alone():
    plain = _fresh("numpy")
    assert _fresh("numpy,coupledchains") == plain
    assert plain["environ_kept"]
