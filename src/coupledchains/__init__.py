"""coupledchains: couplings, innovation encodings, and filtration
diagnostics for stationary binary processes.

The modules are the API: import each by name, as
``coupledchains.harness`` (the README lists them, under Modules).  The
package itself only loads numpy, with one OpenBLAS thread when it is the
first to load it and the caller set no thread variable (see the README,
under CLI).
"""

import os
import sys

# The variables OpenBLAS reads for its thread count, in its order.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# No code in this package calls BLAS or LAPACK (tests/test_blas_threads.py), so
# the thread pool OpenBLAS starts as numpy loads only burns CPU at start-up.
if "numpy" not in sys.modules and not any(v in os.environ for v in _THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401  (OpenBLAS reads the variable as it loads)
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
import numpy  # noqa: E402,F401  (in every case: a caller's thread variable wins)

__version__ = "0.1.0"
