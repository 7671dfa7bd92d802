"""coupledchains: couplings, innovation encodings, and filtration
diagnostics for stationary binary processes.

Submodules:
  kernels        conditional laws, decay coefficients, stationary laws
  innovation     symbol/uniform codec and iid-uniform audits
  reconstruction path replay from innovations and renewal bounds
  vershik        optimal couplings, metric recursion, coupling engine,
                 alpha sequence
  extension      orientation-driven innovations and block stitching
  reports        CSV / pretty emission
  harness        CLI and experiment configs

Loaded before numpy, it loads numpy with one OpenBLAS thread unless the
caller set a thread variable (see the README, under CLI).
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

__version__ = "0.1.0"

from .kernels import (
    CapExceededError,
    IIDKernel,
    Kernel,
    LongMemoryKernel,
    MarkovKernel,
    builtin_kernels,
    gamma_profile,
    lower_envelope,
)
from .innovation import decode_xv, encode_w, innovation_audit
from .reconstruction import (
    disagreement_experiment,
    domination_experiment,
    house_of_cards_dist,
    simulate_path,
    window_reconstruct,
)
from .vershik import (
    CouplingEngine,
    alpha_sequence,
    metric_tables,
)
from .extension import (
    choose_anchor,
    generator_error_check,
    joint_step_law,
    stitch_blocks,
)

__all__ = [
    "CapExceededError",
    "CouplingEngine",
    "IIDKernel",
    "Kernel",
    "LongMemoryKernel",
    "MarkovKernel",
    "builtin_kernels",
    "choose_anchor",
    "decode_xv",
    "disagreement_experiment",
    "domination_experiment",
    "encode_w",
    "gamma_profile",
    "generator_error_check",
    "house_of_cards_dist",
    "innovation_audit",
    "joint_step_law",
    "lower_envelope",
    "metric_tables",
    "simulate_path",
    "stitch_blocks",
    "window_reconstruct",
    "__version__",
]
