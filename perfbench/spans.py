"""Per-layer spans recorded from the benchmark's side: while installed,
each traced public function of the package is replaced, in every
``coupledchains`` module that holds it, by a wrapper that adds its wall
time and a count of the work it was asked to do to running totals.

Spans nest (disagreement_experiment calls reconstruction_bound, which
calls gamma_profile), so every time is inclusive of the calls below it.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import defaultdict


def _gamma_contexts(a, result):
    # Each p below the memory compares all 2^m contexts once per symbol.
    m = a["kernel"].memory
    return 2 * (1 << m) * min(a["p_max"] + 1, m)


def _window_trial_steps(a, result):
    return a["trials"] * (1 - a["n_start"])


def _stitch_trial_steps(a, result):
    last = result.rows[-1]  # the earliest simulated time is M_J + N_J - 1
    return a["trials"] * (2 - last.m_j - last.n_j)


# (module, function, time metric, count metric, count(bound args, result))
SPANS = [
    ("kernels", "gamma_profile", "kernels.gamma_profile_s",
     "kernels.gamma_contexts", _gamma_contexts),
    ("kernels", "stationary_ctx_vector", "kernels.stationary_s", None, None),
    ("innovation", "innovation_audit", "innovation.audit_s",
     "innovation.audit_samples", lambda a, r: len(a["w"])),
    ("reconstruction", "simulate_path", "reconstruction.simulate_s",
     "reconstruction.simulate_steps", lambda a, r: a["steps"]),
    ("reconstruction", "disagreement_experiment", "reconstruction.disagreement_s",
     "reconstruction.disagreement_trial_steps", _window_trial_steps),
    ("reconstruction", "reconstruction_bound", "reconstruction.bound_s",
     "reconstruction.bound_n", lambda a, r: -a["n_start"]),
    ("vershik", "metric_tables", "vershik.metric_tables_s",
     "vershik.table_entries", lambda a, r: sum(t.values.size for t in r)),
    ("vershik", "alpha_sequence", "vershik.alpha_s", None, None),
    ("vershik", "alpha_sequence_mc", "vershik.alpha_mc_s", None, None),
    ("extension", "generator_error_check", "extension.generator_gap_s",
     "extension.coupled_trial_steps", _window_trial_steps),
    ("extension", "stitch_blocks", "extension.stitch_s",
     "extension.stitch_trial_steps", _stitch_trial_steps),
]

TIME_METRICS = [s[2] for s in SPANS]
COUNT_METRICS = [s[3] for s in SPANS if s[3]]


class Tracer:
    """Running totals of the traced spans, plus the results of the
    functions named in ``capture`` (kept for output checks)."""

    def __init__(self, capture=()):
        self.totals = defaultdict(float)
        self.capture = set(capture)
        self.captured = []

    def reset(self):
        self.totals = defaultdict(float)

    def _wrap(self, fn, time_metric, count_metric, count):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            totals = self.totals
            totals[time_metric] += time.perf_counter() - start
            if count_metric or fn.__name__ in self.capture:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if count_metric:
                    totals[count_metric] += count(bound.arguments, result)
                if fn.__name__ in self.capture:
                    self.captured.append((bound.arguments, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of the traced functions; undo on exit."""
        patched = []
        for module_name, fn_name, time_metric, count_metric, count in SPANS:
            original = getattr(sys.modules[f"coupledchains.{module_name}"], fn_name)
            wrapper = self._wrap(original, time_metric, count_metric, count)
            for name, module in list(sys.modules.items()):
                if name.startswith("coupledchains") and getattr(module, fn_name, None) is original:
                    patched.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)
        try:
            yield self
        finally:
            for module, fn_name, original in reversed(patched):
                setattr(module, fn_name, original)
