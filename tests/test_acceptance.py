"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL line.  Tolerances are pinned in the assertions below."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from coupledchains.extension import (
    CouplingEngine,
    generator_error_check,
    stitch_blocks,
)
from coupledchains.kernels import (
    IIDKernel,
    builtin_kernels,
    gamma_profile,
    lower_envelope,
)
from coupledchains.reconstruction import (
    disagreement_experiment,
    reconstruction_bound,
    simulate_path,
)
from coupledchains.vershik import alpha_sequence, coupling_table, lambda_sign
from coupledchains.words import int_to_word
from test_extension import chain_window_law, reference_joint_law

MARKOV1 = builtin_kernels()["markov1-demo"]
SEED = 20260826


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_01_innovation_law():
    with _Timer() as t:
        sample = simulate_path(MARKOV1, 100_000, SEED)
        w = sample.w
        n = w.size
        srt = np.sort(w)
        grid = np.arange(1, n + 1) / n
        ks = float(np.max(np.maximum(grid - srt, srt - (grid - 1.0 / n))))
        centered = w - w.mean()
        corr1 = float(
            np.sum(centered[:-1] * centered[1:]) / np.sum(centered * centered)
        )
        bins = np.minimum((w * 16).astype(int), 15)
        counts = np.bincount(bins[:-1] * 16 + bins[1:], minlength=256)
        expected = (n - 1) / 256
        chi2 = float(np.sum((counts - expected) ** 2) / expected)
        pval = float(stats.chi2.sf(chi2, 255))
    ok = ks < 0.01 and abs(corr1) < 0.01 and pval > 0.001 and t.elapsed < 5
    _report(1, "innovation stream iid-uniform", ok,
            f"ks={ks:.4f} corr={corr1:.4f} p={pval:.3f} {t.elapsed:.1f}s")


def test_criterion_02_memory_decay_exact():
    with _Timer() as t:
        mk = gamma_profile(MARKOV1, 4)
        lm = gamma_profile(builtin_kernels()["long-memory-demo"], 4)
        # Independent hand enumeration in exact rational arithmetic.
        mk_oracle = float(1 - min(
            Fraction(4, 10) / Fraction(7, 10),
            Fraction(3, 10) / Fraction(6, 10),
        ))
        c, t1, t2 = Fraction(3, 10), Fraction(2, 10), Fraction(1, 10)
        lm_p0 = {
            (b2, b1): c + t1 * (1 - b1) + t2 * (1 - b2)
            for b1 in (0, 1) for b2 in (0, 1)
        }
        lm_g1 = Fraction(1)
        for (a2, a1), pa in lm_p0.items():
            for (b2, b1), pb in lm_p0.items():
                if a1 != b1:
                    continue
                lm_g1 = min(lm_g1, pa / pb, (1 - pa) / (1 - pb))
        ok = (
            mk.values == (mk_oracle, 0.0, 0.0, 0.0, 0.0)
            and mk.values[0] == 0.5
            and lm.values[0] == 0.5
            and lm.values[1] == float(1 - lm_g1) == 0.25
            and lm.values[2:] == (0.0, 0.0, 0.0)
        )
    _report(2, "gamma profiles exact", ok and t.elapsed < 1,
            f"markov={mk.values[:2]} longmem={lm.values[:3]} {t.elapsed:.1f}s")


def test_criterion_03_envelope_inequality():
    with _Timer() as t:
        violations = 0
        for kernel in builtin_kernels().values():
            prof = gamma_profile(kernel, 8)
            for p in range(9):
                for code in range(1 << p):
                    z = int_to_word(code, p)
                    total = lower_envelope(kernel, 0, z) + lower_envelope(
                        kernel, 1, z
                    )
                    if total < 1.0 - prof.gamma(p) - 1e-12:
                        violations += 1
    _report(3, "envelope inequality, all contexts <= 8",
            violations == 0 and t.elapsed < 10,
            f"violations={violations} {t.elapsed:.1f}s")


def test_criterion_04_reconstruction_bound():
    with _Timer() as t:
        rows = [
            disagreement_experiment(MARKOV1, n, 2, 100_000, SEED)
            for n in (-5, -10, -15)
        ]
        dyadic = reconstruction_bound(MARKOV1, -10, 2)
        ok = all(r.verdict == "within-bound" for r in rows)
        ok = ok and dyadic == 0.00390625 == 0.5**8
    _report(4, "replay disagreement within renewal bound", ok and t.elapsed < 30,
            "; ".join(f"N={r.n_start} freq={r.freq:.2e} bound={r.dp_bound:.2e}"
                      for r in rows) + f" {t.elapsed:.1f}s")


def test_criterion_05_stochastic_domination():
    with _Timer() as t:
        # The replay at N = -10 reads the same trials at every lag K, so
        # its row at K = M is the domination check at M: agreement on
        # [-M; 0] at least P(Z_10 > M) - 3 sigma.
        rows = [disagreement_experiment(MARKOV1, -10, m, 100_000, SEED)
                for m in range(11)]
        ok = all(r.verdict == "within-bound"
                 and 1.0 - r.freq >= (1.0 - r.dp_bound) - 3.0 * r.stderr
                 for r in rows)
    _report(5, "agreement length dominates reset chain", ok and t.elapsed < 30,
            f"M=0..10 {t.elapsed:.1f}s")


def test_criterion_06_coupling_optimality():
    with _Timer() as t:
        rng = np.random.default_rng(SEED)
        worst_gap, worst_marg = 0.0, 0.0
        for _ in range(200):
            f, g = rng.uniform(0.02, 0.98, 2)
            costs = rng.uniform(0.0, 1.0, (2, 2))
            table = coupling_table(f, g, lambda_sign(costs))
            lo, hi = max(0.0, f + g - 1.0), min(f, g)
            grid = np.linspace(lo, hi, 4001)
            cost = (
                grid * costs[0, 0]
                + (f - grid) * costs[0, 1]
                + (g - grid) * costs[1, 0]
                + (1 - f - g + grid) * costs[1, 1]
            )
            worst_gap = max(worst_gap, float(np.sum(table * costs)) - float(cost.min()))
            worst_marg = max(
                worst_marg,
                float(np.abs(table.sum(axis=1) - [f, 1 - f]).max()),
                float(np.abs(table.sum(axis=0) - [g, 1 - g]).max()),
            )
        ok = worst_gap <= 1e-9 and worst_marg <= 1e-12
    _report(6, "optimal couplings beat brute force", ok and t.elapsed < 5,
            f"gap={worst_gap:.2e} marginals={worst_marg:.2e} {t.elapsed:.1f}s")


def test_criterion_07_alpha_decay():
    with _Timer() as t:
        iid = alpha_sequence(IIDKernel(0.5), 4, 6)
        ok = all(
            3.0**-p / 4 <= a <= 1.5 * 3.0**-p
            for p, a in enumerate(iid.values)
        )
        mk = alpha_sequence(MARKOV1, 8, 6)
        ratio = mk.values[8] / mk.values[0]
        ok = ok and ratio < 0.05
    _report(7, "coupling-distance sequence decays", ok and t.elapsed < 60,
            f"iid ok, markov ratio={ratio:.2e} {t.elapsed:.1f}s")


def test_criterion_08_joint_window_law():
    with _Timer() as t:
        engine = CouplingEngine.build(MARKOV1, 4, 6)
        interval, product = reference_joint_law(engine, 4, 0)
        tv = 0.5 * float(np.abs(interval - product).sum())
        chain = chain_window_law(engine, 4, 0)
        hat_gap = 0.5 * float(np.abs(interval.sum(axis=0) - chain).sum())
        ok = tv < 1e-10
    _report(8, "window joint law equals coupling product",
            ok and t.elapsed < 10,
            f"tv={tv:.2e} hat_gap={hat_gap:.2e} {t.elapsed:.1f}s")


def test_criterion_09_generator_gap_identity():
    with _Timer() as t:
        engine = CouplingEngine.build(MARKOV1, 7, 6)
        report = generator_error_check(
            engine, -6, (0,) * engine.length, 100_000, SEED
        )
        gap = abs(report.mc_estimate - report.exact_value)
        ok = gap <= 3 * report.stderr + 3.0**-6
    _report(9, "generator-gap identity (MC vs exact)", ok and t.elapsed < 60,
            f"|diff|={gap:.2e} tol={report.tolerance:.2e} {t.elapsed:.1f}s")


def test_criterion_10_stitch_pipeline():
    with _Timer() as t:
        report = stitch_blocks(
            MARKOV1, (0.2, 0.1, 0.05), 10_000, SEED, 6
        )
        ok = all(r.verdict == "ok" for r in report.rows)
        ok = ok and len(report.rows) == 3
        ok = ok and report.audit.n >= 100_000 and report.audit.passed
    _report(10, "block-stitched generator recovery", ok and t.elapsed < 120,
            "; ".join(f"j={r.j} freq={r.exceed_freq:.1e}<=d={r.delta_j}"
                      for r in report.rows)
            + f" audit_n={report.audit.n} {t.elapsed:.1f}s")


ACCEPTANCE_CONFIGS = {
    "gamma": {"p_max": 4, "tail": {"kind": "eventually-zero"}},
    "audit": {"steps": 100_000},
    "reconstruct": {"n_list": [-5, -10, -15], "k": 2, "trials": 100_000},
    "vershik": {"p_max": 8, "depth": 6},
    "extend": {"n": -6, "trials": 100_000, "depth": 6},
    "stitch": {"deltas": [0.2, 0.1, 0.05], "trials": 10_000, "depth": 6},
}


def test_criterion_11_determinism(tmp_path):
    with _Timer() as t:
        outputs = {}
        # None: every variable removed, the package's own default (one
        # OpenBLAS thread, coupledchains/__init__.py).
        for threads in ("1", "4", None):
            # The standard variables, read when numpy loads its libraries.
            env = dict(os.environ)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "GOTO_NUM_THREADS", "MKL_NUM_THREADS"):
                env.pop(var, None)
                if threads is not None:
                    env[var] = threads
            for kind, params in ACCEPTANCE_CONFIGS.items():
                cfg = {
                    "kind": kind,
                    "kernel": {"variant": "builtin", "name": "markov1-demo"},
                    "seed": SEED,
                    **params,
                }
                cfg_path = tmp_path / f"{kind}.json"
                cfg_path.write_text(json.dumps(cfg))
                out = tmp_path / f"t{threads}_{kind}"
                proc = subprocess.run(
                    [sys.executable, "-m", "coupledchains.harness", kind,
                     "--config", str(cfg_path), "--out", str(out)],
                    env=env, capture_output=True, text=True,
                )
                assert proc.returncode == 0, (kind, proc.stderr)
                outputs[(threads, kind)] = (out / f"{kind}.csv").read_bytes()
        ok = all(
            outputs[("1", kind)] == outputs[("4", kind)] == outputs[(None, kind)]
            for kind in ACCEPTANCE_CONFIGS
        )
    _report(11, "byte-identical CSVs across thread counts", ok,
            f"kinds={len(ACCEPTANCE_CONFIGS)} {t.elapsed:.1f}s")
