"""Every verdict the CLI reports must be able to fail.

MUTANTS maps each (kind, verdict) to a fault in the program, a patched
package function, that the verdict must catch: run through
`harness.main` on a small config that passes unpatched, the mutant makes
the run exit 1 with `passed: false` for that verdict.  Every verdict of
the demo configs has a mutant or is listed in NO_MUTANT_YET, with the
ROADMAP item that would give it one."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from coupledchains import extension, harness, reconstruction
from coupledchains.harness import KINDS, main
from coupledchains.vershik import AlphaSequence

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"
MARKOV1 = {"variant": "builtin", "name": "markov1-demo"}
# Small configs, one per kind with a mutant, that pass unpatched.
SMALL = {
    "audit": {"steps": 4000},
    "reconstruct": {"n_list": [-5, -10], "k": 2, "trials": 2000},
    "vershik": {"p_max": 2, "depth": 4},
    "extend": {"n": -6, "trials": 2000, "depth": 4},
    "stitch": {"deltas": [0.3, 0.2, 0.1], "trials": 500, "depth": 4},
}
# Verdicts that cannot fail yet, each with the ROADMAP item that would
# make it fail.
NO_MUTANT_YET = {
    ("gamma", "regime"): "item 3: finite memory makes it a constant",
    ("stitch", "block_0"): "item 5: row 0 is an exact round trip",
}


def verdict_name(name):
    """One name for the verdicts a list parameter repeats: every N=... of
    reconstruct, and every stitch row after the first."""
    if name.startswith("N="):
        return "N=…"
    return "block_j" if re.fullmatch(r"block_[1-9]\d*", name) else name


def encoded(mutate):
    """The audit's innovations, each block of them mutated as it is encoded."""
    real = reconstruction.encode_w
    return reconstruction, "encode_w", lambda *a: mutate(real(*a))


def hat_on_one_minus_w(module):
    """The coupled walk of `module`, with the hat chain thresholding 1 - w
    at every step (every flip table all True)."""
    real = module.coupled_walk

    def walk(table, v, ctx_true, ctx_hat, flips=None, v_is_u=False, other=None):
        flips = [np.ones(table.size**2, dtype=bool)] * v.shape[1]
        real(table, v, ctx_true, ctx_hat, flips, v_is_u, other)

    return module, "coupled_walk", walk


def stitch_ends_shifted():
    """The ends from which the stitch reads rows j >= 1, shifted by one
    bit: the hat end of each forward run and the true end of each inverse
    run (`v_is_u`) that `coupled_run` returns."""
    real = extension.coupled_run

    def coupled_run(engine, v, ctx_true, ctx_hat, v_is_u=False, other=None):
        ends = list(real(engine, v, ctx_true, ctx_hat, v_is_u, other))
        shifted = 0 if v_is_u else 1
        ends[shifted] = (ends[shifted] << 1) & ((1 << engine.length) - 1)
        return tuple(ends)

    return extension, "coupled_run", coupled_run


def stitched_u_squared():
    """The stitched u of each block of trials, squared after it is made."""
    real = extension._stitch_trials

    def stitch_trials(engine, u, *args):
        far = real(engine, u, *args)
        np.square(u, out=u)
        return far

    return extension, "_stitch_trials", stitch_trials


def alpha_rising():
    """The patch of test_alpha_decay_verdict_can_fail: alpha grows with p."""
    return harness, "alpha_sequence", (
        lambda kernel, p_max, depth: AlphaSequence((0.1, 0.2, 0.3)))


MUTANTS = {
    ("audit", "cdf_sup_distance"): lambda: encoded(np.square),
    ("audit", "max_lag_correlation"): lambda: encoded(np.sort),
    ("audit", "pair_chi2_pvalue"): lambda: encoded(np.sort),
    ("reconstruct", "N=…"): lambda: hat_on_one_minus_w(reconstruction),
    ("vershik", "alpha_decay"): alpha_rising,
    # A gross fault: the hat chain started at the true context still
    # passes (ROADMAP item 11).
    ("extend", "generator_gap"): lambda: hat_on_one_minus_w(extension),
    ("stitch", "block_j"): stitch_ends_shifted,
    ("stitch", "stitched_u_audit"): stitched_u_squared,
}


def run(tmp_path, kind):
    """Exit code and verdicts of the small config of `kind`."""
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps({"kind": kind, "kernel": MARKOV1, "seed": 7,
                                **SMALL[kind]}))
    out = tmp_path / "out"
    code = main([kind, "--config", str(path), "--out", str(out)])
    return code, json.loads((out / "manifest.json").read_text())["verdicts"]


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_small_configs_pass_unpatched(tmp_path, kind):
    code, verdicts = run(tmp_path, kind)
    assert code == 0 and all(v["passed"] for v in verdicts)


@pytest.mark.parametrize("kind, name", sorted(MUTANTS))
def test_mutant_fails_its_verdict(tmp_path, monkeypatch, kind, name):
    monkeypatch.setattr(*MUTANTS[kind, name]())
    code, verdicts = run(tmp_path, kind)
    assert code == 1
    results = [v for v in verdicts if verdict_name(v["check"]) == name]
    assert results and not any(v["passed"] for v in results), verdicts


def test_every_demo_verdict_has_a_mutant(tmp_path):
    names = set()
    for kind in KINDS:
        out = tmp_path / kind
        assert main([kind, "--config", str(CONFIGS / f"{kind}.json"),
                     "--out", str(out)]) == 0
        verdicts = json.loads((out / "manifest.json").read_text())["verdicts"]
        names |= {(kind, verdict_name(v["check"])) for v in verdicts}
    assert not set(MUTANTS) & set(NO_MUTANT_YET)
    assert names == set(MUTANTS) | set(NO_MUTANT_YET)
