"""Tests of the benchmark's own oracles against brute-force enumeration.

Run with:  python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

import oracles
from workloads import BUILTIN_KERNELS, LONG_MEMORY_12, LONG_MEMORY_14, MARKOV_3

TINY_LONG_MEMORY = [
    {"variant": "long_memory", "c": 0.3, "weights": [0.2, 0.1]},
    {"variant": "long_memory", "c": 0.25, "weights": [0.1, 0.05, 0.2, 0.15]},
    {"variant": "long_memory", "c": 0.1, "weights": [0.3, 0.0, 0.1]},
]
TINY_MARKOV = [
    BUILTIN_KERNELS["markov1-demo"],
    {"variant": "markov", "order": 2,
     "table": {"00": 0.8, "01": 0.3, "10": 0.55, "11": 0.15}},
    MARKOV_3,
]


@pytest.mark.parametrize("spec", TINY_LONG_MEMORY)
def test_closed_form_gamma_matches_brute_force(spec):
    m, prob0 = oracles.prob0_fractions(spec)
    closed = oracles.long_memory_gammas(spec["c"], spec["weights"], m + 2)
    assert closed == oracles.brute_gammas(m, prob0, m + 2)
    assert closed[m:] == [0, 0, 0]


def test_long_memory_table_reads_lags_from_low_bits():
    # Context 0b10: last symbol 0 (lag 1), the one before 1 (lag 2).
    _, prob0 = oracles.prob0_fractions({"variant": "long_memory", "c": 0.3,
                                        "weights": [0.2, 0.1]})
    assert prob0 == [Fraction(6, 10), Fraction(4, 10), Fraction(5, 10), Fraction(3, 10)]


def test_reset_chain_matches_path_enumeration():
    gammas = [0.5, 0.3, 0.2, 0.1]
    for n in range(1, 8):
        for k in range(n + 1):
            total = 0.0  # enumerate every reset/advance sequence of n steps
            for moves in itertools.product((0, 1), repeat=n):
                state, prob = 0, 1.0
                for advance in moves:
                    g = gammas[state] if state < len(gammas) else 0.0
                    prob *= (1.0 - g) if advance else g
                    state = state + 1 if advance else 0
                total += prob if state <= k else 0.0
            assert oracles.reset_chain_cdf(gammas, n, k) == pytest.approx(total, abs=1e-14)


def _mismatch_by_enumeration(spec, n_start, k):
    """Enumerate the sub-intervals of (0, 1) that the two thresholds cut
    each step's uniform into, over every step: exact joint law of the
    true and replayed paths."""
    m, prob0 = oracles.prob0_fractions(spec)
    f = [float(p) for p in prob0]
    pi = oracles.stationary_law(m, prob0)
    steps, kmask, window = 1 - n_start, (1 << m) - 1, (1 << (k + 1)) - 1

    def walk(ct, ch, t, path_t, path_h):
        if t == steps:
            return 1.0 if (path_t ^ path_h) & window else 0.0
        cuts = sorted({0.0, f[ct & kmask], f[ch & kmask], 1.0})
        total = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            mid = (lo + hi) / 2
            xt, xh = int(mid > f[ct & kmask]), int(mid > f[ch & kmask])
            total += (hi - lo) * walk((ct << 1) | xt, (ch << 1) | xh, t + 1,
                                      (path_t << 1) | xt, (path_h << 1) | xh)
        return total

    return sum(pi[c] * walk(c, 0, 0, 0, 0) for c in range(1 << m))


@pytest.mark.parametrize("spec", TINY_MARKOV)
@pytest.mark.parametrize("n_start,k", [(-2, 1), (-3, 2), (-5, 2), (-6, 0)])
def test_pair_dp_matches_path_enumeration(spec, n_start, k):
    assert oracles.mismatch_probability(spec, n_start, k) == pytest.approx(
        _mismatch_by_enumeration(spec, n_start, k), abs=1e-13)


@pytest.mark.parametrize("spec", TINY_MARKOV + TINY_LONG_MEMORY)
def test_stationary_law_is_invariant(spec):
    m, prob0 = oracles.prob0_fractions(spec)
    pi = oracles.stationary_law(m, prob0)
    f = np.array([float(p) for p in prob0])
    moved = np.zeros_like(pi)
    for ctx in range(pi.size):
        nxt = (ctx << 1) & (pi.size - 1)
        moved[nxt] += pi[ctx] * f[ctx]
        moved[nxt | 1] += pi[ctx] * (1 - f[ctx])
    assert moved == pytest.approx(pi, abs=1e-14)
    assert pi.sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("spec", TINY_LONG_MEMORY)
def test_long_memory_p0_closed_form_matches_the_chain(spec):
    m, prob0 = oracles.prob0_fractions(spec)
    pi = oracles.stationary_law(m, prob0)
    by_chain = float(np.dot(pi, [float(p) for p in prob0]))
    assert oracles.stationary_p0(spec) == pytest.approx(by_chain, abs=1e-14)


@pytest.mark.parametrize("spec", TINY_MARKOV)
def test_word_law_marginals_are_consistent(spec):
    m, prob0 = oracles.prob0_fractions(spec)
    long = oracles.word_law(m, prob0, m + 3)
    short = oracles.word_law(m, prob0, m + 2)
    codes = np.arange(long.size)
    # Dropping the oldest or the newest symbol both give the shorter law.
    oldest = np.bincount(codes & (short.size - 1), weights=long, minlength=short.size)
    newest = np.bincount(codes >> 1, weights=long, minlength=short.size)
    assert oldest == pytest.approx(short, abs=1e-15)
    assert newest == pytest.approx(short, abs=1e-15)


def test_alpha0_for_iid_half_by_hand():
    # Depth 1: R = x_0 + x_1 / 3 over four equally likely words.
    r = [0.0, 1.0, 1.0 / 3.0, 4.0 / 3.0]
    expected = sum(abs(a - b) for a in r for b in r) / 16
    assert oracles.alpha0(BUILTIN_KERNELS["iid-half"], 1) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("spec", [LONG_MEMORY_12, LONG_MEMORY_14])
def test_workload_kernels_are_admissible(spec):
    _, prob0 = oracles.prob0_fractions(spec)
    assert 0 < min(prob0) and max(prob0) < 1
    gammas = oracles.long_memory_gammas(spec["c"], spec["weights"], len(spec["weights"]))
    assert all(g > 0 for g in gammas[:-1]) and gammas[-1] == 0
