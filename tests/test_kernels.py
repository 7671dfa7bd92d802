from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coupledchains import kernels as kernels_module
from coupledchains.kernels import (
    CapExceededError,
    IIDKernel,
    LongMemoryKernel,
    MAX_MEMORY_DEPTH,
    MarkovKernel,
    builtin_kernels,
    gamma_profile,
    lift,
    lower_envelope,
    marginal,
    push,
    stationary_ctx_vector,
)
from coupledchains.words import int_to_word, word_to_int

MARKOV1 = builtin_kernels()["markov1-demo"]
LONGMEM = builtin_kernels()["long-memory-demo"]
IID = builtin_kernels()["iid-half"]


# ---------------------------------------------------------------------------
# Conditional probabilities


def conditional_prob(kernel, context, length=None):
    """P(0 | context) read from the kernel's table over `length`-bit
    context codes (the context's own length by default); a shorter
    context is zero-padded on the left."""
    length = len(context) if length is None else length
    return float(kernel.prob0_over(length)[word_to_int(context)])


def prob0_fractions(kernel):
    """The kernel's exact conditional-probability table as rationals."""
    return [Fraction(n, kernel.denominator) for n in kernel.numerators]


def test_markov_table_lookup():
    assert conditional_prob(MARKOV1, (0,)) == 0.7
    assert conditional_prob(MARKOV1, (1,)) == 0.4
    # Longer contexts: only the most recent symbol matters.
    assert conditional_prob(MARKOV1, (1, 1, 0)) == 0.7
    # Short/empty contexts are zero-padded.
    assert conditional_prob(MARKOV1, (), 3) == 0.7
    assert conditional_prob(MARKOV1, ()) == 0.7


def test_long_memory_table():
    # P(0 | past) = 0.3 + 0.2*1(lag1 == 0) + 0.1*1(lag2 == 0)
    assert conditional_prob(LONGMEM, (0, 0)) == pytest.approx(0.6)
    assert conditional_prob(LONGMEM, (0, 1)) == pytest.approx(0.4)
    assert conditional_prob(LONGMEM, (1, 0)) == pytest.approx(0.5)
    assert conditional_prob(LONGMEM, (1, 1)) == pytest.approx(0.3)


def test_long_memory_table_exact():
    # Oracle: the defining sum in exact rationals, context by context;
    # the float view rounds each exact entry once.
    c, weights = 0.25, (0.08, 0.06, 0.05, 0.015, 0.005)
    kernel = LongMemoryKernel(c, weights)
    exact = [
        Fraction(str(c)) + sum(
            Fraction(str(t)) for p, t in enumerate(weights) if not (ctx >> p) & 1
        )
        for ctx in range(1 << len(weights))
    ]
    assert prob0_fractions(kernel) == exact
    assert kernel.prob0_table.tolist() == [float(f) for f in exact]


def test_iid_ignores_context():
    assert conditional_prob(IID, ()) == 0.5
    assert conditional_prob(IID, (1, 0, 1)) == 0.5


def test_validation():
    with pytest.raises(ValueError):
        IIDKernel(1.0)
    with pytest.raises(ValueError):
        MarkovKernel.from_table(1, {(0,): 0.7})  # incomplete table
    with pytest.raises(ValueError):
        LongMemoryKernel(0.5, (0.4, 0.2))  # exceeds 1
    with pytest.raises(ValueError):
        # Exactly 1, though 0.1 + (0.2 + 0.7) rounds below 1 in floats.
        LongMemoryKernel(0.1, (0.2, 0.7))
    # A non-finite parameter is no decimal number.
    for c, weights in ((float("inf"), ()), (0.1, (float("inf"),)),
                       (float("nan"), (0.1,))):
        with pytest.raises(ValueError):
            LongMemoryKernel(c, weights)
    # Markov and long-memory kernels share one cap on the memory.
    deepest = MarkovKernel(MAX_MEMORY_DEPTH, (0.5,) * (1 << MAX_MEMORY_DEPTH))
    assert deepest.memory == MAX_MEMORY_DEPTH
    too_deep = MAX_MEMORY_DEPTH + 1
    with pytest.raises(CapExceededError):
        MarkovKernel(too_deep, tuple([0.5] * (1 << too_deep)))
    # The cap is checked before a table of 2^order contexts is made.
    with pytest.raises(CapExceededError):
        MarkovKernel.from_table(too_deep, {})
    with pytest.raises(CapExceededError):
        LongMemoryKernel(0.1, tuple([0.01] * too_deep))


# ---------------------------------------------------------------------------
# Memory-decay coefficients.  Oracle: independent hand enumeration in
# exact rational arithmetic over explicitly listed contexts.


def _gamma_oracle(p0_by_ctx: dict, p: int, memory: int) -> float:
    """1 - inf over context pairs agreeing on the last p symbols of the
    ratio of conditional laws, straight from the definition."""
    worst = Fraction(1)
    ctxs = list(p0_by_ctx)
    for a in ctxs:
        for b in ctxs:
            if a[len(a) - p :] != b[len(b) - p :]:
                continue
            for sym in (0, 1):
                pa = p0_by_ctx[a] if sym == 0 else 1 - p0_by_ctx[a]
                pb = p0_by_ctx[b] if sym == 0 else 1 - p0_by_ctx[b]
                worst = min(worst, Fraction(pa) / Fraction(pb))
    return float(1 - worst)


def test_gamma_markov1_exact():
    table = {(0,): Fraction(7, 10), (1,): Fraction(4, 10)}
    prof = gamma_profile(MARKOV1, 3)
    assert prof.values[0] == _gamma_oracle(table, 0, 1)
    assert prof.values[0] == 0.5
    assert prof.values[1:] == (0.0, 0.0, 0.0)


def test_gamma_long_memory_exact():
    c, t1, t2 = Fraction(3, 10), Fraction(2, 10), Fraction(1, 10)
    table = {
        (b2, b1): c + t1 * (1 - b1) + t2 * (1 - b2)
        for b1 in (0, 1)
        for b2 in (0, 1)
    }
    prof = gamma_profile(LONGMEM, 3)
    assert prof.values[0] == _gamma_oracle(table, 0, 2)
    assert prof.values[1] == _gamma_oracle(table, 1, 2)
    assert prof.values == (0.5, 0.25, 0.0, 0.0)


def test_gamma_iid_zero():
    assert gamma_profile(IID, 4).values == (0.0,) * 5


def test_gamma_beyond_range_is_zero():
    prof = gamma_profile(MARKOV1, 2)
    assert prof.gamma(10) == 0.0


@given(
    st.lists(st.floats(0.05, 0.95), min_size=4, max_size=4),
)
@settings(max_examples=50)
def test_gamma_monotone_nonincreasing(probs):
    kernel = MarkovKernel(2, tuple(probs))
    prof = gamma_profile(kernel, 4)
    for a, b in zip(prof.values, prof.values[1:]):
        assert b <= a + 1e-12


@st.composite
def decimal_kernels(draw):
    """Markov kernels of order 1..5 and long-memory kernels of depth
    1..5, with parameters given to 4 decimals (denominator below 2^31,
    int64 numerators) or to 10 (denominator at least 2^31, Python ints)."""
    places = draw(st.sampled_from([4, 10]))
    memory = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        probs = np.round(rng.uniform(0.001, 0.999, 1 << memory), places)
        kernel = MarkovKernel(memory, tuple(probs.tolist()))
    else:
        c = round(rng.uniform(0.01, 0.3), places)
        weights = rng.dirichlet(np.ones(memory)) * rng.uniform(0.0, 0.9 - c)
        kernel = LongMemoryKernel(c, tuple(np.round(weights, places).tolist()))
    assume((kernel.denominator >= 2**31) == (places == 10))
    return kernel


@given(decimal_kernels())
@settings(max_examples=60, deadline=None)
def test_gamma_matches_pairwise_enumeration(kernel):
    m = kernel.memory
    table = {int_to_word(c, m): q for c, q in enumerate(prob0_fractions(kernel))}
    prof = gamma_profile(kernel, m + 2)
    for p in (0, m - 1, m, m + 2):
        expected = _gamma_oracle(table, p, m) if p < m else 0.0
        assert prof.values[p] == expected


# ---------------------------------------------------------------------------
# Lower envelopes and the envelope inequality


def test_lower_envelope_brute_force():
    # Oracle: explicit min over all full-memory contexts extending z.
    table = LONGMEM.prob0_table
    for z in [(), (0,), (1,), (0, 1)]:
        exts = [
            ctx
            for ctx in range(4)
            if all(((ctx >> i) & 1) == z[len(z) - 1 - i] for i in range(len(z)))
        ]
        for sym in (0, 1):
            probs = [table[c] if sym == 0 else 1 - table[c] for c in exts]
            assert lower_envelope(LONGMEM, sym, z) == min(probs)


def test_lower_envelope_past_the_memory():
    # A word at least as long as the memory fixes the context: its last
    # m symbols.
    table = LONGMEM.prob0_table
    for z in [(1, 0, 1), (0, 1, 1, 0), (1,) * 70]:
        code = word_to_int(z[-2:])
        assert lower_envelope(LONGMEM, 0, z) == table[code]
        assert lower_envelope(LONGMEM, 1, z) == 1.0 - table[code]


def test_envelope_inequality_all_builtins():
    # a_p(0|z) + a_p(1|z) >= 1 - gamma_p for every context length <= 8.
    for kernel in builtin_kernels().values():
        prof = gamma_profile(kernel, 8)
        for p in range(9):
            for code in range(1 << p):
                z = int_to_word(code, p)
                total = lower_envelope(kernel, 0, z) + lower_envelope(kernel, 1, z)
                assert total >= 1.0 - prof.gamma(p) - 1e-12


# ---------------------------------------------------------------------------
# Context-code arithmetic.  Oracle: loops over every context code.


@pytest.mark.parametrize("k", [1, 2, 3])
def test_push_moves_each_mass_to_its_successors(k):
    bits = 3
    size = 1 << bits
    rng = np.random.default_rng(k)
    law = rng.random((size,) * k)
    step = rng.random((2,) * k + (size,) * k)
    expected = np.zeros_like(law)
    for c in np.ndindex(law.shape):
        for a in np.ndindex((2,) * k):
            succ = tuple(((ci << 1) | ai) & (size - 1) for ci, ai in zip(c, a))
            expected[succ] += step[a + c] * law[c]
    assert np.allclose(push(law, step), expected, rtol=1e-15, atol=0)


@pytest.mark.parametrize("k", [1, 2])
def test_lift_and_marginal_read_the_low_bits(k):
    rng = np.random.default_rng(k)
    table = rng.random((4,) * k)
    lifted = lift(table, 4)
    assert lifted.shape == (16,) * k
    for c in np.ndindex(lifted.shape):
        assert lifted[c] == table[tuple(ci & 3 for ci in c)]
    law = rng.random((16,) * k)
    low = marginal(law, 2)
    expected = np.zeros((4,) * k)
    for c in np.ndindex(law.shape):
        expected[tuple(ci & 3 for ci in c)] += law[c]
    assert low.shape == (4,) * k and np.allclose(low, expected, rtol=1e-15, atol=0)


def test_marginal_adds_as_bincount():
    # Byte for byte the bincount onto the low bits, for every width >= 1.
    law = np.random.default_rng(3).random(1 << 10)
    for bits in range(1, 11):
        low = np.arange(law.size) & ((1 << bits) - 1)
        expected = np.bincount(low, weights=law, minlength=1 << bits)
        assert marginal(law, bits).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Stationary laws.  Oracle: dense linear solve of the balance equations.


def _stationary_oracle(kernel, length):
    size = 1 << length
    mask = size - 1
    P = np.zeros((size, size))
    for ctx in range(size):
        f = conditional_prob(kernel, int_to_word(ctx, length))
        P[ctx, ((ctx << 1) & mask)] += f
        P[ctx, ((ctx << 1) & mask) | 1] += 1.0 - f
    A = np.vstack([P.T - np.eye(size), np.ones(size)])
    b = np.zeros(size + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return pi


def test_stationary_markov1():
    pi = stationary_ctx_vector(MARKOV1, 1)
    # Balance: pi0 = pi0*0.7 + (1-pi0)*0.4  =>  pi0 = 4/7.
    assert pi[0] == pytest.approx(4 / 7, abs=1e-12)
    oracle = _stationary_oracle(MARKOV1, 2)
    pi2 = stationary_ctx_vector(MARKOV1, 2)
    assert np.allclose(pi2, oracle, atol=1e-10)
    assert pi2[0] == pytest.approx(0.4, abs=1e-12)


def test_stationary_word_law_marginalizes():
    law = stationary_ctx_vector(MARKOV1, 2)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    pi1 = stationary_ctx_vector(MARKOV1, 1)
    # The words (0, 0) and (1, 0) end in symbol 0.
    assert law[0b00] + law[0b10] == pytest.approx(pi1[0], abs=1e-12)


def test_stationary_iid():
    pi = stationary_ctx_vector(IID, 3)
    assert np.allclose(pi, 1 / 8, atol=1e-12)


def test_stationary_long_memory_exact():
    # A truncated long-memory kernel is an ordinary order-m chain.
    pi = stationary_ctx_vector(LONGMEM, 2)
    assert np.allclose(pi, _stationary_oracle(LONGMEM, 2), atol=1e-12)
    # Taking expectations of c + sum_p w_p 1(X_{-p} = 0): pi0 = c / (1 - W).
    assert float(pi @ LONGMEM.prob0_table) == pytest.approx(3 / 7, abs=1e-12)


def test_prob0_fractions_decimal_interpretation():
    fr = prob0_fractions(MARKOV1)
    assert fr == [Fraction(7, 10), Fraction(4, 10)]


# ---------------------------------------------------------------------------
# One solve per kernel object


def _count_solves(monkeypatch):
    """Count stationary solves (each reads the table once through
    `prob0_over`) and gamma solves (each builds one GammaProfile)."""
    calls = {"stationary": 0, "gamma": 0}
    prob0_over, profile = kernels_module.Kernel.prob0_over, kernels_module.GammaProfile

    def counted_prob0_over(kernel, length):
        calls["stationary"] += 1
        return prob0_over(kernel, length)

    def counted_profile(values):
        calls["gamma"] += 1
        return profile(values)

    monkeypatch.setattr(kernels_module.Kernel, "prob0_over", counted_prob0_over)
    monkeypatch.setattr(kernels_module, "GammaProfile", counted_profile)
    return calls


def test_second_call_does_not_solve_again(monkeypatch):
    calls = _count_solves(monkeypatch)
    kernel = LongMemoryKernel(0.3, (0.2, 0.1))
    for _ in range(3):
        pi = stationary_ctx_vector(kernel, 2)
        prof = gamma_profile(kernel, 3)
    assert calls == {"stationary": 1, "gamma": 1}
    assert stationary_ctx_vector(kernel, 2) is pi
    assert gamma_profile(kernel, 3) is prof
    # Another argument is another solve.
    stationary_ctx_vector(kernel, 3)
    gamma_profile(kernel, 4)
    assert calls == {"stationary": 2, "gamma": 2}


def test_stationary_law_is_read_only():
    kernel = MarkovKernel(2, (0.7, 0.4, 0.6, 0.2))
    for length in (1, 2, 3):  # marginal, solved and extended lengths
        pi = stationary_ctx_vector(kernel, length)
        with pytest.raises(ValueError, match="read-only"):
            pi[0] = 0.5


def test_equal_kernels_do_not_share_a_solve(monkeypatch):
    calls = _count_solves(monkeypatch)
    a, b = MarkovKernel(1, (0.7, 0.4)), MarkovKernel(1, (0.7, 0.4))
    assert a == b and a is not b
    assert np.array_equal(stationary_ctx_vector(a, 1), stationary_ctx_vector(b, 1))
    assert gamma_profile(a, 2) == gamma_profile(b, 2)
    assert calls == {"stationary": 2, "gamma": 2}


def test_failed_solve_is_not_kept(monkeypatch):
    kernel = MarkovKernel(1, (0.9, 0.2))
    budget = kernels_module._STATIONARY_MAX_ITER
    monkeypatch.setattr(kernels_module, "_STATIONARY_MAX_ITER", 1)
    with pytest.raises(CapExceededError):
        stationary_ctx_vector(kernel, 1)
    with pytest.raises(ValueError):
        gamma_profile(kernel, -1)
    monkeypatch.setattr(kernels_module, "_STATIONARY_MAX_ITER", budget)
    assert stationary_ctx_vector(kernel, 1)[0] == pytest.approx(2 / 3, abs=1e-12)
