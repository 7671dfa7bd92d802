import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledchains.kernels import (
    IIDKernel,
    MarkovKernel,
    builtin_kernels,
    push,
    stationary_ctx_vector,
)
from coupledchains.vershik import (
    CouplingEngine,
    MetricTable,
    alpha_sequence,
    alpha_sequence_mc,
    alpha_sup_bound,
    coupling_table,
    generator_table,
    lambda_sign,
    metric_tables,
    pair_counts,
    rho_step,
)
from coupledchains.rng import _BLOCK, stream_rng
from coupledchains.words import word_to_int

MARKOV1 = builtin_kernels()["markov1-demo"]
IID = IIDKernel(0.5)


# ---------------------------------------------------------------------------
# Truncated generator


def truncated_generator(word_int, depth):
    """R_D of the past whose present symbol is bit 0 of word_int, added
    up lag by lag, left to right, in plain Python."""
    total = 0.0
    for n in range(depth + 1):
        total += 3.0 ** (-n) * ((word_int >> n) & 1)
    return total


def test_generator_values():
    # R_D = sum over lags 0..D of 3^-lag * symbol.
    gen = generator_table(2)
    assert gen[0b1] == 1.0
    assert gen[0b10] == pytest.approx(1 / 3)
    assert gen[0b111] == pytest.approx(1 + 1 / 3 + 1 / 9)


def test_generator_separation():
    # If the pasts first differ at lag k, the deeper lags can cancel at
    # most half of that term: |R - R'| >= 3^-k / 2 > 0.
    gen = generator_table(6)
    for a in range(16):
        for b in range(16):
            if a == b:
                continue
            diff = a ^ b
            k = (diff & -diff).bit_length() - 1  # most recent differing lag
            assert abs(gen[a] - gen[b]) >= 3.0**-k / 2 - 1e-12


def test_generator_table_matches_explicit_loop():
    # Oracle: R_D added up lag by lag, left to right, in plain Python;
    # the table must hold these bytes under every Python version.
    for depth in range(1, 8):
        loop = [truncated_generator(w, depth) for w in range(1 << (depth + 1))]
        table = generator_table(depth)
        assert table.tobytes() == np.array(loop).tobytes()
        assert not table.flags.writeable
        assert generator_table(depth) is table  # built once per depth


def test_truncation_error_bound():
    # sup over pasts of |R - R_D| is the all-ones tail sum_{n > D} 3^-n
    # = 3^-D / 2; lags past 40 add less than 3^-40.
    ones = (1 << 41) - 1
    for depth in range(1, 8):
        tail = truncated_generator(ones, 40) - truncated_generator(ones, depth)
        assert tail == pytest.approx(3.0**-depth / 2, rel=1e-12)


# ---------------------------------------------------------------------------
# Optimal couplings.  Oracle: brute-force scan of the one-parameter
# transport family.


def _coupling_cost_oracle(f, g, costs, grid=2001):
    lo = max(0.0, f + g - 1.0)
    hi = min(f, g)
    best = np.inf
    for d00 in np.linspace(lo, hi, grid):
        table = np.array(
            [[d00, f - d00], [g - d00, 1.0 - f - g + d00]]
        )
        best = min(best, float(np.sum(table * costs)))
    return best


def test_coupling_optimal_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        f, g = rng.uniform(0.05, 0.95, 2)
        costs = rng.uniform(0.0, 1.0, (2, 2))
        table = coupling_table(f, g, lambda_sign(costs))
        # Marginals reproduced.
        assert np.allclose(table.sum(axis=1), [f, 1 - f], atol=1e-12)
        assert np.allclose(table.sum(axis=0), [g, 1 - g], atol=1e-12)
        # Cost optimal over the whole family.
        assert np.sum(table * costs) <= _coupling_cost_oracle(f, g, costs) + 1e-9


def test_coupling_tables_known_values():
    mono = coupling_table(0.7, 0.4, -1)
    assert np.allclose(mono, [[0.4, 0.3], [0.0, 0.3]], atol=1e-12)
    anti = coupling_table(0.7, 0.4, 1)
    assert np.allclose(anti, [[0.1, 0.6], [0.3, 0.0]], atol=1e-12)


def test_lambda_sign_cases():
    assert lambda_sign(np.array([[1.0, 0.0], [0.0, 1.0]])) == 1
    assert lambda_sign(np.array([[0.0, 1.0], [1.0, 0.0]])) == -1
    assert lambda_sign(np.zeros((2, 2))) == -1  # tie -> monotone
    # Broadcast over a grid of cost tables, many of them exact ties
    # (c00 + c11 == c01 + c10): each entry is the scalar call's.
    grid = np.array(list(itertools.product([0.0, 0.25, 0.5, 1.0], repeat=4)))
    costs = grid.T.reshape(2, 2, 16, 16)
    signs = lambda_sign(costs)
    assert signs.shape == (16, 16) and signs.dtype == np.int8
    for i in np.ndindex(signs.shape):
        assert signs[i] == lambda_sign(costs[(...,) + i])
    ties = costs[0, 0] + costs[1, 1] == costs[0, 1] + costs[1, 0]
    assert ties.any() and np.all(signs[ties] == -1)
    assert set(np.unique(signs)) == {-1, 1}


def test_lambda_sign_ties_within_rounding_are_monotone():
    # c00 + c11 - c01 - c10 is 0 in exact arithmetic and 2^-54 in floats.
    costs = np.array([[0.1 + 0.2, 0.3], [0.3, 0.3]])
    assert costs[0, 0] + costs[1, 1] - costs[0, 1] - costs[1, 0] > 0
    assert lambda_sign(costs) == -1
    # A difference above the rounding of the costs still picks antitone.
    costs[0, 0] += 1e-14
    assert lambda_sign(costs) == 1


def test_monotone_kernel_has_no_antitone_depth():
    # P(0 | past) is non-increasing in every past symbol, so the monotone
    # (same-uniform) coupling is optimal at every depth.  With ties left
    # to rounding noise, depths 4 and 5 came out antitone at generator
    # depth 2.
    kernel = MarkovKernel(5, (0.93,) * 16 + (0.9,) + (0.88,) * 15)
    engine = CouplingEngine.build(kernel, 30, 2)
    for p in range(1, 31):
        assert engine.table(p).flip is None, p
        assert np.all(engine.table(p).orientation == -1), p


def test_equal_marginals_monotone_is_diagonal():
    mono = coupling_table(0.6, 0.6, -1)
    assert mono[0, 1] == 0.0 and mono[1, 0] == 0.0


# ---------------------------------------------------------------------------
# Metric recursion.  Oracle: direct recursive definition with the inf
# approximated by a dense scan over both coupling families.


def at_length(table, entries=None):
    """`entries` (default the values) of `table` at every pair of L-bit
    codes: the stored table gathered from the low bits each code reads."""
    low = np.arange(1 << table.length) & table.mask
    return (table.values if entries is None else entries)[np.ix_(low, low)]


def _rho_oracle(kernel, gen_depth, length, depth, u, v, grid=401):
    if depth == 0:
        gmask = (1 << (gen_depth + 1)) - 1
        gen = generator_table(gen_depth)
        return abs(gen[u & gmask] - gen[v & gmask])
    mask = (1 << length) - 1
    f = kernel.prob0_table[u & ((1 << kernel.memory) - 1)] if kernel.memory else kernel.prob0_table[0]
    g = kernel.prob0_table[v & ((1 << kernel.memory) - 1)] if kernel.memory else kernel.prob0_table[0]
    succ = {
        (a, b): _rho_oracle(
            kernel, gen_depth, length, depth - 1,
            ((u << 1) | a) & mask, ((v << 1) | b) & mask, grid,
        )
        for a in (0, 1)
        for b in (0, 1)
    }
    lo, hi = max(0.0, f + g - 1.0), min(f, g)
    best = np.inf
    for d00 in np.linspace(lo, hi, grid):
        cost = (
            d00 * succ[(0, 0)]
            + (f - d00) * succ[(0, 1)]
            + (g - d00) * succ[(1, 0)]
            + (1 - f - g + d00) * succ[(1, 1)]
        )
        best = min(best, cost)
    return best


def test_metric_matches_recursive_oracle_iid():
    tables = metric_tables(IID, 2, 2)
    L = tables[0].length
    for depth in (0, 1, 2):
        values = at_length(tables[depth])
        for u in range(1 << L):
            for v in range(1 << L):
                oracle = _rho_oracle(IID, 2, L, depth, u, v)
                assert values[u, v] == pytest.approx(
                    oracle, abs=1e-6
                )


def test_metric_matches_recursive_oracle_markov():
    tables = metric_tables(MARKOV1, 2, 2)
    L = tables[0].length
    rng = np.random.default_rng(5)
    pairs = rng.integers(0, 1 << L, size=(40, 2))
    for depth in (1, 2):
        values = at_length(tables[depth])
        for u, v in pairs:
            oracle = _rho_oracle(MARKOV1, 2, L, depth, int(u), int(v))
            assert values[u, v] == pytest.approx(oracle, abs=1e-6)


def test_depth_one_forgets_most_recent_symbol():
    # Once one step has been averaged out, the distance between pasts
    # differing only beyond that step is the remaining generator gap.
    # The table of depth p reads full pasts coded up to the present at
    # their codes shifted right by p.
    table = metric_tables(IID, 1, 2)[1]

    def rho_tilde(x, y):
        return table.values[(x >> 1) & table.mask, (y >> 1) & table.mask]

    x = word_to_int((0, 0, 0))
    y = word_to_int((0, 1, 1))
    assert rho_tilde(x, y) == pytest.approx(1 / 3, abs=1e-12)
    # Pasts differing only in the most recent symbol have distance 0.
    assert rho_tilde(0b000, 0b001) == 0.0


def test_metric_axioms():
    tables = metric_tables(MARKOV1, 3, 3)
    for t in tables:
        assert np.allclose(t.values, t.values.T, atol=1e-14)
        assert np.allclose(np.diag(t.values), 0.0, atol=1e-14)
        assert np.all(t.values >= -1e-15)


def test_metric_sup_decay_iid():
    # For context-free kernels the depth-p table only sees lags >= p.
    tables = metric_tables(IID, 4, 4)
    for p, t in enumerate(tables):
        assert t.values.max() <= sum(3.0**-n for n in range(p, 5)) + 1e-12


# ---------------------------------------------------------------------------
# Alpha sequence


def test_alpha_exact_vs_monte_carlo():
    exact = alpha_sequence(MARKOV1, 4, 4)
    mc = alpha_sequence_mc(MARKOV1, 4, 40_000, 9, 4)
    for a, b, se in zip(exact.values, mc.values, mc.stderr):
        assert abs(a - b) <= 4 * se + 1e-12


def reduce_by_counts(table, xs, ys):
    """The counts rule over the whole sample: one np.bincount of every
    pair code (x << L) | y, then the mean and the ddof=1 standard error
    of the table's entries from the counts."""
    L = table.length
    values = at_length(table).ravel()
    counts = np.bincount((xs << L) | ys, minlength=values.size)
    n = xs.size
    mean = float(np.sum(counts * values)) / n
    dev = values - mean
    var = float(np.sum(counts * (dev * dev))) / (n - 1)
    return mean, math.sqrt(var) / math.sqrt(n)


def test_alpha_monte_carlo_matches_table_index():
    # Oracle: the sampled context pairs drawn whole, reduced by counts.
    kernel = builtin_kernels()["long-memory-demo"]
    mc = alpha_sequence_mc(kernel, 5, 30_001, 11, 4)
    tables = metric_tables(kernel, 5, 4)
    pi = stationary_ctx_vector(kernel, tables[0].length)
    rng = stream_rng(11, "alpha-mc", kernel.label)
    xs = rng.choice(pi.size, p=pi, size=30_001)
    ys = rng.choice(pi.size, p=pi, size=30_001)
    for t, value, err in zip(tables, mc.values, mc.stderr, strict=True):
        assert (value, err) == reduce_by_counts(t, xs, ys)


def test_alpha_iid_brackets():
    seq = alpha_sequence(IID, 4, 6)
    for p, a in enumerate(seq.values):
        assert 3.0**-p / 4 <= a <= 1.5 * 3.0**-p
        assert a <= alpha_sup_bound(6, p) + 1e-12


def test_alpha_markov_decays():
    seq = alpha_sequence(MARKOV1, 8, 6)
    assert seq.values[8] / seq.values[0] < 0.05


# ---------------------------------------------------------------------------
# rho_step at the effective context length.  Oracle: the full-length
# step on the whole 2^L x 2^L table.


def reference_rho_step(kernel, table: MetricTable) -> MetricTable:
    length = table.length
    size = 1 << length
    mask = size - 1
    idx = np.arange(size)
    succ0 = (idx << 1) & mask
    succ1 = succ0 | 1
    old = table.values
    c00 = old[np.ix_(succ0, succ0)]
    c01 = old[np.ix_(succ0, succ1)]
    c10 = old[np.ix_(succ1, succ0)]
    c11 = old[np.ix_(succ1, succ1)]
    f = kernel.prob0_over(length)
    fu = f[:, None]
    gv = f[None, :]
    orient_stat = c00 + c11 - c01 - c10
    # Differences within the rounding of the costs are ties (monotone).
    tie = 4 * np.finfo(float).eps * (c00 + c11 + c01 + c10)
    orientation = np.where(orient_stat <= tie, -1, 1).astype(np.int8)
    d00 = np.minimum(fu, gv)
    mono = (
        d00 * c00
        + (fu - d00) * c01
        + (gv - d00) * c10
        + (1.0 - fu - gv + d00) * c11
    )
    anti = (
        np.maximum(fu + gv - 1.0, 0.0) * c00
        + np.minimum(fu, 1.0 - gv) * c01
        + np.minimum(1.0 - fu, gv) * c10
        + np.maximum(1.0 - fu - gv, 0.0) * c11
    )
    values = np.where(orientation == -1, mono, anti)
    return MetricTable(table.depth + 1, length, values, orientation)


def assert_tables_match_reference(kernel, depth, p_max):
    tables = metric_tables(kernel, p_max, depth)
    ref = tables[0]
    L = ref.length
    for table in tables[1:]:
        ref = reference_rho_step(kernel, ref)
        assert (table.depth, table.length) == (ref.depth, ref.length)
        # Stored at e_p = max(L - p, m, 1) bits, read at L bits.
        bits = max(L - table.depth, kernel.memory, 1)
        assert table.values.shape == table.orientation.shape == (1 << bits,) * 2
        assert at_length(table).tobytes() == ref.values.tobytes()
        assert (at_length(table, table.orientation).tobytes()
                == ref.orientation.tobytes())


ORDER3 = MarkovKernel.from_table(3, {
    "000": 0.7, "001": 0.45, "010": 0.6, "011": 0.35,
    "100": 0.65, "101": 0.4, "110": 0.55, "111": 0.3,
})


@pytest.mark.parametrize("trials", [2, 65535, 65536, 65537, 300_007])
@pytest.mark.parametrize("kernel, depth", [(IID, 3), (ORDER3, 7)],
                         ids=["iid-1-byte-codes", "order3-2-byte-codes"])
def test_alpha_monte_carlo_matches_whole_array_reference(kernel, depth, trials):
    # Oracle: the x and then the y contexts drawn whole by Generator.choice
    # and reduced by counts; trial counts on both sides of a draw block.
    mc = alpha_sequence_mc(kernel, 4, trials, 13, depth)
    tables = metric_tables(kernel, 4, depth)
    pi = stationary_ctx_vector(kernel, tables[0].length)
    rng = stream_rng(13, "alpha-mc", kernel.label)
    xs = rng.choice(pi.size, p=pi, size=trials)
    ys = rng.choice(pi.size, p=pi, size=trials)
    for t, value, err in zip(tables, mc.values, mc.stderr, strict=True):
        assert (value, err) == reduce_by_counts(t, xs, ys)


def test_pair_counts_match_one_bincount():
    # Blocks of uneven sizes, past _BLOCK codes in total: the counts are
    # those of one bincount over every pair code.
    rng = np.random.default_rng(11)
    L = 3
    sizes = [1, 8192, _BLOCK, 5, _BLOCK - 6, 30_000, 0]
    blocks = [(rng.integers(0, 1 << L, n), rng.integers(0, 1 << L, n)) for n in sizes]
    counts = pair_counts(iter(blocks), L)
    codes = np.concatenate([(x << L) | y for x, y in blocks])
    assert counts.tolist() == np.bincount(codes, minlength=1 << 2 * L).tolist()


def test_count_summary_matches_exact_sample_mean():
    # The counts rule against the exact rational mean and standard error
    # of the same samples, each sample a float read from a table.
    kernel = ORDER3
    trials = 20_011
    mc = alpha_sequence_mc(kernel, 4, trials, 17, 7)
    tables = metric_tables(kernel, 4, 7)
    pi = stationary_ctx_vector(kernel, tables[0].length)
    rng = stream_rng(17, "alpha-mc", kernel.label)
    xs = rng.choice(pi.size, p=pi, size=trials)
    ys = rng.choice(pi.size, p=pi, size=trials)
    for t, value, err in zip(tables, mc.values, mc.stderr, strict=True):
        samples = [Fraction(v) for v in at_length(t)[xs, ys].tolist()]
        mean = sum(samples) / trials
        var = sum((v - mean) ** 2 for v in samples) / (trials - 1)
        assert abs(value - mean) <= 1e-15 * mean
        assert abs(err - math.sqrt(var / trials)) <= 1e-15 * err


@pytest.mark.parametrize(
    "kernel, depth, p_max",
    [
        (ORDER3, 7, 40),
        (MARKOV1, 7, 13),
        (builtin_kernels()["long-memory-demo"], 6, 12),
        (IID, 5, 10),  # m = 0
        # m = L = 6 > D + 1: the step never shrinks.
        (MarkovKernel(6, tuple(np.linspace(0.05, 0.95, 64).round(4))), 4, 6),
    ],
)
def test_rho_step_matches_full_length_step(kernel, depth, p_max):
    assert_tables_match_reference(kernel, depth, p_max)


@settings(max_examples=30, deadline=None)
@given(
    order=st.integers(1, 6),
    depth=st.integers(1, 7),
    p_max=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_rho_step_matches_full_length_step_drawn(order, depth, p_max, seed):
    rng = np.random.default_rng(seed)
    probs = np.round(rng.uniform(0.01, 0.99, 1 << order), 4)
    kernel = MarkovKernel(order, tuple(probs.tolist()))
    assert_tables_match_reference(kernel, depth, p_max)


def test_rho_step_increments_depth():
    tables = metric_tables(MARKOV1, 1, 3)
    t2 = rho_step(MARKOV1, tables[1])
    assert t2.depth == 2
    assert t2.orientation is not None


# ---------------------------------------------------------------------------
# The diagonal and the flip tables.  Equal pasts are coupled on the
# diagonal at every depth, which the stitch replay relies on.


@settings(max_examples=30, deadline=None)
@given(
    order=st.integers(1, 6),
    depth=st.integers(1, 7),
    p_max=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_metric_table_diagonal_is_zero_and_monotone(order, depth, p_max, seed):
    rng = np.random.default_rng(seed)
    probs = np.round(rng.uniform(0.01, 0.99, 1 << order), 4)
    kernel = MarkovKernel(order, tuple(probs.tolist()))
    tables = metric_tables(kernel, p_max, depth)
    assert np.all(np.diag(tables[0].values) == 0.0)
    for t in tables[1:]:
        assert np.all(np.diag(t.values) == 0.0)
        assert np.all(np.diag(t.orientation) == -1)


def test_flip_table_marks_antitone_entries():
    values = np.zeros((4, 4))
    orientation = np.full((4, 4), -1, dtype=np.int8)
    assert MetricTable(1, 2, values, orientation).flip is None
    assert MetricTable(0, 2, values, None).flip is None
    # One antitone entry is enough for a flip table, at pair code
    # (u << length) | v.
    orientation[2, 1] = 1
    table = MetricTable(1, 2, values, orientation)
    flip = table.flip
    assert flip is not None and flip is table.flip
    assert flip.dtype == bool and np.flatnonzero(flip).tolist() == [(2 << 2) | 1]
    # A table stored at fewer bits than its length expands to the L-bit
    # pair code: the antitone entry (1, 0) on the low bit covers every
    # pair u = 1, 3 and v = 0, 2.
    orientation = np.array([[-1, -1], [1, -1]], dtype=np.int8)
    flip = MetricTable(1, 2, np.zeros((2, 2)), orientation).flip
    assert flip.size == 16
    assert np.flatnonzero(flip).tolist() == [(1 << 2) | 0, (1 << 2) | 2,
                                             (3 << 2) | 0, (3 << 2) | 2]


# ---------------------------------------------------------------------------
# alpha at the stored bits.  Oracle: math.fsum over every pair of L-bit
# contexts of pi(u) pi(v) T_p(u, v), the table gathered to L bits.


@settings(max_examples=30, deadline=None)
@given(
    order=st.integers(1, 6),
    depth=st.integers(1, 7),
    p_max=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_alpha_matches_fsum_over_full_tables(order, depth, p_max, seed):
    rng = np.random.default_rng(seed)
    probs = np.round(rng.uniform(0.01, 0.99, 1 << order), 4)
    kernel = MarkovKernel(order, tuple(probs.tolist()))
    engine = CouplingEngine.build(kernel, p_max, depth)
    outer = engine.pi[:, None] * engine.pi[None, :]
    for p in range(p_max + 1):
        exact = math.fsum((outer * at_length(engine.table(p))).ravel())
        assert abs(engine.alpha(p) - exact) <= 1e-14 * exact


def test_alpha_sequence_memory_stays_at_stored_bits():
    # 41 tables of the order-3 kernel at L = 8: tiled out to 256 x 256
    # they held 24 MiB; at their stored bits, all but five are 8 x 8.
    alpha_sequence(ORDER3, 1, 7)  # warm the caches
    tracemalloc.start()
    try:
        alpha_sequence(ORDER3, 40, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


# ---------------------------------------------------------------------------
# Same-uniform alpha.  Oracle: pi x pi pushed p steps by the joint law of
# two chains thresholding one uniform and integrated against T_0.  The
# metric recursion takes the cheaper of the two extreme couplings at
# every step, so alpha_p is at most this value; on a monotone kernel
# (P(0 | past) non-increasing in every past symbol) it takes the
# same-uniform one at every step, so the two are equal up to rounding.

ULPS = 16 * np.finfo(float).eps


def same_u_alpha(engine, p_max):
    f, g = engine.prob0[:, None], engine.prob0[None, :]
    # X = 0 on u <= f and X-hat = 0 on u <= g: entry [a, b] is the length
    # of the u-interval on which (X, X-hat) = (a, b).
    step = np.array([[np.minimum(f, g), np.maximum(f - g, 0.0)],
                     [np.maximum(g - f, 0.0), 1.0 - np.maximum(f, g)]])
    law = engine.pi[:, None] * engine.pi[None, :]
    values = []
    for _ in range(p_max + 1):
        values.append(float(np.sum(law * engine.table(0).values)))
        law = push(law, step)
    return values


def monotone_kernel(order, seed):
    """Each entry of the table is the least entry of a random table over
    the contexts whose set bits it contains, so P(0 | past) does not
    grow when a past symbol turns from 0 to 1."""
    probs = np.round(np.random.default_rng(seed).uniform(0.01, 0.99, 1 << order), 4)
    for bit in range(order):
        for c in range(1 << order):
            if c >> bit & 1:
                probs[c] = min(probs[c], probs[c ^ (1 << bit)])
    return MarkovKernel(order, tuple(probs.tolist()))


def assert_same_u_alpha(kernel, depth, p_max):
    engine = CouplingEngine.build(kernel, p_max, depth)
    assert all(engine.table(p).flip is None for p in range(p_max + 1))
    for p, same in enumerate(same_u_alpha(engine, p_max)):
        assert abs(engine.alpha(p) - same) <= ULPS * same, p


@pytest.mark.parametrize("name, depth", [("markov1-demo", 3), ("order-3", 5),
                                         ("long-memory-demo", 7)])
def test_alpha_is_same_u_alpha_on_demo_kernels(name, depth):
    kernel = ORDER3 if name == "order-3" else builtin_kernels()[name]
    assert_same_u_alpha(kernel, depth, 24)


@settings(max_examples=40, deadline=None)
@given(
    order=st.integers(1, 5),
    depth=st.integers(2, 6),
    p_max=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
)
def test_alpha_is_same_u_alpha_on_monotone_kernels(order, depth, p_max, seed):
    assert_same_u_alpha(monotone_kernel(order, seed), depth, p_max)


@settings(max_examples=40, deadline=None)
@given(
    order=st.integers(1, 5),
    depth=st.integers(2, 6),
    p_max=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
)
def test_alpha_at_most_same_u_alpha(order, depth, p_max, seed):
    probs = np.round(np.random.default_rng(seed).uniform(0.01, 0.99, 1 << order), 4)
    engine = CouplingEngine.build(MarkovKernel(order, tuple(probs.tolist())),
                                  p_max, depth)
    for p, same in enumerate(same_u_alpha(engine, p_max)):
        assert engine.alpha(p) <= same * (1 + ULPS), p


def test_same_u_alpha_above_alpha_on_antitone_kernel():
    # The oracle can tell the couplings apart: on a kernel with antitone
    # tables the optimal coupling beats the same-uniform one by 4-8%.
    kernel = MarkovKernel.from_table(3, {
        "000": 0.8, "001": 0.2, "010": 0.65, "011": 0.35,
        "100": 0.3, "101": 0.7, "110": 0.25, "111": 0.6,
    })
    engine = CouplingEngine.build(kernel, 8, 5)
    same = same_u_alpha(engine, 8)
    assert all(same[p] > 1.04 * engine.alpha(p) for p in range(2, 9))
