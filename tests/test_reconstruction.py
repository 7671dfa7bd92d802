import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coupledchains.innovation import decode_xv, encode_w
from coupledchains.kernels import (
    CapExceededError,
    IIDKernel,
    Kernel,
    LongMemoryKernel,
    MAX_MEMORY_DEPTH,
    MarkovKernel,
    builtin_kernels,
    gamma_profile,
)
from coupledchains.reconstruction import (
    CHUNK,
    WARM,
    _scan,
    _stationary_start,
    advance,
    disagreement_experiment,
    house_of_cards_dist,
    reconstruction_bound,
    simulate_path,
    window_reconstruct,
)
from coupledchains.rng import _BLOCK, _QUARTER, stream_rng

MARKOV1 = builtin_kernels()["markov1-demo"]
IID = builtin_kernels()["iid-half"]
# The depth-12 kernel of the benchmark's long-memory audit.
LONG_MEMORY_12 = LongMemoryKernel(
    0.3, (0.1, 0.08, 0.06, 0.05, 0.04, 0.03, 0.02, 0.02, 0.01, 0.01, 0.01, 0.01)
)
# The depth-16 kernel of the scaled audit: its slow-mixing contexts
# leave hundreds of a block's chunks stale after the speculation.
LONG_MEMORY_16 = LongMemoryKernel(
    0.05, (0.3, 0.15, 0.1, 0.08, 0.06, 0.05, 0.04, 0.03,
           0.02, 0.02, 0.02, 0.01, 0.01, 0.01, 0.005, 0.005)
)
PERSISTENT = MarkovKernel(1, (0.999, 0.001))


# ---------------------------------------------------------------------------
# The speculative scan.  Oracle: the chain stepped one symbol at a time.


def serial_advance(kernel, ctx, u):
    """The symbols (uint8) and the context before each step (uint16)."""
    table = kernel.prob0_table.tolist()
    mask = len(table) - 1
    ctx &= mask
    u = np.ascontiguousarray(u, dtype=float)
    x = np.empty(u.size, dtype=np.uint8)
    c = np.empty(u.size, dtype=np.uint16)
    for t, ut in enumerate(memoryview(u)):
        c[t] = ctx
        xt = ut > table[ctx]
        x[t] = xt
        ctx = ((ctx << 1) | xt) & mask
    return x, c


def assert_matches_serial(kernel, ctx, u):
    got = advance(kernel, ctx, u)
    for a, ref in zip(got, serial_advance(kernel, ctx, u)):
        assert a.dtype == ref.dtype and a.tobytes() == ref.tobytes()


# Markov draws stop at order 12: a full table of 2^16 rationals costs
# test time and covers no other code.
MAX_DRAWN_MARKOV_ORDER = 12


@st.composite
def kernels(draw):
    """Kernels of memory 0..16: iid, Markov up to order 12, and long
    memory up to the depth cap, with tables drawn from a seed."""
    memory = draw(st.integers(0, MAX_MEMORY_DEPTH))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if memory == 0:
        return IIDKernel(round(rng.uniform(0.01, 0.99), 4))
    if memory <= MAX_DRAWN_MARKOV_ORDER and draw(st.booleans()):
        probs = np.round(rng.uniform(0.001, 0.999, 1 << memory), 4)
        return MarkovKernel(memory, tuple(probs.tolist()))
    c = round(rng.uniform(0.01, 0.3), 4)
    weights = rng.dirichlet(np.ones(memory)) * rng.uniform(0.0, 0.9 - c)
    return LongMemoryKernel(c, tuple(np.round(weights, 4).tolist()))


stream_lengths = st.one_of(
    st.integers(0, 2 * CHUNK - 1),
    st.integers(2, 6).map(lambda k: k * CHUNK),
    st.integers(2 * CHUNK, 6 * CHUNK),
)


@given(kernels(), st.integers(0, 2**70), stream_lengths,
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_advance_matches_serial_loop(kernel, ctx, steps, seed):
    # Start contexts wider than the mask are cut to the kernel memory.
    u = np.random.default_rng(seed).random(steps)
    assert_matches_serial(kernel, ctx, u)


def scan(kernel, ctx, u):
    """_scan over one block `u`: (exit context, steps repaired)."""
    x, c = np.empty(u.size, dtype=np.uint8), np.empty(u.size, dtype=np.uint16)
    table = kernel.prob0_table
    return _scan(table, table.tolist(), ctx, u, x, c)


# The seams between chunks are checked at once, and a chunk is re-run
# when its recorded entry differs from the recorded exit of the chunk
# before, or when the repair of that chunk ran to its end without
# meeting and hands on its own exit.  Under PERSISTENT two pasts rarely
# meet, so repairs carry their exits across many seams; under
# LONG_MEMORY_16 more than CHUNK chunks of a block are stale, so they
# are first re-run at once.  The lengths cover the shortest speculated
# stream, a block's edges, and a last block of 2 CHUNK - 1 steps, short
# enough to run serially.
@given(st.one_of(kernels(), st.sampled_from([PERSISTENT, LONG_MEMORY_16])),
       st.integers(0, 2**70),
       st.sampled_from([2 * CHUNK - 1, 2 * CHUNK + 1, _BLOCK - 1, _BLOCK + 1,
                        2 * _BLOCK + 2 * CHUNK - 1]),
       st.integers(0, 2**32 - 1))
@example(PERSISTENT, 1, _BLOCK + 1, 0)
@example(PERSISTENT, 0, 2 * _BLOCK + 2 * CHUNK - 1, 1)
@example(LONG_MEMORY_16, 3, 2 * _BLOCK + 2 * CHUNK - 1, 2)
@example(LONG_MEMORY_12, 5, 2 * _BLOCK + 2 * CHUNK - 1, 0)
@settings(max_examples=20, deadline=None)
def test_scan_seams_match_serial_loop(kernel, ctx, steps, seed):
    u = np.random.default_rng(seed).random(steps)
    assert_matches_serial(kernel, ctx, u)


def test_advance_memory_holds_its_outputs():
    # Beyond the symbols (1 byte a step) and the contexts (2 bytes), the
    # lockstep pass stages one block of _BLOCK steps in transposed
    # buffers of _BLOCK values each.
    steps = 4 * 10**6
    u = np.random.default_rng(33).random(steps)
    tracemalloc.start()
    try:
        advance(LONG_MEMORY_12, 0, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * steps + 2 * 2**20, peak


def test_advance_rejects_contexts_wider_than_16_bits():
    # The scan records each context as uint16; a wider one would wrap.
    kernel = Kernel(17, "raw-17", (1,) * (1 << 17), 2)
    with pytest.raises(CapExceededError):
        advance(kernel, 0, np.full(10, 0.5))


@pytest.mark.parametrize("shape", [(3, 200), (2, 1, 4)])
def test_advance_rejects_streams_that_are_not_1d(shape):
    # A (3, 200) stream used to fail inside the scan, in a reshape to
    # chunks that named neither the stream nor its shape.
    u = np.full(shape, 0.5)
    for run in (advance, lambda kernel, ctx, w: window_reconstruct(kernel, w, ctx)):
        with pytest.raises(ValueError, match=re.escape(f"1-D, not of shape {shape}")):
            run(MARKOV1, 0, u)


@pytest.mark.parametrize("ctx", [0, 1])
def test_advance_persistent_kernel(ctx):
    # Two pasts rarely meet under this kernel, so many repairs run to
    # the end of their chunk and hand on their own exit.
    u = np.random.default_rng(31).random(100 * CHUNK + 3)
    assert_matches_serial(PERSISTENT, ctx, u)
    assert scan(PERSISTENT, ctx, u)[1] / 99 > CHUNK / 10


def test_repair_within_renewal_bound():
    # A repair runs until the true and speculated chains share their
    # last m symbols, which fails n steps into a chunk, WARM + n steps
    # after the speculation started, with probability at most
    # P(Z_{WARM + n} < m) for the reset chain Z.  So the mean repair per
    # chunk is at most sum_{n < CHUNK} P(Z_{WARM + n} < m): about 49 at
    # depth 12.
    kernel = LONG_MEMORY_12
    m = kernel.memory
    gammas = gamma_profile(kernel, m).values
    bound = sum(np.sum(house_of_cards_dist(gammas, WARM + n)[:m]) for n in range(CHUNK))
    chunks = _BLOCK // CHUNK
    u = np.random.default_rng(32).random(chunks * CHUNK)
    mean_repair = scan(kernel, 0, u)[1] / (chunks - 1)
    assert 0 < mean_repair <= bound
    assert_matches_serial(kernel, 0, u)


# ---------------------------------------------------------------------------
# Simulation and replay


def whole_stream_path(kernel, steps, seed):
    """simulate_path's draws made whole: the start context, then u =
    rng.random(steps), then v = rng.random(steps); the serial chain over
    u and one encoding of the whole stream.  The symbols come back as
    int64 and f as float64, the dtypes PathSample exposes."""
    rng = stream_rng(seed, "simulate", kernel.label)
    init_ctx = int(_stationary_start(kernel, rng))
    u = rng.random(steps)
    v = rng.random(steps)
    x, c = serial_advance(kernel, init_ctx, u)
    f = kernel.prob0_table[c]
    return x.astype(np.int64), encode_w(x, v, f), f, init_ctx


# Serial and speculated scans, several chunks, the edges of the encoded
# pieces and of the blocks, a last block of 2 CHUNK - 1 steps, short
# enough to run serially, and paths of several blocks.
@pytest.mark.parametrize("steps", [100, 2 * CHUNK - 1, 2 * CHUNK + 1, 1023, 1025,
                                   2047, 2049, _QUARTER - 1, _QUARTER + 1,
                                   _BLOCK - 1, _BLOCK + 1,
                                   2 * _BLOCK + 2 * CHUNK - 1, 3 * _BLOCK + 5,
                                   2**18 - 1, 2**18 + 1, 2 * 2**18 + 1023])
@pytest.mark.parametrize("kernel", [LONG_MEMORY_12, PERSISTENT, IIDKernel(0.3)],
                         ids=["long-memory-12", "persistent", "iid"])
def test_simulate_path_matches_whole_stream_draws(kernel, steps):
    # Each block is scanned from the context the block before left and
    # encoded in place, its v drawn as it is encoded: the same path, f
    # values and innovations as the whole draw, byte for byte, and the
    # blocks put together are the arrays read whole.
    sample = simulate_path(kernel, steps, 19)
    blocks = [tuple(a.copy() for a in block) for block in sample.blocks()]
    assert [b[0].size for b in blocks[:-1]] == [_BLOCK] * (len(blocks) - 1)
    for got, whole in zip(zip(*blocks), (sample.w, sample.symbols, sample.contexts)):
        joined = np.concatenate(got)
        assert joined.dtype == whole.dtype and joined.tobytes() == whole.tobytes()
    x, w, f, init_ctx = whole_stream_path(kernel, steps, 19)
    assert sample.init_ctx == init_ctx
    for got, ref in ((sample.x, x), (sample.w, w), (sample.f, f)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_simulate_path_memory_holds_its_outputs():
    # Read whole, w takes 8 bytes a step, the symbols 1 and the contexts
    # 2; everything else is block-sized: each block is simulated over its
    # slices of the three arrays, the innovations overwrite u as v is
    # drawn and f looked up _QUARTER steps at a time, and the
    # speculative pass stages its (chunks, CHUNK) view in buffers of
    # _BLOCK values.
    steps = 10**6
    tracemalloc.start()
    try:
        simulate_path(LONG_MEMORY_12, steps, 7).w
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * steps + 4 * 2**20, peak


def test_simulated_path_matches_decoder():
    # The innovation stream is a genuine encoding: decoding W with the
    # realized conditional probabilities returns the symbols exactly.
    sample = simulate_path(MARKOV1, 500, 11)
    x, _ = decode_xv(sample.w, sample.f)
    assert np.array_equal(x, sample.x)


def test_replay_with_true_context_is_identity():
    sample = simulate_path(MARKOV1, 300, 12)
    xhat = window_reconstruct(MARKOV1, sample.w, start_ctx=sample.init_ctx)
    assert np.array_equal(xhat, sample.x)


def test_replay_iid_is_context_free():
    sample = simulate_path(IID, 300, 13)
    xhat = window_reconstruct(IID, sample.w, start_ctx=0)
    assert np.array_equal(xhat, sample.x)


# ---------------------------------------------------------------------------
# Reset chain.  Oracle: dense transition-matrix power.


def _reset_chain_oracle(gammas, n):
    P = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        g = gammas[i] if i < len(gammas) else 0.0
        P[i, 0] += g
        if i + 1 <= n:
            P[i, i + 1] += 1.0 - g
        else:
            P[i, i] += 1.0 - g
    dist = np.zeros(n + 1)
    dist[0] = 1.0
    for _ in range(n):
        dist = dist @ P
    return dist


def test_house_of_cards_matches_matrix_power():
    cases = [
        ([0.5, 0.3, 0.2, 0.1, 0.05], 12),
        (list(np.random.default_rng(8).uniform(0.0, 0.9, 61)), 60),
    ]
    for gammas, n in cases:
        law = house_of_cards_dist(gammas, n)
        oracle = _reset_chain_oracle(gammas, n)
        assert law.dtype == float and law.shape == (n + 1,)
        assert np.allclose(law, oracle, atol=1e-14)
        assert law.sum() == pytest.approx(1.0, abs=1e-12)


def test_house_of_cards_closed_forms():
    # Constant reset probability g: P(Z_n = n) = (1-g)^n and
    # P(Z_n = 0) = g.
    g, n = 0.3, 9
    law = house_of_cards_dist([g] * (n + 1), n)
    assert law[n] == pytest.approx((1 - g) ** n, abs=1e-14)
    assert law[0] == pytest.approx(g, abs=1e-14)


def test_markov1_bound_is_dyadic():
    # gamma = (0.5, 0, ...): the chain escapes state 0 for good, so
    # P(Z_10 <= 2) = P(still at 0 after 8 steps) = 0.5^8 exactly.
    assert reconstruction_bound(MARKOV1, -10, 2) == 0.5**8


def test_bound_monotone_in_k():
    bounds = [reconstruction_bound(MARKOV1, -10, k) for k in range(5)]
    for a, b in zip(bounds, bounds[1:]):
        assert b >= a


def test_bound_is_a_cdf():
    # P(Z_n <= k): 0 below the support, the whole law summed from n on.
    law = house_of_cards_dist(gamma_profile(MARKOV1, MARKOV1.memory).values, 10)
    assert reconstruction_bound(MARKOV1, -10, -1) == 0.0
    assert reconstruction_bound(MARKOV1, -10, -3) == 0.0
    assert reconstruction_bound(MARKOV1, -10, 4) == float(np.sum(law[:5]))
    assert reconstruction_bound(MARKOV1, -10, 10) == float(np.sum(law))
    assert reconstruction_bound(MARKOV1, -10, 12) == float(np.sum(law))


# ---------------------------------------------------------------------------
# Monte Carlo experiments


def test_disagreement_within_bound():
    row = disagreement_experiment(MARKOV1, -10, 2, 20_000, 21)
    assert row.verdict == "within-bound"
    assert row.dp_bound == 0.5**8
    assert row.freq <= row.dp_bound + 3 * max(row.stderr, 1e-4)


def test_disagreement_iid_never_disagrees():
    row = disagreement_experiment(IID, -8, 2, 5_000, 22)
    assert row.freq == 0.0


def test_domination_rows():
    # The replayed trials depend on N, not on K, so the disagreement rows
    # of one N at every lag M are the domination check: the agreement
    # length exceeds M with frequency at least P(Z_10 > M) - 3 sigma.
    rows = [disagreement_experiment(MARKOV1, -10, m, 20_000, 23) for m in range(11)]
    for r in rows:
        assert r.verdict == "within-bound"
        assert 1.0 - r.freq >= (1.0 - r.dp_bound) - 3 * r.stderr
    # One replay read at every lag: agreement on [-M; 0] implies it on
    # every shorter window.
    agree = [1.0 - r.freq for r in rows]
    for a, b in zip(agree, agree[1:]):
        assert b <= a


def test_domination_exact_tail_decreases():
    rows = [disagreement_experiment(MARKOV1, -10, m, 1_000, 24) for m in range(11)]
    tails = [1.0 - r.dp_bound for r in rows]
    for a, b in zip(tails, tails[1:]):
        assert b <= a + 1e-15


def test_window_validation():
    with pytest.raises(ValueError):
        disagreement_experiment(MARKOV1, -3, 5, 100, 1)
