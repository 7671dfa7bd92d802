import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledchains.extension import (
    AnchorSelectionError,
    CouplingEngine,
    _interval_joint,
    _window_laws,
    choose_anchor,
    coupled_run,
    expected_generator_gap,
    generator_error_check,
    joint_step_law,
    stitch_blocks,
)
from coupledchains import extension
from coupledchains.innovation import innovation_audit
from coupledchains.kernels import (
    CapExceededError,
    IIDKernel,
    MarkovKernel,
    builtin_kernels,
    stationary_ctx_vector,
)
from coupledchains import reconstruction
from coupledchains.reconstruction import (
    TRIAL_BLOCK,
    coupled_walk,
    disagreement_experiment,
    domination_experiment,
    simulate_path,
    window_reconstruct,
)
from coupledchains.rng import stream_rng
from coupledchains.vershik import (
    MetricTable,
    alpha_sequence_mc,
    coupling_table,
    metric_tables,
)
from coupledchains.words import word_to_int

MARKOV1 = builtin_kernels()["markov1-demo"]
IID = IIDKernel(0.5)
# Order 2, with antitone orientations at depth 2.
ANTITONE = MarkovKernel(2, (0.81, 0.3, 0.25, 0.63))
# The order-3 kernel of the benchmark.
ORDER3 = MarkovKernel(3, (0.7, 0.45, 0.6, 0.35, 0.65, 0.4, 0.55, 0.3))


def make_engine(kernel, p_max=8, depth=4):
    return CouplingEngine.build(kernel, p_max, depth)


def orientation_at_length(table):
    """The orientation of every pair of L-bit contexts: the stored table
    gathered from the low bits each context reads it at."""
    low = np.arange(1 << table.length) & table.mask
    return table.orientation[np.ix_(low, low)]


def symbols(ctx, steps):
    """The last `steps` symbols held in context words, oldest first."""
    return (ctx[:, None] >> np.arange(steps - 1, -1, -1)) & 1


# ---------------------------------------------------------------------------
# Single steps and the engine's tables


# The u step is one column of `coupled_walk`: it maps w to u through the
# orientation and thresholds u against the hat context's table.
# P(0 | context ending in 0) = 0.7 under markov1-demo.  The orientation is
# a table over context pairs, so the three trials below step from their own
# pairs (0, 0), (2, 0) and (2, 2): on 2-bit contexts, 0 and 2 both end in
# 0, and only the pair (0, 0) is antitone (lam = +1, the others lam = -1).


def u_step(v, v_is_u=False):
    table = MARKOV1.prob0_over(2)
    true, hat = np.array([0, 2, 2]), np.array([0, 0, 2])
    flip = np.zeros(table.size**2, dtype=bool)
    flip[0] = True
    # The walk writes the other uniforms back into its column, a copy.
    other = np.array(v, dtype=float)
    coupled_walk(table, other[:, None], true, hat, [flip], v_is_u, other[:, None])
    return other, true, hat


def test_u_step_flip():
    # Orientation +1 flips w = 0.2 to u = 0.8; orientation -1 keeps u = w.
    w = np.array([0.2, 0.2, 0.5])
    u, true, hat = u_step(w)
    assert u == pytest.approx([0.8, 0.2, 0.5])
    # The flip is its own inverse: stepping on u gives back w and the
    # same contexts.
    w_back, true_back, hat_back = u_step(u, True)
    assert w_back == pytest.approx(w)
    assert np.array_equal(true_back, true) and np.array_equal(hat_back, hat)


def test_u_step_threshold():
    # The true chain thresholds w, the hat chain thresholds u: w = 0.2 under
    # orientation +1 gives true symbol 0 and hat symbol 1; under -1,
    # u = 0.9 thresholds to 1 and u = 0.5 to 0 in both chains.
    w = np.array([0.2, 0.9, 0.5])
    u, true, hat = u_step(w)
    assert u == pytest.approx([0.8, 0.9, 0.5])
    assert true.tolist() == [0, 1, 0]
    assert hat.tolist() == [1, 1, 0]


@pytest.mark.parametrize("name", ["markov1-demo", "long-memory-demo"])
def test_engine_table_deepens_like_metric_tables(name):
    kernel = builtin_kernels()[name]
    engine = make_engine(kernel, p_max=2)
    deep = engine.table(9)
    reference = metric_tables(kernel, 9, 4)
    assert deep is engine.tables[9] and len(engine.tables) == 10
    for ours, ref in zip(engine.tables, reference):
        assert ours.depth == ref.depth
        assert np.array_equal(ours.values, ref.values)
        if ref.orientation is None:
            assert ours.orientation is None
        else:
            assert np.array_equal(ours.orientation, ref.orientation)


# ---------------------------------------------------------------------------
# The blocked walk.  Oracle: every trial stepped at once, one column of v
# per step, the orientation read by a 2-D index.


def serial_coupled_run(engine, v, ctx_true, ctx_hat, v_is_u=False):
    steps = v.shape[1]
    table = engine.prob0
    mask = (1 << engine.length) - 1
    ctx_true = np.asarray(ctx_true, dtype=np.int64) & mask
    ctx_hat = np.asarray(ctx_hat, dtype=np.int64) & mask
    other = np.empty((steps, v.shape[0]))
    for t in range(steps):
        lam = orientation_at_length(engine.table(steps - t))[ctx_true, ctx_hat]
        other[t] = np.where(lam == -1, v[:, t], 1.0 - v[:, t])
        w, u = (other[t], v[:, t]) if v_is_u else (v[:, t], other[t])
        ctx_true = ((ctx_true << 1) | (w > table[ctx_true])) & mask
        ctx_hat = ((ctx_hat << 1) | (u > table[ctx_hat])) & mask
    return other.T, ctx_true, ctx_hat


def serial_replay_words(kernel, n_start, trials, seed, keep_bits):
    """The unblocked zero-prehistory replay, same random streams."""
    steps = -n_start + 1
    rng = stream_rng(seed, "replay", kernel.label, f"N{n_start}")
    if kernel.memory:
        pi = stationary_ctx_vector(kernel, kernel.memory)
        ctx_true = rng.choice(pi.size, p=pi, size=trials)
    else:
        ctx_true = np.zeros(trials, dtype=np.int64)
    ctx_hat = np.zeros(trials, dtype=np.int64)
    w = rng.random((trials, steps))
    table = kernel.prob0_over(keep_bits)
    mask = table.size - 1
    for t in range(steps):
        ctx_true = ((ctx_true << 1) | (w[:, t] > table[ctx_true])) & mask
        ctx_hat = ((ctx_hat << 1) | (w[:, t] > table[ctx_hat])) & mask
    return ctx_true, ctx_hat


WALK_ENGINES = [
    make_engine(MARKOV1, p_max=1, depth=2),
    make_engine(ANTITONE, p_max=1, depth=2),
    make_engine(builtin_kernels()["long-memory-demo"], p_max=1, depth=3),
    make_engine(ORDER3, p_max=1, depth=1),
]
WALK_TRIALS = [1, TRIAL_BLOCK - 1, TRIAL_BLOCK, TRIAL_BLOCK + 1, 3 * TRIAL_BLOCK + 5]


def assert_walk_matches_serial(engine, v, ctx_true, ctx_hat):
    # coupled_run moves the context arrays it is given, so every run
    # starts from copies.
    for v_is_u in (False, True):
        ref = serial_coupled_run(engine, v, ctx_true, ctx_hat, v_is_u)
        other = np.empty(v.shape)
        starts = ctx_true.copy(), ctx_hat.copy()
        got = (other, *coupled_run(engine, v, *starts, v_is_u, other))
        # The end contexts are the caller's arrays, updated in place.
        assert got[1] is starts[0] and got[2] is starts[1]
        # Without a buffer for the other uniforms (the inverse replays and
        # the generator-gap check), the run ends in the same contexts.
        got_ends = coupled_run(engine, v, ctx_true.copy(), ctx_hat.copy(),
                               v_is_u)
        # A strided copy of v as both input and buffer (the forward stitch
        # re-encodes its columns in place) gives the same uniforms.
        aliased = np.zeros((v.shape[0], v.shape[1] + 2))[:, 1:-1]
        aliased[...] = v
        got_aliased = (aliased,
                       *coupled_run(engine, aliased, ctx_true.copy(),
                                    ctx_hat.copy(), v_is_u, aliased))
        for a, b in zip(got + got_ends + got_aliased, ref + ref[1:] + ref):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


@given(
    st.sampled_from(WALK_ENGINES),
    st.sampled_from(WALK_TRIALS),
    st.integers(0, 20),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_coupled_run_matches_serial_loop(engine, trials, steps, seed):
    # Start contexts up to 2^62, wider than any mask, and v a column slice
    # of a wider array, as the stitch passes u_all[:, cols[i]].
    rng = np.random.default_rng(seed)
    ctx_true = rng.integers(0, 2**62, trials)
    ctx_hat = rng.integers(0, 2**62, trials)
    v = rng.random((trials, steps + 3))[:, 1 : steps + 1]
    assert_walk_matches_serial(engine, v, ctx_true, ctx_hat)


def test_coupled_run_blocks_flip():
    # Stationary starts and the all-zero anchor: some steps of this window
    # flip, in the first block and in the last, partial one.
    engine = WALK_ENGINES[1]
    rng = stream_rng(41, "t")
    trials = 3 * TRIAL_BLOCK + 5
    ctx_true = rng.choice(engine.pi.size, p=engine.pi, size=trials)
    ctx_hat = np.zeros(trials, dtype=np.int64)
    w = rng.random((trials, 8))
    u = np.empty(w.shape)
    coupled_run(engine, w, ctx_true.copy(), ctx_hat.copy(), other=u)
    flipped = u != w
    assert flipped[:TRIAL_BLOCK].any() and flipped[3 * TRIAL_BLOCK:].any()
    assert_walk_matches_serial(engine, w, ctx_true, ctx_hat)


def test_one_antitone_entry_flips():
    # Every orientation of markov1-demo is monotone; give each table one
    # antitone entry, at the pair (0, 1) where every trial starts.
    base = make_engine(MARKOV1, p_max=3, depth=2)
    tables = base.tables[:1]
    for t in base.tables[1:]:
        orientation = t.orientation.copy()
        orientation[0, 1] = 1
        tables.append(MetricTable(t.depth, t.length, t.values, orientation))
    engine = CouplingEngine(MARKOV1, base.depth, tables, base.pi)
    trials = TRIAL_BLOCK + 5
    ctx_true = np.zeros(trials, dtype=np.int64)
    ctx_hat = np.ones(trials, dtype=np.int64)
    w = stream_rng(47, "one-entry").random((trials, 3))
    u = np.empty(w.shape)
    coupled_run(engine, w, ctx_true.copy(), ctx_hat.copy(), other=u)
    assert np.array_equal(u[:, 0], 1.0 - w[:, 0])
    assert_walk_matches_serial(engine, w, ctx_true, ctx_hat)


@pytest.mark.parametrize("trials", [1, TRIAL_BLOCK - 1, TRIAL_BLOCK,
                                    2 * TRIAL_BLOCK + 5])
@pytest.mark.parametrize("walk", ["replay", "flips", "v_is_u"])
def test_streamed_walk_matches_array_walk(walk, trials):
    # The trials of _trial_blocks, each block's starts and uniforms walked
    # on their own, against the whole arrays drawn at once and walked in
    # one call: the same end contexts and re-encoded uniforms, bit for
    # bit.  markov1-demo steps as a plain replay from no start law (all
    # 0); ANTITONE flips, fed w or, with v_is_u, u, from stationary starts.
    steps = 9
    engine = WALK_ENGINES[1]
    law = None if walk == "replay" else engine.pi
    hats = np.random.default_rng(trials).integers(0, 8, trials)

    def run(ctx_true, v, ctx_hat):
        if walk == "replay":
            coupled_walk(MARKOV1.prob0_over(4), v, ctx_true, ctx_hat)
            return ctx_true, ctx_hat
        other = np.empty(v.shape)
        return (other, *coupled_run(engine, v, ctx_true, ctx_hat,
                                    walk == "v_is_u", other))

    ref_rng = stream_rng(53, "streamed", str(trials))
    if law is None:
        starts = np.zeros(trials, dtype=np.int64)
    else:
        starts = ref_rng.choice(law.size, p=law, size=trials)
    v = ref_rng.random((trials, steps))
    ref = run(starts, v, hats.copy())
    blocks, b0 = [], 0
    for ctx, w in reconstruction._trial_blocks(
            stream_rng(53, "streamed", str(trials)), law, trials, steps):
        n = ctx.size
        assert n == min(TRIAL_BLOCK, trials - b0)
        blocks.append(run(ctx, w, hats[b0:b0 + n].copy()))
        b0 += n
    assert b0 == trials
    got = [np.concatenate(parts) for parts in zip(*blocks)]
    for a, b in zip(got, ref, strict=True):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    if walk != "replay" and trials > 1:
        assert (got[0] != v).any()  # some steps flip


@pytest.mark.parametrize("bad", [-1, 16])
@pytest.mark.parametrize("which", ["true", "hat"])
def test_coupled_walk_rejects_contexts_out_of_range(which, bad):
    # The steps look the tables up without a range check, so the walk
    # checks its entry contexts once.
    table = MARKOV1.prob0_over(4)
    ctx = {"true": np.zeros(5, dtype=np.int64), "hat": np.zeros(5, dtype=np.int64)}
    ctx[which][3] = bad
    with pytest.raises(ValueError, match="contexts"):
        coupled_walk(table, np.full((5, 2), 0.5), ctx["true"], ctx["hat"])


@pytest.mark.parametrize("experiment, bound_mib",
                         [("disagreement", 4), ("domination", 8),
                          ("generator-gap", 8), ("alpha-mc", 8)])
def test_coupled_experiments_draw_uniforms_blockwise(experiment, bound_mib):
    # 10^6 trials over 9 and 7 steps: the whole uniform array would be
    # 72 MB and 56 MB, and one int64 array of trials 8 MB.  Drawn, walked
    # and counted one block of trials at a time, the replay holds
    # block-sized buffers; the generator gap and Monte Carlo alpha hold
    # one 2-byte pair code per trial.
    trials = 10**6
    engine = make_engine(ORDER3, p_max=7, depth=7)
    alpha_sequence_mc(ORDER3, 16, 2, 1, 7)  # warm the kernel's caches
    tracemalloc.start()
    try:
        if experiment == "disagreement":
            disagreement_experiment(ORDER3, -8, 2, trials, 67)
        elif experiment == "domination":
            domination_experiment(ORDER3, -8, trials, 68)
        elif experiment == "generator-gap":
            generator_error_check(engine, -6, (0,) * engine.length, trials, 71)
        else:
            alpha_sequence_mc(ORDER3, 16, trials, 73, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20, peak


def serial_replay_xors(kernel, n_start, trials, seed, keep_bits):
    """The unblocked replay's end-context XOR, as one block."""
    end_true, end_hat = serial_replay_words(kernel, n_start, trials, seed,
                                            keep_bits)
    yield end_true ^ end_hat


@pytest.mark.parametrize("kernel", [MARKOV1, ANTITONE])
def test_replay_experiments_match_unblocked_replay(kernel, monkeypatch):
    trials = 3 * TRIAL_BLOCK + 5
    blocked = (disagreement_experiment(kernel, -8, 2, trials, 43),
               domination_experiment(kernel, -8, trials, 44))
    monkeypatch.setattr(reconstruction, "_replay_xors", serial_replay_xors)
    serial = (disagreement_experiment(kernel, -8, 2, trials, 43),
              domination_experiment(kernel, -8, trials, 44))
    assert blocked == serial


# 65536 values make one leaf of the pairwise sums; 300007 make six.
ESTIMATOR_TRIALS = [2, TRIAL_BLOCK - 1, TRIAL_BLOCK + 1, 65535, 65537, 300_007]


@pytest.mark.parametrize("trials", ESTIMATOR_TRIALS)
@pytest.mark.parametrize("kernel", [IID, ORDER3], ids=["iid", "order3"])
def test_replay_experiments_match_whole_array_reference(kernel, trials):
    # Oracle: the whole-array replay, its rows formed from bool arrays
    # with np.mean, as the unblocked experiments did.
    n_start, k_lags = -5, 2
    keep = max(-n_start + 1, kernel.memory)
    end_true, end_hat = serial_replay_words(kernel, n_start, trials, 29, keep)
    diff = end_true ^ end_hat
    row = disagreement_experiment(kernel, n_start, k_lags, trials, 29)
    assert row.freq == np.count_nonzero(diff & 7) / trials
    rows = domination_experiment(kernel, n_start, trials, 29)
    assert len(rows) == -n_start + 1
    for r in rows:
        agree = (diff & ((1 << (r.m + 1)) - 1)) == 0
        assert r.mc_tail == float(np.mean(agree))
        assert r.stderr == float(np.sqrt(r.mc_tail * (1.0 - r.mc_tail) / trials))


@pytest.mark.parametrize("trials", ESTIMATOR_TRIALS)
@pytest.mark.parametrize("kernel", [IID, ORDER3], ids=["iid", "order3"])
def test_generator_gap_matches_whole_array_reference(kernel, trials):
    # Oracle: every trial's start and uniforms drawn whole, the per-column
    # coupled run, and the gaps reduced by counts: one np.bincount of the
    # whole array of end pair codes, then the mean and the ddof=1
    # standard error from the counts.
    engine = make_engine(kernel, p_max=2, depth=3)
    n_start, anchor = -4, (1,) * engine.length
    report = generator_error_check(engine, n_start, anchor, trials, 37)
    rng = stream_rng(37, "generator-gap", kernel.label, f"N{n_start}")
    ctx_true = rng.choice(engine.pi.size, p=engine.pi, size=trials)
    w = rng.random((trials, 1 - n_start))
    hat = np.full(trials, word_to_int(anchor), dtype=np.int64)
    _, end_true, end_hat = serial_coupled_run(engine, w, ctx_true, hat)
    gen = engine.generator
    gaps = np.abs(gen[:, None] - gen[None, :]).ravel()
    counts = np.bincount((end_true << engine.length) | end_hat, minlength=gaps.size)
    mean = float(np.sum(counts * gaps)) / trials
    dev = gaps - mean
    var = float(np.sum(counts * (dev * dev))) / (trials - 1)
    assert report.mc_estimate == mean
    assert report.stderr == math.sqrt(var) / math.sqrt(trials)


# ---------------------------------------------------------------------------
# Coupled runs and reconstruction


def test_round_trip_reconstruction():
    # Depth 7 gives contexts of L = 8 bits, enough for the whole window.
    engine = make_engine(MARKOV1, depth=7)
    rng = stream_rng(31, "t")
    trials, steps = 50, 8
    ctx_true = rng.choice(engine.pi.size, p=engine.pi, size=trials)
    ctx_hat = np.zeros(trials, dtype=np.int64)
    w = rng.random((trials, steps))
    u, w_back = np.empty((2,) + w.shape)
    end_true, end_hat = coupled_run(engine, w, ctx_true.copy(), ctx_hat.copy(),
                                    other=u)
    x_end, xhat_end = coupled_run(engine, u, ctx_true, ctx_hat, v_is_u=True,
                                  other=w_back)
    # The inverse run reproduces the true and hat symbols bit for bit.
    assert np.array_equal(symbols(x_end, steps), symbols(end_true, steps))
    assert np.array_equal(symbols(xhat_end, steps), symbols(end_hat, steps))
    assert np.allclose(w_back, w, rtol=0.0, atol=2.0**-52)


# Every orientation of the markov1 demo is monotone (u = w).  The
# order-2 kernel has antitone orientations at depth 2, which flip some
# steps of an 8-step window; over 100 steps its chains meet first.
@pytest.mark.parametrize(
    "kernel, steps, flips",
    [(MARKOV1, 100, False), (ANTITONE, 8, True)],
)
def test_inverse_run_longer_than_table_width(kernel, steps, flips):
    # Windows longer than L = 5: the inverse run still recovers w and
    # both end contexts exactly.
    engine = make_engine(kernel)
    rng = stream_rng(33, "inverse")
    trials = 500
    ctx_true = rng.choice(engine.pi.size, p=engine.pi, size=trials)
    ctx_hat = np.zeros(trials, dtype=np.int64)
    w = rng.random((trials, steps))
    u, w_back = np.empty((2,) + w.shape)
    end_true, end_hat = coupled_run(engine, w, ctx_true.copy(), ctx_hat.copy(),
                                    other=u)
    assert np.any(u != w) == flips
    x_end, xhat_end = coupled_run(engine, u, ctx_true, ctx_hat, v_is_u=True,
                                  other=w_back)
    assert np.allclose(w_back, w, rtol=0.0, atol=2.0**-52)
    assert np.array_equal(x_end, end_true)
    assert np.array_equal(xhat_end, end_hat)


def test_coupled_run_contexts_stay_within_table_width():
    engine = make_engine(MARKOV1)
    trials, steps = 200, 100
    w = stream_rng(32, "width").random((trials, steps))
    zeros = np.zeros((2, trials), dtype=np.int64)
    end_true, end_hat = coupled_run(engine, w, *zeros)
    for ctx in (end_true, end_hat):
        assert ctx.min() >= 0 and ctx.max() < 1 << engine.length
    # The contexts are updated in place, so the two chains cannot share
    # one array.
    with pytest.raises(ValueError):
        coupled_run(engine, w, zeros[0], zeros[0])


def test_iid_orientation_all_monotone():
    engine = make_engine(IID, p_max=5)
    for t in engine.tables[1:]:
        assert np.all(t.orientation == -1)


def test_iid_u_equals_w_and_matches_plain_replay():
    # With orientation identically -1, U = W and the orientation-driven
    # reconstruction coincides with the plain innovation replay.
    engine = make_engine(IID, p_max=10, depth=7)
    steps = engine.length
    sample = simulate_path(IID, steps, 41)
    w = sample.w.reshape(1, -1)
    u = np.empty(w.shape)
    coupled_run(engine, w, *np.zeros((2, 1), dtype=np.int64), other=u)
    assert np.array_equal(u, w)
    plain = window_reconstruct(IID, sample.w)
    x_end, _ = coupled_run(engine, u, *np.zeros((2, 1), dtype=np.int64),
                           v_is_u=True)
    x = symbols(x_end, steps)[0]
    assert np.array_equal(x, plain)
    assert np.array_equal(x, sample.x)


def test_joint_one_step_law_matches_coupling_table():
    # Monte Carlo the first coupled step for fixed contexts and compare
    # with the optimal coupling table entries.
    engine = make_engine(MARKOV1, p_max=2)
    trials = 200_000
    rng = stream_rng(55, "joint")
    ctx_true = np.zeros(trials, dtype=np.int64)  # true context ends in 0
    ctx_hat = np.ones(trials, dtype=np.int64)  # anchor context ends in 1
    w = rng.random((trials, 1))
    lam = int(engine.tables[1].orientation[0, 1])
    end_true, end_hat = coupled_run(engine, w, ctx_true, ctx_hat)
    table = coupling_table(0.7, 0.4, lam)
    for a in (0, 1):
        for b in (0, 1):
            freq = np.mean(((end_true & 1) == a) & ((end_hat & 1) == b))
            assert freq == pytest.approx(table[a, b], abs=4e-3)


# ---------------------------------------------------------------------------
# Exact window law.  Oracle: the dict-of-states DP over (true context, hat
# context, true path, hat path), one step law per state, with the scalar
# step laws written out.


def reference_interval_joint(f_true, f_hat, lam):
    out = np.empty((2, 2))
    if lam == -1:
        lo, hi = min(f_true, f_hat), max(f_true, f_hat)
        out[0, 0] = lo
        out[0, 1] = (f_true - f_hat) if f_true > f_hat else 0.0
        out[1, 0] = (f_hat - f_true) if f_hat > f_true else 0.0
        out[1, 1] = 1.0 - hi
    else:
        out[0, 0] = max(0.0, f_hat - (1.0 - f_true))
        out[0, 1] = min(f_true, 1.0 - f_hat)
        out[1, 0] = min(1.0 - f_true, f_hat)
        out[1, 1] = max(0.0, (1.0 - f_hat) - f_true)
    return out


def reference_coupling_table(f, g, orientation):
    if orientation == -1:
        d00 = min(f, g)
        table = np.array([[d00, f - d00], [g - d00, 1.0 - f - g + d00]])
    else:
        table = np.array(
            [[f + g - 1.0, min(f, 1.0 - g)], [min(1.0 - f, g), 1.0 - f - g]]
        )
    return np.maximum(table, 0.0)


def reference_joint_law(engine, window, anchor_int):
    """The (true path, hat path) laws stepped by interval overlap and by
    the coupling tables, as dense arrays indexed by path codes."""
    L = engine.length
    mask = (1 << L) - 1
    table = engine.kernel.prob0_table.tolist()
    kmask = len(table) - 1
    laws = []
    for step_law in (reference_interval_joint, reference_coupling_table):
        states = {
            (c, anchor_int, 0, 0): float(engine.pi[c])
            for c in range(1 << L) if engine.pi[c] > 0.0
        }
        for t in range(window):
            orient = orientation_at_length(engine.table(window - t))
            new = {}
            for (cx, ch, px, ph), prob in states.items():
                joint = step_law(table[cx & kmask], table[ch & kmask],
                                 int(orient[cx, ch]))
                for a in (0, 1):
                    for b in (0, 1):
                        p = prob * float(joint[a, b])
                        if p <= 0.0:
                            continue
                        key = (((cx << 1) | a) & mask, ((ch << 1) | b) & mask,
                               (px << 1) | a, (ph << 1) | b)
                        new[key] = new.get(key, 0.0) + p
            states = new
        law = np.zeros((1 << window, 1 << window))
        for (_, _, px, ph), prob in states.items():
            law[px, ph] += prob
        laws.append(law)
    return laws


# (kernel, generator depth, window, anchor): window 6 > L = 3 for the
# order-3 kernel, and L = 2 for the iid kernel.  Only the order-2 kernel
# has antitone orientations (at depth 2 of L = 3), so only its window
# depends on the orientation.
WINDOW_CASES = [
    (MARKOV1, 6, 4, (0,)),
    (builtin_kernels()["long-memory-demo"], 3, 6, (1, 0, 1)),
    (ORDER3, 1, 6, (0,)),
    (IID, 1, 5, (0,)),
    (ANTITONE, 2, 5, (0,)),
]


@pytest.mark.parametrize("kernel, depth, window, anchor", WINDOW_CASES)
def test_window_laws_match_reference_dp(kernel, depth, window, anchor):
    engine = make_engine(kernel, p_max=1, depth=depth)
    anchor_int = word_to_int(anchor)
    interval, product, chain = _window_laws(engine, window, anchor_int)
    ref_interval, ref_product = reference_joint_law(engine, window, anchor_int)
    assert np.allclose(interval, ref_interval, rtol=0.0, atol=1e-15)
    assert np.allclose(product, ref_product, rtol=0.0, atol=1e-15)
    # The true window is stationary, which neither reported gap checks.
    stationary = stationary_ctx_vector(kernel, window)
    assert np.allclose(interval.sum(axis=1), stationary, rtol=0.0, atol=1e-12)
    assert np.allclose(product.sum(axis=1), stationary, rtol=0.0, atol=1e-12)
    report = joint_step_law(engine, window, anchor)
    assert report.tv_gap < 1e-12 and report.hat_marginal_gap < 1e-12


def test_step_laws_broadcast_like_scalar_calls():
    grid = np.array([0.01, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.99])
    f, g, lam = np.meshgrid(grid, grid, [-1, 1], indexing="ij")
    for step_law, reference in (
        (_interval_joint, reference_interval_joint),
        (coupling_table, reference_coupling_table),
    ):
        tables = step_law(f, g, lam)
        assert tables.shape == (2, 2) + f.shape
        for i in np.ndindex(f.shape):
            expected = reference(float(f[i]), float(g[i]), int(lam[i]))
            assert np.array_equal(tables[(...,) + i], expected)
            assert np.array_equal(step_law(float(f[i]), float(g[i]), int(lam[i])),
                                  expected)


def test_joint_window_law_tv():
    engine = make_engine(MARKOV1, p_max=4)
    report = joint_step_law(engine, 4, (0,) * engine.length)
    assert report.tv_gap < 1e-10
    assert report.hat_marginal_gap < 1e-10


def test_joint_window_law_iid_never_disagrees():
    # Equal marginals and monotone orientation: the coupled symbols
    # coincide at every step.
    engine = make_engine(IID, p_max=4)
    rng = stream_rng(77, "iid-joint")
    trials, steps = 1_000, 4
    ctx = rng.integers(0, engine.pi.size, trials)
    anchor = np.zeros(trials, dtype=np.int64)
    w = rng.random((trials, steps))
    end_true, end_hat = coupled_run(engine, w, ctx, anchor)
    assert np.all(((end_true ^ end_hat) & ((1 << steps) - 1)) == 0)


def test_joint_window_cap():
    engine = make_engine(MARKOV1, p_max=2)
    with pytest.raises(CapExceededError):
        joint_step_law(engine, 7, (0,) * engine.length)


# ---------------------------------------------------------------------------
# Generator-gap identity


def _gap_oracle(engine, n_start, anchor_int):
    """Independent DP for E|R_D - R_D(hat)|: push the exact joint
    context law through the u-interval transition kernel."""
    L = engine.length
    mask = (1 << L) - 1
    kernel = engine.kernel
    table = kernel.prob0_table
    kmask = (1 << kernel.memory) - 1 if kernel.memory else 0
    steps = -n_start + 1
    joint = np.zeros((1 << L, 1 << L))
    joint[:, anchor_int] = engine.pi
    for t in range(steps):
        orient = orientation_at_length(engine.table(steps - t))
        new = np.zeros_like(joint)
        for cx in range(1 << L):
            f = table[cx & kmask] if kernel.memory else table[0]
            for ch in range(1 << L):
                p = joint[cx, ch]
                if p == 0.0:
                    continue
                g = table[ch & kmask] if kernel.memory else table[0]
                lam = int(orient[cx, ch])
                if lam == -1:
                    masses = {
                        (0, 0): min(f, g),
                        (0, 1): max(0.0, f - g),
                        (1, 0): max(0.0, g - f),
                        (1, 1): 1.0 - max(f, g),
                    }
                else:
                    masses = {
                        (0, 0): max(0.0, f + g - 1.0),
                        (0, 1): min(f, 1.0 - g),
                        (1, 0): min(1.0 - f, g),
                        (1, 1): max(0.0, 1.0 - f - g),
                    }
                for (a, b), q in masses.items():
                    if q > 0.0:
                        new[((cx << 1) | a) & mask, ((ch << 1) | b) & mask] += p * q
        joint = new
    gen = engine.generator.take(np.arange(1 << L))
    return float(np.sum(joint * np.abs(gen[:, None] - gen[None, :])))


def test_expected_gap_matches_independent_dp():
    engine = make_engine(MARKOV1, p_max=7, depth=4)
    anchor = (0,) * engine.length
    for n in (-2, -4, -6):
        oracle = _gap_oracle(engine, n, 0)
        assert expected_generator_gap(engine, n, anchor) == pytest.approx(
            oracle, abs=1e-12
        )


def test_expected_gap_decreases_with_window():
    engine = make_engine(MARKOV1, p_max=7)
    anchor = (0,) * engine.length
    gaps = [expected_generator_gap(engine, n, anchor) for n in (-2, -4, -6)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_generator_error_check_passes():
    engine = make_engine(MARKOV1, p_max=7)
    report = generator_error_check(
        engine, -6, (0,) * engine.length, 20_000, 61
    )
    assert report.verdict == "match"


def test_generator_gap_iid_is_zero():
    # Context-free probabilities force X-hat = X from the first step on;
    # the windows coincide, so both sides vanish.
    engine = make_engine(IID, p_max=6, depth=4)
    anchor = (1,) * engine.length
    assert expected_generator_gap(engine, -5, anchor) == pytest.approx(0.0, abs=1e-15)
    report = generator_error_check(engine, -5, anchor, 2_000, 62)
    assert report.mc_estimate == 0.0


# ---------------------------------------------------------------------------
# Anchor choice


def test_anchor_fubini():
    # Averaging the per-anchor integral against the stationary law
    # recovers the double integral alpha_p.
    engine = make_engine(MARKOV1, p_max=7)
    p = 7
    integrals = engine.anchor_integrals(p)
    assert float(np.sum(engine.pi * integrals)) == pytest.approx(
        engine.alpha(p), abs=1e-12
    )


def test_anchor_longer_than_table_is_value_error():
    # One rule for the anchor in the three functions that take one: at
    # most L symbols, zero-padded on the left; a longer word is refused,
    # not cut to its low L bits.  markov1-demo at D = 3 has L = 4.
    engine = make_engine(MARKOV1, p_max=4, depth=3)
    assert engine.length == 4
    for anchor in ((1, 0, 0, 0, 0), (0,) * 5):
        with pytest.raises(ValueError, match="longer than the table length 4"):
            expected_generator_gap(engine, -3, anchor)
        with pytest.raises(ValueError, match="longer than the table length 4"):
            generator_error_check(engine, -3, anchor, 100, 1)
        with pytest.raises(ValueError, match="longer than the table length 4"):
            joint_step_law(engine, 2, anchor)
    # Words of at most L symbols are padded: (1, 1) is the anchor 0011.
    assert (expected_generator_gap(engine, -3, (1, 1))
            == expected_generator_gap(engine, -3, (0, 0, 1, 1)))
    assert joint_step_law(engine, 2, (1, 1)).anchor == (0, 0, 1, 1)


def test_choose_anchor_beats_average():
    engine = make_engine(MARKOV1, p_max=7)
    anchor, value = choose_anchor(engine, -6, delta=1.0)
    assert value <= engine.alpha(7) + 1e-15
    assert value == pytest.approx(
        expected_generator_gap(engine, -6, anchor), abs=1e-15
    )


def test_choose_anchor_iid_indifferent():
    engine = make_engine(IID, p_max=6)
    integrals = engine.anchor_integrals(6)
    assert np.allclose(integrals, integrals[0], atol=1e-14)


def test_choose_anchor_failure():
    engine = make_engine(MARKOV1, p_max=3)
    with pytest.raises(AnchorSelectionError):
        choose_anchor(engine, -2, delta=1e-9)


# ---------------------------------------------------------------------------
# Stitching


def test_stitch_small():
    report = stitch_blocks(MARKOV1, (0.2, 0.1), 2_000, 71, 5)
    assert report.passed
    # Sentinel start and block recursion.
    assert report.rows[0].m_j == 1
    assert report.rows[1].m_j == report.rows[0].m_j + report.rows[0].n_j - 1
    for r in report.rows:
        assert r.k_j < r.m_j
    # Exact round trip on the first block.
    assert report.rows[0].exceed_freq == 0.0


def test_stitch_validates_schedule():
    with pytest.raises(ValueError):
        stitch_blocks(MARKOV1, (0.1, 0.2), 100, 1)
    with pytest.raises(ValueError):
        stitch_blocks(MARKOV1, (0.2, 1e-6), 100, 1, 4)


# A stitch whose forward and inverse runs flip: ANTITONE is antitone at
# depth 2, the second-last step of every block.  Rows (N_j, anchor,
# exceedances out of the trials) and the audit statistics were recorded
# with the nested per-row replay, which reran blocks j-1 .. 0 for every
# row j; the audit's ks_stat and max_lag_corr were re-recorded when the
# audit became one pass (the KS bucket bound; sums of lag products
# centered afterwards).
ANTITONE_STITCH_ROWS = [
    (-3, (0, 0, 1, 1), 0),
    (-17, (0, 0, 1, 1), 2258),
    (-20, (0, 0, 1, 1), 21),
    (-22, (0, 0, 1, 1), 0),
]
ANTITONE_STITCH_AUDIT = (
    541002, 0.0007976238780656079, 0.00367217316488168, 0.7568158173944256
)


def test_stitch_flip_path_pinned():
    trials = TRIAL_BLOCK + 5
    report = stitch_blocks(ANTITONE, (0.3, 0.2, 0.1, 0.05), trials, 83,
                           3)
    assert [(r.n_j, r.anchor, r.exceed_freq) for r in report.rows] == [
        (n, anchor, count / trials) for n, anchor, count in ANTITONE_STITCH_ROWS
    ]
    audit = report.audit
    assert (audit.n, audit.ks_stat, audit.max_lag_corr,
            audit.chi2_pvalue) == ANTITONE_STITCH_AUDIT


def test_stitch_audit_is_the_audit_of_the_whole_u(monkeypatch):
    # The flip-path stitch audits u as it makes it; the u of every block
    # of trials, collected and laid end to end, gives the same report.
    made = []

    def kept(engine, u, *args):
        far = stitch_trials(engine, u, *args)
        made.append(u.copy())
        return far

    stitch_trials = extension._stitch_trials
    monkeypatch.setattr(extension, "_stitch_trials", kept)
    report = stitch_blocks(ANTITONE, (0.3, 0.2, 0.1, 0.05), TRIAL_BLOCK + 5,
                           83, 3)
    u = np.concatenate([block.ravel() for block in made])
    assert [block.shape[0] for block in made] == [TRIAL_BLOCK, 5]
    assert repr(report.audit) == repr(innovation_audit(u))


# The stitch replay.  Oracle: every row replayed on its own, row j >= 1
# over blocks j-1 .. 0 from block j-1's anchor word, row 0 over block 0
# from the true context before it.


def nested_replay_ends(engine, u, cols, anchors, ctx_before_0, hat_ends):
    ends = []
    for j in range(len(cols)):
        if j == 0:
            ctx = ctx_before_0.copy()
        else:
            ctx = np.full(u.shape[0], anchors[j - 1], dtype=np.int64)
        for i in reversed(range(max(j, 1))):
            hat = np.full(u.shape[0], anchors[i], dtype=np.int64)
            ctx, _ = coupled_run(engine, u[:, cols[i]], ctx, hat, v_is_u=True)
        ends.append(ctx)
    return ends


def drawn_markov(order):
    rng = np.random.default_rng(100 + order)
    probs = np.round(rng.uniform(0.05, 0.95, 1 << order), 4)
    return MarkovKernel(order, tuple(probs.tolist()))


# (kernel, tolerance schedule, generator depth).  ANTITONE flips at depth
# 2; the drawn kernels of orders 3 and 5 at every depth from 2 on.
STITCH_CASES = [
    (MARKOV1, (0.2, 0.1, 0.05, 0.02), 4),
    (ANTITONE, (0.3, 0.2, 0.1, 0.05), 3),
] + [(drawn_markov(order), (0.3, 0.2, 0.1, 0.05), 3) for order in (2, 3, 4, 5)]


@pytest.fixture
def inverse_runs(monkeypatch):
    """The (trials, steps) shape of every inverse run the stitch makes."""
    shapes = []

    def counted_run(engine, v, *args, **kwargs):
        if kwargs.get("v_is_u"):
            shapes.append(v.shape)
        return coupled_run(engine, v, *args, **kwargs)

    monkeypatch.setattr(extension, "coupled_run", counted_run)
    return shapes


@pytest.mark.parametrize("kernel, deltas, depth", STITCH_CASES)
def test_stitch_replay_matches_nested_replay(kernel, deltas, depth,
                                             monkeypatch, inverse_runs):
    trials = 2 * TRIAL_BLOCK + 5
    lanes = extension._replay_ends

    def checked(*args):
        expected = nested_replay_ends(*args)
        ends = lanes(*args)
        for got, ref in zip(ends, expected, strict=True):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        return ends

    monkeypatch.setattr(extension, "_replay_ends", checked)
    report = stitch_blocks(kernel, deltas, trials, 89, depth)
    # Some trials of the oldest lane merged, and some were replayed
    # further, each in a partial block of TRIAL_BLOCK trials.
    assert any(0 < n < TRIAL_BLOCK for n, _ in inverse_runs)
    monkeypatch.setattr(extension, "_replay_ends", nested_replay_ends)
    assert report == stitch_blocks(kernel, deltas, trials, 89, depth)


def test_stitch_replays_each_block_once_per_lane(inverse_runs):
    # The schedule of the benchmark's stitch.  The nested replay ran
    # block 0 for row 0 and blocks j-1 .. 0 for every row j >= 1.
    trials = 3 * TRIAL_BLOCK + 5
    report = stitch_blocks(MARKOV1, (0.2, 0.1, 0.05, 0.02, 0.01, 0.005),
                           trials, 29, 7)
    widths = [1 - r.n_j for r in report.rows]
    nested = trials * (widths[0] + sum(sum(widths[:j])
                                       for j in range(1, len(widths))))
    assert sum(n * steps for n, steps in inverse_runs) <= 0.4 * nested


# The stitch of the benchmark: markov1-demo, these tolerances, depth 7.
BENCH_DELTAS = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005)
PINNED_TRIALS = (TRIAL_BLOCK - 1, TRIAL_BLOCK + 1, 3 * TRIAL_BLOCK + 5)
# (kernel, tolerance schedule, generator depth, whether u flips), and the
# first 16 hex digits of the sha256 of repr(stitch_blocks(..., seed 29))
# at each of PINNED_TRIALS, recorded with the stitch that held u for all
# trials at once; re-recorded when the audit's sums moved to fixed blocks,
# which moved only max_lag_corr, in its last bits, and again when the
# audit became one pass, which moved only ks_stat (now the KS bucket
# bound) and max_lag_corr.  repr pins every row and audit field, type
# and bits.
PINNED_STITCHES = [
    ((MARKOV1, BENCH_DELTAS, 7, False),
     ("deeaf38c48dff9af", "2fc6c7fa11a2af11", "552d87e25c3ed52c")),
    ((*STITCH_CASES[1], True),
     ("eeddb11eac2a84a1", "79050c6b9ea422ad", "2d111d3d774e68cd")),
    ((*STITCH_CASES[3], True),
     ("a86f02bf3690d394", "7d3c7977d9a5fd37", "8bf30b7c61b5448b")),
    ((*STITCH_CASES[5], True),
     ("333a2fb994d561b4", "14cd25c4ff9f1c8e", "bf213bf27b2db61f")),
]


@pytest.mark.parametrize("case, digests", PINNED_STITCHES)
def test_stitch_blocks_of_trials_pinned(case, digests):
    kernel, deltas, depth, flips = case
    for trials, digest in zip(PINNED_TRIALS, digests, strict=True):
        report = stitch_blocks(kernel, deltas, trials, 29, depth)
        assert hashlib.sha256(repr(report).encode()).hexdigest()[:16] == digest, trials
    # The flip cases pin the audit of u where it differs from w: some
    # depth the schedule runs has antitone entries.  markov1-demo has none.
    engine = make_engine(kernel, 1, depth)
    runs = range(1, 2 - min(r.n_j for r in report.rows))
    assert any(engine.table(p).flip is not None for p in runs) == flips


def test_stitch_memory_stays_blockwise():
    # The stitch holds one block of trials, and the audit its block-sized
    # buffers: it peaks at 9.26 MiB, and the bound leaves 0.74 MiB for
    # numpy's temporaries.  Holding u for all 4 blocks of trials at once,
    # it peaked at 24.6 MiB.
    tracemalloc.start()
    try:
        stitch_blocks(MARKOV1, BENCH_DELTAS, 4 * TRIAL_BLOCK, 29, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20, peak
