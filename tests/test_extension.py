import numpy as np
import pytest

from coupledchains.extension import (
    AnchorSelectionError,
    CouplingEngine,
    choose_anchor,
    coupled_run,
    expected_generator_gap,
    generator_error_check,
    joint_step_law,
    reconstruct_from_u,
    stitch_blocks,
    u_step,
)
from coupledchains.kernels import IIDKernel, builtin_kernels
from coupledchains.reconstruction import simulate_path, window_reconstruct
from coupledchains.rng import stream_rng
from coupledchains.vershik import GeneratorConfig, coupling_table

MARKOV1 = builtin_kernels()["markov1-demo"]
IID = IIDKernel(0.5)


def make_engine(kernel, p_max=8, depth=4):
    return CouplingEngine.build(kernel, p_max, GeneratorConfig(depth))


# ---------------------------------------------------------------------------
# Single steps


def test_u_step_flip():
    u, _ = u_step(0.2, 1, (0,), MARKOV1)
    assert u == pytest.approx(0.8)
    u, _ = u_step(0.2, -1, (0,), MARKOV1)
    assert u == pytest.approx(0.2)


def test_u_step_threshold():
    # P(0 | context ending in 0) = 0.7: u = 0.9 thresholds to symbol 1.
    u, xhat = u_step(0.9, -1, (0,), MARKOV1)
    assert (u, xhat) == (0.9, 1)
    _, xhat = u_step(0.5, -1, (0,), MARKOV1)
    assert xhat == 0


def test_u_step_validates():
    with pytest.raises(ValueError):
        u_step(0.5, 0, (0,), MARKOV1)


# ---------------------------------------------------------------------------
# Coupled runs and reconstruction


def test_round_trip_reconstruction():
    # Depth 7 gives contexts of L = 8 bits, enough for the whole window.
    engine = make_engine(MARKOV1, depth=7)
    rng = stream_rng(31, "t")
    trials, n = 50, -7
    ctx_true = rng.choice(engine.pi.size, p=engine.pi, size=trials)
    ctx_hat = np.zeros(trials, dtype=np.int64)
    w = rng.random((trials, -n + 1))
    u, end_true, end_hat = coupled_run(engine, n, ctx_true, ctx_hat, w)
    x, xhat = reconstruct_from_u(engine, u, ctx_true, ctx_hat)
    # The reconstruction reproduces the true symbols bit for bit.
    steps = -n + 1
    for t in range(steps):
        assert np.array_equal(x[:, t], (end_true >> (steps - 1 - t)) & 1)
        assert np.array_equal(xhat[:, t], (end_hat >> (steps - 1 - t)) & 1)


def test_coupled_run_contexts_stay_within_table_width():
    engine = make_engine(MARKOV1).extend(101)
    trials, steps = 200, 100
    w = stream_rng(32, "width").random((trials, steps))
    zeros = np.zeros(trials, dtype=np.int64)
    _, end_true, end_hat = coupled_run(engine, -(steps - 1), zeros, zeros, w)
    for ctx in (end_true, end_hat):
        assert ctx.min() >= 0 and ctx.max() < 1 << engine.length


def test_iid_orientation_all_monotone():
    engine = make_engine(IID, p_max=5)
    for t in engine.tables[1:]:
        assert np.all(t.orientation == -1)


def test_iid_u_equals_w_and_matches_plain_replay():
    # With orientation identically -1, U = W and the orientation-driven
    # reconstruction coincides with the plain innovation replay.
    engine = make_engine(IID, p_max=10)
    sample = simulate_path(IID, 10, 41)
    w = sample.w.reshape(1, -1)
    u, end_true, _ = coupled_run(
        engine, -9, np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), w
    )
    assert np.array_equal(u, w)
    plain = window_reconstruct(IID, sample.w)
    x, _ = reconstruct_from_u(engine, u, np.zeros(1, dtype=np.int64),
                              np.zeros(1, dtype=np.int64))
    assert np.array_equal(x[0], plain)
    assert np.array_equal(x[0], sample.x)


def test_joint_one_step_law_matches_coupling_table():
    # Monte Carlo the first coupled step for fixed contexts and compare
    # with the optimal coupling table entries.
    engine = make_engine(MARKOV1, p_max=2)
    trials = 200_000
    rng = stream_rng(55, "joint")
    ctx_true = np.zeros(trials, dtype=np.int64)  # true context ends in 0
    ctx_hat = np.ones(trials, dtype=np.int64)  # anchor context ends in 1
    w = rng.random((trials, 1))
    lam = int(engine.orientations(1, 0, 1))
    _, end_true, end_hat = coupled_run(engine, 0, ctx_true, ctx_hat, w)
    table = coupling_table(0.7, 0.4, lam)
    for a in (0, 1):
        for b in (0, 1):
            freq = np.mean(((end_true & 1) == a) & ((end_hat & 1) == b))
            assert freq == pytest.approx(table[a, b], abs=4e-3)


# ---------------------------------------------------------------------------
# Exact window law


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
    _, end_true, end_hat = coupled_run(engine, -(steps - 1), ctx, anchor, w)
    assert np.all(((end_true ^ end_hat) & ((1 << steps) - 1)) == 0)


def test_joint_window_cap():
    engine = make_engine(MARKOV1, p_max=2)
    from coupledchains.kernels import CapExceededError

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
        depth = steps - t
        new = np.zeros_like(joint)
        for cx in range(1 << L):
            f = table[cx & kmask] if kernel.memory else table[0]
            for ch in range(1 << L):
                p = joint[cx, ch]
                if p == 0.0:
                    continue
                g = table[ch & kmask] if kernel.memory else table[0]
                lam = int(engine.orientations(depth, cx, ch))
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
    gen = engine.generator_values(np.arange(1 << L))
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
    report = stitch_blocks(MARKOV1, (0.2, 0.1), 2_000, 71, GeneratorConfig(5))
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
        stitch_blocks(MARKOV1, (0.2, 1e-6), 100, 1, GeneratorConfig(4))
