"""Orientation-driven innovations, anchored companion chains, and the
block-stitched product-type sequence.

Given the metric tables of :mod:`.vershik`, each step of the true chain
is re-encoded relative to a companion ("hat") chain started from an
anchor word: the innovation W is kept or flipped to U = 1 - W according
to the orientation of the optimal coupling between the two conditional
laws, and the hat chain thresholds U against its own conditional
probability.  The joint one-step law of (X, X-hat) is then exactly the
optimal 2x2 coupling, the expected truncated-generator gap equals an
exact integral against the metric table, and stitching shifted blocks
of U yields an iid-uniform sequence from which the generator can be
recovered within any tolerance schedule.

One walk, :func:`coupled_run`, serves both directions: fed W it
re-encodes to U, fed U it rebuilds the true chain.  It returns the end
contexts, writes the other uniforms only into a buffer it is given (the
forward stitch passes the same columns as input and buffer, re-encoding
W into U in place), and steps through :func:`.reconstruction.coupled_walk`.

Time convention: a run over [N; 0] takes |N|+1 steps; the step landing
at time t uses the orientation table at depth -t + 1 (depth |N|+1 first,
depth 1 last).  Contexts are integer words, most recent symbol at bit 0,
kept to the table length L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .innovation import AuditReport, innovation_audit
from .kernels import CapExceededError, Kernel
from .reconstruction import coupled_walk
from .rng import sample_index, stream_rng
from .vershik import CouplingEngine, GeneratorConfig, coupling_table
from .words import Word, as_word, int_to_word, word_to_int


_MAX_BLOCK_DEPTH = 200


class AnchorSelectionError(RuntimeError):
    """No candidate anchor meets the requested integral bound."""


def coupled_run(
    engine: CouplingEngine,
    v: np.ndarray,
    ctx_true: np.ndarray,
    ctx_hat: np.ndarray,
    v_is_u: bool = False,
    other=None,
):
    """Re-encode a window of v.shape[1] steps, vectorized over trials.

    ``v`` has shape (trials, steps) and holds the innovations w of the
    true chain, or with ``v_is_u`` the re-encoded u, from which the run
    rebuilds the true chain (the flip is its own inverse).  Contexts are
    integer words for the pasts before the window.  Returns (ctx_true,
    ctx_hat), the contexts at the window's end, and writes the other
    uniforms into `other` (shape of `v`, any strides; it may be `v`).
    The steps run through :func:`coupled_walk`, one block of trials at a
    time, each with the flip table of its depth
    (:attr:`.vershik.MetricTable.flip`); a depth without antitone entries
    steps as a plain replay, u = w.
    """
    steps = v.shape[1]
    mask = (1 << engine.length) - 1
    ctx_true = np.asarray(ctx_true, dtype=np.int64) & mask
    ctx_hat = np.asarray(ctx_hat, dtype=np.int64) & mask
    flips = [engine.table(steps - t).flip for t in range(steps)]
    coupled_walk(engine.prob0, v, ctx_true, ctx_hat, flips, v_is_u, other)
    return ctx_true, ctx_hat


# ---------------------------------------------------------------------------
# Exact joint window law (identity checks for the coupled construction)


@dataclass(frozen=True)
class JointLawReport:
    window: int
    tv_gap: float  # u-interval pushforward vs coupling-table product
    hat_marginal_gap: float  # hat window law vs kernel chain from anchor
    anchor: Word


def _interval_joint(f_true, f_hat, lam) -> np.ndarray:
    """Joint law of (X, X-hat) from one uniform u by interval overlap.

    X-hat = 0 on u <= f_hat.  X = 0 on u <= f_true for lam = -1, and on
    1 - u <= f_true for lam = +1.  Broadcasts over arrays of (f_true,
    f_hat, lam); entry [a, b] of the result, of shape (2, 2, ...), is
    P(X = a, X-hat = b) for each triple."""
    f, g = f_true, f_hat
    mono = np.array(
        [
            [np.minimum(f, g), np.maximum(f - g, 0.0)],
            [np.maximum(g - f, 0.0), 1.0 - np.maximum(f, g)],
        ]
    )
    anti = np.array(
        [
            [np.maximum(g - (1.0 - f), 0.0), np.minimum(f, 1.0 - g)],
            [np.minimum(1.0 - f, g), np.maximum((1.0 - g) - f, 0.0)],
        ]
    )
    return np.where(lam == -1, mono, anti)


def _push(law: np.ndarray, joint: np.ndarray) -> np.ndarray:
    """One step of a law over context pairs: the mass at (c, d) moves to
    ((c << 1 | a) & mask, (d << 1 | b) & mask) with weight
    joint[a, b][c, d].  The shift drops each context's top bit, so the
    new law sums over the two dropped bits."""
    size = law.shape[0]
    half = size // 2
    moved = (joint * law).reshape(2, 2, 2, half, 2, half).sum(axis=(2, 4))
    return moved.transpose(2, 0, 3, 1).reshape(size, size)


def _window_laws(engine: CouplingEngine, window: int, anchor_int: int):
    """Exact laws of a coupled run over `window` steps from the
    stationary true context and the anchor: the joint law of the (true,
    hat) windows stepped by interval overlap, the same law stepped by
    the coupling tables, and the law of the kernel chain's window from
    the anchor.  Windows are integer codes, most recent symbol at bit 0.

    Contexts carry max(L, window) bits, so each window is the low
    `window` bits of its context at the end.
    """
    L = engine.length
    bits = max(L, window)
    size = 1 << bits
    low = np.arange(size) & ((1 << L) - 1)
    f = engine.kernel.prob0_over(bits)
    f_true, f_hat = f[:, None], f[None, :]
    interval = np.zeros((size, size))
    interval[: 1 << L, anchor_int] = engine.pi
    product = interval
    for t in range(window):
        lam = engine.table(window - t).orientation[np.ix_(low, low)]
        interval = _push(interval, _interval_joint(f_true, f_hat, lam))
        product = _push(product, coupling_table(f_true, f_hat, lam))
    chain = np.zeros(size)
    chain[anchor_int] = 1.0
    for _ in range(window):
        moved = np.array([chain * f, chain * (1.0 - f)])
        chain = moved.reshape(2, 2, size // 2).sum(axis=1).T.ravel()
    paths, rest = 1 << window, size >> window
    return (
        interval.reshape(rest, paths, rest, paths).sum(axis=(0, 2)),
        product.reshape(rest, paths, rest, paths).sum(axis=(0, 2)),
        chain.reshape(rest, paths).sum(axis=0),
    )


def joint_step_law(
    engine: CouplingEngine, window: int, anchor
) -> JointLawReport:
    """Exact joint law of (X[window], X-hat[window]), pushed forward over
    context pairs, against the product of optimal coupling tables.

    Both sides are pushed forward step by step from the stationary law
    on true contexts and the fixed anchor context; the report carries
    the total-variation gap (identical transition laws, so the gap is
    float dust) and the gap between the hat marginal and the kernel
    chain started from the anchor.
    """
    if window > 6:
        raise CapExceededError("exact window enumeration capped at 6")
    L = engine.length
    anchor_int = word_to_int(as_word(anchor)) & ((1 << L) - 1)
    interval, product, chain = _window_laws(engine, window, anchor_int)
    tv = 0.5 * float(np.abs(interval - product).sum())
    hat_gap = 0.5 * float(np.abs(interval.sum(axis=0) - chain).sum())
    return JointLawReport(window, tv, hat_gap, int_to_word(anchor_int, L))


# ---------------------------------------------------------------------------
# Generator-gap identity and anchor choice


@dataclass(frozen=True)
class GeneratorGapReport:
    n_start: int
    anchor: Word
    mc_estimate: float
    stderr: float
    exact_value: float
    tolerance: float
    verdict: str  # "match" | "mismatch"


def expected_generator_gap(engine: CouplingEngine, n_start: int, anchor) -> float:
    """Exact E|R_D - R_D(hat)| for a coupled run over [n_start; 0]:
    the metric-table integral against the stationary context law."""
    anchor_int = word_to_int(as_word(anchor))
    return float(np.sum(engine.pi * engine.table(1 - n_start).values[:, anchor_int]))


def generator_error_check(
    engine: CouplingEngine,
    n_start: int,
    anchor,
    trials: int,
    seed: int,
) -> GeneratorGapReport:
    """Monte Carlo the coupled-run generator gap and compare with the
    exact integral; tolerance 3*stderr + one truncation allowance."""
    anchor_int = word_to_int(as_word(anchor))
    rng = stream_rng(seed, "generator-gap", engine.kernel.label, f"N{n_start}")
    ctx_true = sample_index(rng, engine.pi, trials)
    ctx_hat = np.full(trials, anchor_int, dtype=np.int64)
    w = rng.random((trials, 1 - n_start))
    end_true, end_hat = coupled_run(engine, w, ctx_true, ctx_hat)
    gaps = np.abs(
        engine.generator_values(end_true) - engine.generator_values(end_hat)
    )
    mc = float(gaps.mean())
    stderr = float(gaps.std(ddof=1) / np.sqrt(trials))
    exact = expected_generator_gap(engine, n_start, anchor)
    tol = 3.0 * stderr + 3.0 ** (-engine.config.depth)
    verdict = "match" if abs(mc - exact) <= tol else "mismatch"
    return GeneratorGapReport(
        n_start, int_to_word(anchor_int, engine.length), mc, stderr, exact, tol, verdict
    )


def choose_anchor(
    engine: CouplingEngine, n_start: int, delta: float
) -> tuple[Word, float]:
    """Argmin anchor for the exact generator-gap integral over [n_start; 0].

    All 2^L words are scanned (L is capped small); ties go to the
    smallest word code.  Raises AnchorSelectionError when no anchor
    achieves the bound."""
    integrals = engine.anchor_integrals(1 - n_start)
    best = int(np.argmin(integrals))
    value = float(integrals[best])
    if value >= delta:
        raise AnchorSelectionError(
            f"best anchor integral {value:.6g} >= delta {delta:.6g} at "
            f"window start {n_start}; extend the window (larger |N|)"
        )
    return int_to_word(best, engine.length), value


# ---------------------------------------------------------------------------
# Block stitching


@dataclass(frozen=True)
class StitchRow:
    j: int
    n_j: int
    m_j: int
    k_j: int
    delta_j: float
    alpha_used: float
    anchor: Word
    exceed_freq: float
    stderr: float
    verdict: str  # "ok" | "exceeded"


@dataclass(frozen=True)
class StitchReport:
    rows: list[StitchRow]
    audit: AuditReport
    trials: int

    @property
    def passed(self) -> bool:
        return all(r.verdict == "ok" for r in self.rows) and self.audit.passed


def _plan_block(engine: CouplingEngine, threshold: float, p_min: int):
    """Smallest window depth p >= p_min with alpha_p below the threshold
    and a feasible anchor; returns (p, alpha_p, anchor)."""
    for p in range(p_min, _MAX_BLOCK_DEPTH + 1):
        a = engine.alpha(p)
        if a < threshold:
            try:
                return p, a, choose_anchor(engine, -(p - 1), threshold)[0]
            except AnchorSelectionError:
                pass
    raise CapExceededError(
        f"coupling-distance threshold {threshold:.3g} not reached within "
        f"_MAX_BLOCK_DEPTH = {_MAX_BLOCK_DEPTH} metric-table depths"
    )


def _replay_ends(engine, u, cols, anchors, ctx_before_0, hat_ends):
    """End contexts of the inverse runs of every stitch row over the
    stitched u: row 0 replays block 0 (columns `cols[0]`) from
    `ctx_before_0`, and row j >= 1 replays blocks j-1 .. 0 from the
    anchor word of block j-1, each block i with its hat chain at
    `anchors[i]`.

    Row j is carried as lane j, one context array, through the blocks
    in time order; two shortcuts make this exact work once per lane.
    Every metric table has value 0 and orientation -1 on its diagonal,
    so a lane that starts a block with true = hat never flips and
    retraces the block's forward hat chain: lane j leaves block j-1 at
    `hat_ends[j-1]` without a run.  And a run is a function of its entry
    context per trial, so a trial that enters a block in the same
    context as lane j-1 ends in lane j-1's context; only the other trials
    of lane j are replayed.  Lane j therefore replays block j-2 in full,
    and few trials afterwards.  While more than half of a lane's trials
    are live it runs them all, since gathering the live rows of u costs
    more than stepping the merged ones; their ends are overwritten.
    """
    def run(i, ctx, rows):
        hat = np.full(len(ctx), anchors[i], dtype=np.int64)
        return coupled_run(engine, u[rows, cols[i]], ctx, hat, v_is_u=True)[0]

    lanes = []  # lanes 1, 2, ... at the current block boundary
    for i in reversed(range(len(cols) - 1)):
        # Lane i+1 enters block i at anchors[i]; the older lanes enter it
        # at their contexts, merged where they meet the next newer lane.
        entries = [anchors[i]] + lanes
        merged = [ctx == entry for ctx, entry in zip(lanes, entries)]
        newer_end = hat_ends[i]
        for ctx, same in zip(lanes, merged):
            live = np.flatnonzero(~same)
            rows = slice(None) if 2 * live.size > len(ctx) else live
            if live.size:
                ctx[rows] = run(i, ctx[rows], rows)
            np.copyto(ctx, newer_end, where=same)
            newer_end = ctx
        lanes.insert(0, hat_ends[i])
    return [run(0, ctx_before_0, slice(None))] + lanes


def stitch_blocks(
    kernel: Kernel,
    deltas: tuple[float, ...],
    trials: int,
    seed: int,
    config: GeneratorConfig = GeneratorConfig(),
) -> StitchReport:
    """Build the stitched innovation sequence over J+1 shifted blocks
    and verify, per block, that the recovered truncated generator stays
    within the tolerance schedule.

    Block j covers times [M_{j+1}; M_j - 1] with M_0 = 1 and
    M_{j+1} = M_j + N_j - 1.  Its window start N_j is chosen so the
    depth-(|N_j|+1) coupling distance (and the chosen anchor's exact
    integral) beat delta_0 for j = 0 and 3^(K_j - M_j + 1) * delta_j / 2
    for j >= 1, where K_j = M_j - L pins the exact context window.
    Estimates P(|S_j - R_D| > delta_j) per block and audits the pooled
    stitched innovations.

    S_j is read off an inverse coupled run over the stitched u: row 0
    replays block 0 from the true context before it (an exact round
    trip), and row j >= 1 replays blocks j-1 .. 0 from block j-1's
    anchor word, each block's hat chain regenerated from its own anchor.
    :func:`_replay_ends` computes these ends byte-identically with less
    work: row j takes block j-1 from the forward hat chain without a run,
    and past block j-2 it replays only its trials that have not met row
    j-1 at a block boundary.
    """
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("tolerance schedule must be strictly decreasing")
    if 3.0 ** (-config.depth) > deltas[-1]:
        raise ValueError(
            "generator depth too small for the final tolerance: need "
            "3^-D <= delta_J"
        )
    n_blocks = len(deltas)
    engine = CouplingEngine.build(kernel, 1, config)
    L = engine.length

    # Deterministic planning phase.
    m = [1]
    n_starts, k_cuts, alphas, anchors = [], [], [], []
    for j, delta in enumerate(deltas):
        k_j = m[j] - L
        if j == 0:
            threshold = delta
        else:
            threshold = 3.0 ** (k_j - m[j] + 1) * delta / 2.0
        p, a, anchor = _plan_block(engine, threshold, p_min=L)
        n_j = -(p - 1)
        n_starts.append(n_j)
        k_cuts.append(k_j)
        alphas.append(a)
        anchors.append(anchor)
        m.append(m[j] + n_j - 1)

    # Simulation phase: one pass over absolute times M_{J+1} .. 0.  Block
    # j is a coupled run over [N_j; 0] whose hat chain starts from its
    # anchor; blocks run from the earliest (j = J) to block 0.
    t_min = m[n_blocks]
    rng = stream_rng(seed, "stitch", kernel.label, f"J{n_blocks - 1}")
    ctx_true = sample_index(rng, engine.pi, trials)
    # w, re-encoded into u in place one block at a time.
    u = rng.random((trials, 1 - t_min))
    cols = [slice(m[j + 1] - t_min, m[j] - t_min) for j in range(n_blocks)]
    anchor_ints = [word_to_int(a) for a in anchors]
    hat_ends = [None] * n_blocks
    for j in reversed(range(n_blocks)):
        if j == 0:
            ctx_before_0 = ctx_true
        hat = np.full(trials, anchor_ints[j], dtype=np.int64)
        ctx_true, hat_ends[j] = coupled_run(engine, u[:, cols[j]], ctx_true,
                                            hat, other=u[:, cols[j]])
    r_true = engine.generator_values(ctx_true)

    # Per-block recovery of the truncated generator.
    ends = _replay_ends(engine, u, cols, anchor_ints, ctx_before_0, hat_ends)
    rows = []
    for j, delta in enumerate(deltas):
        s_j = engine.generator_values(ends[j])
        exceed = np.abs(s_j - r_true) > delta
        freq = float(exceed.mean())
        stderr = float(np.sqrt(freq * (1.0 - freq) / trials))
        verdict = "ok" if freq <= delta + 3.0 * stderr else "exceeded"
        rows.append(
            StitchRow(
                j, n_starts[j], m[j], k_cuts[j], delta, alphas[j],
                anchors[j], freq, stderr, verdict,
            )
        )

    del ends, hat_ends, ctx_before_0  # the audit sets the peak memory
    audit = innovation_audit(u.ravel())
    return StitchReport(rows, audit, trials)
