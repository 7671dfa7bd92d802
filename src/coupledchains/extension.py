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
re-encodes to U, fed U it rebuilds the true chain.  It looks up each
depth's flip table and steps through :func:`.reconstruction.coupled_walk`.
The generator-gap check and the stitch read their trials one block at a
time from :func:`.reconstruction._trial_blocks`: the gap check counts
each block by its end pair of contexts, and the stitch re-encodes each
block's W into U in place and feeds it to the audit.

Time convention: a run over [N; 0] takes |N|+1 steps; the step landing
at time t uses the orientation table at depth -t + 1 (depth |N|+1 first,
depth 1 last).  Contexts are integer words, most recent symbol at bit 0,
kept to the table length L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .innovation import AuditReport, _audit
from .kernels import CapExceededError, Kernel, lift, marginal, push
from .reconstruction import _trial_blocks, coupled_walk
from .rng import MC_SIGMAS, frequency, stream_rng
from .vershik import (DEFAULT_DEPTH, CouplingEngine, coupling_table, pair_counts,
                      pair_mean_stderr)
from .words import Word, as_word, int_to_word, word_str, word_to_int


_MAX_BLOCK_DEPTH = 200


class AnchorSelectionError(RuntimeError):
    """No candidate anchor meets the requested integral bound."""


def _anchor_code(engine: CouplingEngine, anchor) -> int:
    """The L-bit context code of an anchor word of at most L symbols,
    zero-padded on the left; a longer word is a ValueError."""
    word = as_word(anchor)
    if len(word) > engine.length:
        raise ValueError(f"anchor {word_str(word)!r} is longer than the "
                         f"table length {engine.length}")
    return word_to_int(word)


def coupled_run(
    engine: CouplingEngine,
    v: np.ndarray,
    ctx_true: np.ndarray,
    ctx_hat: np.ndarray,
    v_is_u: bool = False,
    other=None,
):
    """Re-encode a window of v.shape[1] steps, vectorized over trials.

    ``v`` has shape (trials, steps), any strides, and holds the
    innovations w of the true chain, or with ``v_is_u`` the re-encoded
    u, from which the run rebuilds the true chain (the flip is its own
    inverse).  Contexts are integer words for the pasts before the
    window, int64 arrays that must not share memory.  The run updates
    them in place, cut to the table length L and then stepped to the
    window's end, and returns them as (ctx_true, ctx_hat); a caller
    that needs the start contexts again passes copies.  It writes the
    other uniforms into `other` (shape of `v`, any strides; it may be
    `v`).  The steps run through :func:`coupled_walk`, each with the
    flip table of its depth (:attr:`.vershik.MetricTable.flip`); a depth
    without antitone entries steps as a plain replay, u = w.
    """
    if np.may_share_memory(ctx_true, ctx_hat):
        raise ValueError("ctx_true and ctx_hat must not share memory")
    steps = v.shape[1]
    mask = (1 << engine.length) - 1
    ctx_true &= mask
    ctx_hat &= mask
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
    mono = np.array([[np.minimum(f, g), np.maximum(f - g, 0.0)],
                     [np.maximum(g - f, 0.0), 1.0 - np.maximum(f, g)]])
    anti = np.array([[np.maximum(g - (1.0 - f), 0.0), np.minimum(f, 1.0 - g)],
                     [np.minimum(1.0 - f, g), np.maximum((1.0 - g) - f, 0.0)]])
    return np.where(lam == -1, mono, anti)


def _window_laws(engine: CouplingEngine, window: int, anchor_int: int):
    """Exact laws of a coupled run over `window` steps from the
    stationary true context and the anchor: the joint law of the (true,
    hat) windows stepped by interval overlap, the same law stepped by
    the coupling tables, and the law of the kernel chain's window from
    the anchor.  Windows are integer codes, most recent symbol at bit 0.

    Contexts carry max(L, window) bits, so each window is the low
    `window` bits of its context at the end.
    """
    bits = max(engine.length, window)
    size = 1 << bits
    f = engine.kernel.prob0_over(bits)
    f_true, f_hat = f[:, None], f[None, :]
    interval, chain = np.zeros((size, size)), np.zeros(size)
    interval[: engine.pi.size, anchor_int] = engine.pi
    chain[anchor_int] = 1.0
    product = interval
    for t in range(window):
        lam = lift(engine.table(window - t).orientation, bits)
        interval = push(interval, _interval_joint(f_true, f_hat, lam))
        product = push(product, coupling_table(f_true, f_hat, lam))
        chain = push(chain, np.array([f, 1.0 - f]))
    return tuple(marginal(law, window) for law in (interval, product, chain))


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
    anchor_int = _anchor_code(engine, anchor)
    interval, product, chain = _window_laws(engine, window, anchor_int)
    tv = 0.5 * float(np.abs(interval - product).sum())
    hat_gap = 0.5 * float(np.abs(interval.sum(axis=0) - chain).sum())
    return JointLawReport(window, tv, hat_gap, int_to_word(anchor_int, engine.length))


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
    return float(engine.anchor_integrals(1 - n_start)[_anchor_code(engine, anchor)])


def generator_error_check(
    engine: CouplingEngine,
    n_start: int,
    anchor,
    trials: int,
    seed: int,
) -> GeneratorGapReport:
    """Monte Carlo the coupled-run generator gap and compare with the
    exact integral; tolerance MC_SIGMAS * stderr + one truncation
    allowance.

    The trials run one block at a time (:func:`_trial_blocks`) and are
    counted by their end pair code (:func:`.vershik.pair_counts`); the
    depth-0 metric table is |R_D(x) - R_D(y)| at every pair code."""
    anchor_int = _anchor_code(engine, anchor)
    rng = stream_rng(seed, "generator-gap", engine.kernel.label, f"N{n_start}")

    def ends():
        for ctx_true, w in _trial_blocks(rng, engine.pi, trials, 1 - n_start):
            ctx_hat = np.full(ctx_true.size, anchor_int, dtype=np.int64)
            yield coupled_run(engine, w, ctx_true, ctx_hat)

    counts = pair_counts(ends(), engine.length)
    mc, stderr = pair_mean_stderr(engine.table(0).values.ravel(), counts)
    exact = expected_generator_gap(engine, n_start, anchor)
    tol = MC_SIGMAS * stderr + 3.0 ** (-engine.depth)
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
    depth: int = DEFAULT_DEPTH,
) -> StitchReport:
    """Build the stitched innovation sequence over J+1 shifted blocks
    and verify, per block, that the recovered truncated generator stays
    within the tolerance schedule.

    Block j covers times [M_{j+1}; M_j - 1] with M_0 = 1 and
    M_{j+1} = M_j + N_j - 1.  Its window start is N_j = -(p - 1) for
    the smallest depth p >= L at which the coupling distance alpha_p and
    the best anchor's exact integral both lie below a threshold: delta_0
    for j = 0, and 3^(K_j - M_j + 1) * delta_j / 2 = 3^(1 - L) *
    delta_j / 2 for j >= 1, where K_j = M_j - L.
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

    The trials are read one block of TRIAL_BLOCK at a time from
    :func:`_trial_blocks`; :func:`_stitch_trials` re-encodes each block's
    w into u in that source's buffer, replays it and counts each row's
    exceedances, and the audit reads the block's u before the next block
    overwrites it.  So the stitch holds O(TRIAL_BLOCK x T) memory.  Rows
    and audit are those of stitching all trials at once: the blocks of
    trials are consecutive rows of the one draw of w, the exceedances add
    as integers, and the audit does not depend on how its source is cut.
    """
    engine = CouplingEngine.build(kernel, 1, depth)
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("tolerance schedule must be strictly decreasing")
    if 3.0 ** (-depth) > deltas[-1]:
        raise ValueError(
            "generator depth too small for the final tolerance: need "
            "3^-D <= delta_J"
        )
    n_blocks = len(deltas)
    L = engine.length

    # Deterministic planning phase.
    m = [1]
    n_starts, alphas, anchors = [], [], []
    for j, delta in enumerate(deltas):
        threshold = delta if j == 0 else 3.0 ** (1 - L) * delta / 2.0
        p, a, anchor = _plan_block(engine, threshold, p_min=L)
        n_j = -(p - 1)
        n_starts.append(n_j)
        alphas.append(a)
        anchors.append(anchor)
        m.append(m[j] + n_j - 1)

    # Simulation phase: one pass over absolute times M_{J+1} .. 0, one
    # block of trials at a time.  Block j is a coupled run over [N_j; 0]
    # whose hat chain starts from its anchor; blocks run from the
    # earliest (j = J) to block 0.
    t_min = m[n_blocks]
    width = 1 - t_min
    rng = stream_rng(seed, "stitch", kernel.label, f"J{n_blocks - 1}")
    cols = [slice(m[j + 1] - t_min, m[j] - t_min) for j in range(n_blocks)]
    anchor_ints = [word_to_int(a) for a in anchors]
    far = []  # per trial block, the trials of each row whose S_j is far

    def stitched():
        for ctx, u in _trial_blocks(rng, engine.pi, trials, width):
            far.append(_stitch_trials(engine, u, ctx, cols, anchor_ints, deltas))
            yield u.ravel()  # w re-encoded into u in place

    audit = _audit(stitched(), trials * width)

    rows = []
    for j, (delta, exceeded) in enumerate(zip(deltas, map(sum, zip(*far)))):
        freq, stderr = frequency(exceeded, trials)
        verdict = "ok" if freq <= delta + MC_SIGMAS * stderr else "exceeded"
        rows.append(
            StitchRow(
                j, n_starts[j], m[j], m[j] - L, delta, alphas[j],
                anchors[j], freq, stderr, verdict,
            )
        )
    return StitchReport(rows, audit, trials)


def _stitch_trials(engine, u, ctx_true, cols, anchors, deltas):
    """Stitch one block of trials: re-encode their innovations `u` (w on
    entry, shape (trials, width)) into u in place, block j over columns
    `cols[j]` from the true contexts `ctx_true` and its hat chain at
    `anchors[j]`; a run none of whose depths has antitone entries keeps
    u = w and writes nothing.  Returns per row j the trials whose S_j is
    more than `deltas[j]` from R_D."""
    hat_ends = [None] * len(cols)
    for j in reversed(range(len(cols))):
        if j == 0:
            ctx_before_0 = ctx_true.copy()  # the run below moves ctx_true
        block = u[:, cols[j]]
        hat = np.full(len(ctx_true), anchors[j], dtype=np.int64)
        flips = any(engine.table(p).flip is not None
                    for p in range(1, block.shape[1] + 1))
        ctx_true, hat_ends[j] = coupled_run(engine, block, ctx_true, hat,
                                            other=block if flips else None)
    r_true = engine.generator.take(ctx_true)
    ends = _replay_ends(engine, u, cols, anchors, ctx_before_0, hat_ends)
    return [int(np.count_nonzero(np.abs(engine.generator.take(e) - r_true) > delta))
            for e, delta in zip(ends, deltas)]
