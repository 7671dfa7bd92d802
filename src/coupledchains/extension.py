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
time from :func:`.rng._trial_blocks`: the gap check counts each block by
its end pair of contexts, and the stitch re-encodes each block's W into
U in place and feeds it to the audit.  The stitch makes
one pass over its blocks, in time order: each block is re-encoded and
then every row that has started is carried through it by an inverse
run, and row 0, whose inverse run would retrace the forward one exactly,
is read off the forward run's true end.

Time convention: a run over [N; 0] takes |N|+1 steps; the step landing
at time t uses the orientation table at depth -t + 1 (depth |N|+1 first,
depth 1 last).  Contexts are integer words, most recent symbol at bit 0,
kept to the table length L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .innovation import AUDIT_MIN_SAMPLES, AuditReport, _audit
from .kernels import CapExceededError, Kernel
from .reconstruction import coupled_walk
from .rng import MC_SIGMAS, _trial_blocks, frequency, stream_rng
from .vershik import DEFAULT_DEPTH, CouplingEngine, pair_counts, pair_mean_stderr
from .words import Word, as_word, int_to_word, word_str, word_to_int


_MAX_BLOCK_DEPTH = 200
# Most tolerances in a stitch schedule.  Each adds a block of at most
# _MAX_BLOCK_DEPTH steps and a replay lane, so a stitch is at most 3200
# steps wide: a block of 2048 trials (`_trial_blocks`) holds at most
# 50 MiB of uniforms, and each trial is stepped over the width at most
# 16 times (the forward run and at most 15 lanes of `_stitch_trials`).
# Halving from 0.5 down to the finest final tolerance, 3^-7, takes 11.
MAX_TOLERANCES = 16


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


def choose_anchor(engine: CouplingEngine, n_start: int) -> tuple[Word, float]:
    """Argmin anchor for the exact generator-gap integral over [n_start; 0],
    and its integral.

    All 2^L words are scanned (L is capped small); ties go to the
    smallest word code."""
    integrals = engine.anchor_integrals(1 - n_start)
    best = int(np.argmin(integrals))
    return int_to_word(best, engine.length), float(integrals[best])


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
    """Smallest window depth p >= p_min with alpha_p and the least anchor
    integral below the threshold; returns (p, alpha_p, anchor)."""
    for p in range(p_min, _MAX_BLOCK_DEPTH + 1):
        a = engine.alpha(p)
        if a < threshold:
            anchor, integral = choose_anchor(engine, 1 - p)
            if integral < threshold:
                return p, a, anchor
    raise CapExceededError(
        f"coupling-distance threshold {threshold:.3g} not reached within "
        f"_MAX_BLOCK_DEPTH = {_MAX_BLOCK_DEPTH} metric-table depths"
    )


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
    stitched innovations.  The schedule is positive, strictly decreasing
    and holds at most MAX_TOLERANCES tolerances, the last at least 3^-D,
    and the trials x width innovations stitched are at least the audit's
    AUDIT_MIN_SAMPLES; each is checked before any trial is run.

    S_j is read off an inverse coupled run over the stitched u: row j >= 1
    replays blocks j-1 .. 0 from block j-1's anchor word, each block's
    hat chain regenerated from its own anchor, and row 0 is the true end
    of the forward run, which the inverse run of block 0 from the true
    context before it would retrace exactly.  :func:`_stitch_trials`
    makes one pass over the blocks in time order: it re-encodes block j
    and then carries rows j+2 .. J through it, replaying only their
    trials that have not met the next newer row at a block boundary; row
    j+1 leaves block j at its forward hat end without a run.

    The trials are read one block at a time from :func:`_trial_blocks`;
    :func:`_stitch_trials` re-encodes each block's w into u in that
    source's buffer and returns each row's end contexts, whose
    exceedances are counted here, and the audit copies the block's u into
    its window buffer before the next block overwrites it.  So the stitch
    holds one block of at most
    max(4 _BLOCK, TRIAL_BLOCK x T / 4) uniforms, T the width, and a few
    arrays of one block's trials.  Rows and audit are those of stitching
    all trials at once: the blocks of trials are consecutive rows of the
    one draw of w, the exceedances add as integers, and the audit does
    not depend on how its source is cut.
    """
    if len(deltas) > MAX_TOLERANCES:
        raise ValueError(f"tolerance schedule holds {len(deltas)} tolerances, "
                         f"more than MAX_TOLERANCES = {MAX_TOLERANCES}")
    for j, delta in enumerate(deltas):
        if not delta > 0:
            raise ValueError(f"tolerance delta_{j} = {delta!r} must be > 0")
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
    if trials * width < AUDIT_MIN_SAMPLES:
        raise ValueError(
            f"the stitch audits trials x width = {trials} x {width} innovations, "
            f"fewer than the audit's {AUDIT_MIN_SAMPLES}: raise trials")
    rng = stream_rng(seed, "stitch", kernel.label, f"J{n_blocks - 1}")
    cols = [slice(m[j + 1] - t_min, m[j] - t_min) for j in range(n_blocks)]
    anchor_ints = [word_to_int(a) for a in anchors]
    exceeded = [0] * n_blocks  # per row, the trials whose S_j is far

    def stitched():
        for ctx, u in _trial_blocks(rng, engine.pi, trials, width):
            # R_D at each row's end; row 0 ends at the true context.
            s = [engine.generator.take(e)
                 for e in _stitch_trials(engine, u, ctx, cols, anchor_ints)]
            for j, (s_j, delta) in enumerate(zip(s, deltas)):
                far = np.abs(s_j - s[0]) > delta
                exceeded[j] += int(np.count_nonzero(far))
            yield u.ravel()  # w re-encoded into u in place

    audit = _audit(stitched(), trials * width)

    rows = []
    for j, (delta, count) in enumerate(zip(deltas, exceeded)):
        freq, stderr = frequency(count, trials)
        verdict = "ok" if freq <= delta + MC_SIGMAS * stderr else "exceeded"
        rows.append(
            StitchRow(
                j, n_starts[j], m[j], m[j] - L, delta, alphas[j],
                anchors[j], freq, stderr, verdict,
            )
        )
    return StitchReport(rows, audit, trials)


def _stitch_trials(engine, u, ctx_true, cols, anchors):
    """Stitch one block of trials in one pass over its blocks, in time
    order: re-encode block j of their innovations `u` (w on entry, shape
    (trials, width)) into u in place, over columns `cols[j]` from the
    true contexts and its hat chain at `anchors[j]`, then carry the rows
    that have started through it.  A run none of whose depths has
    antitone entries keeps u = w and writes nothing.  Returns the end
    contexts of rows 0 .. J.

    Row 0 is the forward true end, `ctx_true` moved in place: the
    inverse run from the same entry context would retrace it, since the
    stream's doubles are multiples of 2^-53, so u = 1 - w is exact and
    1 - u gives w back.  Row j >= 1 is carried as a lane, one context
    array, and two shortcuts make this exact work once per lane.  Every
    metric table has value 0 and orientation -1 on its diagonal, so a
    lane that starts a block with true = hat never flips and retraces the
    block's forward hat chain: row j, which starts at block j-1's anchor,
    leaves that block at its forward hat end without a run.  And a run is
    a function of its entry context per trial, so a trial that enters a
    block in the same context as row j-1 ends in row j-1's context; only
    the other trials of row j are replayed.  Row j therefore replays
    block j-2 in full, and few trials afterwards.  While more than half
    of a lane's trials are live it runs them all, since gathering the
    live rows of u costs more than stepping the merged ones; their ends
    are overwritten."""
    lanes = []  # rows j+2, j+3, ... as they enter block j
    for j in reversed(range(len(cols))):
        block = u[:, cols[j]]
        hat = np.full(len(ctx_true), anchors[j], dtype=np.int64)
        flips = any(engine.table(p).flip is not None
                    for p in range(1, block.shape[1] + 1))
        ctx_true, hat = coupled_run(engine, block, ctx_true, hat,
                                    other=block if flips else None)
        # Row j+1 enters block j at anchors[j]; the older rows enter it
        # at their contexts, merged where they meet the next newer row.
        entries = [anchors[j]] + lanes
        merged = [ctx == entry for ctx, entry in zip(lanes, entries)]
        newer_end = hat
        for ctx, same in zip(lanes, merged):
            live = np.flatnonzero(~same)
            rows = slice(None) if 2 * live.size > len(ctx) else live
            if live.size:
                sub = ctx[rows]
                hat_j = np.full_like(sub, anchors[j])
                ctx[rows] = coupled_run(engine, u[rows, cols[j]], sub, hat_j,
                                        v_is_u=True)[0]
            np.copyto(ctx, newer_end, where=same)
            newer_end = ctx
        if j < len(cols) - 1:  # no row starts at the earliest block
            lanes.insert(0, hat)
    return [ctx_true] + lanes
