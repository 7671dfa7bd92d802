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
re-encodes to U, fed U it rebuilds the true chain.

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
from .rng import stream_rng
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
):
    """Re-encode a window of v.shape[1] steps, vectorized over trials.

    ``v`` has shape (trials, steps) and holds the innovations w of the
    true chain, or with ``v_is_u`` the re-encoded u, from which the run
    rebuilds the true chain (the flip is its own inverse).  Contexts are
    integer words for the pasts before the window.  Returns (the other
    uniforms, ctx_true, ctx_hat) with the contexts now at the window's
    end.  The steps run through :func:`coupled_walk`, one block of
    trials at a time; each depth's orientation table becomes a flip
    table over context pairs once per run.
    """
    steps = v.shape[1]
    mask = (1 << engine.length) - 1
    ctx_true = np.asarray(ctx_true, dtype=np.int64) & mask
    ctx_hat = np.asarray(ctx_hat, dtype=np.int64) & mask
    flips = [
        engine.table(steps - t).orientation.ravel() != -1 for t in range(steps)
    ]
    other = coupled_walk(engine.prob0, v, ctx_true, ctx_hat, flips, v_is_u)
    return other, ctx_true, ctx_hat


# ---------------------------------------------------------------------------
# Exact joint window law (identity checks for the coupled construction)


@dataclass(frozen=True)
class JointLawReport:
    window: int
    tv_gap: float  # DP via u-interval arithmetic vs coupling-table product
    hat_marginal_gap: float  # hat window law vs kernel chain from anchor
    anchor: Word


def _interval_joint(f_true: float, f_hat: float, lam: int) -> np.ndarray:
    """Joint law of (X, X-hat) from the uniform u by interval overlap:
    X-hat = 1(u > f_hat); X = 1(u > f_true) for lam = -1 and
    X = 1(u >= 1 - f_true... strictly: 1(1-u > f_true)) for lam = +1."""
    out = np.empty((2, 2))
    if lam == -1:
        lo, hi = min(f_true, f_hat), max(f_true, f_hat)
        out[0, 0] = lo
        out[0, 1] = (f_true - f_hat) if f_true > f_hat else 0.0
        out[1, 0] = (f_hat - f_true) if f_hat > f_true else 0.0
        out[1, 1] = 1.0 - hi
    else:
        # X = 0 iff u >= 1 - f_true; X-hat = 0 iff u <= f_hat.
        out[0, 0] = max(0.0, f_hat - (1.0 - f_true))
        out[0, 1] = min(f_true, 1.0 - f_hat)
        out[1, 0] = min(1.0 - f_true, f_hat)
        out[1, 1] = max(0.0, (1.0 - f_hat) - f_true)
    return out


def joint_step_law(
    engine: CouplingEngine, window: int, anchor
) -> JointLawReport:
    """Exact joint law of (X[window], X-hat[window]) by dynamic
    programming, against the product of optimal coupling tables.

    Both sides are pushed forward step by step from the stationary law
    on true contexts and the fixed anchor context; the report carries
    the total-variation gap (identical transition laws, so the gap is
    float dust) and the gap between the hat marginal and the kernel
    chain started from the anchor.
    """
    if window > 6:
        raise CapExceededError("exact window enumeration capped at 6")

    L = engine.length
    mask = (1 << L) - 1
    anchor_int = word_to_int(as_word(anchor)) & mask
    table = engine.kernel.prob0_table.tolist()
    kmask = len(table) - 1

    # States: (ctx_true, ctx_hat, path_true, path_hat) -> prob.
    states_dp: dict[tuple, float] = {}
    states_prod: dict[tuple, float] = {}
    for c in range(1 << L):
        if engine.pi[c] > 0.0:
            states_dp[(c, anchor_int, 0, 0)] = float(engine.pi[c])
            states_prod[(c, anchor_int, 0, 0)] = float(engine.pi[c])

    for t in range(window):
        orient = engine.table(window - t).orientation
        for states, use_interval in ((states_dp, True), (states_prod, False)):
            new: dict[tuple, float] = {}
            for (cx, ch, px, ph), prob in states.items():
                f_true = table[cx & kmask]
                f_hat = table[ch & kmask]
                lam = int(orient[cx, ch])
                if use_interval:
                    joint = _interval_joint(f_true, f_hat, lam)
                else:
                    joint = coupling_table(f_true, f_hat, lam)
                for a in (0, 1):
                    for b in (0, 1):
                        p = prob * float(joint[a, b])
                        if p <= 0.0:
                            continue
                        key = (
                            ((cx << 1) | a) & mask,
                            ((ch << 1) | b) & mask,
                            (px << 1) | a,
                            (ph << 1) | b,
                        )
                        new[key] = new.get(key, 0.0) + p
            states.clear()
            states.update(new)

    def path_law(states):
        law: dict[tuple[int, int], float] = {}
        for (cx, ch, px, ph), prob in states.items():
            law[(px, ph)] = law.get((px, ph), 0.0) + prob
        return law

    law_dp = path_law(states_dp)
    law_prod = path_law(states_prod)
    keys = set(law_dp) | set(law_prod)
    tv = 0.5 * sum(abs(law_dp.get(k, 0.0) - law_prod.get(k, 0.0)) for k in keys)

    # Hat marginal vs the kernel chain run from the anchor context.
    hat_dp: dict[int, float] = {}
    for (px, ph), prob in law_dp.items():
        hat_dp[ph] = hat_dp.get(ph, 0.0) + prob
    chain: dict[tuple[int, int], float] = {(anchor_int, 0): 1.0}
    for _ in range(window):
        new: dict[tuple[int, int], float] = {}
        for (c, path), prob in chain.items():
            f = table[c & kmask]
            for a, pa in ((0, f), (1, 1.0 - f)):
                key = (((c << 1) | a) & mask, (path << 1) | a)
                new[key] = new.get(key, 0.0) + prob * pa
        chain = new
    hat_chain: dict[int, float] = {}
    for (c, path), prob in chain.items():
        hat_chain[path] = hat_chain.get(path, 0.0) + prob
    keys = set(hat_dp) | set(hat_chain)
    hat_gap = 0.5 * sum(
        abs(hat_dp.get(k, 0.0) - hat_chain.get(k, 0.0)) for k in keys
    )
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
    ctx_true = rng.choice(engine.pi.size, p=engine.pi, size=trials)
    ctx_hat = np.full(trials, anchor_int, dtype=np.int64)
    w = rng.random((trials, 1 - n_start))
    _, end_true, end_hat = coupled_run(engine, w, ctx_true, ctx_hat)
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

    S_j is read off an inverse coupled run over the stitched u: block 0
    replays from the true context before it (an exact round trip), and
    block j >= 1 replays blocks j-1 .. 0, starting from block j-1's
    anchor word, each block's hat chain regenerated from its own anchor.
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
    ctx_true = np.array(
        rng.choice(engine.pi.size, p=engine.pi, size=trials), dtype=np.int64
    )
    w = rng.random((trials, 1 - t_min))
    u_all = np.empty_like(w)
    cols = [slice(m[j + 1] - t_min, m[j] - t_min) for j in range(n_blocks)]
    hats = [np.full(trials, word_to_int(a), dtype=np.int64) for a in anchors]
    for j in reversed(range(n_blocks)):
        if j == 0:
            ctx_before_0 = ctx_true
        u_all[:, cols[j]], ctx_true, _ = coupled_run(
            engine, w[:, cols[j]], ctx_true, hats[j]
        )
    del w  # the recovery and the audit read only u_all
    r_true = engine.generator_values(ctx_true)

    # Per-block recovery of the truncated generator (see the docstring
    # for the replay start of each block).
    rows = []
    for j, delta in enumerate(deltas):
        ctx = ctx_before_0 if j == 0 else hats[j - 1]
        for i in reversed(range(max(j, 1))):
            _, ctx, _ = coupled_run(
                engine, u_all[:, cols[i]], ctx, hats[i], v_is_u=True
            )
        s_j = engine.generator_values(ctx)
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

    audit = innovation_audit(u_all.ravel())
    return StitchReport(rows, audit, trials)
