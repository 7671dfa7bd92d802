"""Path simulation, finite-window reconstruction from innovations, and
the renewal (reset-chain) bound on reconstruction error.

A stationary path is carried as a numpy int array together with the
innovation stream that generated it; it starts from a context drawn from
the exact stationary law.  Reconstruction replays the innovations
through the decoder starting from an all-zero prehistory; the renewal
bound controls how far back the replay must start for the final window
to agree with the truth.

Two stepping primitives serve every chain in the package:
:func:`advance` along one path, and :func:`coupled_step`, one step of a
true chain and a companion chain across trials.  :func:`advance` is a
chunked speculative scan, byte-identical to the serial loop: chunks
stepped at once from a guessed context are repaired serially until the
true chain meets them, and the renewal (reset) chain bounds the length
of each repair.  :func:`coupled_walk`, the one across-trials walk (the
replay here, every coupled run of :mod:`.extension`), runs
:func:`coupled_step` over a window one block of TRIAL_BLOCK trials at a
time, so each step works on contiguous, cache-resident rows; it is
byte-identical to stepping all trials at once, one column per step, and
re-encodes each block in place, copying it out only into a buffer it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .innovation import encode_w
from .kernels import (
    CapExceededError,
    Kernel,
    MAX_WORD_LENGTH,
    gamma_profile,
    stationary_ctx_vector,
)
from .rng import sample_index, stream_rng

# Chunk length of the speculative scan in `advance`.
CHUNK = 1024
# Trials per block of the across-trials walk in `coupled_walk`.
TRIAL_BLOCK = 8192


@dataclass(frozen=True)
class PathSample:
    """A simulated path with its innovations; index 0 is the earliest step."""

    x: np.ndarray  # symbols, shape (steps,)
    w: np.ndarray  # innovations, shape (steps,)
    f: np.ndarray  # conditional P(X=0) used at each step
    init_ctx: int  # integer-coded context preceding x[0]


def _stationary_start(kernel: Kernel, rng: np.random.Generator, size=None):
    """Contexts of the last m symbols drawn from the exact stationary
    law (one, or an array of `size`); memoryless kernels draw nothing."""
    m = kernel.memory
    if m == 0:
        return 0 if size is None else np.zeros(size, dtype=np.int64)
    pi = stationary_ctx_vector(kernel, m)
    return sample_index(rng, pi, size)


def advance(kernel: Kernel, ctx: int, u) -> tuple[np.ndarray, np.ndarray]:
    """Run the chain from context `ctx`: symbol t is 1(u[t] > f_t) with
    f_t = P(0 | past), and is then shifted into the past.  Returns the
    symbols and the f_t used.

    Computed by a chunked speculative scan (:func:`_scan`), byte-identical
    to stepping the chain serially; the steps it re-runs serially are
    bounded by the reset chain."""
    u = np.ascontiguousarray(u, dtype=float)
    x = np.empty(u.size, dtype=np.int64)
    f = np.empty(u.size)
    _scan(kernel.prob0_table, ctx, u, x, f)
    return x, f


def _scan(table: np.ndarray, ctx: int, u: np.ndarray, x: np.ndarray,
          f: np.ndarray) -> int:
    """Fill `x` and `f` with the chain run over `u` from context `ctx`;
    return the number of steps re-run serially to repair speculation.

    A stream of at least 2 CHUNK steps is cut into CHUNK-step chunks, and
    one vectorized pass steps every chunk at once: chunk 0 from `ctx`,
    every other chunk from the guessed context 0.  Then each chunk is
    re-run serially from the true exit of the chunk before, until the
    true context equals the speculative one; from there on the
    speculative symbols, f values and exit are already right.  Two
    chains on the same uniforms agree once their last m symbols do, so
    the expected repair per chunk is at most sum_{n < CHUNK} P(Z_n < m)
    for the reset chain Z, however large 2^m is.  Every symbol comes from
    the same float comparison u > table[ctx] as in the serial loop.  The
    tail after the last whole chunk runs serially."""
    probs = table.tolist()
    mask = len(probs) - 1
    ctx = int(ctx) & mask
    n_chunks = u.size // CHUNK if u.size >= 2 * CHUNK else 0
    head = n_chunks * CHUNK
    # Memoryviews read and write plain Python scalars one at a time: fast
    # to compare, and no list of the whole stream is held.
    uv, xv, fv = memoryview(u), memoryview(x), memoryview(f)
    repaired = 0
    if n_chunks:
        exits = _speculate(table, ctx, *(
            a[:head].reshape(n_chunks, CHUNK) for a in (u, x, f)))
        ctx = exits[0]
        for i in range(1, n_chunks):
            steps, ctx = _repair(probs, mask, ctx, uv, xv, fv, i * CHUNK)
            repaired += steps
            if ctx is None:
                ctx = exits[i]
    for k in range(head, u.size):
        ft = probs[ctx]
        xt = uv[k] > ft
        xv[k] = xt
        fv[k] = ft
        ctx = ((ctx << 1) | xt) & mask
    return repaired


def _speculate(table: np.ndarray, ctx: int, u: np.ndarray, x: np.ndarray,
               f: np.ndarray) -> list[int]:
    """Step every row of the (chunks, CHUNK) views at once, one column
    per step: row 0 from `ctx`, every other row from context 0.  Writes
    the symbols and f values into `x` and `f`; returns each row's exit
    context."""
    c = np.zeros(u.shape[0], dtype=np.int64)
    c[0] = ctx
    fj = np.empty(u.shape[0])
    xj = np.empty(u.shape[0], dtype=bool)
    for j in range(u.shape[1]):
        _threshold(table, c, u[:, j], fj, xj)
        f[:, j] = fj
        x[:, j] = xj
    return c.tolist()


def _threshold(table: np.ndarray, ctx: np.ndarray, s: np.ndarray,
               f: np.ndarray, x: np.ndarray) -> None:
    """Step the chains in `ctx` on the uniforms `s`: f = table[ctx], x =
    1(s > f), and x is shifted into `ctx`, kept to the table's bit width."""
    table.take(ctx, out=f)
    np.greater(s, f, out=x)
    ctx <<= 1
    ctx |= x
    ctx &= table.size - 1


def _repair(probs: list, mask: int, ctx: int, uv, xv, fv, start: int):
    """Re-run the chunk at `start`, speculated from context 0, serially
    from its true entry context `ctx`.  Each speculative symbol is folded
    into the speculative context before it is overwritten, and the run
    stops where the two contexts meet.  Returns the steps re-run and the
    true exit context, or None for the exit if the contexts met."""
    spec = 0
    for k in range(start, start + CHUNK):
        if ctx == spec:
            return k - start, None
        ft = probs[ctx]
        xt = uv[k] > ft
        spec = ((spec << 1) | xv[k]) & mask
        xv[k] = xt
        fv[k] = ft
        ctx = ((ctx << 1) | xt) & mask
    return CHUNK, ctx


def coupled_step(table: np.ndarray, ctx_true: np.ndarray, ctx_hat: np.ndarray,
                 v: np.ndarray, flip=None, v_is_u: bool = False,
                 scratch=None) -> None:
    """One step of a true chain and a companion (hat) chain sharing one
    uniform per trial, vectorized over trials; both contexts and `v` are
    updated in place.

    ``table[c]`` is P(0 | c) for every context code c the chains carry
    (see :meth:`Kernel.prob0_over`); contexts lie in [0, len(table)) and
    stay there.  The true chain thresholds w and the hat chain u, each
    against its own context.  ``flip`` is a bool table over the pair code
    (ctx_true << L) | ctx_hat before the step, L the bit width of `table`:
    where it is set, u = 1 - w (antitone orientation), elsewhere u = w.
    `v` holds w, or u when `v_is_u`, and on return the other uniform (the
    flip is its own inverse); without `flip`, u = w (plain replay on
    shared innovations).  ``scratch`` holds a float, two bool and an
    int64 buffer of the trials' size, reused between steps by
    :func:`coupled_walk`; a lone step allocates its own.
    """
    if scratch is None:
        scratch = _step_scratch(v.size)
    f, flipped, x, pair = scratch
    first, second = (ctx_hat, ctx_true) if v_is_u else (ctx_true, ctx_hat)
    if flip is not None:
        np.left_shift(ctx_true, table.size.bit_length() - 1, out=pair)
        pair |= ctx_hat
        flip.take(pair, out=flipped)
    _threshold(table, first, v, f, x)
    if flip is not None:
        np.subtract(1.0, v, out=v, where=flipped)
    _threshold(table, second, v, f, x)


def _step_scratch(size: int) -> tuple:
    """The buffers one :func:`coupled_step` over `size` trials works in."""
    return (np.empty(size), np.empty(size, dtype=bool),
            np.empty(size, dtype=bool), np.empty(size, dtype=np.int64))


def coupled_walk(table: np.ndarray, v: np.ndarray, ctx_true: np.ndarray,
                 ctx_hat: np.ndarray, flips=None, v_is_u: bool = False,
                 other=None) -> None:
    """Run :func:`coupled_step` over every column of `v` (shape (trials,
    steps), any strides), one block of TRIAL_BLOCK trials at a time.

    ``flips[t]`` is the flip table of step t (None where the step keeps
    u = w), or `flips` is None for a plain replay.  The int64 context
    arrays are updated in place.  Each block's uniforms are copied once
    into a (steps, block) buffer, which the steps re-encode in place,
    one contiguous, cache-resident row each; the block is then copied
    out into `other` (shape of `v`, any strides; it may be `v` itself)
    when it is given.  The scratch memory is O(TRIAL_BLOCK x steps).
    Every value is the same elementwise operation as stepping all trials
    at once, so the result is byte-identical to the per-column loop."""
    trials, steps = v.shape
    step_flips = [None] * steps if flips is None else flips
    size = min(trials, TRIAL_BLOCK)
    vb = np.empty((steps, size))
    scratch = _step_scratch(size)
    for b0 in range(0, trials, TRIAL_BLOCK):
        n = min(TRIAL_BLOCK, trials - b0)
        vb[:, :n] = v[b0:b0 + n].T
        buf = tuple(a[:n] for a in scratch)
        ct, ch = ctx_true[b0:b0 + n], ctx_hat[b0:b0 + n]
        for t, flip in enumerate(step_flips):
            coupled_step(table, ct, ch, vb[t, :n], flip, v_is_u, buf)
        if other is not None:
            other[b0:b0 + n] = vb[:, :n].T


def simulate_path(kernel: Kernel, steps: int, seed: int) -> PathSample:
    """Simulate a stationary path together with its innovation stream.

    Each step consumes two independent uniforms: one thresholds the
    symbol, the other is the auxiliary uniform packed into the
    innovation.  The innovations are therefore a genuine function of
    (path, auxiliary randomness), not uniforms drawn directly.
    """
    rng = stream_rng(seed, "simulate", kernel.label)
    init_ctx = int(_stationary_start(kernel, rng))
    u = rng.random(steps)
    v = rng.random(steps)
    x, f = advance(kernel, init_ctx, u)
    return PathSample(x=x, w=encode_w(x, v, f), f=f, init_ctx=init_ctx)


def window_reconstruct(kernel: Kernel, w: np.ndarray, start_ctx: int = 0) -> np.ndarray:
    """Replay innovations through the decoder from the given context
    (default: all-zero prehistory), returning the reconstructed symbols."""
    return advance(kernel, start_ctx, w)[0]


def agreement_length(x: np.ndarray, xhat: np.ndarray) -> int:
    """Length of the common suffix of the two symbol arrays."""
    x = np.asarray(x)
    xhat = np.asarray(xhat)
    diff = np.nonzero(x != xhat)[0]
    if diff.size == 0:
        return len(x)
    return len(x) - 1 - int(diff[-1])


# ---------------------------------------------------------------------------
# Reset-chain (renewal) bound


@dataclass(frozen=True)
class ResetChainDist:
    """Law of the reset chain after n steps from state 0.

    The chain moves i -> i+1 with probability 1 - gamma_i and resets to
    0 with probability gamma_i; its state dominates (stochastically,
    from below) the agreement length between truth and replay.
    """

    n: int
    probs: np.ndarray  # probs[i] = P(Z_n = i), i = 0..n

    def cdf(self, k: int) -> float:
        """P(Z_n <= k)."""
        if k < 0:
            return 0.0
        return float(np.sum(self.probs[: min(k, self.n) + 1]))


def house_of_cards_dist(gammas, n: int) -> ResetChainDist:
    """Exact law of the reset chain after n steps started at 0.

    ``gammas`` is indexable: gammas[i] = reset probability from state i,
    zero beyond its length.

    Renewal form: the chain sits at i after n steps iff it last reset at
    step n - i and then survived i steps, so P(Z_n = i) = r_{n-i} s_i
    with survival s_i = prod_{p<i} (1 - gamma_p) and renewal sequence
    r_0 = 1, r_k = P(Z_k = 0) = sum_{i<k} r_{k-1-i} s_i gamma_i."""
    g = np.zeros(n + 1)
    known = min(len(gammas), n + 1)
    g[:known] = [gammas[i] for i in range(known)]
    survive = np.ones(n + 1)
    survive[1:] = np.cumprod(1.0 - g[:-1])
    reset = survive * g
    r = np.empty(n + 1)
    r[0] = 1.0
    for k in range(1, n + 1):
        r[k] = np.dot(r[k - 1 :: -1], reset[:k])
    return ResetChainDist(n, r[::-1] * survive)


def reconstruction_bound(kernel: Kernel, n_start: int, k_lags: int) -> float:
    """Renewal upper bound on P(replay over [n_start; 0] from zero
    prehistory disagrees with the truth on [-k_lags; 0]): the reset
    chain runs |n_start| steps (state 0 after the first replay symbol)
    and the bound is P(Z_{|n_start|} <= k_lags)."""
    n = -n_start
    gammas = gamma_profile(kernel, max(kernel.memory, 1)).values
    return house_of_cards_dist(gammas, n).cdf(k_lags)


# ---------------------------------------------------------------------------
# Monte Carlo disagreement experiment


@dataclass(frozen=True)
class DisagreementRow:
    n_start: int
    k_lags: int
    trials: int
    freq: float
    stderr: float
    dp_bound: float
    verdict: str  # "within-bound" | "violates-bound"


def _coupled_replay_words(
    kernel: Kernel, n_start: int, trials: int, seed: int, keep_bits: int
):
    """Run the true chain and the zero-prehistory replay on shared
    innovations over [n_start; 0], vectorized across trials.

    The innovations are drawn uniform directly (same joint law as the
    two-uniform encoder).  Returns the low `keep_bits` bits of the final
    contexts (true, replay)."""
    steps = -n_start + 1
    rng = stream_rng(seed, "replay", kernel.label, f"N{n_start}")
    ctx_true = np.asarray(_stationary_start(kernel, rng, trials), dtype=np.int64)
    ctx_hat = np.zeros(trials, dtype=np.int64)
    w = rng.random((trials, steps))
    coupled_walk(kernel.prob0_over(keep_bits), w, ctx_true, ctx_hat)
    return ctx_true, ctx_hat


def disagreement_experiment(
    kernel: Kernel,
    n_start: int,
    k_lags: int,
    trials: int,
    seed: int,
) -> DisagreementRow:
    """Estimate P(replay disagrees with the truth on [-k_lags; 0]) and
    compare with the renewal bound, allowing 3 standard errors."""
    if k_lags + 1 > MAX_WORD_LENGTH:
        raise CapExceededError(f"window {k_lags + 1} exceeds cap {MAX_WORD_LENGTH}")
    if k_lags >= -n_start + 1:
        raise ValueError("compared window cannot exceed the replayed range")
    keep = max(k_lags + 1, kernel.memory)
    end_true, end_hat = _coupled_replay_words(kernel, n_start, trials, seed, keep)
    wmask = (1 << (k_lags + 1)) - 1
    mismatches = int(np.sum((end_true & wmask) != (end_hat & wmask)))
    freq = mismatches / trials
    stderr = float(np.sqrt(freq * (1.0 - freq) / trials))
    bound = reconstruction_bound(kernel, n_start, k_lags)
    ok = freq <= bound + 3.0 * stderr
    return DisagreementRow(
        n_start, k_lags, trials, freq, stderr, bound,
        "within-bound" if ok else "violates-bound",
    )


@dataclass(frozen=True)
class DominationRow:
    n_start: int
    m: int
    trials: int
    mc_tail: float  # MC estimate of P(agreement length > m)
    stderr: float
    exact_tail: float  # exact P(Z_{|n_start|} > m)
    verdict: str  # "dominates" | "violates"


def domination_experiment(
    kernel: Kernel,
    n_start: int,
    trials: int,
    seed: int,
) -> list[DominationRow]:
    """Check P(agreement length > M) >= P(Z_{|n_start|} > M) - 3*stderr
    for every M up to |n_start|: the reset chain is stochastically
    dominated by the true agreement length."""
    n = -n_start
    keep = min(n + 1, MAX_WORD_LENGTH)
    keep = max(keep, kernel.memory)
    end_true, end_hat = _coupled_replay_words(kernel, n_start, trials, seed, keep)
    max_m = min(n, keep - 1)
    gammas = gamma_profile(kernel, max(kernel.memory, 1)).values
    dist = house_of_cards_dist(gammas, n)
    # Agreement length = common low-bit run of the two final contexts.
    diff = end_true ^ end_hat
    rows = []
    for m in range(max_m + 1):
        agree = (diff & ((1 << (m + 1)) - 1)) == 0  # suffix length > m
        mc = float(np.mean(agree))
        stderr = float(np.sqrt(mc * (1.0 - mc) / trials))
        exact = 1.0 - dist.cdf(m)
        ok = mc >= exact - 3.0 * stderr
        rows.append(
            DominationRow(
                n_start, m, trials, mc, stderr, exact,
                "dominates" if ok else "violates",
            )
        )
    return rows
