"""Path simulation, finite-window reconstruction from innovations, and
the renewal (reset-chain) bound on reconstruction error.

A stationary path is carried as a numpy int array together with the
innovation stream that generated it; it starts from a context drawn from
the stationary law, power-iterated until no entry moves by 1e-13.
Reconstruction replays the innovations through the decoder starting
from an all-zero prehistory; the renewal bound controls how far back
the replay must start for the final window to agree with the truth.

Two stepping primitives serve every chain in the package, and both
step through one threshold helper.  :func:`advance` runs one path: a
chunked speculative scan, byte-identical to the serial loop, whose
chunks are stepped at once from a guessed context and repaired serially
until the true chain meets them; the renewal (reset) chain bounds the
length of each repair.  The scan records each step's symbol (uint8) and
the context before it (uint16, as the memory is at most 16), not the f
value, which is ``prob0_table[context]``.  :func:`simulate_path` encodes
the innovations in place over the uniforms :func:`advance` has read, so
a simulation holds 11 bytes a step plus block-sized buffers.
:func:`coupled_walk` steps a true chain and a companion chain on one
uniform per trial across trials; the replay here and every coupled run
of :mod:`.extension` go through it.  The Monte Carlo experiments (the
replay, the generator-gap check and the stitch) read their trials from
:func:`_trial_blocks`, one block at a time, and walk and reduce each
block before the next is drawn, so they never hold a whole (trials,
steps) array of uniforms.
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
from .rng import (MC_SIGMAS, _BLOCK, ahead, frequency, index_sampler, sample_index,
                  stream_rng)

# Steps per chunk of the speculative scan in `advance`: long next to a
# chunk's expected repair, which the reset chain bounds, so few steps run
# serially, and short enough that 10^6 steps give about a thousand chunks
# to step in lockstep.
CHUNK = 1024
# Trials per block of `_trial_blocks`: small enough that a row of the
# (steps, trials) buffer `coupled_walk` steps stays in cache.
TRIAL_BLOCK = 8192


@dataclass(frozen=True)
class PathSample:
    """A simulated path with its innovations; index 0 is the earliest step.

    The path is held as its symbols (uint8) and the context before each
    step (uint16); :attr:`x` and :attr:`f` expand them when read."""

    w: np.ndarray  # innovations, shape (steps,)
    symbols: np.ndarray  # uint8 symbols, shape (steps,)
    contexts: np.ndarray  # uint16 context code before each step
    table: np.ndarray  # the kernel's prob0_table
    init_ctx: int  # integer-coded context preceding x[0]

    @property
    def x(self) -> np.ndarray:
        """The symbols as int64."""
        return self.symbols.astype(np.int64)

    @property
    def f(self) -> np.ndarray:
        """The conditional P(X=0) used at each step."""
        return self.table.take(self.contexts)


def _stationary_start(kernel: Kernel, rng: np.random.Generator) -> int:
    """The context of the last m symbols drawn from the stationary law,
    power-iterated to 1e-13 (:func:`.kernels.stationary_ctx_vector`);
    memoryless kernels draw nothing."""
    m = kernel.memory
    if m == 0:
        return 0
    return sample_index(rng, stationary_ctx_vector(kernel, m))


def advance(kernel: Kernel, ctx: int, u) -> tuple[np.ndarray, np.ndarray]:
    """Run the chain from context `ctx`: symbol t is 1(u[t] > f_t) with
    f_t = P(0 | past) = ``prob0_table[c_t]``, and is then shifted into the
    past.  Returns the symbols (uint8) and the contexts c_t before each
    step (uint16).

    Computed by a chunked speculative scan (:func:`_scan`), byte-identical
    to stepping the chain serially; the steps it re-runs serially are
    bounded by the reset chain.  A kernel of memory above 16, whose
    contexts a uint16 cannot hold, raises CapExceededError."""
    table = kernel.prob0_table
    if table.size > 1 << 16:
        raise CapExceededError(
            f"memory {kernel.memory} exceeds the 16 bits of a recorded context")
    u = np.ascontiguousarray(u, dtype=float)
    x = np.empty(u.size, dtype=np.uint8)
    c = np.empty(u.size, dtype=np.uint16)
    _scan(table, ctx, u, x, c)
    return x, c


def _scan(table: np.ndarray, ctx: int, u: np.ndarray, x: np.ndarray,
          c: np.ndarray) -> int:
    """Fill `x` with the chain run over `u` from context `ctx`, and `c`
    with the context before each step; return the number of steps re-run
    serially to repair speculation.

    A stream of at least 2 CHUNK steps is cut into CHUNK-step chunks, and
    one vectorized pass steps every chunk at once: chunk 0 from `ctx`,
    every other chunk from the guessed context 0.  Then each chunk is
    re-run serially from the true exit of the chunk before, until the
    true context equals the recorded speculative one; from there on the
    speculative symbols, contexts and exit are already right.  Two
    chains on the same uniforms agree once their last m symbols do, so
    the expected repair per chunk is at most sum_{n < CHUNK} P(Z_n < m)
    for the reset chain Z, however large 2^m is.  Every symbol comes from
    the same float comparison u > table[ctx] as in the serial loop.  The
    tail after the last whole chunk runs serially, through the loop that
    repairs the chunks (:func:`_serial`)."""
    probs = table.tolist()
    mask = len(probs) - 1
    ctx = int(ctx) & mask
    n_chunks = u.size // CHUNK if u.size >= 2 * CHUNK else 0
    head = n_chunks * CHUNK
    # Memoryviews read and write plain Python scalars one at a time: fast
    # to compare, and no list of the whole stream is held.
    uv, xv, cv = memoryview(u), memoryview(x), memoryview(c)
    repaired = 0
    if n_chunks:
        exits = _speculate(table, ctx, *(
            a[:head].reshape(n_chunks, CHUNK) for a in (u, x, c)))
        ctx = exits[0]
        for i in range(1, n_chunks):
            steps, ctx = _serial(probs, mask, ctx, uv, xv, cv, i * CHUNK,
                                 (i + 1) * CHUNK, meet=True)
            repaired += steps
            if ctx is None:
                ctx = exits[i]
    _serial(probs, mask, ctx, uv, xv, cv, head, u.size)
    return repaired


def _speculate(table: np.ndarray, ctx: int, u: np.ndarray, x: np.ndarray,
               c: np.ndarray) -> list[int]:
    """Step every row of the (chunks, CHUNK) views at once, one column
    per step: row 0 from `ctx`, every other row from context 0.  Writes
    the symbols and the contexts before each step into `x` and `c`;
    returns each row's exit context.  The columns go a group at a time
    through transposed buffers of about _BLOCK values: the steps read
    and write contiguous rows, and each group is copied in and out once."""
    rows = u.shape[0]
    ctx_now = np.zeros(rows, dtype=np.int64)
    ctx_now[0] = ctx
    group = min(max(_BLOCK // rows, 1), CHUNK)
    ub = np.empty((group, rows))
    cb = np.empty((group, rows), dtype=c.dtype)
    xb = np.empty((group, rows), dtype=bool)
    f = np.empty(rows)
    for j0 in range(0, CHUNK, group):
        n = min(group, CHUNK - j0)
        ub[:n] = u[:, j0:j0 + n].T
        for k in range(n):
            cb[k] = ctx_now
            _threshold(table, ctx_now, ub[k], f, xb[k])
        c[:, j0:j0 + n] = cb[:n].T
        x[:, j0:j0 + n] = xb[:n].T
    return ctx_now.tolist()


def _threshold(table: np.ndarray, ctx: np.ndarray, s: np.ndarray,
               f: np.ndarray, x: np.ndarray) -> None:
    """Step the chains in `ctx` on the uniforms `s`: f = table[ctx], x =
    1(s > f), and x is shifted into `ctx`, kept to the table's bit width.
    The contexts lie in [0, len(table)), so the lookup needs no range
    check (``mode="wrap"``, which also writes `f` without a buffer)."""
    table.take(ctx, out=f, mode="wrap")
    np.greater(s, f, out=x)
    ctx <<= 1
    ctx |= x
    ctx &= table.size - 1


def _serial(probs: list, mask: int, ctx: int, uv, xv, cv, start: int,
            stop: int, meet: bool = False):
    """Step the chain serially over steps [start, stop) from context
    `ctx`, writing each step's context and symbol.  With `meet` (a chunk
    speculated from context 0, re-run from its true entry context) it
    stops where `ctx` equals the speculative context recorded at that
    step.  Returns the steps run and the exit context, or None for the
    exit if the contexts met."""
    for k in range(start, stop):
        if meet and ctx == cv[k]:
            return k - start, None
        cv[k] = ctx
        xt = uv[k] > probs[ctx]
        xv[k] = xt
        ctx = ((ctx << 1) | xt) & mask
    return stop - start, ctx


def coupled_walk(table: np.ndarray, v, ctx_true: np.ndarray,
                 ctx_hat: np.ndarray, flips=None, v_is_u: bool = False,
                 other=None) -> None:
    """Step a true chain and a companion (hat) chain, sharing one uniform
    per trial, over every column of `v` (shape (trials, steps), any
    strides), vectorized over trials; the int64 context arrays are
    updated in place.

    ``table[c]`` is P(0 | c) for every context code c the chains carry
    (see :meth:`Kernel.prob0_over`); contexts lie in [0, len(table)) and
    stay there.  The true chain thresholds w and the hat chain u, each
    against its own context.  ``flips[t]`` is a bool table over the pair
    code (ctx_true << L) | ctx_hat before step t, L the bit width of
    `table`: where it is set, u = 1 - w (antitone orientation), elsewhere
    u = w.  A step whose table is None, or every step when `flips` is
    None (a plain replay on shared innovations), keeps u = w.  `v` holds
    w, or u when `v_is_u`; the flip is its own inverse.

    `v` is copied once into a (steps, trials) buffer, which the steps
    re-encode in place, one contiguous row each; the buffer is copied
    out into `other` (shape of `v`, any strides; it may be `v` itself)
    when it is given.  The callers pass one block of trials from
    :func:`_trial_blocks`, so a row stays cache-resident.  The result is
    byte-identical to the per-column loop.  The entry contexts must lie
    in [0, len(table)), checked once here (ValueError), since the steps
    look the tables up without a range check."""
    for ctx in (ctx_true, ctx_hat):
        if ctx.size and not (ctx.min() >= 0 and ctx.max() < table.size):
            raise ValueError("contexts must lie in [0, len(table))")
    trials, steps = v.shape
    first, second = (ctx_hat, ctx_true) if v_is_u else (ctx_true, ctx_hat)
    shift = table.size.bit_length() - 1
    vb = v.T.copy()
    f, x = np.empty(trials), np.empty(trials, dtype=bool)
    flipped, pair = np.empty(trials, dtype=bool), np.empty(trials, dtype=np.int64)
    for s, flip in zip(vb, [None] * steps if flips is None else flips):
        if flip is not None:
            np.left_shift(ctx_true, shift, out=pair)
            pair |= ctx_hat
            flip.take(pair, out=flipped, mode="wrap")  # pair < len(flip)
        _threshold(table, first, s, f, x)
        if flip is not None:
            s[...] = np.where(flipped, 1.0 - s, s)  # a select, without branches
        _threshold(table, second, s, f, x)
    if other is not None:
        other[...] = vb.T


def _trial_blocks(rng: np.random.Generator, law, trials: int, steps: int):
    """Yield, for one block of TRIAL_BLOCK trials at a time, the block's
    start contexts, drawn from `law` (all 0 when `law` is None), and its
    (n, steps) uniforms: the values of drawing every start,
    ``sample_index(rng, law, trials)``, and then the whole
    ``rng.random((trials, steps))``.  The starts are drawn from `rng`
    with a guide table built once, the uniforms from :func:`.rng.ahead`
    of it past the starts, into one buffer that the next block
    overwrites: read each block before asking for the next."""
    if law is None:
        draw, uniforms = None, rng
    else:
        draw, uniforms = index_sampler(law), ahead(rng, trials)
    buf = np.empty((min(trials, TRIAL_BLOCK), steps))
    for b0 in range(0, trials, TRIAL_BLOCK):
        n = min(TRIAL_BLOCK, trials - b0)
        starts = np.zeros(n, dtype=np.int64) if draw is None else draw(rng, n)
        uniforms.random(out=buf[:n])
        yield starts, buf[:n]


def simulate_path(kernel: Kernel, steps: int, seed: int) -> PathSample:
    """Simulate a stationary path together with its innovation stream.

    Each step consumes two independent uniforms: one thresholds the
    symbol, the other is the auxiliary uniform packed into the
    innovation.  The innovations are therefore a genuine function of
    (path, auxiliary randomness), not uniforms drawn directly.

    The stream holds the `steps` threshold uniforms u, then the `steps`
    auxiliary uniforms v.  Once :func:`advance` has read u, the
    innovations are encoded into u's own buffer one block of _BLOCK
    steps at a time, each block's v drawn and f looked up from its
    contexts as it is encoded: the same doubles as drawing v whole.  So
    beyond its outputs, w (8 bytes a step), the symbols (1) and the
    contexts (2), the simulation holds block-sized buffers only.
    """
    rng = stream_rng(seed, "simulate", kernel.label)
    init_ctx = int(_stationary_start(kernel, rng))
    w = rng.random(steps)  # u until encoded
    x, ctx = advance(kernel, init_ctx, w)
    table = kernel.prob0_table
    for b0 in range(0, steps, _BLOCK):
        b = slice(b0, min(b0 + _BLOCK, steps))
        w[b] = encode_w(x[b], rng.random(b.stop - b0), table.take(ctx[b]))
    return PathSample(w, x, ctx, table, init_ctx)


def window_reconstruct(kernel: Kernel, w: np.ndarray, start_ctx: int = 0) -> np.ndarray:
    """Replay innovations through the decoder from the given context
    (default: all-zero prehistory), returning the reconstructed symbols
    (uint8)."""
    return advance(kernel, start_ctx, w)[0]


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
    prod = np.empty(n)
    for k in range(1, n + 1):  # np.sum, not BLAS: no thread-dependent bits
        r[k] = np.multiply(r[k - 1 :: -1], reset[:k], out=prod[:k]).sum()
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


def _replay_xors(kernel: Kernel, n_start: int, trials: int, seed: int,
                 keep_bits: int):
    """Run the true chain and the zero-prehistory replay on shared
    innovations over [n_start; 0], one block of trials at a time from
    :func:`_trial_blocks`, and yield per block the XOR of their final
    contexts cut to `keep_bits` bits (true ^ replay; bit k set where
    the two disagree k steps before the end).

    The innovations are drawn uniform directly (same joint law as the
    two-uniform encoder).  Each yielded array is the block's own and
    may be changed in place."""
    rng = stream_rng(seed, "replay", kernel.label, f"N{n_start}")
    m = kernel.memory
    law = stationary_ctx_vector(kernel, m) if m else None
    table = kernel.prob0_over(keep_bits)
    for ctx_true, w in _trial_blocks(rng, law, trials, -n_start + 1):
        ctx_hat = np.zeros_like(ctx_true)
        coupled_walk(table, w, ctx_true, ctx_hat)
        ctx_true ^= ctx_hat
        yield ctx_true


def disagreement_experiment(
    kernel: Kernel,
    n_start: int,
    k_lags: int,
    trials: int,
    seed: int,
) -> DisagreementRow:
    """Estimate P(replay disagrees with the truth on [-k_lags; 0]) and
    compare with the renewal bound, allowing MC_SIGMAS standard errors."""
    if k_lags + 1 > MAX_WORD_LENGTH:
        raise CapExceededError(f"window {k_lags + 1} exceeds cap {MAX_WORD_LENGTH}")
    if k_lags >= -n_start + 1:
        raise ValueError("compared window cannot exceed the replayed range")
    keep = max(k_lags + 1, kernel.memory)
    # The two windows differ where the low k_lags + 1 bits of the end
    # contexts do.
    window = (1 << (k_lags + 1)) - 1
    mismatches = 0
    for diff in _replay_xors(kernel, n_start, trials, seed, keep):
        diff &= window
        mismatches += np.count_nonzero(diff)
    freq, stderr = frequency(mismatches, trials)
    bound = reconstruction_bound(kernel, n_start, k_lags)
    ok = freq <= bound + MC_SIGMAS * stderr
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
    """Check P(agreement length > M) >= P(Z_{|n_start|} > M) - MC_SIGMAS * stderr
    for every M up to |n_start|: the reset chain is stochastically
    dominated by the true agreement length.

    The counts of agreeing trials add up over the blocks of trials as
    integers, so count / trials is the mean of the whole bool array bit
    for bit."""
    n = -n_start
    keep = max(min(n + 1, MAX_WORD_LENGTH), kernel.memory)
    max_m = min(n, keep - 1)
    gammas = gamma_profile(kernel, max(kernel.memory, 1)).values
    dist = house_of_cards_dist(gammas, n)
    # Agreement length = common low-bit run of the two final contexts:
    # it exceeds m where the low m + 1 bits of their XOR are all 0.
    agree = [0] * (max_m + 1)
    for diff in _replay_xors(kernel, n_start, trials, seed, keep):
        bits = np.empty_like(diff)
        for m in range(max_m + 1):
            np.bitwise_and(diff, (1 << (m + 1)) - 1, out=bits)
            agree[m] += diff.size - np.count_nonzero(bits)
    rows = []
    for m in range(max_m + 1):
        mc, stderr = frequency(agree[m], trials)
        exact = 1.0 - dist.cdf(m)
        ok = mc >= exact - MC_SIGMAS * stderr
        rows.append(
            DominationRow(
                n_start, m, trials, mc, stderr, exact,
                "dominates" if ok else "violates",
            )
        )
    return rows
