"""Path simulation, finite-window reconstruction from innovations, and
the renewal (reset-chain) bound on reconstruction error.

A stationary path is carried as a :class:`PathSample`: the start
context, drawn from the stationary law (exact up to rounding for memory
m <= 8, power-iterated until no entry moves by 1e-13 above), and what
determines the rest, which is simulated with its innovation stream as
it is read.
Reconstruction replays the innovations through the decoder starting
from an all-zero prehistory; the renewal bound controls how far back
the replay must start for the final window to agree with the truth.

Two stepping primitives serve every chain in the package, and both
step through one threshold helper.  :func:`advance` runs one path in
blocks of _BLOCK steps (:mod:`.rng`), each by a chunked speculative scan,
byte-identical to the serial loop: a block's chunks are stepped at once
from a guessed context, the seams where a guess went wrong are found by
one comparison, and those chunks are re-run, at once when there are
many, then serially until the true chain meets them; the renewal
(reset) chain bounds the length of each repair.  Each of these passes
at once is one :func:`_lockstep` loop.  The scan records each step's
symbol (uint8) and the context before it (uint16, as the memory is at
most 16), not the f value, which is ``prob0_table[context]``.
:meth:`PathSample.blocks` is the one loop that simulates a path: each
block is scanned from the context the block before left and its
innovations are encoded in place over the uniforms the scan has read,
in buffers reused from block to block, so a reader of the blocks, such
as the audit, holds 11 bytes a step of one block; the whole arrays are
copied from the blocks, 11 bytes a step plus the block buffers.
:func:`coupled_walk` steps a true chain and a companion chain on one
uniform per trial across trials; the replay here and every coupled run
of :mod:`.extension` go through it.  The Monte Carlo experiments (the
replay, the generator-gap check and the stitch) read their trials from
:func:`.rng._trial_blocks`, one block at a time, and walk and reduce each
block before the next is drawn, so they never hold a whole (trials,
steps) array of uniforms.  The replay (:func:`disagreement_experiment`)
reduces each block to one count: the trials whose true and replayed end
contexts disagree on [-k; 0].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .innovation import encode_w
from .kernels import (
    CapExceededError,
    Kernel,
    MAX_WORD_LENGTH,
    gamma_profile,
    stationary_ctx_vector,
)
from .rng import (MC_SIGMAS, _BLOCK, _QUARTER, _trial_blocks, ahead, frequency,
                  sample_index, stream_rng)

# Steps per chunk of the speculative scan in `_scan`, and the steps a
# chunk's speculation starts before it.  The lockstep passes cost one
# numpy step per row, CHUNK + WARM rows a block, and each step repaired
# serially one Python step.  A longer warm-up leaves fewer steps to
# repair but adds rows: 32 is the fastest at depth 12, and a warm-up
# longer than a chunk, gathered from the rows further back, is slower at
# depths 12 and 16 alike.
CHUNK = 64
WARM = 32


@dataclass(frozen=True)
class PathSample:
    """A stationary path of `steps` steps simulated from `seed`, with its
    innovations; index 0 is the earliest step.  See :func:`simulate_path`.

    The sample holds no arrays, only what determines them.
    :meth:`blocks` runs the simulation one block of _BLOCK steps at a
    time, so a reader of the blocks holds block-sized buffers only.
    Reading :attr:`w`, :attr:`symbols` or :attr:`contexts` runs the same
    blocks once and copies them into the whole arrays, kept for later
    reads: 11 bytes a step.  :attr:`x` and :attr:`f` expand the symbols
    and contexts when read."""

    kernel: Kernel
    steps: int
    seed: int
    init_ctx: int  # integer-coded context preceding x[0]

    def blocks(self):
        """Yield (w, symbols, contexts) for consecutive blocks of
        _BLOCK steps (the last one shorter): the innovations
        (float64), the symbols (uint8) and the context before each step
        (uint16).  They are views of three buffers that the next block
        overwrites: read each block before asking for the next.

        The stream after the start holds the `steps` threshold uniforms
        u, then the `steps` auxiliary uniforms v.  A block draws its u
        into the `w` buffer, runs the chain over it from the context the
        block before left (:func:`_scan`), and encodes it in place,
        _QUARTER steps at a time, with v drawn from :func:`.rng.ahead`
        of the stream past every u: the doubles of drawing u and v whole."""
        rng, _ = _path_rng(self.kernel, self.seed)
        aux = ahead(rng, self.steps)
        table = self.kernel.prob0_table
        probs = table.tolist()
        size = min(_BLOCK, self.steps)
        w, x, c = (np.empty(size, dtype=t) for t in (float, np.uint8, np.uint16))
        ctx = self.init_ctx
        for b0 in range(0, self.steps, _BLOCK):
            n = min(_BLOCK, self.steps - b0)
            wb, xb, cb = w[:n], x[:n], c[:n]
            rng.random(out=wb)  # u until encoded
            ctx, _ = _scan(table, probs, ctx, wb, xb, cb)
            for e0 in range(0, n, _QUARTER):
                e = slice(e0, min(e0 + _QUARTER, n))
                wb[e] = encode_w(xb[e], aux.random(e.stop - e0), table.take(cb[e]))
            yield wb, xb, cb

    @cached_property
    def _whole(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        whole = tuple(np.empty(self.steps, dtype=t) for t in (float, np.uint8, np.uint16))
        for b0, block in zip(range(0, self.steps, _BLOCK), self.blocks()):
            for a, b in zip(whole, block):
                a[b0:b0 + b.size] = b
        return whole

    @property
    def w(self) -> np.ndarray:
        """The innovations, shape (steps,)."""
        return self._whole[0]

    @property
    def symbols(self) -> np.ndarray:
        """The symbols as uint8."""
        return self._whole[1]

    @property
    def contexts(self) -> np.ndarray:
        """The uint16 context code before each step."""
        return self._whole[2]

    @property
    def x(self) -> np.ndarray:
        """The symbols as int64."""
        return self.symbols.astype(np.int64)

    @property
    def f(self) -> np.ndarray:
        """The conditional P(X=0) used at each step."""
        return self.kernel.prob0_table.take(self.contexts)


def _stationary_start(kernel: Kernel, rng: np.random.Generator) -> int:
    """The context of the last m symbols drawn from the stationary law
    (:func:`.kernels.stationary_ctx_vector`: exact up to rounding for
    m <= 8, power-iterated to 1e-13 above), by one double; a memoryless
    kernel's law has one entry, context 0."""
    return sample_index(rng, stationary_ctx_vector(kernel, kernel.memory))


def advance(kernel: Kernel, ctx: int, u) -> tuple[np.ndarray, np.ndarray]:
    """Run the chain from context `ctx`: symbol t is 1(u[t] > f_t) with
    f_t = P(0 | past) = ``prob0_table[c_t]``, and is then shifted into the
    past.  Returns the symbols (uint8) and the contexts c_t before each
    step (uint16).

    Computed by a chunked speculative scan (:func:`_scan`), one block of
    _BLOCK steps at a time from the context the block before left,
    byte-identical to stepping the chain serially; the steps it re-runs
    serially are bounded by the reset chain.  A kernel of memory above
    16, whose contexts a uint16 cannot hold, raises CapExceededError, and
    a `u` that is not 1-D raises ValueError."""
    table = kernel.prob0_table
    if table.size > 1 << 16:
        raise CapExceededError(
            f"memory {kernel.memory} exceeds the 16 bits of a recorded context")
    u = np.ascontiguousarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError(f"the stream must be 1-D, not of shape {u.shape}")
    x = np.empty(u.size, dtype=np.uint8)
    c = np.empty(u.size, dtype=np.uint16)
    probs = table.tolist()
    for b0 in range(0, u.size, _BLOCK):
        b = slice(b0, b0 + _BLOCK)
        ctx, _ = _scan(table, probs, ctx, u[b], x[b], c[b])
    return x, c


def _scan(table: np.ndarray, probs: list, ctx: int, u: np.ndarray,
          x: np.ndarray, c: np.ndarray) -> tuple[int, int]:
    """Fill `x` with the chain run over `u` from context `ctx`, and `c`
    with the context before each step; `probs` is ``table.tolist()``.
    Returns the exit context and the number of steps re-run serially to
    repair speculation.  The callers pass blocks of at most _BLOCK
    steps, so the lockstep passes stage at most _BLOCK values.

    A stream of at least 2 CHUNK steps is cut into CHUNK-step chunks,
    whose uniforms are copied once into a transposed buffer, so that each
    step of a vectorized pass (:func:`_lockstep`) reads a contiguous row.
    A warm-up pass, whose record is discarded, steps context 0 over the
    last WARM uniforms of every chunk but the last; one pass then steps
    every chunk at once from its guessed entry: chunk 0 from `ctx`, every
    other chunk from the warm-up's exit over the chunk before.  Each
    chunk then holds the chain run over its uniforms from its recorded
    entry context, and its recorded exit.  A chunk is right once the
    chunk before is and its entry equals that chunk's exit; one
    comparison over all seams finds the chunks where they differ.  When
    more than CHUNK are stale, the same pass re-runs them at once from
    the exits before them, which leaves stale only those after a chunk
    whose re-run changed its exit.  Each chunk still stale is re-run
    serially from the true exit of the chunk before, until the true
    context equals the recorded one; from there on the recorded symbols,
    contexts and exit are already right.  A repair that runs to the end
    of its chunk without meeting hands its own exit on, and the next
    chunk is re-run from it.  Two chains on the same uniforms agree once
    their last m symbols do, so the expected repair per chunk is at most
    sum_{n < CHUNK} P(Z_{WARM + n} < m) for the reset chain Z, however
    large 2^m is; the warm-up leaves most seams right as they stand.
    Every symbol comes from the same float comparison u > table[ctx] as
    in the serial loop.  The tail after the last whole chunk runs
    serially, through the loop that repairs the chunks (:func:`_serial`)."""
    mask = len(probs) - 1
    ctx = int(ctx) & mask
    n_chunks = u.size // CHUNK if u.size >= 2 * CHUNK else 0
    head = n_chunks * CHUNK
    # Memoryviews read and write plain Python scalars one at a time: fast
    # to compare, and no list of the whole stream is held.
    uv, xv, cv = memoryview(u), memoryview(x), memoryview(c)
    repaired = 0
    if n_chunks:
        u2, x2, c2 = (a[:head].reshape(n_chunks, CHUNK) for a in (u, x, c))
        ub = u2.T.copy()  # each lockstep step reads one contiguous row
        exits = np.zeros(n_chunks, dtype=np.int64)
        _lockstep(table, exits[1:], ub[CHUNK - WARM:, :-1])  # the warm-up
        exits[0] = ctx
        # A lockstep pass costs CHUNK numpy steps whatever its rows, a
        # serial step one Python step: at depth 16 about 300 chunks of a
        # block are stale and the re-run halves the scan; at depth 12
        # about 25 are, whose serial repairs cost less than the re-run.
        rows, entries = slice(None), exits
        for _ in range(2):
            xb, cb = _lockstep(table, entries, ub[:, rows])
            x2[rows], c2[rows], exits[rows] = xb.T, cb.T, entries
            stale = np.flatnonzero(exits[:-1] != c2[1:, 0]) + 1
            if stale.size <= CHUNK:
                break
            rows, entries = stale, exits[stale - 1]
        ctx = int(exits[-1])
        done = 0  # chunks before `done` are right
        for i in stale.tolist():
            if i < done:
                continue
            entry = int(exits[i - 1])
            while entry is not None and i < n_chunks:
                steps, entry = _serial(probs, mask, entry, uv, xv, cv, i * CHUNK,
                                       (i + 1) * CHUNK, meet=True)
                repaired += steps
                i += 1
            done = i
            if entry is not None:  # the last chunk's repair did not meet
                ctx = entry
    _, ctx = _serial(probs, mask, ctx, uv, xv, cv, head, u.size)
    return ctx, repaired


def _lockstep(table: np.ndarray, ctx: np.ndarray,
              ub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Step the chains in `ctx` (int64, one per column of `ub`, left at
    their exits) over the rows of the (CHUNK, chains) uniforms `ub`, one
    row per step.  Returns the symbols (bool) and the contexts before
    each step (uint16), shaped as `ub`."""
    cb = np.empty(ub.shape, dtype=np.uint16)
    xb = np.empty(ub.shape, dtype=bool)
    f = np.empty(ub.shape[1])
    for k in range(ub.shape[0]):
        cb[k] = ctx
        _threshold(table, ctx, ub[k], f, xb[k])
    return xb, cb


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

    Each column of `v` is copied into one buffer of trial length, stepped
    there (re-encoded in place) and, when `other` is given (shape of `v`,
    any strides; it may be `v` itself), written back into its column of
    `other`.  So the walk holds a few trial-length buffers beyond its
    input, whatever the number of steps.  The callers pass one block of
    trials from :func:`.rng._trial_blocks`, so the buffers stay in cache.  The
    result is byte-identical to the per-column loop.  The entry contexts
    must lie in [0, len(table)), checked once here (ValueError), since
    the steps look the tables up without a range check."""
    for ctx in (ctx_true, ctx_hat):
        if ctx.size and not (ctx.min() >= 0 and ctx.max() < table.size):
            raise ValueError("contexts must lie in [0, len(table))")
    trials, steps = v.shape
    first, second = (ctx_hat, ctx_true) if v_is_u else (ctx_true, ctx_hat)
    shift = table.size.bit_length() - 1
    s, f = np.empty(trials), np.empty(trials)
    x = np.empty(trials, dtype=bool)
    flipped, pair = np.empty(trials, dtype=bool), np.empty(trials, dtype=np.int64)
    for t, flip in zip(range(steps), [None] * steps if flips is None else flips):
        np.copyto(s, v[:, t])
        if flip is not None:
            np.left_shift(ctx_true, shift, out=pair)
            pair |= ctx_hat
            flip.take(pair, out=flipped, mode="wrap")  # pair < len(flip)
        _threshold(table, first, s, f, x)
        if flip is not None:
            np.subtract(1.0, s, out=s, where=flipped)
        _threshold(table, second, s, f, x)
        if other is not None:
            other[:, t] = s


def _path_rng(kernel: Kernel, seed: int) -> tuple[np.random.Generator, int]:
    """The generator of the path simulated from `seed`, past its start
    context, and that context (:func:`_stationary_start`)."""
    rng = stream_rng(seed, "simulate", kernel.label)
    return rng, _stationary_start(kernel, rng)


def simulate_path(kernel: Kernel, steps: int, seed: int) -> PathSample:
    """Simulate a stationary path together with its innovation stream.

    Each step consumes two independent uniforms: one thresholds the
    symbol, the other is the auxiliary uniform packed into the
    innovation.  The innovations are therefore a genuine function of
    (path, auxiliary randomness), not uniforms drawn directly.

    Only the start context is drawn here.  The path itself is run when
    the sample is read, one block at a time (:meth:`PathSample.blocks`)
    or whole (:attr:`PathSample.w`); both give the same values."""
    return PathSample(kernel, steps, seed, _path_rng(kernel, seed)[1])


def window_reconstruct(kernel: Kernel, w: np.ndarray, start_ctx: int = 0) -> np.ndarray:
    """Replay innovations through the decoder from the given context
    (default: all-zero prehistory), returning the reconstructed symbols
    (uint8).  A `w` that is not 1-D raises ValueError."""
    return advance(kernel, start_ctx, w)[0]


# ---------------------------------------------------------------------------
# Reset-chain (renewal) bound


def house_of_cards_dist(gammas, n: int) -> np.ndarray:
    """Exact law of the reset chain after n steps started at 0: entry i
    is P(Z_n = i), i = 0..n.

    The chain moves i -> i+1 with probability 1 - gamma_i and resets to
    0 with probability gamma_i; its state dominates (stochastically,
    from below) the agreement length between truth and replay.
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
    return r[::-1] * survive


def reconstruction_bound(kernel: Kernel, n_start: int, k_lags: int) -> float:
    """Renewal upper bound on P(replay over [n_start; 0] from zero
    prehistory disagrees with the truth on [-k_lags; 0]): the reset
    chain runs |n_start| steps (state 0 after the first replay symbol)
    and the bound is P(Z_{|n_start|} <= k_lags), 0 for k_lags < 0."""
    law = house_of_cards_dist(gamma_profile(kernel, kernel.memory).values, -n_start)
    return float(np.sum(law[:max(k_lags + 1, 0)]))


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


def check_window(n_start: int, k_lags: int) -> None:
    """Reject a compared window [-k_lags; 0] wider than the cap or than
    the replayed range [n_start; 0]."""
    if k_lags + 1 > MAX_WORD_LENGTH:
        raise CapExceededError(f"window {k_lags + 1} exceeds cap {MAX_WORD_LENGTH}")
    if k_lags > -n_start:
        raise ValueError(f"compared window k = {k_lags} exceeds the replayed "
                         f"range of N = {n_start}: need k <= |N|")


def disagreement_experiment(
    kernel: Kernel,
    n_start: int,
    k_lags: int,
    trials: int,
    seed: int,
) -> DisagreementRow:
    """Estimate P(replay disagrees with the truth on [-k_lags; 0]) and
    compare with the renewal bound, allowing MC_SIGMAS standard errors.

    The true chain and the zero-prehistory replay run on shared
    innovations over [n_start; 0], one block of trials at a time from
    :func:`.rng._trial_blocks`, carrying max(k_lags + 1, m) bits.  The
    innovations are drawn uniform directly (same joint law as the
    two-uniform encoder).  The counts add up over the blocks as
    integers, so count / trials is the mean of the whole bool array bit
    for bit.

    The trials depend on n_start, not on k_lags, so the rows of one
    n_start read one replay at every lag: the row at lag M is also the
    renewal domination check at M, P(agreement on [-M; 0]) >=
    P(Z_{|n_start|} > M) - MC_SIGMAS * stderr."""
    check_window(n_start, k_lags)
    rng = stream_rng(seed, "replay", kernel.label, f"N{n_start}")
    law = stationary_ctx_vector(kernel, kernel.memory)
    table = kernel.prob0_over(max(k_lags + 1, kernel.memory))
    window = (1 << (k_lags + 1)) - 1
    mismatches = 0
    for ctx_true, w in _trial_blocks(rng, law, trials, -n_start + 1):
        ctx_hat = np.zeros_like(ctx_true)
        coupled_walk(table, w, ctx_true, ctx_hat)
        # Bit k of the XOR is set where the two disagree k steps before
        # the end: they disagree on [-k_lags; 0] where its low
        # k_lags + 1 bits are not all 0.
        ctx_true ^= ctx_hat
        ctx_true &= window
        mismatches += np.count_nonzero(ctx_true)
    del ctx_true, ctx_hat, w  # the last block, freed before the bound runs
    freq, stderr = frequency(mismatches, trials)
    bound = reconstruction_bound(kernel, n_start, k_lags)
    ok = freq <= bound + MC_SIGMAS * stderr
    return DisagreementRow(
        n_start, k_lags, trials, freq, stderr, bound,
        "within-bound" if ok else "violates-bound",
    )
