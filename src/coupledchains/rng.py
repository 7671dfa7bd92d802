"""Seeding discipline: every operation derives its generator from the
master seed plus a fixed stream label, so results never depend on call
order or parallel schedule.

:func:`index_sampler` maps uniforms to the indices of a finite law by
guide-table lookup (Chen & Asau 1974; Devroye 1986, section III.2)
instead of one binary search per uniform: a quantile map, built once per
law, that draws nothing itself; ``index_sampler(p)(rng.random(size))``
has the values and the stream use of ``Generator.choice``, and
:func:`sample_index` draws one index so, by one binary search.
:func:`ahead` splits a stream: a copy advanced past the next n draws,
so two consecutive stretches of one stream can be read side by side,
one block of each at a time.  :func:`_trial_blocks`, the one trial
source of the Monte Carlo experiments, composes the two: each block's
start contexts and its uniforms.  :func:`frequency` and MC_SIGMAS set
how far every Monte Carlo verdict lets an estimate stray.

Every block size of the package is named here: _BLOCK, _QUARTER and
TRIAL_BLOCK."""

from __future__ import annotations

import copy
import zlib

import numpy as np

# Values handled at a time by every blocked loop of the package (draws,
# path scans, audit windows and sums): a block of float64 values or of
# indices (512 KiB) stays in cache.  A simulated path is scanned and
# read one _BLOCK of steps at a time, so a reader holds 11 bytes a step
# of one block (704 KiB), and a block is one (_BLOCK // CHUNK, CHUNK)
# lockstep group of `reconstruction._scan`.
_BLOCK = 1 << 16
# The steps a path block encodes at a time, and the values of an audit
# window counted at a time: their temporaries hold a quarter block.  The
# audit CLI at 10^6 steps traced 3.6 MiB of numpy memory (7.4 MiB with
# 2^18-step blocks encoded 2^16 steps at a time), at the same speed.
_QUARTER = _BLOCK // 4
# Most trials per block of `_trial_blocks`: small enough that the
# trial-length buffers `reconstruction.coupled_walk` steps a column in
# stay in cache.  Walks of more than 32 steps take fewer.
TRIAL_BLOCK = 8192
# The guide table splits [0, 1) into 2^_GUIDE_BITS equal buckets.
_GUIDE_BITS = 14
_SUM_TOL = float(np.sqrt(np.finfo(float).eps))
MC_SIGMAS = 3.0  # standard errors a Monte Carlo estimate may stray


def stream_rng(seed: int, *labels) -> np.random.Generator:
    """Generator for (seed, labels): independent streams per label.  A
    label is read as its string, so 7 and "7" name one stream."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    entropy += [zlib.crc32(str(label).encode()) for label in labels]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def ahead(rng: np.random.Generator, n: int) -> np.random.Generator:
    """A new generator whose draws are those of `rng` after its next n
    doubles: a copy of `rng` whose bit generator is jumped ahead by n
    steps, each double taking one 64-bit step.  `rng` does not move."""
    jumped = copy.deepcopy(rng)
    jumped.bit_generator.advance(n)
    return jumped


def frequency(count: int, trials: int) -> tuple[float, float]:
    """The frequency count / trials and its binomial standard error
    sqrt(f (1 - f) / trials)."""
    freq = count / trials
    return freq, float(np.sqrt(freq * (1.0 - freq) / trials))


def _cdf(p) -> np.ndarray:
    """The cdf of the law `p`, checked as ``Generator.choice`` checks it."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p must be a non-empty 1-dimensional law")
    if np.any(p < 0):
        raise ValueError("probabilities are not non-negative")
    if not abs(p.sum() - 1.0) <= _SUM_TOL:
        raise ValueError("probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def index_sampler(p):
    """The law `p` checked and its guide table built once: returns
    ``quantile(u)``, which maps an array of uniforms u in [0, 1) to the
    int64 indices #{cdf <= u}, of u's shape.  These are the values
    ``Generator.choice`` returns for the same uniforms, so
    ``quantile(rng.random(size))`` is ``rng.choice(len(p), p=p,
    size=size)``, and the quantiles of consecutive blocks of one stream
    are those of one draw over their total.

    ``choice`` finds #{cdf <= u} by binary search.  Here [0, 1) is cut
    into G = 2^_GUIDE_BITS equal buckets; a bucket with no cdf point
    strictly inside has one answer for all its u, tabulated once, and a
    uniform finds its bucket as floor(u * G), exact because G is a power
    of 2.  Only uniforms in the few buckets that hold a cdf point fall
    back to the binary search."""
    cdf = _cdf(p)
    buckets = 1 << _GUIDE_BITS
    edges = np.arange(buckets + 1) / buckets
    below = cdf.searchsorted(edges[:-1], side="right")  # #{cdf <= b/G}
    before = cdf.searchsorted(edges[1:], side="left")  # #{cdf < (b+1)/G}
    guide = np.where(below == before, below, -1).astype(np.int64)

    def quantile(u: np.ndarray) -> np.ndarray:
        idx = guide.take((u * buckets).astype(np.intp), mode="wrap")  # in [0, G)
        miss = idx < 0
        idx[miss] = cdf.searchsorted(u[miss], side="right")
        return idx

    return quantile


def sample_index(rng: np.random.Generator, p) -> int:
    """One index drawn from the law `p`: the value of
    ``rng.choice(p.size, p=p)``, from the same uniform, so the stream is
    left in the same state.  One binary search over the cdf; the guide
    table of :func:`index_sampler`, built for many draws, would cost far
    more than the one draw."""
    return int(_cdf(p).searchsorted(rng.random(), side="right"))


def _trial_blocks(rng: np.random.Generator, law, trials: int, steps: int):
    """Yield, for one block of trials at a time, the block's start
    contexts, drawn from `law`, and its (n, steps) uniforms: the values
    of drawing every start, ``rng.choice(len(law), p=law, size=trials)``,
    and then the whole ``rng.random((trials, steps))``.  A block holds
    TRIAL_BLOCK trials up to 32 steps and 4 _BLOCK // steps beyond, but
    no fewer than TRIAL_BLOCK // 4: 3855 trials (2.0 MiB) at 68 steps,
    2048 (9.4 MiB) at 601.  The starts are the quantiles
    (:func:`index_sampler`) of the block's next doubles of `rng`, the
    uniforms come from :func:`ahead` of it past all the starts, into one
    buffer that the next block overwrites: read each block before asking
    for the next.  A memoryless kernel's one-entry law gives starts all
    0, and its uniforms still follow the `trials` doubles of the
    starts."""
    quantile, uniforms = index_sampler(law), ahead(rng, trials)
    block = min(TRIAL_BLOCK, max(TRIAL_BLOCK // 4, 4 * _BLOCK // max(steps, 1)))
    buf = np.empty((min(trials, block), steps))
    for b0 in range(0, trials, block):
        n = min(block, trials - b0)
        uniforms.random(out=buf[:n])
        yield quantile(rng.random(n)), buf[:n]
