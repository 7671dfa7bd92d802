"""Seeding discipline: every operation derives its generator from the
master seed plus a fixed stream label, so results never depend on call
order or parallel schedule.

:func:`sample_index` draws from a finite law with the values and the
stream use of ``Generator.choice``, by guide-table lookup (Chen & Asau
1974; Devroye 1986, section III.2) instead of one binary search per
draw; :func:`index_sampler` builds the table once for many draws.
:func:`ahead` splits a stream: a copy advanced past the next n draws,
so two consecutive stretches of one stream can be read side by side,
one block of each at a time.  :func:`frequency` and MC_SIGMAS set how
far every Monte Carlo verdict lets an estimate stray."""

from __future__ import annotations

import copy
import zlib

import numpy as np

# Values handled at a time by every blocked loop of the package (draws,
# encodings, audit passes and sums): a block of float64 values or of
# indices (512 KiB) stays in cache.
_BLOCK = 1 << 16
# The guide table splits [0, 1) into 2^_GUIDE_BITS equal buckets.
_GUIDE_BITS = 14
_SUM_TOL = float(np.sqrt(np.finfo(float).eps))
MC_SIGMAS = 3.0  # standard errors a Monte Carlo estimate may stray


def stream_rng(seed: int, *labels) -> np.random.Generator:
    """Generator for (seed, labels): independent streams per label."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for label in labels:
        if isinstance(label, int):
            entropy.append(label & 0xFFFFFFFF)
        else:
            entropy.append(zlib.crc32(str(label).encode()))
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
    ``draw(rng, size)``, which is :func:`sample_index` (rng, p, size)
    for a size that is not None.  Draws of consecutive blocks of n_1,
    n_2, ... indices give the values, and leave the stream in the state,
    of one draw of n_1 + n_2 + ... indices.

    ``choice`` returns #{cdf <= u} for each uniform u, by binary search.
    Here [0, 1) is cut into G = 2^_GUIDE_BITS equal buckets; a bucket
    with no cdf point strictly inside has one answer for all its u,
    tabulated once, and a uniform finds its bucket as floor(u * G),
    exact because G is a power of 2.  Only draws in the few buckets
    that hold a cdf point fall back to the binary search.  The uniforms
    are drawn and looked up _BLOCK at a time, in the order of
    ``rng.random(size)``, so beyond the result only block-sized buffers
    are held."""
    cdf = _cdf(p)
    buckets = 1 << _GUIDE_BITS
    edges = np.arange(buckets + 1) / buckets
    below = cdf.searchsorted(edges[:-1], side="right")  # #{cdf <= b/G}
    before = cdf.searchsorted(edges[1:], side="left")  # #{cdf < (b+1)/G}
    guide = np.where(below == before, below, -1).astype(np.int64)

    def draw(rng: np.random.Generator, size) -> np.ndarray:
        idx = np.empty(size, dtype=np.int64)
        flat = idx.reshape(-1)
        u = np.empty(min(flat.size, _BLOCK))
        j = np.empty(u.size, dtype=np.intp)
        for b0 in range(0, flat.size, _BLOCK):
            ub, jb = u[:flat.size - b0], j[:flat.size - b0]
            out = flat[b0:b0 + ub.size]
            rng.random(out=ub)
            np.multiply(ub, buckets, out=jb, casting="unsafe")
            guide.take(jb, out=out, mode="wrap")  # 0 <= jb < G
            miss = out < 0
            out[miss] = cdf.searchsorted(ub[miss], side="right")
        return idx

    return draw


def sample_index(rng: np.random.Generator, p, size=None):
    """Indices drawn from the law `p`: the same int64 values (a Python
    int when `size` is None) as ``rng.choice(p.size, p=p, size=size)``,
    from the same uniforms, so the stream is left in the same state.
    See :func:`index_sampler`; one draw needs no guide table."""
    if size is None:
        return int(_cdf(p).searchsorted(rng.random(), side="right"))
    return index_sampler(p)(rng, size)
