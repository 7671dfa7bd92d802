"""Symbol/uniform innovation codec and statistical audits.

A symbol X with P(X=0)=f together with an independent uniform V is
packed into a single uniform innovation

    W = f*V            if X = 0,
    W = 1 - (1-f)*V    if X = 1,

so that (X, V) can be recovered from (W, f):

    X = 1(W > f),   V = W/f if X = 0 else (1-W)/(1-f).

The map is measure preserving: W is uniform on (0,1) and independent of
the past that produced f.  Where rounding puts 1 - (1-f)*V at or below
f, the encoder nudges W to the next float above f.

The audit is one fixed test: every check runs at level AUDIT_LEVEL
(1e-6), lag correlations cover lags 1..AUDIT_LAGS (5), and the pair
chi-square counts consecutive pairs on an AUDIT_BINS x AUDIT_BINS
(16 x 16) grid, hence 255 degrees of freedom.  Both tail functions
therefore have closed forms and need no statistics library.

The audit reads its stream once, from an iterable of blocks of any size,
in windows at fixed places in the stream, each copied into one buffer.
Each window is counted a quarter window at a time: the values' buckets
of a 2^16-bucket histogram, which bounds the KS distance, and the codes
of the pair grid are scatter-added (np.add.at) into the counts, so no
count allocates a histogram-sized result.  Each window also sums the lag
products of the values shifted by the first block's mean.  Block sums
are added by math.fsum, so neither the report nor the memory held
depends on how the source cuts the stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .rng import _BLOCK, _QUARTER

AUDIT_LEVEL = 1e-6
AUDIT_LAGS = 5
AUDIT_BINS = 16
AUDIT_MIN_SAMPLES = 100  # the fewest values an audit reads

# Two-sided Gaussian envelope for each lag correlation, Bonferroni over
# the lags.
_CORR_QUANTILE = NormalDist().inv_cdf(1.0 - AUDIT_LEVEL / (2 * AUDIT_LAGS))
# KS buckets [j, j+1) / _BUCKETS: floor(w * _BUCKETS) is exact because
# the scale is a power of two, and the pair chi-square bin
# floor(w * AUDIT_BINS) is the bucket shifted right by _BIN_SHIFT.
_BUCKETS = 1 << 16
_BIN_SHIFT = _BUCKETS.bit_length() - AUDIT_BINS.bit_length()
# Row length of the lag sums: einsum sums each row in order and np.sum
# the row sums pairwise, so rounding does not build up along a block.
_ROW = 128


def encode_w(x, v, f):
    """Innovation from symbol, auxiliary uniform and P(X=0)=f.

    Accepts scalars or aligned arrays.  For x = 1 the exact value
    1 - (1-f)*v lies strictly above f, but the float rounding can land
    on f itself when v is within an ulp of 1; the result is nudged back
    into the open interval (f, 1) so decoding always recovers x.  Only
    values at or below f are nudged; the rest already lie above it."""
    x = np.asarray(x)
    v = np.asarray(v)
    f = np.asarray(f)
    w1 = np.asarray(1.0 - (1.0 - f) * v)
    np.nextafter(f, 1.0, out=w1, where=w1 <= f)
    w = np.where(x == 0, f * v, w1)
    return float(w) if w.ndim == 0 else w


def decode_xv(w, f):
    """Invert :func:`encode_w`: returns (x, v)."""
    w = np.asarray(w)
    f = np.asarray(f)
    x = (w > f).astype(np.int64)
    v = np.where(x == 0, w / f, (1.0 - w) / (1.0 - f))
    if w.ndim == 0:
        return int(x), float(v)
    return x, v


@dataclass(frozen=True)
class AuditReport:
    n: int
    ks_stat: float
    dkw_bound: float
    max_lag_corr: float
    corr_bound: float
    chi2_pvalue: float
    uniform_ok: bool
    independence_ok: bool

    @property
    def passed(self) -> bool:
        return self.uniform_ok and self.independence_ok


def _pair_chi2_sf(x: float) -> float:
    """P(chi^2 > x) at the pair test's AUDIT_BINS^2 - 1 (odd) degrees of
    freedom, in the odd-order closed form (Abramowitz & Stegun 26.4.4):
    with h = x/2, erfc(sqrt h) + sum_{j<(dof-1)/2} t_j, where
    t_0 = 2 sqrt(h/pi) e^-h and t_{j+1} = t_j h / (j + 3/2).  e^-h is
    subnormal for x > 1416, so tails below about 1e-160 lose relative
    precision, and it underflows for x > 1490, where the tail reads 0;
    the audit compares the tail with 1e-6 only."""
    h = x / 2.0
    term = 2.0 * math.sqrt(h / math.pi) * math.exp(-h)
    total = math.erfc(math.sqrt(h))
    for j in range((AUDIT_BINS * AUDIT_BINS - 1) // 2):
        total += term
        term *= h / (j + 1.5)
    return total


def _tally(blocks, n: int):
    """One read of the n values that the iterable `blocks` yields: the
    histogram of the KS buckets floor(w * _BUCKETS), the counts of the
    pair codes bin[t] * AUDIT_BINS + bin[t + 1] of the chi-square bins
    bin = floor(w * AUDIT_BINS), and with a = w - (the first block's
    mean) the sum of a, its first and last AUDIT_LAGS values and, for
    lag = 0..AUDIT_LAGS, the sum of a[t] * a[t + lag] over t < n - lag;
    or None if a value lies outside (0, 1), NaN and inf included.  Each
    window [k * _BLOCK, (k + 1) * _BLOCK + AUDIT_LAGS) is copied, piece
    by piece, into one buffer, where it is range-checked, counted and
    shifted in place, and sums the terms of t in its block
    [k, k + 1) * _BLOCK; the block sums are added by math.fsum.  The
    block is counted in quarters of _QUARTER values, through buffers of
    one quarter: each quarter's buckets and pair codes are added into
    the counts by np.add.at, and its last pair reads the first value of
    the next quarter, whose bucket is counted with that quarter.  A
    piece of the source is read only until the next is asked for, so a
    source may overwrite one buffer for every piece; a source that
    yields fewer or more than n values is a ValueError.  After a value
    out of range the rest of the source is read but not counted."""
    hist = np.zeros(_BUCKETS, dtype=np.intp)
    pairs = np.zeros(AUDIT_BINS * AUDIT_BINS, dtype=np.intp)
    j = np.empty(_QUARTER + 1, dtype=np.intp)  # buckets, then bins
    codes = np.empty(_QUARTER, dtype=np.intp)
    # The window, shifted into a in place, and zeros past it: the lag
    # sums' rows read zeros past the end.
    a = np.zeros(min(-(-n // _ROW) * _ROW, _BLOCK) + AUDIT_LAGS)
    rows = np.empty(a.size // _ROW)
    # Per block, the sum of a, then each lag's: allocated before the
    # stream is read, so a stream too long to sum fails at once.
    starts = range(0, n, _BLOCK)
    sums = np.empty((AUDIT_LAGS + 2, len(starts)))
    shift = head = tail = None
    in_range = True
    pieces = iter(blocks)
    piece, at, kept = np.empty(0), 0, 0  # piece[at:] is unread, a[:kept] filled
    shared = np.empty(AUDIT_LAGS)  # what the next window shares with this one
    for k, b0 in enumerate(starts):
        m = min(_BLOCK + AUDIT_LAGS, n - b0)
        a[:kept] = shared[:kept]
        while kept < m:
            if at == piece.size:
                piece, at = next(pieces, None), 0
                if piece is None:
                    raise ValueError(f"the source ended after {b0 + kept} values")
            take = min(m - kept, piece.size - at)
            a[kept:kept + take] = piece[at:at + take]
            kept, at = kept + take, at + take
        kept = max(m - _BLOCK, 0)
        shared[:kept] = a[_BLOCK:m]
        x = a[:m]
        in_range = in_range and bool(x.min() > 0.0 and x.max() < 1.0)
        if not in_range:
            continue
        size = min(m, _BLOCK)
        p = min(m, _BLOCK + 1)  # the block and its last pair
        for q in range(0, size, _QUARTER):
            # The quarter's c values and the first of the next, which its
            # last pair reads; that value's bucket is counted there.
            c = min(_QUARTER, size - q)
            e = min(c + 1, p - q)
            np.multiply(x[q:q + e], _BUCKETS, out=j[:e], casting="unsafe")
            np.add.at(hist, j[:c], 1)
            np.right_shift(j[:e], _BIN_SHIFT, out=j[:e])
            np.multiply(j[:e - 1], AUDIT_BINS, out=codes[:e - 1])
            codes[:e - 1] += j[1:e]
            np.add.at(pairs, codes[:e - 1], 1)
        if shift is None:
            shift = np.sum(x[:size]) / size
        x -= shift
        a[m:] = 0.0
        sums[0, k] = np.sum(a[:size])
        r = -(-size // _ROW)
        for lag in range(AUDIT_LAGS + 1):
            np.einsum("ij,ij->i", a[:r * _ROW].reshape(r, _ROW),
                      a[lag:lag + r * _ROW].reshape(r, _ROW), out=rows[:r])
            sums[lag + 1, k] = np.sum(rows[:r])
        if head is None:
            head = a[:AUDIT_LAGS].copy()
        if b0 + m == n and tail is None:
            tail = a[max(m - AUDIT_LAGS, 0):m].copy()
    if at < piece.size or any(rest.size for rest in pieces):
        raise ValueError(f"the source holds more than {n} values")
    if not in_range:
        return None
    total, *lagged = map(math.fsum, sums)
    return hist, pairs, total, head, tail, lagged


def _ks_bound(hist: np.ndarray, n: int) -> float:
    """max_j max(C_j/n - j/K, (j+1)/K - C_{j-1}/n) over the K = _BUCKETS
    buckets, C_j the number of values in buckets 0..j (see
    :func:`innovation_audit`): integer numerators over n * K, rounded
    once.  Overwrites `hist` with C."""
    upto = np.cumsum(hist, out=hist)
    edges = np.arange(0, (_BUCKETS + 1) * n, n)  # j * n
    num = upto * _BUCKETS
    num -= edges[:-1]
    top = int(num.max())
    num[0] = 0
    np.multiply(upto[:-1], _BUCKETS, out=num[1:])
    np.subtract(edges[1:], num, out=num)
    return max(top, int(num.max())) / (n * _BUCKETS)


def _audit(blocks, n: int) -> AuditReport:
    """The audit of a stream of n values that the iterable `blocks`
    yields in consecutive float64 pieces of any size, read once (see
    :func:`innovation_audit`); the whole source is read even when a value
    out of range fails the audit."""
    if n < AUDIT_MIN_SAMPLES:
        raise ValueError(f"audit needs at least {AUDIT_MIN_SAMPLES} samples")
    counts = _tally(blocks, n)
    if counts is None:
        return AuditReport(n, np.inf, 0.0, np.inf, 0.0, 0.0, False, False)
    hist, pairs, total, head, tail, lagged = counts
    ks = _ks_bound(hist, n)
    dkw = float(np.sqrt(np.log(2.0 / AUDIT_LEVEL) / (2.0 * n)))
    uniform_ok = ks <= dkw

    # Centered at the mean c + d: the sum over t < n - lag of
    # (a[t] - d) * (a[t + lag] - d) moves by -d times the sum of a without
    # its last `lag` values, and again without its first, plus (n - lag) d^2.
    d = total / n
    denom, *lagged = (
        math.fsum([s, -2.0 * d * total, d * math.fsum(head[:lag]),
                   d * math.fsum(tail[AUDIT_LAGS - lag:]), (n - lag) * d * d])
        for lag, s in enumerate(lagged))
    corr_bound = _CORR_QUANTILE / np.sqrt(n)
    if denom > 0.0:
        max_corr = max(abs(s / denom) for s in lagged)
    else:  # a stream without spread has no correlation; it fails
        max_corr = np.inf

    expected = (n - 1) / (AUDIT_BINS * AUDIT_BINS)
    chi2 = float(np.sum((pairs - expected) ** 2) / expected)
    pvalue = _pair_chi2_sf(chi2)

    independence_ok = max_corr <= corr_bound and pvalue > AUDIT_LEVEL
    return AuditReport(
        n, ks, dkw, max_corr, corr_bound, pvalue, uniform_ok, independence_ok
    )


def innovation_audit(w: np.ndarray) -> AuditReport:
    """Check that an innovation stream looks iid uniform.

    Uniformity: the empirical CDF must stay within the DKW envelope
    sqrt(log(2/AUDIT_LEVEL) / (2n)) of the identity.  Independence:
    lagged correlations within a Gaussian envelope, plus a chi-squared
    test on the (w_t, w_{t+1}) bin grid.  Any value outside (0, 1), NaN
    included, fails both; a constant stream, whose centered values all
    vanish, reads max_lag_corr inf.

    The audit core (:func:`_audit`) reads the stream once from a source
    of blocks, here w itself, and allocates no full-length array.
    KS distance: with K = _BUCKETS and C_j the number of values in
    buckets [0, (j+1)/K), an order statistic s_(i) in bucket j has
    i/n - s_(i) <= C_j/n - j/K and s_(i) - (i-1)/n <= (j+1)/K - C_{j-1}/n.
    The report's ks_stat is the largest of these bounds over all buckets:
    at least the exact distance D and at most D + 1/K (up to its one
    rounding), so the uniformity check can only be stricter.
    Correlations: the sums of the lag products of a = w - c, c the mean
    of the first block, are centered at the mean afterwards, exactly in
    the algebra, from the sum of a and its first and last AUDIT_LAGS
    values.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise ValueError(f"the innovation stream must be 1-D, not of shape {w.shape}")
    return _audit((w,), w.size)
