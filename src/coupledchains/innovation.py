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

The audit reads its stream twice from a source of blocks of any size.
The first pass counts the pair grid and a histogram of 2^16 buckets and
sums the mean; the second sorts only the values of the few buckets that
can hold the KS maximum and forms the correlation sums.  Every sum adds
the np.sum of each _BLOCK values at a fixed place in the stream by
math.fsum, so the report does not depend on how the source cuts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .rng import _BLOCK

AUDIT_LEVEL = 1e-6
AUDIT_LAGS = 5
AUDIT_BINS = 16

# Two-sided Gaussian envelope for each lag correlation, Bonferroni over
# the lags.
_CORR_QUANTILE = NormalDist().inv_cdf(1.0 - AUDIT_LEVEL / (2 * AUDIT_LAGS))
# KS buckets [j, j+1) / _BUCKETS: floor(w * _BUCKETS) is exact because
# the scale is a power of two, and the pair chi-square bin
# floor(w * AUDIT_BINS) is the bucket shifted right by _BIN_SHIFT.
_BUCKETS = 1 << 16
_BIN_SHIFT = _BUCKETS.bit_length() - AUDIT_BINS.bit_length()
# Slack of the KS pruning: far above the float rounding of the bucket
# bounds (~1e-16), far below a bucket's width 1/_BUCKETS.
_KS_MARGIN = 1e-12


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


def _cut(blocks, spans):
    """Yield, for each span (a, b) of `spans`, in order of a, the values
    [a, b) of a stream that the iterator `blocks` yields in consecutive
    float64 pieces of any size: a view of a piece, or a copy for a span
    that straddles pieces.  A source may overwrite one buffer for every
    piece: before the cut reads the next piece, it copies what the
    current span still needs of the current one.  A source that yields
    fewer or more values than the last span's end is an error."""
    held, base, end = [], 0, 0  # the held pieces cover values [base, end)
    for a, b in spans:
        while True:
            while held and base + held[0].size <= a:
                base += held.pop(0).size
            if end >= b:
                break
            if held:  # the next piece may overwrite the last, not yet copied
                if base < a:
                    held[0], base = held[0][a - base:], a
                held[-1] = held[-1].copy()
            held.append(next(blocks, None))
            if held[-1] is None:
                raise ValueError(f"the source ended after {end} values")
            end += held[-1].size
        if base + held[0].size >= b:
            yield held[0][a - base:b - base]
        else:  # every piece but the first and the last lies inside [a, b)
            yield np.concatenate(
                [held[0][a - base:], *held[1:-1], held[-1][:held[-1].size - (end - b)]])
    if end > b or any(piece.size for piece in blocks):
        raise ValueError(f"the source holds more than {b} values")


def _first_pass(blocks, n: int):
    """Pass 1 of the audit over the n values that `blocks` yields: the
    histogram of the KS buckets floor(w * _BUCKETS), the counts of the
    pair codes bin[t] * AUDIT_BINS + bin[t + 1] of the chi-square bins
    bin = floor(w * AUDIT_BINS), and the mean; or None if a value lies
    outside (0, 1), NaN and inf included.  The stream is read one block
    [k, k + 1) * _BLOCK at a time, with one value past its end for its
    last pair.  Each block is range-checked before it is counted; after
    a value out of range the rest of the source is read but not counted."""
    hist = np.zeros(_BUCKETS, dtype=np.intp)
    pairs = np.zeros(AUDIT_BINS * AUDIT_BINS, dtype=np.intp)
    j = np.empty(_BLOCK + 1, dtype=np.intp)  # buckets, then bins
    codes = np.empty(_BLOCK, dtype=np.intp)
    sums = []
    in_range = True
    spans = [(a, min(a + _BLOCK + 1, n)) for a in range(0, n, _BLOCK)]
    for x in _cut(blocks, spans):
        in_range = in_range and bool(x.min() > 0.0 and x.max() < 1.0)
        if in_range:
            m, size = x.size, min(x.size, _BLOCK)
            sums.append(np.sum(x[:size]))
            np.multiply(x, _BUCKETS, out=j[:m], casting="unsafe")
            hist += np.bincount(j[:size], minlength=_BUCKETS)
            np.right_shift(j[:m], _BIN_SHIFT, out=j[:m])
            np.multiply(j[:m - 1], AUDIT_BINS, out=codes[:m - 1])
            codes[:m - 1] += j[1:m]
            pairs += np.bincount(codes[:m - 1], minlength=AUDIT_BINS * AUDIT_BINS)
        del x  # a copied span is freed before the next is cut
    if not in_range:
        return None
    return hist, pairs, math.fsum(sums) / n


def _ks_keep(hist: np.ndarray, n: int) -> np.ndarray:
    """The KS buckets that can hold the maximum (see
    :func:`innovation_audit`), from the bucket histogram."""
    upto = np.cumsum(hist)  # C_j: values in buckets 0..j
    before = upto - hist  # C_{j-1}
    lower = np.arange(_BUCKETS) / _BUCKETS
    upper = lower + 1.0 / _BUCKETS
    hi = np.maximum(upto / n - lower, upper - before / n)
    lo = np.maximum(upto / n - upper, lower - before / n)
    return hi >= np.max(lo[hist > 0]) - _KS_MARGIN


def _ks_stat(s: np.ndarray, hist: np.ndarray, keep: np.ndarray, n: int) -> float:
    """max_i max(i/n - s_(i), s_(i) - (i/n - 1/n)) over the order
    statistics s_(i) of the stream, from the bucket histogram and the
    sorted values `s` of the buckets in `keep`, _BLOCK values at a time."""
    # Rank of s[p]: the values below its bucket, plus its place among the
    # kept values of that bucket.
    before = np.cumsum(hist) - hist
    kept_hist = np.where(keep, hist, 0)
    offset = before - (np.cumsum(kept_hist) - kept_hist)
    ks = -math.inf
    for p0 in range(0, s.size, _BLOCK):
        x = s[p0:p0 + _BLOCK]
        rank = offset[(x * _BUCKETS).astype(np.intp)] + np.arange(p0 + 1, p0 + 1 + x.size)
        grid = rank / n
        ks = max(ks, float(np.max(grid - x)), float(np.max(x - (grid - 1.0 / n))))
    return ks


def _second_pass(blocks, n: int, hist: np.ndarray, mean: float):
    """Pass 2 of the audit over the n values that `blocks` yields: the KS
    distance, and the six sums of (w[t] - mean) * (w[t + lag] - mean)
    over t < n - lag for lag = 0..AUDIT_LAGS, without a full-length sort
    or centered array.  The stream is read in windows [k * _BLOCK,
    (k + 1) * _BLOCK + AUDIT_LAGS): the first _BLOCK values are scanned
    for the kept KS buckets, and each sum takes its terms for t in
    [k, k + 1) * _BLOCK from the window, centered once."""
    keep = _ks_keep(hist, n)
    # The kept buckets usually form one short run: a range test on each
    # block leaves few values to look up bucket by bucket.
    first, last = np.flatnonzero(keep)[[0, -1]]
    low, high = first / _BUCKETS, (last + 1) / _BUCKETS
    kept = np.empty(int(hist[keep].sum()))
    filled = 0
    window = np.empty(min(n, _BLOCK + AUDIT_LAGS))
    prod = np.empty(_BLOCK)
    sums = [[] for _ in range(AUDIT_LAGS + 1)]
    windows = [(a, min(a + _BLOCK + AUDIT_LAGS, n)) for a in range(0, n, _BLOCK)]
    for x in _cut(blocks, windows):
        block = x[:_BLOCK]
        near = block[(block >= low) & (block < high)]
        near = near[keep[(near * _BUCKETS).astype(np.intp)]]
        kept[filled:filled + near.size] = near
        filled += near.size
        centered = np.subtract(x, mean, out=window[:x.size])
        del x, block  # a copied span is freed before the next is cut
        for lag, lag_sums in enumerate(sums):
            m = max(min(_BLOCK, centered.size - lag), 0)
            lag_sums.append(np.sum(np.multiply(centered[:m], centered[lag:lag + m],
                                               out=prod[:m])))
    kept.sort()
    ks = _ks_stat(kept, hist, keep, n)
    return ks, [math.fsum(s) for s in sums]


def _audit(source, n: int) -> AuditReport:
    """The audit of a stream of n values: ``source()`` returns an
    iterable over its consecutive float64 blocks, of any sizes, and is
    called once per pass, twice at most (see :func:`innovation_audit`).
    Pass 1 reads the whole source even when a value out of range fails
    the audit, and pass 2 is then skipped."""
    if n < 100:
        raise ValueError("audit needs at least 100 samples")
    counts = _first_pass(iter(source()), n)
    if counts is None:
        return AuditReport(n, np.inf, 0.0, np.inf, 0.0, 0.0, False, False)
    hist, pairs, mean = counts
    ks, (denom, *lagged) = _second_pass(iter(source()), n, hist, mean)
    dkw = float(np.sqrt(np.log(2.0 / AUDIT_LEVEL) / (2.0 * n)))
    uniform_ok = ks <= dkw

    corr_bound = _CORR_QUANTILE / np.sqrt(n)
    if denom > 0.0:
        max_corr = max(abs(total / denom) for total in lagged)
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
    included, fails both; a stream whose values all center to zero (a
    constant stream with an exact mean) reads max_lag_corr inf.

    The audit core (:func:`_audit`) reads the stream in two passes over
    a source of blocks, here w itself, and allocates no full-length
    array.  KS distance: with K = _BUCKETS and C_j the number of values
    in buckets [0, (j+1)/K), an order statistic s_(i) in bucket j has
    i/n - s_(i) in [C_j/n - (j+1)/K, C_j/n - j/K] and s_(i) - (i-1)/n in
    [j/K - C_{j-1}/n, (j+1)/K - C_{j-1}/n].  So a bucket whose upper
    bound lies below the largest lower bound of a non-empty bucket cannot
    hold the maximum: pass 1 counts the histogram, and pass 2 gathers and
    sorts only the values of the other buckets, each of which gets its
    exact global rank C_{j-1} + 1 + its place in its bucket.  On uniform
    streams of 6.8e6 values one to a few 1e4 survive, and about 3e6 of
    6.8e7; a stream packed into a few buckets keeps them all, and the
    sort is then as large as the stream.
    """
    w = np.asarray(w, dtype=float)
    return _audit(lambda: (w,), w.size)
