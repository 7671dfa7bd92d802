"""Symbol/uniform innovation codec and statistical audits.

A symbol X with P(X=0)=f together with an independent uniform V is
packed into a single uniform innovation

    W = f*V            if X = 0,
    W = 1 - (1-f)*V    if X = 1,

so that (X, V) can be recovered from (W, f):

    X = 1(W > f),   V = W/f if X = 0 else (1-W)/(1-f).

The map is measure preserving: W is uniform on (0,1) and independent of
the past that produced f.

The audit is one fixed test: every check runs at level AUDIT_LEVEL
(1e-6), lag correlations cover lags 1..AUDIT_LAGS (5), and the pair
chi-square counts consecutive pairs on an AUDIT_BINS x AUDIT_BINS
(16 x 16) grid, hence 255 degrees of freedom.  Both tail functions
therefore have closed forms and need no statistics library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

AUDIT_LEVEL = 1e-6
AUDIT_LAGS = 5
AUDIT_BINS = 16

# Two-sided Gaussian envelope for each lag correlation, Bonferroni over
# the lags.
_CORR_QUANTILE = NormalDist().inv_cdf(1.0 - AUDIT_LEVEL / (2 * AUDIT_LAGS))
# Samples per block of the KS maximum and of the pair count in
# `innovation_audit`.
_BLOCK = 1 << 16


def encode_w(x, v, f):
    """Innovation from symbol, auxiliary uniform and P(X=0)=f.

    Accepts scalars or aligned arrays.  For x = 1 the exact value
    1 - (1-f)*v lies strictly above f, but the float rounding can land
    on f itself when v is within an ulp of 1; the result is nudged back
    into the open interval (f, 1) so decoding always recovers x."""
    x = np.asarray(x)
    v = np.asarray(v)
    f = np.asarray(f)
    w1 = np.maximum(1.0 - (1.0 - f) * v, np.nextafter(f, 1.0))
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


def _pair_counts(bins: np.ndarray) -> np.ndarray:
    """Counts of the codes bins[t] * AUDIT_BINS + bins[t + 1] of the
    consecutive pairs of uint8 bins; all AUDIT_BINS^2 codes fit in a
    byte.  np.bincount casts its input to intp, so it runs on blocks of
    _BLOCK codes and the integer counts are added: the counts of one
    whole-array call, without its full-length intp copy."""
    pair = bins[:-1] * np.uint8(AUDIT_BINS)
    pair += bins[1:]
    counts = np.zeros(AUDIT_BINS * AUDIT_BINS, dtype=np.intp)
    for b0 in range(0, pair.size, _BLOCK):
        counts += np.bincount(pair[b0:b0 + _BLOCK],
                              minlength=AUDIT_BINS * AUDIT_BINS)
    return counts


def innovation_audit(w: np.ndarray) -> AuditReport:
    """Check that an innovation stream looks iid uniform.

    Uniformity: the empirical CDF must stay within the DKW envelope
    sqrt(log(2/AUDIT_LEVEL) / (2n)) of the identity.  Independence:
    lagged correlations within a Gaussian envelope, plus a chi-squared
    test on the (w_t, w_{t+1}) bin grid.

    Besides the centered stream, the only full-length float array is the
    sort buffer: the KS maximum and the pair counts are taken block by
    block, and each product of the correlations is written into the
    buffer before its sum.  Every sum is the same np.sum over the same
    contiguous values as with fresh arrays, and integer counts add
    exactly, so the report is byte-identical to the whole-array form.
    """
    w = np.asarray(w, dtype=float)
    n = w.size
    if n < 100:
        raise ValueError("audit needs at least 100 samples")
    srt = np.sort(w)
    if srt[0] <= 0.0 or srt[-1] >= 1.0:
        return AuditReport(n, np.inf, 0.0, np.inf, 0.0, 0.0, False, False)

    # KS distance block by block: the grid values (b0+1 .. b1)/n and the
    # max are the same as over the whole array at once.
    ks = -np.inf
    for b0 in range(0, n, _BLOCK):
        s = srt[b0:b0 + _BLOCK]
        grid = np.arange(b0 + 1, b0 + s.size + 1) / n
        ks = max(ks, float(np.max(grid - s)), float(np.max(s - (grid - 1.0 / n))))
    dkw = float(np.sqrt(np.log(2.0 / AUDIT_LEVEL) / (2.0 * n)))
    uniform_ok = ks <= dkw

    # From here on the sort buffer holds each product before its sum.
    centered = w - w.mean()
    denom = float(np.sum(np.multiply(centered, centered, out=srt)))
    corr_bound = _CORR_QUANTILE / np.sqrt(n)
    max_corr = 0.0
    for lag in range(1, AUDIT_LAGS + 1):
        prod = np.multiply(centered[:-lag], centered[lag:], out=srt[:-lag])
        c = float(np.sum(prod)) / denom
        max_corr = max(max_corr, abs(c))

    # Bin of each sample, floor(w * AUDIT_BINS) capped at AUDIT_BINS - 1.
    bins = np.multiply(w, AUDIT_BINS, out=srt).astype(np.uint8)
    np.minimum(bins, AUDIT_BINS - 1, out=bins)
    counts = _pair_counts(bins)
    expected = (n - 1) / (AUDIT_BINS * AUDIT_BINS)
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    pvalue = _pair_chi2_sf(chi2)

    independence_ok = max_corr <= corr_bound and pvalue > AUDIT_LEVEL
    return AuditReport(
        n, ks, dkw, max_corr, corr_bound, pvalue, uniform_ok, independence_ok
    )
