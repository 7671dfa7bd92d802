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


def innovation_audit(w: np.ndarray) -> AuditReport:
    """Check that an innovation stream looks iid uniform.

    Uniformity: the empirical CDF must stay within the DKW envelope
    sqrt(log(2/AUDIT_LEVEL) / (2n)) of the identity.  Independence:
    lagged correlations within a Gaussian envelope, plus a chi-squared
    test on the (w_t, w_{t+1}) bin grid.
    """
    w = np.asarray(w, dtype=float)
    n = w.size
    if n < 100:
        raise ValueError("audit needs at least 100 samples")
    if np.any(w <= 0.0) or np.any(w >= 1.0):
        return AuditReport(n, np.inf, 0.0, np.inf, 0.0, 0.0, False, False)

    srt = np.sort(w)
    grid = np.arange(1, n + 1) / n
    ks = float(np.max(np.maximum(grid - srt, srt - (grid - 1.0 / n))))
    dkw = float(np.sqrt(np.log(2.0 / AUDIT_LEVEL) / (2.0 * n)))
    uniform_ok = ks <= dkw

    centered = w - w.mean()
    denom = float(np.sum(centered * centered))
    corr_bound = _CORR_QUANTILE / np.sqrt(n)
    max_corr = 0.0
    for lag in range(1, AUDIT_LAGS + 1):
        c = float(np.sum(centered[:-lag] * centered[lag:])) / denom
        max_corr = max(max_corr, abs(c))

    bins = np.minimum((w * AUDIT_BINS).astype(np.int64), AUDIT_BINS - 1)
    pair = bins[:-1] * AUDIT_BINS + bins[1:]
    counts = np.bincount(pair, minlength=AUDIT_BINS * AUDIT_BINS)
    expected = (n - 1) / (AUDIT_BINS * AUDIT_BINS)
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    pvalue = _pair_chi2_sf(chi2)

    independence_ok = max_corr <= corr_bound and pvalue > AUDIT_LEVEL
    return AuditReport(
        n, ks, dkw, max_corr, corr_bound, pvalue, uniform_ok, independence_ok
    )
