import math
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from coupledchains import innovation
from coupledchains.innovation import (
    AUDIT_BINS,
    AUDIT_LAGS,
    AUDIT_LEVEL,
    AuditReport,
    decode_xv,
    encode_w,
    innovation_audit,
)
from coupledchains.kernels import builtin_kernels
from coupledchains.reconstruction import simulate_path
from coupledchains.rng import _QUARTER as QUARTER, stream_rng

probs = st.floats(0.01, 0.99)
units = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def test_encode_cases():
    # x = 0 packs into (0, f], x = 1 into (f, 1).
    assert encode_w(0, 0.5, 0.7) == pytest.approx(0.35)
    assert encode_w(1, 0.5, 0.7) == pytest.approx(0.85)


def test_decode_cases():
    x, v = decode_xv(0.35, 0.7)
    assert x == 0 and v == pytest.approx(0.5)
    x, v = decode_xv(0.85, 0.7)
    assert x == 1 and v == pytest.approx(0.5)


@given(st.integers(0, 1), units, probs)
@settings(max_examples=300)
def test_round_trip(x, v, f):
    w = encode_w(x, v, f)
    x2, v2 = decode_xv(w, f)
    # The symbol recovers exactly; the auxiliary uniform can lose one
    # ulp to the multiply/divide round trip.
    assert x2 == x
    assert v2 == pytest.approx(v, rel=4 * np.finfo(float).eps)


def test_encode_ulp_edge():
    # v one ulp below 1 rounds 1 - (1-f)*v onto f itself for many f; only
    # those values are nudged, and the result is the nudge-everything
    # formula bit for bit, for scalar and array inputs alike.
    v = np.nextafter(1.0, 0.0)
    tiny = np.finfo(float).tiny
    f = np.concatenate([
        [tiny, 1e-300, 2.0**-53, 1e-12, 1e-6],
        np.linspace(0.01, 0.99, 99),
        1.0 - np.array([1e-6, 1e-12, 2.0**-52]), [np.nextafter(1.0, 0.0)],
    ])
    for x in (0, 1):
        xs = np.full(f.size, x)
        nudged = np.maximum(1.0 - (1.0 - f) * v, np.nextafter(f, 1.0))
        expected = f * v if x == 0 else nudged
        w = encode_w(xs, np.full(f.size, v), f)
        assert w.tobytes() == expected.tobytes()
        assert np.array_equal(decode_xv(w, f)[0], xs)
        for fi, ei in zip(f, expected):
            wi = encode_w(x, v, fi)
            assert type(wi) is float and wi == ei
            assert decode_xv(wi, fi)[0] == x
    # The nudge is reached: some values rounded onto f.
    assert np.count_nonzero(1.0 - (1.0 - f) * v <= f) > 10


def test_round_trip_not_always_bit_exact():
    # (f*v)/f != v for a measurable fraction of inputs: document the
    # one-ulp wobble rather than pretending the codec is bit-exact.
    rng = stream_rng(7, "ulp")
    v = rng.random(10_000)
    f = 0.1 + 0.8 * rng.random(10_000)
    _, v2 = decode_xv(encode_w(np.zeros(10_000, dtype=int), v, f), f)
    assert np.all(np.abs(v2 - v) <= 2 * np.finfo(float).eps * v)


def test_interval_split_is_measure_preserving():
    # P(W <= t) = t for a grid of t under exact integration over (x, v).
    f = 0.7
    for t in np.linspace(0.05, 0.95, 19):
        # W <= t given x=0: f*v <= t -> v <= min(1, t/f), weight f.
        mass0 = f * min(1.0, t / f)
        # W <= t given x=1: 1-(1-f)v <= t -> v >= (1-t)/(1-f).
        mass1 = (1 - f) * max(0.0, 1.0 - (1.0 - t) / (1.0 - f))
        assert mass0 + mass1 == pytest.approx(t, abs=1e-12)


def test_simulated_innovations_look_uniform():
    for name, kernel in builtin_kernels().items():
        sample = simulate_path(kernel, 20_000, 99)
        report = innovation_audit(sample.w)
        assert report.passed, (name, report)


def test_audit_rejects_nonuniform():
    rng = stream_rng(3, "bad")
    w = rng.random(20_000) ** 2  # heavily skewed
    report = innovation_audit(w)
    assert not report.uniform_ok


def test_audit_rejects_correlated():
    rng = stream_rng(4, "corr")
    raw = rng.random(20_001)
    w = (raw[:-1] + raw[1:]) / 2  # strong lag-1 correlation, still in (0,1)
    report = innovation_audit(w)
    assert not report.independence_ok


def test_audit_rejects_out_of_range():
    assert not innovation_audit(np.linspace(0, 1, 1000)).passed


def block_sum(x):
    """The audit's sum rule: np.sum of each block of _BLOCK values at its
    fixed place in x, the block sums added by math.fsum."""
    block = innovation._BLOCK
    return math.fsum(np.sum(x[a:a + block]) for a in range(0, x.size, block))


def ks_distance(w) -> Fraction:
    """The exact KS distance max_i max(i/n - s_(i), s_(i) - (i-1)/n) over
    the order statistics s_(i) of w, sort-based: the float terms pick the
    few candidates within 2^-40 of the largest (each term is within a few
    ulps of its exact value), which are then evaluated exactly."""
    n = w.size
    s = np.sort(w)
    rank = np.arange(1, n + 1)
    terms = np.maximum(rank / n - s, s - (rank - 1) / n)
    near = np.flatnonzero(terms >= terms.max() - 2.0**-40)
    return max(max(Fraction(int(i) + 1, n) - Fraction(s[i]),
                   Fraction(s[i]) - Fraction(int(i), n)) for i in near)


def ks_bucket_bound(w) -> Fraction:
    """max_j max(C_j/n - j/K, (j+1)/K - C_{j-1}/n) over every KS bucket j,
    K = _BUCKETS, C_j the values below (j+1)/K, from one whole-array
    bincount: exact."""
    K, n = innovation._BUCKETS, w.size
    hist = np.bincount((w * K).astype(np.int64), minlength=K)
    upto = np.cumsum(hist)
    j = np.arange(K)
    top = np.maximum(upto * K - j * n, (j + 1) * n - (upto - hist) * K)
    return Fraction(int(top.max()), n * K)


def reference_audit(w):
    """The audit computed over whole-length arrays: the KS bucket bound,
    and the correlations of w centered at its mean, then at the mean of
    what is left, so that the rounding of the first mean does not shift
    the sums."""
    w = np.asarray(w, dtype=float)
    n = w.size
    if not np.all((w > 0.0) & (w < 1.0)):
        return AuditReport(n, np.inf, 0.0, np.inf, 0.0, 0.0, False, False)
    ks = float(ks_bucket_bound(w))
    dkw = float(np.sqrt(np.log(2.0 / AUDIT_LEVEL) / (2.0 * n)))
    centered = w - block_sum(w) / n
    centered -= math.fsum(centered) / n
    denom = math.fsum(centered * centered)
    corr_bound = innovation._CORR_QUANTILE / np.sqrt(n)
    max_corr = 0.0
    for lag in range(1, AUDIT_LAGS + 1):
        cov = math.fsum(centered[:-lag] * centered[lag:])
        c = cov / denom if denom > 0.0 else np.inf
        max_corr = max(max_corr, abs(c))
    bins = np.minimum((w * AUDIT_BINS).astype(np.int64), AUDIT_BINS - 1)
    pair = bins[:-1] * AUDIT_BINS + bins[1:]
    counts = np.bincount(pair, minlength=AUDIT_BINS * AUDIT_BINS)
    expected = (n - 1) / (AUDIT_BINS * AUDIT_BINS)
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    pvalue = innovation._pair_chi2_sf(chi2)
    independence_ok = max_corr <= corr_bound and pvalue > AUDIT_LEVEL
    return AuditReport(
        n, ks, dkw, max_corr, corr_bound, pvalue, ks <= dkw, independence_ok
    )


def audit_streams():
    rng = stream_rng(5, "oracle")
    block = innovation._BLOCK
    odd = 3 * block + 17  # not a multiple of the audit block
    raw = rng.random(odd + 1)
    yield rng.random(100)
    yield rng.random(odd)
    yield rng.random(odd) ** 2  # fails uniformity
    yield rng.random(odd) ** 3  # KS maximum mid-range
    yield (raw[:-1] + raw[1:]) / 2  # fails independence
    yield np.round(rng.random(odd), 3).clip(0.001, 0.999)  # many ties
    # Values on the edges of the KS buckets and of the chi-square bins.
    yield rng.integers(1, innovation._BUCKETS, odd) / innovation._BUCKETS
    yield rng.integers(1, AUDIT_BINS, odd) / AUDIT_BINS
    # Three values on bucket edges, symmetric about 1/2: the largest D+
    # and D- tie in exact arithmetic but round apart.
    edge = 1000 / innovation._BUCKETS
    yield np.repeat([edge, 0.5, 1.0 - edge], 34)
    # Every value in one KS bucket.
    yield (12345 + rng.random(odd)) / innovation._BUCKETS
    yield np.sort(rng.random(odd))[::-1]  # descending, a reversed view
    # Lengths on either side of one and two audit blocks.
    for size in (block - 1, block + 1, 2 * block - 1, 2 * block + 1):
        yield rng.random(size)
    # A 0.0, a 1.0, an infinity or a NaN anywhere gives the failing report.
    for value, at in ((0.0, 0), (0.0, 57), (1.0, 99), (1.0, 3),
                      (np.inf, 20), (-np.inf, 80), (np.nan, 0), (np.nan, 50)):
        w = rng.random(100)
        w[at] = value
        yield w
    # Constant streams: every centered value is 0 (the correlations are
    # undefined and read inf), whether or not the float mean is exact.
    yield np.full(1000, 0.5)
    yield np.full(100, 0.25)
    yield np.full(1000, 0.1)
    yield np.full(100, np.nan)


def test_audit_matches_reference():
    for w in audit_streams():
        report, expected = innovation_audit(w), reference_audit(w)
        # repr pins every field's type and, through float repr, its bits;
        # the correlations are sums in another order, within 1e-14.  The
        # KS bound lies within one bucket width above the exact distance.
        assert math.isclose(report.max_lag_corr, expected.max_lag_corr,
                            rel_tol=1e-14)
        assert repr(report) == repr(replace(expected, max_lag_corr=report.max_lag_corr))
        if np.isfinite(report.ks_stat):
            bound, exact = ks_bucket_bound(w), ks_distance(w)
            assert exact <= bound <= exact + Fraction(1, innovation._BUCKETS)
    assert not report.passed and report.ks_stat == np.inf


@st.composite
def ks_streams(draw):
    """Streams of 100 values, or _BLOCK - 1 .. _BLOCK + 1: uniform, or
    packed into a few KS buckets, anywhere in them, on their lower edges
    or one ulp below their upper edges."""
    K = innovation._BUCKETS
    n = draw(st.sampled_from([100, innovation._BLOCK - 1, innovation._BLOCK,
                              innovation._BLOCK + 1]))
    kind = draw(st.sampled_from(["uniform", "inside", "lower", "below"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        return rng.random(n)
    buckets = rng.integers(1, K - 1, draw(st.integers(1, 4)))
    j = rng.choice(buckets, n)
    if kind == "inside":
        w = (j + rng.random(n)) / K
    elif kind == "lower":
        w = j / K
    else:
        w = np.nextafter((j + 1) / K, 0.0)
    return w[w > 0.0]


@given(ks_streams())
@settings(max_examples=60, deadline=None)
def test_ks_bound_is_within_a_bucket_of_the_exact_distance(w):
    # The report's KS statistic is the bucket bound, rounded once, and the
    # bound lies between the exact distance and one bucket width above it.
    report = innovation_audit(w)
    bound, exact = ks_bucket_bound(w), ks_distance(w)
    assert report.ks_stat == float(bound)
    assert exact <= bound <= exact + Fraction(1, innovation._BUCKETS)


def pieces(w, cut, read=None):
    """The stream w in consecutive pieces of `cut` values; the offsets of
    the pieces read are appended to `read`."""
    for b0 in range(0, w.size, cut):
        if read is not None:
            read.append(b0)
        yield w[b0:b0 + cut]


# Pieces shorter than the AUDIT_LAGS values two windows share, pieces
# on either side of a block, pieces whose edges fall inside the shared
# values (2^16 + 2) and pieces of one whole window (2^16 + AUDIT_LAGS).
@pytest.mark.parametrize("cut", [1, 3, 5, 2**16 - 1, 2**16 + 1, 65521, 2**16 + 2,
                                 2**16 + innovation.AUDIT_LAGS])
def test_audit_core_matches_on_any_block_cut(cut):
    # Pieces cut anywhere in the windows give the report of the whole
    # array.
    for w in audit_streams():
        if cut == 1 and w.size > 10**4:
            continue
        report = innovation._audit(pieces(w, cut), w.size)
        assert repr(report) == repr(innovation_audit(w))


def reused_pieces(w, cut):
    """The stream w in consecutive pieces of `cut` values, each written
    into one buffer that the next piece overwrites; the buffer reads NaN
    once the source has ended."""
    buf = np.empty(min(cut, w.size))
    for b0 in range(0, w.size, cut):
        piece = buf[:min(cut, w.size - b0)]
        piece[...] = w[b0:b0 + cut]
        yield piece
    buf[...] = np.nan


@pytest.mark.parametrize("cut", [1, 3, 2**16 - 1, 2**16 + 1, 65521, 2**16 + 2])
def test_audit_core_matches_on_a_reused_buffer(cut):
    # As the stitch's source does, every piece overwrites the one before:
    # the cut copies what a window still needs before it reads on.
    for w in audit_streams():
        if cut == 1 and w.size > 10**4:
            continue
        report = innovation._audit(reused_pieces(w, cut), w.size)
        assert repr(report) == repr(innovation_audit(w))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, 1.0])
def test_audit_core_fails_on_a_late_value_out_of_range(value):
    # A bad value in the last piece: the failing report, no bincount of
    # it (a NaN or inf cast to an index would warn, an error here), and
    # the whole source read.
    w = stream_rng(12, "late").random(3 * innovation._BLOCK + 17)
    w[-5] = value
    failing = AuditReport(w.size, np.inf, 0.0, np.inf, 0.0, 0.0, False, False)
    for cut in (2**16 - 1, w.size):
        read = []
        report = innovation._audit(pieces(w, cut, read), w.size)
        assert repr(report) == repr(failing)
        assert read == list(range(0, w.size, cut))


def test_audit_core_checks_the_source_length():
    # A source one value short or one value long, in pieces of any size,
    # also where the stream ends inside the values two windows share.
    for size, cuts in ((1000, (1, 3, 300)), (2**16 + 3, (3, 300, 2**16 + 2))):
        w = stream_rng(13, "length").random(size)
        for cut in cuts:
            for n in (size - 1, size + 1):
                with pytest.raises(ValueError, match="source"):
                    innovation._audit(pieces(w, cut), n)


@pytest.mark.parametrize("shape", [(2000, 100), (1, 200), ()])
def test_audit_rejects_a_stream_that_is_not_1d(shape):
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        innovation_audit(np.full(shape, 0.5))


@pytest.mark.parametrize("value", [0.5, 0.25])
def test_audit_fails_constant_stream(value):
    # The mean is exact, so the correlations' denominator is 0.
    report = innovation_audit(np.full(1000, value))
    assert not report.uniform_ok and not report.independence_ok
    assert report.max_lag_corr == np.inf


def test_audit_needs_samples():
    with pytest.raises(ValueError):
        innovation_audit(np.full(10, 0.5))


def test_pair_chi2_tail_matches_scipy():
    # Closed-form odd-dof tail against scipy's incomplete gamma, from the
    # body of the law far into the tail (p-values down to ~1e-157).
    dof = innovation.AUDIT_BINS**2 - 1
    for x in np.linspace(1.0, 1400.0, 561):
        expected = stats.chi2.sf(x, dof)
        assert innovation._pair_chi2_sf(float(x)) == pytest.approx(
            expected, rel=1e-12
        ), x


def test_correlation_quantile_matches_scipy():
    level = innovation.AUDIT_LEVEL / (2 * innovation.AUDIT_LAGS)
    expected = float(stats.norm.ppf(1.0 - level))
    assert abs(innovation._CORR_QUANTILE - expected) <= math.ulp(expected)


def whole_counts(w):
    """The KS bucket histogram and the pair chi-square counts of w, each
    from one bincount of the whole stream."""
    buckets = np.floor(w * innovation._BUCKETS).astype(np.intp)
    bins = np.minimum(np.floor(w * AUDIT_BINS).astype(np.intp), AUDIT_BINS - 1)
    pairs = np.bincount(bins[:-1] * AUDIT_BINS + bins[1:],
                        minlength=AUDIT_BINS * AUDIT_BINS)
    return np.bincount(buckets, minlength=innovation._BUCKETS), pairs


def assert_counts_match(w, source):
    """Checks the counts of the tally of `source` against those of w and
    returns the rest of the tally."""
    hist, counts, *rest = innovation._tally(source, w.size)
    whole_hist, whole_pairs = whole_counts(w)
    assert counts.dtype == whole_pairs.dtype
    assert np.array_equal(counts, whole_pairs)
    assert np.array_equal(hist, whole_hist)
    return rest


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("blocks", [0, 1, 2])
def test_pair_counts_match_whole_array_bincount(blocks, offset):
    # Bucket histogram and pair counts summed over the windows against one
    # bincount of every bucket and every pair code, and the shift and the
    # sum of the shifted values against the block sums of w, for streams
    # on either side of the block edges.
    pairs = max(blocks * innovation._BLOCK + offset, 1)
    rng = stream_rng(9, "pairs", str(pairs))
    w = rng.random(pairs + 1)
    total, *_ = assert_counts_match(w, (w,))
    first = w[:innovation._BLOCK]
    assert total == block_sum(w - np.sum(first) / first.size)


@pytest.mark.parametrize("size", [QUARTER - 1, QUARTER, QUARTER + 1, 2 * QUARTER + 1,
                                  innovation._BLOCK + QUARTER + 1])
def test_pair_counts_match_at_quarter_edges(size):
    # Each window is counted a quarter at a time: streams that end on
    # either side of a quarter's edge, and one whose last window holds one
    # quarter and one value.
    w = stream_rng(9, "quarters", str(size)).random(size)
    assert_counts_match(w, (w,))


@given(n=st.integers(0, 5).flatmap(
           lambda k: st.integers(max(k * QUARTER - 2, 2), k * QUARTER + 2)),
       cuts=st.lists(st.integers(1, 3 * QUARTER), min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_pair_counts_match_on_any_piece_cut(n, cuts):
    # Streams that end near a quarter's edge, read from pieces of random
    # sizes, taken in turn.
    w = stream_rng(10, "quarters", str(n)).random(n)

    def source():
        b0 = 0
        while b0 < n:
            for cut in cuts:
                yield w[b0:b0 + cut]
                b0 += cut

    assert_counts_match(w, source())


def test_audit_memory_stays_blockwise():
    # Beyond its input the audit holds one window, quarter-window count
    # buffers and the bucket histogram: no full-length sort buffer or
    # centered copy.  It peaks at 1.51 MiB, and the bound leaves 0.49 MiB
    # for numpy's temporaries; counting whole windows by bincount, it
    # peaked at 2.52 MiB.
    w = stream_rng(11, "memory").random(6_800_000)
    tracemalloc.start()
    try:
        innovation_audit(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
