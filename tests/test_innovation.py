import math
import tracemalloc

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
from coupledchains.rng import stream_rng

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


def reference_audit(w):
    """The audit computed over whole-length arrays in one pass each."""
    w = np.asarray(w, dtype=float)
    n = w.size
    if not np.all((w > 0.0) & (w < 1.0)):
        return AuditReport(n, np.inf, 0.0, np.inf, 0.0, 0.0, False, False)
    srt = np.sort(w)
    grid = np.arange(1, n + 1) / n
    ks = float(np.max(np.maximum(grid - srt, srt - (grid - 1.0 / n))))
    dkw = float(np.sqrt(np.log(2.0 / AUDIT_LEVEL) / (2.0 * n)))
    centered = w - block_sum(w) / n
    denom = block_sum(centered * centered)
    corr_bound = innovation._CORR_QUANTILE / np.sqrt(n)
    max_corr = 0.0
    for lag in range(1, AUDIT_LAGS + 1):
        cov = block_sum(centered[:-lag] * centered[lag:])
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
    # and D- tie in exact arithmetic but round apart, so pruning the KS
    # buckets without slack would drop the one that holds the maximum.
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
    # Constant streams: every centered value is 0 where the mean is exact
    # (the correlations are undefined and read inf), and a tiny constant
    # where it is not.
    yield np.full(1000, 0.5)
    yield np.full(100, 0.25)
    yield np.full(1000, 0.1)
    yield np.full(100, np.nan)


def test_audit_matches_reference():
    for w in audit_streams():
        report = innovation_audit(w)
        # repr pins every field's type and, through float repr, its bits.
        assert repr(report) == repr(reference_audit(w))
    assert not report.passed and report.ks_stat == np.inf


def pieces(w, cut, read=None):
    """A source of the stream w in consecutive pieces of `cut` values;
    the pieces read are appended to `read`."""
    def source():
        for b0 in range(0, w.size, cut):
            if read is not None:
                read.append(b0)
            yield w[b0:b0 + cut]
    return source


@pytest.mark.parametrize("cut", [1, 2**16 - 1, 2**16 + 1, 65521])
def test_audit_core_matches_on_any_block_cut(cut):
    # Pieces cut anywhere in the leaves and windows of the two passes
    # give the report of the whole array.
    for w in audit_streams():
        if cut == 1 and w.size > 10**4:
            continue
        report = innovation._audit(pieces(w, cut), w.size)
        assert repr(report) == repr(innovation_audit(w))


def reused_pieces(w, cut):
    """A source of the stream w in consecutive pieces of `cut` values,
    each written into one buffer that the next piece overwrites; the
    buffer reads NaN once the source has ended."""
    def source():
        buf = np.empty(min(cut, w.size))
        for b0 in range(0, w.size, cut):
            piece = buf[:min(cut, w.size - b0)]
            piece[...] = w[b0:b0 + cut]
            yield piece
        buf[...] = np.nan
    return source


@pytest.mark.parametrize("cut", [1, 2**16 - 1, 2**16 + 1, 65521])
def test_audit_core_matches_on_a_reused_buffer(cut):
    # As the stitch's sources do, every piece overwrites the one before:
    # the cut copies what a span still needs before it reads on.
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
    w = stream_rng(13, "length").random(1000)
    for n in (999, 1001):
        with pytest.raises(ValueError, match="source"):
            innovation._audit(pieces(w, 300), n)


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


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("blocks", [0, 1, 2])
def test_pair_counts_match_whole_array_bincount(blocks, offset):
    # Bucket histogram and pair counts summed over the blocks of pass 1
    # against one bincount of every bucket and every pair code, and its
    # mean against the block sums of w, for streams on either side of the
    # block edges.
    pairs = max(blocks * innovation._BLOCK + offset, 1)
    rng = stream_rng(9, "pairs", str(pairs))
    w = rng.random(pairs + 1)
    buckets = np.floor(w * innovation._BUCKETS).astype(np.intp)
    bins = np.minimum(np.floor(w * AUDIT_BINS).astype(np.intp), AUDIT_BINS - 1)
    whole = np.bincount(bins[:-1] * AUDIT_BINS + bins[1:],
                        minlength=AUDIT_BINS * AUDIT_BINS)
    hist, counts, mean = innovation._first_pass(iter((w,)), w.size)
    assert mean == block_sum(w) / w.size
    assert counts.dtype == whole.dtype
    assert np.array_equal(counts, whole)
    assert np.array_equal(hist, np.bincount(buckets, minlength=innovation._BUCKETS))


def test_audit_memory_stays_blockwise():
    # Beyond its input the audit holds block-sized buffers, a bucket
    # histogram and the few values that can set the KS maximum: no
    # full-length sort buffer or centered copy.
    w = stream_rng(11, "memory").random(6_800_000)
    tracemalloc.start()
    try:
        innovation_audit(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
