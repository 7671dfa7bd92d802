import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledchains.rng import (
    _BLOCK,
    _GUIDE_BITS,
    ahead,
    index_sampler,
    sample_index,
    stream_rng,
)

BUCKETS = 1 << _GUIDE_BITS


def _normalized(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    return w / w.sum()


# Laws with zero entries: nonnegative integer weights, not all zero.
with_zeros = (
    st.lists(st.integers(0, 5), min_size=1, max_size=40).filter(any).map(_normalized)
)



# Dyadic laws: every cdf point falls on an edge of the guide's buckets,
# repeated where p has zeros.
@st.composite
def dyadic_on_edges(draw):
    cuts = draw(st.lists(st.integers(0, BUCKETS), max_size=30))
    edges = np.array(sorted([0, BUCKETS, *cuts]))
    return np.diff(edges) / BUCKETS


# Many cdf points inside one bucket: a run of tiny entries, each far
# below the bucket width, between two ordinary ones.
@st.composite
def crowded(draw):
    n = draw(st.integers(2, 200))
    tiny = draw(st.floats(1e-12, 0.5 / (BUCKETS * n)))
    head = draw(st.floats(0.0, 1.0))
    rest = 1.0 - n * tiny
    return np.array([head * rest, *([tiny] * n), (1.0 - head) * rest])


laws = st.one_of(
    with_zeros,
    dyadic_on_edges(),
    crowded(),
    st.just(np.array([1.0])),
    st.integers(2, 300).map(
        lambda n: _normalized(np.random.default_rng(n).dirichlet(np.ones(n)))
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    p=laws,
    # Sizes on either side of the draw blocks, one of them a tuple.
    size=st.sampled_from([None, 0, 1, 100_000, _BLOCK - 1,
                          _BLOCK + 1, 2 * _BLOCK + 3,
                          (2, _BLOCK + 3)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_index_matches_choice(p, size, seed):
    # Oracle: Generator.choice on the same seed, value for value, and
    # the stream left in the same state.
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ref = ref_rng.choice(p.size, p=p, size=size)
    got = sample_index(rng, p, size)
    assert type(got) is type(ref)
    if size is not None:
        assert got.dtype == ref.dtype == np.int64
        assert got.shape == ref.shape
    assert np.array_equal(got, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sample_index_multidimensional_size():
    p = _normalized([1, 0, 2, 5])
    ref = np.random.default_rng(3).choice(4, p=p, size=(50, 7))
    got = sample_index(np.random.default_rng(3), p, (50, 7))
    assert got.shape == (50, 7) and np.array_equal(got, ref)


@pytest.mark.parametrize(
    "p",
    [
        np.array([[0.5, 0.5]]),  # not 1-d
        np.array([]),  # empty
        np.array([0.6, 0.6, -0.2]),  # negative entry
        np.array([0.5, 0.4]),  # does not sum to 1
        np.array([0.5, np.nan]),  # NaN
    ],
)
def test_sample_index_rejects_what_choice_rejects(p):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(max(p.size, 1), p=p, size=3)
    with pytest.raises(ValueError):
        sample_index(np.random.default_rng(0), p, 3)


def test_stream_labels_read_as_strings():
    # One label rule: an int label names the stream of its decimal string.
    for label in (0, 7, 2**40):
        assert np.array_equal(stream_rng(3, "a", label).random(8),
                              stream_rng(3, "a", str(label)).random(8))


@settings(max_examples=60, deadline=None)
@given(n=st.one_of(st.integers(0, 3), st.integers(0, 10**6)),
       seed=st.integers(0, 2**32 - 1))
def test_ahead_skips_the_next_draws(n, seed):
    # Oracle: n doubles drawn one after another from a second copy.
    rng, ref = stream_rng(seed, "ahead"), stream_rng(seed, "ahead")
    state = rng.bit_generator.state
    skipped = ahead(rng, n)
    ref.random(n)
    assert np.array_equal(skipped.random(50), ref.random(50))
    assert rng.bit_generator.state == state  # the source does not move


@settings(max_examples=80, deadline=None)
@given(p=laws,
       blocks=st.lists(st.sampled_from([0, 1, 7, _BLOCK - 1, _BLOCK,
                                        _BLOCK + 1]), min_size=1,
                       max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_index_sampler_blocks_match_one_draw(p, blocks, seed):
    # Consecutive blocks from one sampler: the values of one sample_index
    # call over their total, and the same end state of the stream.
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ref = sample_index(ref_rng, p, sum(blocks))
    draw = index_sampler(p)
    got = np.concatenate([draw(rng, n) for n in blocks])
    assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
