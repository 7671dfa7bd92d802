"""Words at the edges: a context written as a 0/1 string, oldest symbol
first, and its integer code, most recent symbol at bit 0
(:func:`coupledchains.kernels.parse_word` one way, ``format(code,
f"0{L}b")`` the other)."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coupledchains.kernels import parse_word

strings = st.text(alphabet="01", min_size=1, max_size=16)


def test_known_codes():
    # Most recent symbol (last character) is bit 0.
    assert parse_word("011") == 0b011
    assert parse_word("110") == 0b110
    assert parse_word("") == 0
    assert format(0b110, "03b") == "110"


def test_code_string_oldest_first():
    assert format(0b011, "03b") == "011"
    assert parse_word("011") == 0b011
    # A shorter string is the code zero-padded on the left.
    assert parse_word("11") == parse_word("0011")


@given(st.integers(0, 16).flatmap(
    lambda L: st.tuples(st.just(L), st.integers(0, 2**L - 1))))
def test_int_round_trip(case):
    L, c = case
    assert parse_word(format(c, f"0{L}b")) == c


@given(strings)
def test_str_round_trip(s):
    assert format(parse_word(s), f"0{len(s)}b") == s


def test_parse_word_validates():
    # The message quotes the word, whatever the stray character: int()
    # would also read a space-padded or non-ASCII digit.
    for text in ("01x", "012", " 01", "0\uff11"):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            parse_word(text)
