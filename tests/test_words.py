import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coupledchains.words import (
    as_word,
    int_to_word,
    parse_word,
    word_str,
    word_to_int,
)

words = st.lists(st.integers(0, 1), min_size=0, max_size=16).map(tuple)


def test_known_codes():
    # Most recent symbol (last tuple entry) is bit 0.
    assert word_to_int((0, 1, 1)) == 0b011
    assert word_to_int((1, 1, 0)) == 0b110
    assert word_to_int(()) == 0
    assert int_to_word(0b110, 3) == (1, 1, 0)


def test_word_str_oldest_first():
    assert word_str((0, 1, 1)) == "011"
    assert parse_word("011") == (0, 1, 1)


@given(words)
def test_round_trip(w):
    assert int_to_word(word_to_int(w), len(w)) == w


@given(st.integers(0, 2**16 - 1))
def test_int_round_trip(v):
    assert word_to_int(int_to_word(v, 16)) == v


@given(words)
def test_str_round_trip(w):
    assert parse_word(word_str(w)) == w


def test_as_word_validates():
    assert as_word([0, 1]) == (0, 1)
    with pytest.raises(ValueError):
        as_word((0, 2))


def test_parse_word_validates():
    # The message quotes the word, whatever the stray character: int()
    # would also read a space-padded or non-ASCII digit.
    for text in ("01x", "012", " 01", "0\uff11"):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            parse_word(text)
