"""Finite binary words and their integer codes.

A word is a tuple of 0/1 symbols with the most recent symbol *last*.  Its
integer code puts the most recent symbol at bit 0, so bit ``i`` holds the
symbol ``i`` steps back in time.  Words shorter than a requested length
are implicitly zero-padded on the left (older symbols default to 0),
which is exactly what plain integer codes give for free.
"""

from __future__ import annotations

from typing import Iterable

Word = tuple[int, ...]


def as_word(bits: Iterable[int]) -> Word:
    """Validate and normalize a bit sequence into a Word."""
    word = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in word):
        raise ValueError(f"word symbols must be 0 or 1, got {word!r}")
    return word


def word_to_int(word: Iterable[int]) -> int:
    """Integer code of a word: most recent symbol at bit 0."""
    value = 0
    for i, b in enumerate(reversed(tuple(word))):
        if b not in (0, 1):
            raise ValueError(f"word symbols must be 0 or 1, got {b!r}")
        value |= b << i
    return value


def int_to_word(value: int, length: int) -> Word:
    if value < 0 or value >= (1 << length):
        raise ValueError(f"{value} does not fit in {length} bits")
    return tuple((value >> (length - 1 - i)) & 1 for i in range(length))


def word_str(word: Iterable[int]) -> str:
    """Render a word as a 0/1 string, oldest symbol first."""
    return "".join(str(int(b)) for b in word)


def parse_word(text: str) -> Word:
    """The word of a 0/1 string, oldest symbol first; a string with any
    other character raises ValueError, quoting the string."""
    if set(text) - {"0", "1"}:
        raise ValueError(f"a word is a string of 0s and 1s, not {text!r}")
    return tuple(int(c) for c in text)
