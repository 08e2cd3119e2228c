"""Tokenization and token-overlap primitives shared by the extractors."""

from __future__ import annotations

import re
from typing import Sequence

# Word = letter/digit runs, optionally joined by apostrophes, so a
# contraction stays one token. Underscore is excluded from \w on purpose.
_TOKEN = re.compile(r"[^\W_]+(?:['’][^\W_]+)*")

# The same rule as a byte table for ASCII text: letters lowered, digits and '
# kept, every other byte a space, so a split leaves tokens and words with a '.
_ASCII_WORDS = bytes(ord(c.lower()) if c.isalnum() or c == "'" else 32 for c in map(chr, range(128))) + b" " * 128


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens; standalone punctuation is dropped.

    ``_TOKEN`` defines a token. ASCII text takes the byte table instead,
    which gives the same tokens faster.
    """
    if not text.isascii():
        return _TOKEN.findall(text.lower())
    words = text.encode().translate(_ASCII_WORDS).decode().split()
    if "'" not in text:
        return words
    # a word may still start or end with a ' or hold two in a row
    return [t for w in words for t in ((w,) if "'" not in w else _TOKEN.findall(w))]


def overlap_ratio(a: Sequence[str], b: Sequence[str]) -> float:
    """Fraction of the distinct tokens of ``a`` that also occur in ``b``.

    Asymmetric by design: it asks how much of ``a`` is covered. Empty ``a``
    gives 0.0.
    """
    if not a:
        return 0.0
    distinct = set(a)
    return len(distinct.intersection(b)) / len(distinct)
