"""Tokenization and token-overlap primitives shared by the extractors."""

from __future__ import annotations

import re
from typing import Sequence

# Word = letter/digit runs, optionally joined by apostrophes, so a
# contraction stays one token. Underscore is excluded from \w on purpose.
_TOKEN = re.compile(r"[^\W_]+(?:['’][^\W_]+)*")


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens; standalone punctuation is dropped."""
    return _TOKEN.findall(text.lower())


def overlap_ratio(a: Sequence[str], b: Sequence[str]) -> float:
    """Fraction of the distinct tokens of ``a`` that also occur in ``b``.

    Asymmetric by design: it asks how much of ``a`` is covered. Empty ``a``
    gives 0.0.
    """
    if not a:
        return 0.0
    distinct = set(a)
    return len(distinct.intersection(b)) / len(distinct)
