"""Word and phrase lists used by the feature extractor.

A lexicon is a set of token sequences: single words ("really") or short
phrases ("you know"). Matching is case-insensitive because entries and
probe text go through the same tokenizer. Files are UTF-8, one entry per
line, blank lines and ``#`` comments ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence, Union

from .ingestion import MalformedLine, open_input
from .text import tokenize


class EmptyLexicon(ValueError):
    """A lexicon source contained no usable entries."""


@dataclass(frozen=True)
class Lexicon:
    name: str
    entries: frozenset[tuple[str, ...]]

    def __post_init__(self) -> None:
        if not self.entries:
            raise EmptyLexicon(f"lexicon {self.name!r} has no entries")

    @classmethod
    def from_phrases(cls, name: str, phrases: Iterable[str]) -> "Lexicon":
        """Build a lexicon by tokenizing each phrase."""
        entries = frozenset(t for t in (tuple(tokenize(p)) for p in phrases) if t)
        return cls(name, entries)

    @cached_property
    def _lengths(self) -> tuple[int, ...]:
        """Distinct entry lengths, ascending; computed once per lexicon."""
        return tuple(sorted({len(e) for e in self.entries}))

    @cached_property
    def _by_first(self) -> dict[str, tuple[int, ...]]:
        """Each entry's first token, mapped to the ascending lengths of the entries it starts."""
        lengths: dict[str, set[int]] = {}
        for entry in self.entries:
            lengths.setdefault(entry[0], set()).add(len(entry))
        return {first: tuple(sorted(ns)) for first, ns in lengths.items()}

    @cached_property
    def words(self) -> frozenset[str]:
        """The single-word entries."""
        return frozenset(e[0] for e in self.entries if len(e) == 1)

    def contains_token(self, token: str) -> bool:
        return token.lower() in self.words

    def contains(self, tokens: Sequence[str]) -> bool:
        """True if any entry occurs as a contiguous run inside ``tokens``.

        Only the entries that start with a token are tried at that token.
        """
        by_first = self._by_first
        for i, token in enumerate(tokens):
            for n in by_first.get(token, ()):
                if i + n > len(tokens):
                    break
                if n == 1 or tuple(tokens[i : i + n]) in self.entries:
                    return True
        return False

    def matches_end(self, tokens: Sequence[str]) -> bool:
        """True if some entry equals the final tokens of the sequence."""
        for n in self._lengths:
            if 0 < n <= len(tokens) and tuple(tokens[-n:]) in self.entries:
                return True
        return False


def load_lexicon(source: Union[str, Path, Iterable[str]], name: str | None = None) -> Lexicon:
    """Read a lexicon from a path or an iterable of lines.

    Raises MalformedLine for an entry with no word tokens, and EmptyLexicon
    when nothing but blanks and comments is left.
    """
    if isinstance(source, (str, Path)):
        with open_input(source) as f:
            return load_lexicon(f, Path(source).stem if name is None else name)
    phrases = []
    for line_no, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not tokenize(line):
            raise MalformedLine(line_no, f"entry {line!r} has no word tokens")
        phrases.append(line)
    return Lexicon.from_phrases("lexicon" if name is None else name, phrases)


DEFAULT_WH = Lexicon.from_phrases(
    "wh",
    ["who", "whom", "whose", "what", "which", "where", "when", "why", "how"],
)

DEFAULT_AUX = Lexicon.from_phrases(
    "aux",
    [
        "am", "is", "are", "was", "were",
        "do", "does", "did",
        "have", "has", "had",
        "can", "could", "will", "would", "shall", "should", "may", "might", "must",
    ],
)

DEFAULT_TAG = Lexicon.from_phrases("tag", ["isn't it", "right"])

DEFAULT_CLICHE = Lexicon.from_phrases(
    "cliche",
    ["you know", "really", "oh yeah", "right", "okay", "huh"],
)
