"""Word and phrase lists used by the feature extractor, and the wh-word role table.

A lexicon is a set of token sequences: single words ("really") or short
phrases ("you know"). Matching is case-insensitive because entries and
probe text go through the same tokenizer. Files are UTF-8, one entry per
line, blank lines and ``#`` comments ignored.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .ingestion import MalformedLine, open_input
from .model import Feature, checked_record
from .text import tokenize


class EmptyLexicon(ValueError):
    """A lexicon source contained no usable entries."""


class Lexicon(checked_record("Lexicon", "name entries")):
    # no __slots__: each instance keeps its cached properties in its __dict__

    def __new__(cls, name: str, entries: frozenset[tuple[str, ...]]):
        if not entries:
            raise EmptyLexicon(f"lexicon {name!r} has no entries")
        return tuple.__new__(cls, (name, entries))

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


def list_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of each line of a list file that is neither blank nor a ``#`` comment."""
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def load_lexicon(source: Union[str, Path, Iterable[str]], name: str | None = None) -> Lexicon:
    """Read a lexicon from a path or an iterable of lines.

    Raises MalformedLine for an entry with no word tokens, and EmptyLexicon
    when nothing but blanks and comments is left.
    """
    if isinstance(source, (str, Path)):
        with open_input(source) as f:
            return load_lexicon(f, Path(source).stem if name is None else name)
    phrases = []
    for line_no, line in list_lines(source):
        if not tokenize(line):
            raise MalformedLine(line_no, f"entry {line!r} has no word tokens")
        phrases.append(line)
    return Lexicon.from_phrases("lexicon" if name is None else name, phrases)


#: Wh-word to semantic role, shipped as overridable data; its words are the wh lexicon.
DEFAULT_WH_FEATURE_MAP: Mapping[str, Feature] = {
    "who": Feature.AG,
    "whom": Feature.AG,
    "whose": Feature.OW,
    "where": Feature.LOC,
    "when": Feature.TMP,
    "why": Feature.RE,
    "what": Feature.TH,
    "which": Feature.CH,
    "how": Feature.CH,
}

DEFAULT_WH = Lexicon.from_phrases("wh", DEFAULT_WH_FEATURE_MAP)

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
