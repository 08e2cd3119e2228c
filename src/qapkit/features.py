"""Surface predictors computed for each question occurrence.

Eight predictors per question: wh-word presence, the word "or", subject-aux
inversion, an utterance-final tag phrase, similarity to the previous turn,
whether the previous turn was cut off, a phatic cliché anywhere, and token
length. All deliberately shallow: tokens, word lists, and one utterance of
left context. No parser, no POS tags.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence, Union

from .ingestion import MalformedLine, open_input
from .lexicon import DEFAULT_AUX, DEFAULT_CLICHE, DEFAULT_TAG, DEFAULT_WH, Lexicon, load_lexicon
from .model import Utterance
from .text import overlap_ratio, tokenize

#: Canonical field order; split tie-breaking and reports rely on it.
FEATURE_NAMES: tuple[str, ...] = (
    "has_wh",
    "has_or",
    "has_inversion",
    "has_tag",
    "last_utt_similar",
    "last_utt_incomplete",
    "has_cliche",
    "length",
)


@dataclass(frozen=True)
class FeatureVector:
    has_wh: bool
    has_or: bool
    has_inversion: bool
    has_tag: bool
    last_utt_similar: bool
    last_utt_incomplete: bool
    has_cliche: bool
    length: int

    def as_tuple(self) -> tuple:
        """Values in canonical field order."""
        return tuple(getattr(self, name) for name in FEATURE_NAMES)


@dataclass(frozen=True)
class ExtractorConfig:
    """Lexicons and thresholds that parameterize extraction."""

    wh_lexicon: Lexicon = DEFAULT_WH
    aux_lexicon: Lexicon = DEFAULT_AUX
    tag_lexicon: Lexicon = DEFAULT_TAG
    cliche_lexicon: Lexicon = DEFAULT_CLICHE
    similarity_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.similarity_threshold <= 1.0:
            raise ValueError(f"similarity_threshold must be in [0,1], got {self.similarity_threshold}")


DEFAULT_EXTRACTOR = ExtractorConfig()


def detect_inversion(tokens: Sequence[str], cfg: ExtractorConfig = DEFAULT_EXTRACTOR) -> bool:
    """Shallow subject-aux inversion test.

    True iff the first token is an auxiliary and the second exists and is
    not one. Stands in for a syntactic parse.
    """
    return (
        len(tokens) >= 2
        and cfg.aux_lexicon.contains_token(tokens[0])
        and not cfg.aux_lexicon.contains_token(tokens[1])
    )


def extract_features(
    question: Utterance,
    span: Optional[tuple[int, int]] = None,
    previous: Optional[Utterance] = None,
    cfg: ExtractorConfig = DEFAULT_EXTRACTOR,
) -> FeatureVector:
    """Compute the eight predictors for a question occurrence.

    ``span`` selects the question's character range inside the utterance
    (whole text when omitted). With no previous utterance, both context
    predictors are false.
    """
    text = question.text if span is None else question.text[span[0] : span[1]]
    tokens = tokenize(text)

    similar = False
    incomplete = False
    if previous is not None:
        prev_tokens = tokenize(previous.text)
        similar = overlap_ratio(tokens, prev_tokens) >= cfg.similarity_threshold
        incomplete = previous.interrupted

    return FeatureVector(
        has_wh=any(cfg.wh_lexicon.contains_token(t) for t in tokens),
        has_or="or" in tokens,
        has_inversion=detect_inversion(tokens, cfg),
        has_tag=cfg.tag_lexicon.matches_end(tokens),
        last_utt_similar=similar,
        last_utt_incomplete=incomplete,
        has_cliche=cfg.cliche_lexicon.contains(tokens),
        length=len(tokens),
    )


_LEXICON_FIELDS = ("wh_lexicon", "aux_lexicon", "tag_lexicon", "cliche_lexicon")


def load_extractor_config(path: Union[str, Path]) -> tuple[ExtractorConfig, Optional[int]]:
    """Read extractor settings from a JSON document.

    Recognized fields: the four lexicons (each either an inline list of
    phrases or a path to a lexicon file, resolved relative to the
    document), similarity_threshold, and cliche_length_cap. Missing fields
    keep their defaults. The length cap is returned separately because it
    parameterizes the rule classifier, not extraction.
    """
    path = Path(path)
    with open_input(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise MalformedLine(exc.lineno, f"invalid JSON: {exc.msg}") from exc
        except RecursionError:
            raise ValueError("JSON nesting too deep") from None
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")

        known = set(_LEXICON_FIELDS) | {"similarity_threshold", "cliche_length_cap"}
        for key in doc:
            if key not in known:
                raise ValueError(f"unknown extractor config field {key!r}")

        kwargs = {}
        for field_name in _LEXICON_FIELDS:
            if field_name not in doc:
                continue
            value = doc[field_name]
            name = field_name.removesuffix("_lexicon")
            if isinstance(value, str):
                kwargs[field_name] = load_lexicon(path.parent / value, name=name)
            elif isinstance(value, list) and all(isinstance(p, str) for p in value):
                kwargs[field_name] = Lexicon.from_phrases(name, value)
            else:
                raise ValueError(f"{field_name} must be a list of phrases or a file path")
        if "similarity_threshold" in doc:
            threshold = doc["similarity_threshold"]
            if not isinstance(threshold, (int, float)) or isinstance(threshold, bool):
                raise ValueError("similarity_threshold must be a number")
            kwargs["similarity_threshold"] = float(threshold)

        cap = doc.get("cliche_length_cap")
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, int) or cap < 0):
            raise ValueError("cliche_length_cap must be a non-negative integer")
        return ExtractorConfig(**kwargs), cap


# keep the dataclass and the canonical name list in sync
assert tuple(f.name for f in fields(FeatureVector)) == FEATURE_NAMES
