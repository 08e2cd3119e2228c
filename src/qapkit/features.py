"""Surface predictors computed for each question occurrence.

Eight predictors per question: wh-word presence, the word "or", subject-aux
inversion, an utterance-final tag phrase, similarity to the previous turn,
whether the previous turn was cut off, a phatic cliché anywhere, and token
length. All deliberately shallow: tokens, word lists, and one utterance of
left context. No parser, no POS tags.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence, Union

from .ingestion import decode_json, open_input
from .lexicon import DEFAULT_AUX, DEFAULT_CLICHE, DEFAULT_TAG, DEFAULT_WH, Lexicon, load_lexicon
from .model import Utterance
from .text import overlap_ratio, tokenize

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


#: Canonical field order; split tie-breaking and reports rely on it.
FEATURE_NAMES: tuple[str, ...] = tuple(f.name for f in fields(FeatureVector))


#: Names of the four lexicons; each is the ``NAME_lexicon`` field of ExtractorConfig.
LEXICON_NAMES = ("wh", "aux", "tag", "cliche")


@dataclass(frozen=True)
class ExtractorConfig:
    """Every setting that types a question: the lexicons, the overlap threshold and the length cap.

    ``cliche_length_cap`` bounds how long a question may be while still
    counting as "short" for the rule classifier's completion-suggestion cue.
    """

    wh_lexicon: Lexicon = DEFAULT_WH
    aux_lexicon: Lexicon = DEFAULT_AUX
    tag_lexicon: Lexicon = DEFAULT_TAG
    cliche_lexicon: Lexicon = DEFAULT_CLICHE
    similarity_threshold: float = 0.5
    cliche_length_cap: int = 5

    def __post_init__(self) -> None:
        if not 0.0 <= self.similarity_threshold <= 1.0:
            raise ValueError(f"similarity_threshold must be in [0,1], got {self.similarity_threshold}")
        if self.cliche_length_cap < 0:
            raise ValueError("cliche_length_cap must be non-negative")


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


def token_features(
    tokens: Sequence[str],
    prev_tokens: Optional[Sequence[str]],
    prev_interrupted: bool,
    cfg: ExtractorConfig = DEFAULT_EXTRACTOR,
) -> FeatureVector:
    """The eight predictors from a question's tokens and its previous turn's.

    ``prev_tokens`` is None when there is no previous turn; both context
    predictors are then false.
    """
    has_prev = prev_tokens is not None
    return FeatureVector(
        has_wh=not cfg.wh_lexicon.words.isdisjoint(tokens),
        has_or="or" in tokens,
        has_inversion=detect_inversion(tokens, cfg),
        has_tag=cfg.tag_lexicon.matches_end(tokens),
        last_utt_similar=has_prev and overlap_ratio(tokens, prev_tokens) >= cfg.similarity_threshold,
        last_utt_incomplete=has_prev and prev_interrupted,
        has_cliche=cfg.cliche_lexicon.contains(tokens),
        length=len(tokens),
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
    if previous is None:
        return token_features(tokenize(text), None, False, cfg)
    return token_features(tokenize(text), tokenize(previous.text), previous.interrupted, cfg)


def load_extractor_config(path: Union[str, Path]) -> ExtractorConfig:
    """Read extractor settings from a JSON document.

    Each field of the document sets the ExtractorConfig field of the same
    name. A lexicon is either an inline list of phrases or a path to a
    lexicon file, resolved relative to the document. Missing fields keep
    their defaults.
    """
    path = Path(path)
    with open_input(path) as f:
        doc = decode_json(f.read())

        known = {f.name for f in fields(ExtractorConfig)}
        for key in doc:
            if key not in known:
                raise ValueError(f"unknown extractor config field {key!r}")

        kwargs = {}
        for name in LEXICON_NAMES:
            field_name = f"{name}_lexicon"
            if field_name not in doc:
                continue
            value = doc[field_name]
            if isinstance(value, str):
                kwargs[field_name] = load_lexicon(path.parent / value, name=name)
            elif isinstance(value, list) and all(isinstance(p, str) for p in value):
                for phrase in value:
                    if not tokenize(phrase):
                        raise ValueError(f"{field_name}: entry {phrase!r} has no word tokens")
                kwargs[field_name] = Lexicon.from_phrases(name, value)
            else:
                raise ValueError(f"{field_name} must be a list of phrases or a file path")
        if "similarity_threshold" in doc:
            threshold = doc["similarity_threshold"]
            if not isinstance(threshold, (int, float)) or isinstance(threshold, bool):
                raise ValueError("similarity_threshold must be a number")
            kwargs["similarity_threshold"] = threshold

        cap = doc.get("cliche_length_cap")
        if cap is not None:
            if isinstance(cap, bool) or not isinstance(cap, int) or cap < 0:
                raise ValueError("cliche_length_cap must be a non-negative integer")
            kwargs["cliche_length_cap"] = cap
        return ExtractorConfig(**kwargs)
