"""Surface predictors computed for each question occurrence.

Eight predictors per question: wh-word presence, the word "or", subject-aux
inversion, an utterance-final tag phrase, similarity to the previous turn,
whether the previous turn was cut off, a phatic cliché anywhere, and token
length. All deliberately shallow: tokens, word lists, and one utterance of
left context. No parser, no POS tags.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

from .ingestion import _cannot, decode_json, open_input
from .lexicon import DEFAULT_AUX, DEFAULT_CLICHE, DEFAULT_TAG, DEFAULT_WH, Lexicon, load_lexicon
from .model import LEXICON_NAMES, Utterance, checked_record
from .text import overlap_ratio, tokenize

class FeatureVector(NamedTuple):
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
        return tuple(self)


#: Canonical field order; split tie-breaking and reports rely on it.
FEATURE_NAMES: tuple[str, ...] = FeatureVector._fields


class ExtractorConfig(checked_record(
    "ExtractorConfig", "wh_lexicon aux_lexicon tag_lexicon cliche_lexicon similarity_threshold cliche_length_cap"
)):
    """Every setting that types a question: the lexicons, the overlap threshold and the length cap.

    ``cliche_length_cap`` bounds how long a question may be while still
    counting as "short" for the rule classifier's completion-suggestion cue.
    """

    __slots__ = ()

    def __new__(cls, wh_lexicon: Lexicon = DEFAULT_WH, aux_lexicon: Lexicon = DEFAULT_AUX,
                tag_lexicon: Lexicon = DEFAULT_TAG, cliche_lexicon: Lexicon = DEFAULT_CLICHE,
                similarity_threshold: float = 0.5, cliche_length_cap: int = 5):
        lexicons = (wh_lexicon, aux_lexicon, tag_lexicon, cliche_lexicon)
        for name, lexicon in zip(LEXICON_NAMES, lexicons):
            if not isinstance(lexicon, Lexicon):
                raise ValueError(f"{name}_lexicon must be a Lexicon")
        if isinstance(similarity_threshold, bool) or not isinstance(similarity_threshold, (int, float)):
            raise ValueError("similarity_threshold must be a number")
        if not 0.0 <= similarity_threshold <= 1.0:
            raise ValueError(f"similarity_threshold must be in [0,1], got {similarity_threshold}")
        if isinstance(cliche_length_cap, bool) or not isinstance(cliche_length_cap, int) or cliche_length_cap < 0:
            raise ValueError("cliche_length_cap must be a non-negative integer")
        return tuple.__new__(cls, (*lexicons, similarity_threshold, cliche_length_cap))


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


def apply_settings(cfg: ExtractorConfig, doc: dict, base: Optional[Path] = None) -> ExtractorConfig:
    """``cfg`` with each field the settings document ``doc`` (an extractor-config file's fields) sets.

    A lexicon is an inline list of phrases or a file path, resolved against
    ``base`` (used as spelled when None); ExtractorConfig checks every value.
    """
    for key in doc:
        if key not in ExtractorConfig._fields:
            raise ValueError(f"unknown extractor config field {key!r}")
    changes = dict(doc)
    for key, value in doc.items():
        if not key.endswith("_lexicon"):
            continue
        name = key.removesuffix("_lexicon")
        if isinstance(value, str):
            path = value if base is None else base / value
            with _cannot("read", key, path):
                changes[key] = load_lexicon(path, name=name)
        elif isinstance(value, list) and all(isinstance(p, str) for p in value):
            for phrase in value:
                if not tokenize(phrase):
                    raise ValueError(f"{key}: entry {phrase!r} has no word tokens")
            changes[key] = Lexicon.from_phrases(name, value)
        else:
            raise ValueError(f"{key} must be a list of phrases or a file path")
    return cfg._replace(**changes)


def load_extractor_config(path: Union[str, Path]) -> ExtractorConfig:
    """The defaults with the settings of a JSON extractor-config file applied (see apply_settings).

    Lexicon file paths are relative to the file; missing fields keep their defaults.
    """
    path = Path(path)
    with open_input(path) as f:
        return apply_settings(DEFAULT_EXTRACTOR, decode_json(f.read()), path.parent)
