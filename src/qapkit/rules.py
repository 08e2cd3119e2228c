"""Deterministic question typing plus wh-word to semantic-role mapping."""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .features import DEFAULT_EXTRACTOR, ExtractorConfig, FeatureVector
from .ingestion import MalformedLine, UnknownTag, open_input
from .lexicon import DEFAULT_WH_FEATURE_MAP, list_lines
from .model import Feature, QuestionType


#: The rule cascade, in README's numbered order: rule N is ``RULES[N - 1]``, a
#: test of the feature vector and the cliché length cap, and the type it gives.
#: The last test always holds.
RULES: tuple[tuple[Callable[[FeatureVector, int], bool], QuestionType], ...] = (
    (lambda fv, cap: fv.has_wh and not fv.has_cliche, QuestionType.WH),
    (lambda fv, cap: fv.has_or, QuestionType.DQ),
    (lambda fv, cap: fv.has_inversion or (fv.has_tag and not fv.has_cliche), QuestionType.YN),
    (lambda fv, cap: fv.last_utt_incomplete and (fv.last_utt_similar or fv.length <= cap), QuestionType.CS),
    (lambda fv, cap: fv.has_cliche, QuestionType.PQ),
    (lambda fv, cap: True, QuestionType.YN),
)


def rule_classify(fv: FeatureVector, cfg: ExtractorConfig = DEFAULT_EXTRACTOR) -> QuestionType:
    """The type of the first rule in RULES (README's numbered list) that ``fv`` meets."""
    cap = cfg.cliche_length_cap
    for test, q_type in RULES:
        if test(fv, cap):
            return q_type


def map_wh_feature(
    tokens: Sequence[str],
    mapping: Optional[Mapping[str, Feature]] = None,
) -> Optional[Feature]:
    """Semantic role of the first mapped wh-token, or None.

    Intended for wh-questions. Disjunctive questions get no automatic
    feature; naming the role of the disjuncts would need semantic analysis
    beyond word lists.
    """
    if mapping is None:
        mapping = DEFAULT_WH_FEATURE_MAP
    for token in tokens:
        feature = mapping.get(token.lower())
        if feature is not None:
            return feature
    return None


def load_wh_feature_map(source: Union[str, Path, Iterable[str]]) -> dict[str, Feature]:
    """Read a two-column file: wh-token, feature tag.

    Blank lines and "#" comments are skipped; tokens are lowercased. Raises
    UnknownTag for a tag outside the feature set, MalformedLine for a line
    without two columns or mapping a token to a second tag, and ValueError
    for a map with no entries.
    """
    if isinstance(source, (str, Path)):
        with open_input(source) as f:
            return load_wh_feature_map(f)

    entries: dict[str, tuple[Feature, int]] = {}
    for line_no, line in list_lines(source):
        columns = line.split()
        if len(columns) != 2:
            raise MalformedLine(line_no, f"expected two columns, got {len(columns)}")
        token, tag = columns
        try:
            feature = Feature(tag)
        except ValueError:
            raise UnknownTag(tag, line_no) from None
        first, first_line = entries.setdefault(token.lower(), (feature, line_no))
        if first is not feature:
            raise MalformedLine(line_no, f"{token.lower()!r} maps to {tag} here but to {first} at line {first_line}")
    if not entries:
        raise ValueError("wh-feature map has no entries")
    return {token: feature for token, (feature, _) in entries.items()}
