"""Deterministic question typing plus wh-word to semantic-role mapping."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from .features import DEFAULT_EXTRACTOR, ExtractorConfig, FeatureVector
from .ingestion import MalformedLine, UnknownTag, open_input
from .model import Feature, QuestionType


#: Wh-word to semantic role. Shipped as overridable data.
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


def rule_classify(fv: FeatureVector, cfg: ExtractorConfig = DEFAULT_EXTRACTOR) -> QuestionType:
    """Assign a question type from surface predictors.

    Cues are tried from most to least specific; the first hit wins:

    1. wh-word present and no phatic cliché -> WH. Cliché phrases
       containing wh-words ("you know?") outrank the wh cue.
    2. the word "or" -> DQ
    3. subject-aux inversion, or a final tag that is not itself a
       cliché -> YN
    4. previous turn cut off, and the question either overlaps it or is
       short -> CS
    5. phatic cliché -> PQ
    6. anything left -> YN (covers inversion-less propositional
       questions like "You saw him?")

    Total and deterministic: every vector maps to exactly one type.
    """
    if fv.has_wh and not fv.has_cliche:
        return QuestionType.WH
    if fv.has_or:
        return QuestionType.DQ
    if fv.has_inversion or (fv.has_tag and not fv.has_cliche):
        return QuestionType.YN
    if fv.last_utt_incomplete and (fv.last_utt_similar or fv.length <= cfg.cliche_length_cap):
        return QuestionType.CS
    if fv.has_cliche:
        return QuestionType.PQ
    return QuestionType.YN


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

    Blank lines and "#" comments are skipped. Raises UnknownTag for a tag
    outside the feature set, MalformedLine for a line without two columns
    and ValueError for a map with no entries.
    """
    if isinstance(source, (str, Path)):
        with open_input(source) as f:
            return load_wh_feature_map(f)

    mapping: dict[str, Feature] = {}
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        columns = line.split()
        if len(columns) != 2:
            raise MalformedLine(line_no, f"expected two columns, got {len(columns)}")
        token, tag = columns
        try:
            feature = Feature(tag)
        except ValueError:
            raise UnknownTag(tag, line_no) from None
        mapping[token.lower()] = feature
    if not mapping:
        raise ValueError("wh-feature map has no entries")
    return mapping
