"""The rule classifier as it was before its cascade became the table ``qapkit.rules.RULES``.

``rule_classify`` below is the earlier ``if``-chain, kept verbatim as the
reference the table is compared with on every feature vector.
"""

from __future__ import annotations

from qapkit import ExtractorConfig, FeatureVector, QuestionType
from qapkit.features import DEFAULT_EXTRACTOR


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
