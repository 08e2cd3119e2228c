"""``disagreement_report`` and ``validate_corpus`` as they were before their loops were trimmed.

The functions below, with the helper they use, are kept verbatim as the
reference the library's versions are compared with: on any records both
return equal lists, in equal order.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from qapkit import (
    AnswerAnnotation,
    DisagreementCategory,
    DisagreementRecord,
    QuestionAnnotation,
    Violation,
    ViolationKind,
    allowed_answer_types,
    feature_applicable,
)
from qapkit.evaluation import ItemIndex


def _feature_tag(ann: QuestionAnnotation) -> str:
    return ann.feature.value if ann.feature is not None else "-"


def disagreement_report(indexes: Mapping[str, ItemIndex]) -> list[DisagreementRecord]:
    """List every item where at least two annotators disagree.

    Question, feature, and answer layers are scanned; records default to
    the uncategorized bucket since naming a cause is a human judgment. The
    one automatic inference: a feature-layer mismatch on an item whose
    question types also differ is marked as a cascade, because the type
    choice decides whether a feature exists at all.

    Unlike kappa scoring, the feature comparison here spans all
    co-annotated questions, so type-driven feature loss is visible.
    ``indexes`` maps each annotator to the index_by_item of their records.
    """
    ids = sorted(indexes)
    q_maps = {annotator: indexes[annotator][0] for annotator in ids}
    a_maps = {annotator: indexes[annotator][1] for annotator in ids}

    records: list[DisagreementRecord] = []

    q_keys = sorted({key for mapping in q_maps.values() for key in mapping})
    for key in q_keys:
        present = {annotator: q_maps[annotator][key] for annotator in ids if key in q_maps[annotator]}
        if len(present) < 2:
            continue
        ref = next(iter(present.values())).ref
        q_tags = {annotator: ann.q_type.value for annotator, ann in present.items()}
        q_disagree = len(set(q_tags.values())) > 1
        if q_disagree:
            records.append(
                DisagreementRecord("questions", ref, q_tags, DisagreementCategory.UNCATEGORIZED)
            )
        f_tags = {annotator: _feature_tag(ann) for annotator, ann in present.items()}
        if len(set(f_tags.values())) > 1:
            category = (
                DisagreementCategory.CASCADE if q_disagree else DisagreementCategory.UNCATEGORIZED
            )
            records.append(DisagreementRecord("features", ref, f_tags, category))

    a_keys = sorted({ref for mapping in a_maps.values() for ref in mapping})
    for ref in a_keys:
        present = {annotator: a_maps[annotator][ref] for annotator in ids if ref in a_maps[annotator]}
        if len(present) < 2:
            continue
        a_tags = {annotator: ann.a_type.value for annotator, ann in present.items()}
        if len(set(a_tags.values())) > 1:
            records.append(
                DisagreementRecord("answers", ref, a_tags, DisagreementCategory.UNCATEGORIZED)
            )
    return records


def validate_corpus(
    questions: Sequence[QuestionAnnotation],
    answers: Sequence[AnswerAnnotation],
) -> list[Violation]:
    """Check question and answer records against the compatibility constraints.

    Only the first question record per (annotator, span) counts, as in
    evaluation. Each kept question, in input order, yields one violation if
    it carries a feature its type does not take, then one for each answer of
    its annotator that names it with a type it does not admit, in input
    order. Answers naming no question of their annotator come last, as
    dangling references. Violations are returned as data, never raised.
    """
    kept: dict[tuple[str, str], tuple[QuestionAnnotation, list[AnswerAnnotation]]] = {}
    for q in questions:
        kept.setdefault((q.annotator_id, q.ref), (q, []))
    dangling: list[Violation] = []
    for a in answers:
        question = kept.get((a.annotator_id, a.question_ref))
        if question is not None:
            question[1].append(a)
        else:
            dangling.append(
                Violation(
                    ViolationKind.DANGLING_REFERENCE,
                    f"{a.dialogue_id}:{a.turn_index}",
                    f"answer references unknown question {a.question_ref!r}",
                )
            )

    out: list[Violation] = []
    for (_, ref), (q, answered) in kept.items():
        if q.feature is not None and not feature_applicable(q.q_type):
            out.append(
                Violation(
                    ViolationKind.FEATURE_NOT_APPLICABLE,
                    ref,
                    f"{q.q_type} questions do not take a feature (got {q.feature})",
                )
            )
        allowed = allowed_answer_types(q.q_type)
        out.extend(
            Violation(
                ViolationKind.ILLEGAL_ANSWER_FOR_QUESTION,
                ref,
                f"{a.a_type} answers are not allowed for {q.q_type} questions",
            )
            for a in answered
            if a.a_type not in allowed
        )
    return out + dangling
