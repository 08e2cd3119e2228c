"""Closed tagsets, annotation records, and cross-record validation.

Three tagsets cover the annotation scheme: question types, semantic-role
features (carried only by wh and disjunctive questions), and answer types.
Which answer types a question admits is a fixed compatibility table;
breaking it is reported as a :class:`Violation` rather than raised, so a
corpus can be checked end to end in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence


class QuestionType(str, Enum):
    """Question type tags. The set is closed."""

    YN = "YN"  # yes/no question
    WH = "WH"  # wh-question
    CS = "CS"  # completion suggestion
    DQ = "DQ"  # disjunctive question
    PQ = "PQ"  # phatic question

    def __str__(self) -> str:
        return self.value


class Feature(str, Enum):
    """Semantic role of the questioned constituent."""

    TMP = "TMP"  # temporality
    LOC = "LOC"  # location
    AG = "AG"  # agent
    CH = "CH"  # characteristic
    OW = "OW"  # owner
    RE = "RE"  # reason
    TH = "TH"  # theme

    def __str__(self) -> str:
        return self.value


class AnswerType(str, Enum):
    """Answer type tags. The set is closed."""

    PA = "PA"  # positive answer
    NA = "NA"  # negative answer
    FA = "FA"  # feature answer
    PHA = "PHA"  # phatic answer
    UA = "UA"  # uncertainty answer
    UT = "UT"  # unrelated topic
    DA = "DA"  # deny the assumption

    def __str__(self) -> str:
        return self.value


#: Row and column order used by confusion tables and reports.
QUESTION_TYPE_ORDER: tuple[QuestionType, ...] = (
    QuestionType.YN,
    QuestionType.DQ,
    QuestionType.PQ,
    QuestionType.CS,
    QuestionType.WH,
)

#: Answer types that any question admits.
_UNIVERSAL = frozenset({AnswerType.PHA, AnswerType.UA, AnswerType.UT, AnswerType.DA})

_ANSWER_TABLE: Mapping[QuestionType, frozenset[AnswerType]] = {
    QuestionType.YN: _UNIVERSAL | {AnswerType.PA, AnswerType.NA},
    QuestionType.CS: _UNIVERSAL | {AnswerType.PA, AnswerType.NA},
    QuestionType.WH: _UNIVERSAL | {AnswerType.FA},
    QuestionType.DQ: _UNIVERSAL | {AnswerType.FA},
    QuestionType.PQ: _UNIVERSAL,
}

#: Question types whose annotations may carry a semantic-role feature.
FEATURE_BEARING: frozenset[QuestionType] = frozenset({QuestionType.WH, QuestionType.DQ})


def allowed_answer_types(q_type: QuestionType) -> frozenset[AnswerType]:
    """Answer types compatible with a question type."""
    return _ANSWER_TABLE[q_type]


def feature_applicable(q_type: QuestionType) -> bool:
    """Whether annotations of this question type may carry a feature tag."""
    return q_type in FEATURE_BEARING


@dataclass(frozen=True)
class Utterance:
    """One turn of a dialogue."""

    dialogue_id: str
    turn_index: int
    speaker: str
    text: str
    interrupted: bool = False

    def __post_init__(self) -> None:
        if not self.dialogue_id:
            raise ValueError("dialogue_id must be non-empty")
        if self.turn_index < 0:
            raise ValueError("turn_index must be non-negative")
        if not self.text.strip():
            raise ValueError("text must be non-empty")


@dataclass(frozen=True)
class QuestionAnnotation:
    """A question occurrence with its type and optional semantic-role feature.

    ``span`` is a half-open character range into the utterance text, so a
    turn holding several questions yields several annotations.
    """

    dialogue_id: str
    turn_index: int
    span: tuple[int, int]
    q_type: QuestionType
    feature: Optional[Feature] = None
    annotator_id: str = ""

    def __post_init__(self) -> None:
        start, end = self.span
        if start < 0 or end < start:
            raise ValueError(f"bad span {self.span}: need 0 <= start <= end")

    @property
    def key(self) -> tuple[str, int, tuple[int, int]]:
        """Position of this question: (dialogue, turn, span)."""
        return (self.dialogue_id, self.turn_index, self.span)

    @property
    def ref(self) -> str:
        """Reference string answers use to point at this question."""
        start, end = self.span
        return f"{self.dialogue_id}:{self.turn_index}:{start}-{end}"


@dataclass(frozen=True)
class AnswerAnnotation:
    """An answer turn, typed and linked to the question it responds to."""

    dialogue_id: str
    turn_index: int
    a_type: AnswerType
    question_ref: str
    annotator_id: str = ""


@dataclass(frozen=True)
class QAPair:
    """A question and the answer annotated for it, if any."""

    question: QuestionAnnotation
    answer: Optional[AnswerAnnotation] = None


class ViolationKind(str, Enum):
    ILLEGAL_ANSWER_FOR_QUESTION = "illegal-answer-for-question"
    FEATURE_NOT_APPLICABLE = "feature-not-applicable"
    DANGLING_REFERENCE = "dangling-reference"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Violation:
    """One constraint breach. ``item`` locates the offending annotation."""

    kind: ViolationKind
    item: str
    message: str


def validate_annotations(pairs: Iterable[QAPair]) -> list[Violation]:
    """Check every pair against the compatibility constraints.

    Violations are returned as data, never raised, and their multiset does
    not depend on pair order. Checks per pair: the question's feature tag is
    only legal on feature-bearing types, the answer (when present) must
    reference its paired question, and the answer type must be admissible
    for the question type.
    """
    out: list[Violation] = []
    for pair in pairs:
        q = pair.question
        if q.feature is not None and not feature_applicable(q.q_type):
            out.append(
                Violation(
                    ViolationKind.FEATURE_NOT_APPLICABLE,
                    q.ref,
                    f"{q.q_type} questions do not take a feature (got {q.feature})",
                )
            )
        a = pair.answer
        if a is None:
            continue
        if a.question_ref != q.ref:
            out.append(
                Violation(
                    ViolationKind.DANGLING_REFERENCE,
                    q.ref,
                    f"paired answer references {a.question_ref!r} instead",
                )
            )
        if a.a_type not in allowed_answer_types(q.q_type):
            out.append(
                Violation(
                    ViolationKind.ILLEGAL_ANSWER_FOR_QUESTION,
                    q.ref,
                    f"{a.a_type} answers are not allowed for {q.q_type} questions",
                )
            )
    return out


def pair_annotations(
    questions: Sequence[QuestionAnnotation],
    answers: Sequence[AnswerAnnotation],
) -> tuple[list[QAPair], list[AnswerAnnotation]]:
    """Link answers to questions by reference, scoped per annotator.

    Returns pairs in question order (a question with several answers yields
    several pairs, one with none yields a pair with ``answer=None``) plus
    the answers whose reference matches no question by the same annotator.
    """
    matched: dict[tuple[str, str], list[AnswerAnnotation]] = {}
    keys = {(q.annotator_id, q.ref) for q in questions}
    dangling: list[AnswerAnnotation] = []
    for a in answers:
        key = (a.annotator_id, a.question_ref)
        if key in keys:
            matched.setdefault(key, []).append(a)
        else:
            dangling.append(a)

    pairs: list[QAPair] = []
    seen: set[tuple[str, str]] = set()
    for q in questions:
        key = (q.annotator_id, q.ref)
        if key in seen:
            continue  # duplicate record for the same occurrence
        seen.add(key)
        answered = matched.get(key)
        if answered:
            pairs.extend(QAPair(q, a) for a in answered)
        else:
            pairs.append(QAPair(q))
    return pairs, dangling


def validate_corpus(
    questions: Sequence[QuestionAnnotation],
    answers: Sequence[AnswerAnnotation],
) -> list[Violation]:
    """Pair up two annotation streams and validate everything.

    Unmatched answers come out as dangling-reference violations after the
    pair-level ones.
    """
    pairs, dangling = pair_annotations(questions, answers)
    violations = validate_annotations(pairs)
    for a in dangling:
        violations.append(
            Violation(
                ViolationKind.DANGLING_REFERENCE,
                f"{a.dialogue_id}:{a.turn_index}",
                f"answer references unknown question {a.question_ref!r}",
            )
        )
    return violations
