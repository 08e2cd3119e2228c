"""Closed tagsets, annotation records, and cross-record validation.

Three tagsets cover the annotation scheme: question types, semantic-role
features (carried only by wh and disjunctive questions), and answer types.
Which answer types a question admits is a fixed compatibility table;
breaking it is reported as a :class:`Violation` rather than raised, so a
corpus can be checked end to end in one pass.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from typing import Mapping, NamedTuple, Optional, Sequence


class Tag(str, Enum):
    """Base of the closed tagsets: a member is its string value, and prints as it."""

    def __str__(self) -> str:
        return self.value


class QuestionType(Tag):
    """Question type tags. The set is closed."""

    YN = "YN"  # yes/no question
    WH = "WH"  # wh-question
    CS = "CS"  # completion suggestion
    DQ = "DQ"  # disjunctive question
    PQ = "PQ"  # phatic question


class Feature(Tag):
    """Semantic role of the questioned constituent."""

    TMP = "TMP"  # temporality
    LOC = "LOC"  # location
    AG = "AG"  # agent
    CH = "CH"  # characteristic
    OW = "OW"  # owner
    RE = "RE"  # reason
    TH = "TH"  # theme


class AnswerType(Tag):
    """Answer type tags. The set is closed."""

    PA = "PA"  # positive answer
    NA = "NA"  # negative answer
    FA = "FA"  # feature answer
    PHA = "PHA"  # phatic answer
    UA = "UA"  # uncertainty answer
    UT = "UT"  # unrelated topic
    DA = "DA"  # deny the assumption


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


def checked_record(typename: str, field_names: str) -> type:
    """A namedtuple base whose ``_make``, and so ``_replace``, builds through the subclass's checking ``__new__``."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class Utterance(checked_record("Utterance", "dialogue_id turn_index speaker text interrupted")):
    """One turn of a dialogue."""

    __slots__ = ()

    def __new__(cls, dialogue_id: str, turn_index: int, speaker: str, text: str, interrupted: bool = False):
        if not dialogue_id:
            raise ValueError("dialogue_id must be non-empty")
        if turn_index < 0:
            raise ValueError("turn_index must be non-negative")
        if not text.strip():
            raise ValueError("text must be non-empty")
        return tuple.__new__(cls, (dialogue_id, turn_index, speaker, text, interrupted))


def question_ref(dialogue_id: str, turn_index: int, span: tuple[int, int]) -> str:
    """The ``dialogue:turn:start-end`` string naming a question span."""
    return f"{dialogue_id}:{turn_index}:{span[0]}-{span[1]}"


class QuestionAnnotation(
    checked_record("QuestionAnnotation", "dialogue_id turn_index span q_type feature annotator_id")
):
    """A question occurrence with its type and optional semantic-role feature.

    ``span`` is a half-open character range into the utterance text, so a
    turn holding several questions yields several annotations.
    """

    __slots__ = ()

    def __new__(cls, dialogue_id: str, turn_index: int, span: tuple[int, int], q_type: QuestionType,
                feature: Optional[Feature] = None, annotator_id: str = ""):
        start, end = span
        if start < 0 or end < start:
            raise ValueError(f"bad span {span}: need 0 <= start <= end")
        return tuple.__new__(cls, (dialogue_id, turn_index, span, q_type, feature, annotator_id))

    @property
    def key(self) -> tuple[str, int, tuple[int, int]]:
        """Position of this question: (dialogue, turn, span)."""
        return (self.dialogue_id, self.turn_index, self.span)

    @property
    def ref(self) -> str:
        """Reference string answers use to point at this question."""
        return question_ref(self.dialogue_id, self.turn_index, self.span)


class AnswerAnnotation(NamedTuple):
    """An answer turn, typed and linked to the question it responds to."""

    dialogue_id: str
    turn_index: int
    a_type: AnswerType
    question_ref: str
    annotator_id: str = ""


class ViolationKind(Tag):
    ILLEGAL_ANSWER_FOR_QUESTION = "illegal-answer-for-question"
    FEATURE_NOT_APPLICABLE = "feature-not-applicable"
    DANGLING_REFERENCE = "dangling-reference"


class Violation(NamedTuple):
    """One constraint breach. ``item`` locates the offending annotation."""

    kind: ViolationKind
    item: str
    message: str


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
    kept: dict[tuple[str, str], QuestionAnnotation] = {}
    for q in questions:
        kept.setdefault((q.annotator_id, q.ref), q)
    illegal: dict[tuple[str, str], list[Violation]] = {}  # filled only for answers that break the table
    dangling: list[Violation] = []
    for a in answers:
        key = (a.annotator_id, a.question_ref)
        q = kept.get(key)
        if q is None:
            dangling.append(
                Violation(
                    ViolationKind.DANGLING_REFERENCE,
                    f"{a.dialogue_id}:{a.turn_index}",
                    f"answer references unknown question {a.question_ref!r}",
                )
            )
        elif a.a_type not in _ANSWER_TABLE[q.q_type]:
            illegal.setdefault(key, []).append(
                Violation(
                    ViolationKind.ILLEGAL_ANSWER_FOR_QUESTION,
                    a.question_ref,
                    f"{a.a_type} answers are not allowed for {q.q_type} questions",
                )
            )

    out: list[Violation] = []
    for key, q in kept.items():
        if q.feature is not None and q.q_type not in FEATURE_BEARING:
            out.append(
                Violation(
                    ViolationKind.FEATURE_NOT_APPLICABLE,
                    key[1],
                    f"{q.q_type} questions do not take a feature (got {q.feature})",
                )
            )
        if key in illegal:
            out.extend(illegal[key])
    return out + dangling
