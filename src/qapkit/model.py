"""Closed tagsets, annotation records, their index by item, and cross-record validation.

Three tagsets cover the annotation scheme: question types, semantic-role
features (carried only by wh and disjunctive questions), and answer types.
Which answer types a question admits is a fixed compatibility table;
breaking it is reported as a :class:`Violation` rather than raised, so a
corpus can be checked end to end in one pass.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union


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
    CH = "CH"  # choice
    OW = "OW"  # owner
    RE = "RE"  # reason
    TH = "TH"  # theme


class AnswerType(Tag):
    """Answer type tags. The set is closed."""

    PA = "PA"  # positive answer
    NA = "NA"  # negative answer
    FA = "FA"  # focus answer
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

#: The agreement layers, in report order; evaluation reads each through its own table.
LAYERS = ("questions", "features", "answers")

#: Names of the four lexicons; each is the ``NAME_lexicon`` field of features.ExtractorConfig.
LEXICON_NAMES = ("wh", "aux", "tag", "cliche")


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


AnnotationRecord = Union[QuestionAnnotation, AnswerAnnotation]

#: One annotator's questions by (dialogue, turn, span) and answers by question reference.
ItemIndex = tuple[dict[tuple, QuestionAnnotation], dict[str, AnswerAnnotation]]


def index_by_item(records: Iterable[AnnotationRecord]) -> tuple[dict[str, ItemIndex], list[AnnotationRecord]]:
    """Index records by annotator and item; the first record per (annotator, item) counts.

    A question's item is its position (dialogue, turn, span), an answer's the
    reference of the question it answers. Returns each annotator's ItemIndex
    and, in input order, the records set aside as repeats. Once there are two
    annotators, every index holds one key tuple per question item, shared by all.
    """
    indexes: dict[str, ItemIndex] = {}
    repeats: list[AnnotationRecord] = []
    keys: Optional[dict[tuple, tuple]] = None
    for rec in records:
        index = indexes.get(rec.annotator_id)
        if index is None:
            if len(indexes) == 1:  # a second annotator; with one, a table would only add memory
                keys = {key: key for key in next(iter(indexes.values()))[0]}
            index = indexes[rec.annotator_id] = ({}, {})
        if isinstance(rec, QuestionAnnotation):
            mapping, item = index[0], rec.key
            if keys is not None:
                item = keys.setdefault(item, item)
        else:
            mapping, item = index[1], rec.question_ref
        if item in mapping:
            repeats.append(rec)
        else:
            mapping[item] = rec
    return indexes, repeats


class ViolationKind(Tag):
    ILLEGAL_ANSWER_FOR_QUESTION = "illegal-answer-for-question"
    FEATURE_NOT_APPLICABLE = "feature-not-applicable"
    DANGLING_REFERENCE = "dangling-reference"
    DUPLICATE_RECORD = "duplicate-record"


class Violation(NamedTuple):
    """One constraint breach. ``item`` locates the offending annotation."""

    kind: ViolationKind
    item: str
    message: str


def _duplicate(repeat: AnnotationRecord, index: ItemIndex) -> Violation:
    """The duplicate-record violation of a record that its annotator's ``index`` set aside."""
    if isinstance(repeat, QuestionAnnotation):
        item, first, what = repeat.ref, index[0][repeat.key], "this question"
        tags = [f"{q.q_type}/{q.feature}" if q.feature is not None else str(q.q_type) for q in (first, repeat)]
    else:
        item, first, what = repeat.question_ref, index[1][repeat.question_ref], "the answer to this question"
        tags = [str(first.a_type), str(repeat.a_type)]
    differ = "tags differ" if tags[0] != tags[1] else "same tags"
    message = f"annotator {repeat.annotator_id!r} labels {what} again: {tags[0]}, then {tags[1]} ({differ})"
    return Violation(ViolationKind.DUPLICATE_RECORD, item, message + "; the first record counts")


def validate_corpus(
    questions: Sequence[QuestionAnnotation],
    answers: Sequence[AnswerAnnotation],
) -> list[Violation]:
    """Check question and answer records against the compatibility constraints.

    Only the first record per annotator and item counts (see index_by_item).
    Violations, returned as data and never raised, come in README's order:
    each kept question's feature violation, then its answer's, in input
    order; the dangling answers; then one duplicate record per repeat.
    """
    indexes, repeats = index_by_item(itertools.chain(questions, answers))
    duplicates = [_duplicate(rec, indexes[rec.annotator_id]) for rec in repeats]
    # Each lookup below pops the record it finds: a kept record is checked once
    # (without repeats, every record is kept), and the answers no question took remain.
    out: list[Violation] = []
    for q in questions:
        questions_of, answers_of = indexes[q.annotator_id]
        if repeats and questions_of.pop(q.key, None) is not q:
            continue
        ref = q.ref
        if q.feature is not None and q.q_type not in FEATURE_BEARING:
            message = f"{q.q_type} questions do not take a feature (got {q.feature})"
            out.append(Violation(ViolationKind.FEATURE_NOT_APPLICABLE, ref, message))
        a = answers_of.pop(ref, None)
        if a is not None and a.a_type not in _ANSWER_TABLE[q.q_type]:
            message = f"{a.a_type} answers are not allowed for {q.q_type} questions"
            out.append(Violation(ViolationKind.ILLEGAL_ANSWER_FOR_QUESTION, ref, message))
    for a in answers:
        if indexes[a.annotator_id][1].pop(a.question_ref, None) is a:
            message = f"answer references unknown question {a.question_ref!r}"
            out.append(Violation(ViolationKind.DANGLING_REFERENCE, f"{a.dialogue_id}:{a.turn_index}", message))
    return out + duplicates
