import json
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qapkit import (
    AgreementReport,
    AnswerAnnotation,
    AnswerType,
    ClassScores,
    Dialogue,
    DisagreementCategory,
    DisagreementRecord,
    EmptyLexicon,
    ExtractorConfig,
    Feature,
    LabeledInstance,
    Lexicon,
    Node,
    NonDenseTurns,
    QuestionAnnotation,
    QuestionType,
    TrainConfig,
    Utterance,
    Violation,
    ViolationKind,
    allowed_answer_types,
    confusion,
    feature_applicable,
    majority_baseline,
    score,
    validate_corpus,
)
from qapkit.evaluation import LAYERS

import reference_reports
from helpers import annotation_records, duplicate_violations, first_records, make_fv


def q(turn=0, span=(0, 5), q_type=QuestionType.YN, feature=None, annotator="A1", dialogue="d"):
    return QuestionAnnotation(dialogue, turn, span, q_type, feature, annotator)


def a(turn=1, a_type=AnswerType.PA, ref="d:0:0-5", annotator="A1", dialogue="d"):
    return AnswerAnnotation(dialogue, turn, a_type, ref, annotator)


class TestTagsets:
    def test_closed_sets(self):
        assert {t.value for t in QuestionType} == {"YN", "WH", "CS", "DQ", "PQ"}
        assert {t.value for t in Feature} == {"TMP", "LOC", "AG", "CH", "OW", "RE", "TH"}
        assert {t.value for t in AnswerType} == {"PA", "NA", "FA", "PHA", "UA", "UT", "DA"}

    def test_str_is_bare_value(self):
        assert str(QuestionType.YN) == "YN"
        assert f"{Feature.LOC}" == "LOC"
        assert str(AnswerType.PHA) == "PHA"

    def test_enums_serialize_as_plain_strings(self):
        assert json.dumps({"q": QuestionType.WH, "a": AnswerType.FA}) == '{"q": "WH", "a": "FA"}'


class TestCompatibility:
    def test_polar_questions_take_polar_answers(self):
        for q_type in (QuestionType.YN, QuestionType.CS):
            assert AnswerType.PA in allowed_answer_types(q_type)
            assert AnswerType.NA in allowed_answer_types(q_type)
            assert AnswerType.FA not in allowed_answer_types(q_type)

    def test_constituent_questions_take_feature_answers(self):
        for q_type in (QuestionType.WH, QuestionType.DQ):
            assert AnswerType.FA in allowed_answer_types(q_type)
            assert AnswerType.PA not in allowed_answer_types(q_type)
            assert AnswerType.NA not in allowed_answer_types(q_type)

    def test_phatic_questions_take_only_universal_answers(self):
        assert allowed_answer_types(QuestionType.PQ) == frozenset(
            {AnswerType.PHA, AnswerType.UA, AnswerType.UT, AnswerType.DA}
        )

    def test_universal_answers_fit_everywhere(self):
        for q_type in QuestionType:
            for a_type in (AnswerType.PHA, AnswerType.UA, AnswerType.UT, AnswerType.DA):
                assert a_type in allowed_answer_types(q_type)

    def test_feature_applicability(self):
        assert feature_applicable(QuestionType.WH)
        assert feature_applicable(QuestionType.DQ)
        for q_type in (QuestionType.YN, QuestionType.CS, QuestionType.PQ):
            assert not feature_applicable(q_type)


class TestRecords:
    def test_utterance_rejects_blank_text(self):
        with pytest.raises(ValueError):
            Utterance("d", 0, "A", "   ")

    def test_utterance_rejects_negative_turn(self):
        with pytest.raises(ValueError):
            Utterance("d", -1, "A", "hi")

    def test_utterance_rejects_empty_dialogue_id(self):
        with pytest.raises(ValueError):
            Utterance("", 0, "A", "hi")

    def test_question_span_must_be_ordered(self):
        with pytest.raises(ValueError):
            q(span=(5, 2))
        with pytest.raises(ValueError):
            q(span=(-1, 2))

    def test_ref_format(self):
        ann = q(turn=747, span=(0, 6), dialogue="amy")
        assert ann.ref == "amy:747:0-6"


# A maker for each record built in bulk; every call builds a new record equal to the last.
RECORDS = {
    "Utterance": lambda: Utterance("d", 3, "A", "Where to?", interrupted=True),
    "QuestionAnnotation": lambda: QuestionAnnotation("d", 3, (0, 9), QuestionType.WH, Feature.LOC, "A1"),
    "AnswerAnnotation": lambda: AnswerAnnotation("d", 4, AnswerType.FA, "d:3:0-9", annotator_id="A1"),
    "FeatureVector": lambda: make_fv(has_wh=True, length=3),
    "LabeledInstance": lambda: LabeledInstance(make_fv(has_or=True), QuestionType.DQ),
}

# Positional and keyword arguments of the two records that check their values, with the message each gives.
BAD_VALUES = [
    (Utterance, ("", 0, "A", "hi"), {}, "dialogue_id must be non-empty"),
    (Utterance, ("d", -1, "A", "hi"), {}, "turn_index must be non-negative"),
    (Utterance, ("d", 0, "A", "   "), {}, "text must be non-empty"),
    (Utterance, (), {"dialogue_id": "d", "turn_index": -1, "speaker": "A", "text": "hi"},
     "turn_index must be non-negative"),
    (Utterance, ("d", 0), {"speaker": "A", "text": " ", "interrupted": True}, "text must be non-empty"),
    (QuestionAnnotation, ("d", 0, (5, 2), QuestionType.YN), {}, r"bad span \(5, 2\): need 0 <= start <= end"),
    (QuestionAnnotation, ("d", 0, (-1, 2), QuestionType.YN, None, "A1"), {},
     r"bad span \(-1, 2\): need 0 <= start <= end"),
    (QuestionAnnotation, (), {"dialogue_id": "d", "turn_index": 0, "span": (5, 2), "q_type": QuestionType.YN},
     r"bad span \(5, 2\): need 0 <= start <= end"),
]


README = Path(__file__).resolve().parent.parent / "README.md"

# A maker for each report row, keyed by the report field that holds the rows.
REPORT_ROWS = {
    "layers": lambda: AgreementReport("questions", ("A1", "A2"), 0.5, 0.2, 4),
    "disagreements": lambda: DisagreementRecord(
        "questions", "d:0:0-5", {"A1": "YN", "A2": "WH"}, DisagreementCategory.UNCATEGORIZED
    ),
    "violations": lambda: Violation(ViolationKind.DANGLING_REFERENCE, "d:1", "answer references unknown question 'x'"),
}

DIALOGUE = lambda: Dialogue("d", "en", (Utterance("d", 0, "A", "Where?"), Utterance("d", 1, "B", "Home.")))
LEXICON = lambda: Lexicon.from_phrases("wh", ["who", "where"])

# A maker for each record not built in bulk: reports, configs, dialogues and model nodes.
OTHER_RECORDS = {
    "AgreementReport": REPORT_ROWS["layers"],
    "DisagreementRecord": REPORT_ROWS["disagreements"],
    "Violation": REPORT_ROWS["violations"],
    "Dialogue": DIALOGUE,
    "ConfusionMatrix": lambda: confusion(["YN", "WH"], ["YN", "YN"]),
    "ClassScores": lambda: ClassScores(0.5, 1.0, 2 / 3, 1, False),
    "EvalReport": lambda: score(confusion(["YN", "WH"], ["YN", "YN"])),
    "ExtractorConfig": ExtractorConfig,
    "Lexicon": LEXICON,
    "TrainConfig": lambda: TrainConfig(max_depth=3),
    "Node": lambda: Node(label=QuestionType.YN, distribution={QuestionType.YN: 2}),
    "TreeModel": lambda: majority_baseline([QuestionType.YN, QuestionType.WH, QuestionType.YN]),
}

# (maker, the fields _replace changes, the error and message that construction gives for them too)
REPLACE_CHECKS = [
    (ExtractorConfig, {"similarity_threshold": 1.5}, ValueError, "similarity_threshold must be in [0,1], got 1.5"),
    (ExtractorConfig, {"similarity_threshold": True}, ValueError, "similarity_threshold must be a number"),
    (ExtractorConfig, {"cliche_length_cap": -1}, ValueError, "cliche_length_cap must be a non-negative integer"),
    (ExtractorConfig, {"tag_lexicon": ["right"]}, ValueError, "tag_lexicon must be a Lexicon"),
    (TrainConfig, {"max_depth": 0}, ValueError, "max_depth must be >= 1 when set"),
    (TrainConfig, {"min_samples_leaf": 0}, ValueError, "min_samples_leaf must be >= 1"),
    (DIALOGUE, {"language": ""}, ValueError, "language must be non-empty"),
    (DIALOGUE, {"dialogue_id": "e"}, ValueError, "utterance 0 belongs to dialogue 'd'"),
    (DIALOGUE, {"utterances": (Utterance("d", 1, "B", "Home."), Utterance("d", 0, "A", "Where?"))}, ValueError,
     "utterances must be sorted by distinct turn_index"),
    (DIALOGUE, {"utterances": (Utterance("d", 0, "A", "Where?"), Utterance("d", 2, "B", "Home."))}, NonDenseTurns,
     "dialogue 'd': turn indices not consecutive (turn 1 missing between 0 and 2)"),
    (LEXICON, {"entries": frozenset()}, EmptyLexicon, "lexicon 'wh' has no entries"),
]


class TestRecordContract:
    """Records are immutable named tuples, checked when built and by _replace; bulk-built ones hash by value."""

    @pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
    def test_attributes_cannot_be_assigned(self, make):
        record = make()
        field = next(iter(record._fields))
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1

    @pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
    def test_equal_records_hash_equal_and_dedupe_in_a_set(self, make):
        first, second = make(), make()
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1
        assert second in {first}

    @pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
    def test_fields_read_by_name_or_position_and_replace_copies(self, make):
        record = make()
        assert tuple(getattr(record, name) for name in record._fields) == tuple(record)
        assert record == tuple(record)
        changed = record._replace(**{record._fields[-1]: "x"})
        assert type(changed) is type(record)
        assert changed[:-1] == record[:-1] and changed[-1] == "x"

    @pytest.mark.parametrize("cls, args, kwargs, message", BAD_VALUES)
    def test_bad_values_raise_the_same_messages(self, cls, args, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls(*args, **kwargs)

    def test_replace_checks_values_too(self):
        with pytest.raises(ValueError, match="^turn_index must be non-negative$"):
            RECORDS["Utterance"]()._replace(turn_index=-1)
        with pytest.raises(ValueError, match="^bad span"):
            RECORDS["QuestionAnnotation"]()._replace(span=(4, 1))

    def test_defaults_fill_the_trailing_fields(self):
        assert Utterance("d", 0, "A", "hi").interrupted is False
        question = QuestionAnnotation("d", 0, (0, 2), QuestionType.YN)
        assert (question.feature, question.annotator_id) == (None, "")
        assert AnswerAnnotation("d", 1, AnswerType.PA, "d:0:0-2").annotator_id == ""

    @pytest.mark.parametrize("make", OTHER_RECORDS.values(), ids=OTHER_RECORDS.keys())
    def test_every_other_record_is_a_named_tuple_with_read_only_fields(self, make):
        record = make()
        assert isinstance(record, tuple) and record == tuple(record) == make()
        assert tuple(getattr(record, name) for name in record._fields) == tuple(record)
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

    def test_configs_equal_plain_tuples_of_their_values(self):
        assert TrainConfig() == (None, 1)
        assert ExtractorConfig()[4:] == (0.5, 5)

    @pytest.mark.parametrize("make, change, error, message", REPLACE_CHECKS)
    def test_replace_raises_what_construction_raises(self, make, change, error, message):
        record = make()
        for build in (lambda: record._replace(**change), lambda: type(record)(**{**record._asdict(), **change})):
            with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
                build()
            assert type(caught.value) is error

    def test_lexicon_words_are_computed_once_per_instance(self):
        lexicon = Lexicon.from_phrases("wh", ["who", "how much"])
        assert "words" not in vars(lexicon)
        words = lexicon.words
        assert words == {"who"}
        assert lexicon.words is words and vars(lexicon)["words"] is words
        assert lexicon == Lexicon.from_phrases("wh", ["how much", "who"])  # the cache is not a field
        changed = lexicon._replace(entries=frozenset({("where",)}))
        assert changed.words == {"where"} and lexicon.words is words

    def test_report_rows_are_written_with_readmes_fields(self):
        text = README.read_text(encoding="utf-8").split("Report rows, field by field:", 1)[1].split("\n## ", 1)[0]
        readme = {
            re.search(r"under `(\w+)", block)[1]: re.findall(r"^  - `(\w+)`:", block, flags=re.M)
            for block in re.split(r"^- ", text, flags=re.M)[1:]
            if not block.startswith("`train`")  # a summary, not a row: test_cli.py checks it against train's output
        }
        assert readme.keys() == REPORT_ROWS.keys()
        for key, make in REPORT_ROWS.items():
            assert list(make()._asdict()) == readme[key], key
        layer_values = re.search(r"^- `agree`, under `layers.*?^  - `layer`: (.*?);$", text, flags=re.M | re.S)[1]
        assert tuple(re.findall(r"`(\w+)`", layer_values)) == LAYERS



class TestValidateAnnotations:
    def test_legal_pair_is_clean(self):
        assert validate_corpus([q(q_type=QuestionType.YN)], [a(a_type=AnswerType.PA)]) == []

    def test_feature_answer_to_polar_question(self):
        (violation,) = validate_corpus([q(q_type=QuestionType.YN)], [a(a_type=AnswerType.FA)])
        assert violation.kind is ViolationKind.ILLEGAL_ANSWER_FOR_QUESTION
        assert violation.item == "d:0:0-5"

    def test_feature_on_non_bearing_type(self):
        (violation,) = validate_corpus([q(q_type=QuestionType.PQ, feature=Feature.LOC)], [])
        assert violation.kind is ViolationKind.FEATURE_NOT_APPLICABLE

    def test_feature_on_wh_is_fine(self):
        assert validate_corpus([q(q_type=QuestionType.WH, feature=Feature.LOC)], []) == []

    def test_unanswered_question_is_clean(self):
        assert validate_corpus([q()], []) == []

    def test_misplaced_feature_is_reported_once(self):
        question = q(q_type=QuestionType.YN, feature=Feature.LOC)
        answers = [a(turn=1, ref=question.ref), a(turn=2, ref=question.ref, a_type=AnswerType.FA)]
        # the second answer to the question is set aside, so its FA is not checked
        assert [v.kind for v in validate_corpus([question], answers)] == [
            ViolationKind.FEATURE_NOT_APPLICABLE,
            ViolationKind.DUPLICATE_RECORD,
        ]

    @given(
        st.permutations(
            [
                q(q_type=QuestionType.YN),
                q(turn=2, span=(0, 3), q_type=QuestionType.PQ, feature=Feature.AG),
                q(turn=4, span=(1, 7), q_type=QuestionType.WH),
                q(turn=6, span=(0, 2), q_type=QuestionType.CS),
            ]
        ),
        st.permutations(
            [
                a(a_type=AnswerType.FA),
                a(ref="d:4:1-7", a_type=AnswerType.FA),
                a(ref="d:6:0-2", a_type=AnswerType.NA),
            ]
        ),
    )
    def test_violations_do_not_depend_on_order(self, questions, answers):
        found = Counter((v.kind, v.item) for v in validate_corpus(questions, answers))
        assert found == Counter(
            {
                (ViolationKind.ILLEGAL_ANSWER_FOR_QUESTION, "d:0:0-5"): 1,
                (ViolationKind.FEATURE_NOT_APPLICABLE, "d:2:0-3"): 1,
            }
        )


class TestPairing:
    def test_answers_attach_by_reference(self):
        question = q(q_type=QuestionType.WH)
        (violation,) = validate_corpus([question], [a(ref=question.ref, a_type=AnswerType.PA)])
        assert (violation.kind, violation.item) == (ViolationKind.ILLEGAL_ANSWER_FOR_QUESTION, question.ref)

    def test_unmatched_answer_dangles(self):
        (violation,) = validate_corpus([q()], [a(turn=3, ref="d:99:0-5", a_type=AnswerType.FA)])
        assert violation.kind is ViolationKind.DANGLING_REFERENCE
        assert violation.item == "d:3"
        assert violation.message == "answer references unknown question 'd:99:0-5'"

    def test_pairing_is_scoped_per_annotator(self):
        question = q(annotator="A1")
        (violation,) = validate_corpus([question], [a(ref=question.ref, annotator="A2")])
        assert violation.kind is ViolationKind.DANGLING_REFERENCE

    def test_several_answers_one_question(self):
        question = q(q_type=QuestionType.PQ)
        first = a(turn=1, ref=question.ref, a_type=AnswerType.NA)
        second = a(turn=2, ref=question.ref, a_type=AnswerType.FA)
        violations = validate_corpus([question], [first, second])
        # one answer per annotator and question counts; the second is a duplicate record
        assert [(v.kind, v.item, v.message) for v in violations] == [
            (ViolationKind.ILLEGAL_ANSWER_FOR_QUESTION, "d:0:0-5", "NA answers are not allowed for PQ questions"),
            (
                ViolationKind.DUPLICATE_RECORD,
                "d:0:0-5",
                "annotator 'A1' labels the answer to this question again: NA, then FA (tags differ);"
                " the first record counts",
            ),
        ]

    def test_duplicate_question_records_collapse(self):
        first = q(q_type=QuestionType.YN, feature=Feature.AG)
        repeat = q(q_type=QuestionType.WH)
        violations = validate_corpus([first, first, repeat], [a(ref=first.ref, a_type=AnswerType.FA)])
        # the first record decides the type and is checked once; each later one is reported
        assert [(v.kind, v.message) for v in violations] == [
            (ViolationKind.FEATURE_NOT_APPLICABLE, "YN questions do not take a feature (got AG)"),
            (ViolationKind.ILLEGAL_ANSWER_FOR_QUESTION, "FA answers are not allowed for YN questions"),
            (
                ViolationKind.DUPLICATE_RECORD,
                "annotator 'A1' labels this question again: YN/AG, then YN/AG (same tags); the first record counts",
            ),
            (
                ViolationKind.DUPLICATE_RECORD,
                "annotator 'A1' labels this question again: YN/AG, then WH (tags differ); the first record counts",
            ),
        ]

    def test_duplicates_come_last_in_input_order(self):
        answers = [a(ref="nowhere:0:0-1"), a(turn=2), a(turn=3, ref="nowhere:0:0-1"), a(turn=4)]
        questions = [q(), q(annotator="A2"), q(q_type=QuestionType.CS)]
        violations = validate_corpus(questions, answers)
        assert [(v.kind, v.item) for v in violations] == [
            (ViolationKind.DANGLING_REFERENCE, "d:1"),
            (ViolationKind.DUPLICATE_RECORD, "d:0:0-5"),  # the CS question
            (ViolationKind.DUPLICATE_RECORD, "nowhere:0:0-1"),
            (ViolationKind.DUPLICATE_RECORD, "d:0:0-5"),  # the answer at turn 4
        ]

    def test_validate_corpus_reports_dangling(self):
        answers = [a(ref="nowhere:0:0-1"), a(ref="d:0:0-5", a_type=AnswerType.FA)]
        violations = validate_corpus([q()], answers)
        # dangling references come after the checks of every question
        assert [v.kind for v in violations] == [
            ViolationKind.ILLEGAL_ANSWER_FOR_QUESTION,
            ViolationKind.DANGLING_REFERENCE,
        ]
        assert "nowhere:0:0-1" in violations[1].message


def _names(answer, question):
    return (answer.annotator_id, answer.question_ref) == (question.annotator_id, question.ref)


def validate_by_scan(questions, answers):
    """Reference for validate_corpus: a quadratic scan over the records, without dicts."""
    out = []
    for i, question in enumerate(questions):
        if any((p.annotator_id, p.ref) == (question.annotator_id, question.ref) for p in questions[:i]):
            continue
        if question.feature is not None and not feature_applicable(question.q_type):
            out.append(
                Violation(
                    ViolationKind.FEATURE_NOT_APPLICABLE,
                    question.ref,
                    f"{question.q_type} questions do not take a feature (got {question.feature})",
                )
            )
        for answer in answers:
            if _names(answer, question) and answer.a_type not in allowed_answer_types(question.q_type):
                out.append(
                    Violation(
                        ViolationKind.ILLEGAL_ANSWER_FOR_QUESTION,
                        question.ref,
                        f"{answer.a_type} answers are not allowed for {question.q_type} questions",
                    )
                )
    for answer in answers:
        if not any(_names(answer, question) for question in questions):
            out.append(
                Violation(
                    ViolationKind.DANGLING_REFERENCE,
                    f"{answer.dialogue_id}:{answer.turn_index}",
                    f"answer references unknown question {answer.question_ref!r}",
                )
            )
    return out


def on_first_records(reference, questions, answers):
    """``reference`` on the first record per annotator and item, then one duplicate-record per repeat."""
    kept_questions, _ = first_records(questions)
    kept_answers, _ = first_records(answers)
    return reference(kept_questions, kept_answers) + duplicate_violations([*questions, *answers])


class TestValidateCorpusProperty:
    @given(annotation_records())
    def test_matches_a_quadratic_scan(self, records):
        questions, answers = records
        assert validate_corpus(questions, answers) == on_first_records(validate_by_scan, questions, answers)

    @settings(max_examples=300)
    @given(annotation_records())
    def test_matches_the_reference(self, records):
        assert validate_corpus(*records) == on_first_records(reference_reports.validate_corpus, *records)
