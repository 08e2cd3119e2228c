import contextlib
import io
import itertools
import json
import re
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qapkit import (
    AgreementReport,
    AnswerAnnotation,
    AnswerType,
    Dialogue,
    DisagreementCategory,
    DisagreementRecord,
    DuplicateTurn,
    EmptyTranscript,
    Feature,
    IngestError,
    MalformedLine,
    NonDenseTurns,
    QuestionAnnotation,
    QuestionType,
    UnknownTag,
    Utterance,
    Violation,
    ViolationKind,
    parse_dialogue_jsonl,
    parse_eaf,
    parse_tsv_transcript,
    read_annotations,
    write_annotations,
    write_dialogues,
)
from qapkit import cli, ingestion
from qapkit.features import DEFAULT_EXTRACTOR
from qapkit.ingestion import write_json

import reference_readers


def jsonl(*objs):
    return [json.dumps(o) + "\n" for o in objs]


def utt_obj(turn, text="hello there", **extra):
    obj = {"dialogue_id": "d1", "turn_index": turn, "speaker": "A", "text": text, "interrupted": False, "language": "en"}
    obj.update(extra)
    return obj


class TestDialogueJsonl:
    def test_basic_parse(self):
        dialogues = parse_dialogue_jsonl(jsonl(utt_obj(0), utt_obj(1, "and you?")))
        (d,) = dialogues
        assert d.dialogue_id == "d1"
        assert d.language == "en"
        assert [u.turn_index for u in d.utterances] == [0, 1]

    def test_turns_need_not_start_at_zero(self):
        (d,) = parse_dialogue_jsonl(jsonl(utt_obj(746), utt_obj(747, "Water?")))
        assert [u.turn_index for u in d.utterances] == [746, 747]

    def test_out_of_order_lines_are_sorted(self):
        (d,) = parse_dialogue_jsonl(jsonl(utt_obj(1, "b"), utt_obj(0, "a")))
        assert [u.text for u in d.utterances] == ["a", "b"]

    def test_dialogues_sorted_by_id(self):
        lines = jsonl(
            dict(utt_obj(0), dialogue_id="z"),
            dict(utt_obj(0), dialogue_id="a"),
        )
        assert [d.dialogue_id for d in parse_dialogue_jsonl(lines)] == ["a", "z"]

    def test_blank_lines_skipped(self):
        (d,) = parse_dialogue_jsonl(["\n", *jsonl(utt_obj(0)), "   \n"])
        assert len(d.utterances) == 1

    def test_extra_keys_tolerated(self):
        (d,) = parse_dialogue_jsonl(jsonl(utt_obj(0, note="ignore me")))
        assert d.utterances[0].text == "hello there"

    def test_interrupted_defaults_false(self):
        obj = utt_obj(0)
        del obj["interrupted"]
        (d,) = parse_dialogue_jsonl(jsonl(obj))
        assert d.utterances[0].interrupted is False

    def test_empty_input_gives_no_dialogues(self):
        assert parse_dialogue_jsonl([]) == []

    def test_invalid_json_names_line(self):
        with pytest.raises(MalformedLine) as exc:
            parse_dialogue_jsonl([*jsonl(utt_obj(0)), "{broken\n"])
        assert exc.value.line_no == 2

    def test_non_object_line(self):
        with pytest.raises(MalformedLine):
            parse_dialogue_jsonl(['[1, 2]\n'])

    def test_missing_field(self):
        obj = utt_obj(0)
        del obj["speaker"]
        with pytest.raises(MalformedLine, match="speaker"):
            parse_dialogue_jsonl(jsonl(obj))

    @pytest.mark.parametrize(
        "patch",
        [
            {"turn_index": "3"},
            {"turn_index": -1},
            {"turn_index": True},
            {"text": ""},
            {"text": "  "},
            {"text": 7},
            {"dialogue_id": ""},
            {"interrupted": "yes"},
            {"language": ""},
        ],
    )
    def test_bad_field_values(self, patch):
        with pytest.raises(MalformedLine):
            parse_dialogue_jsonl(jsonl(utt_obj(0, **patch)))

    def test_duplicate_turn(self):
        with pytest.raises(DuplicateTurn):
            parse_dialogue_jsonl(jsonl(utt_obj(0), utt_obj(0, "again")))

    def test_gap_in_turns(self):
        with pytest.raises(NonDenseTurns):
            parse_dialogue_jsonl(jsonl(utt_obj(0), utt_obj(2)))

    def test_dialogue_with_a_gap_is_rejected(self):
        turns = (Utterance("d1", 0, "A", "a"), Utterance("d1", 2, "B", "b"))
        with pytest.raises(NonDenseTurns, match="turn 1 missing between 0 and 2"):
            Dialogue("d1", "en", turns)

    def test_dialogue_with_unsorted_or_repeated_turns_is_rejected(self):
        a, b = Utterance("d1", 0, "A", "a"), Utterance("d1", 1, "B", "b")
        for turns in ((b, a), (a, a)):
            with pytest.raises(ValueError, match="sorted by distinct turn_index"):
                Dialogue("d1", "en", turns)

    def test_conflicting_language(self):
        lines = jsonl(utt_obj(0), utt_obj(1, language="nl"))
        with pytest.raises(MalformedLine, match="language"):
            parse_dialogue_jsonl(lines)

    @pytest.mark.parametrize(
        "line_9", [json.dumps(utt_obj(8, " ")) + "\n", "{broken\n"], ids=["refused-value", "not-json"]
    )
    def test_the_first_lines_fault_is_reported_within_a_block(self, line_9):
        # line 9 sends the block holding both faults down the line-by-line path
        lines = jsonl(*(utt_obj(t, language="nl" if t == 2 else "en") for t in range(12)))
        lines[8] = line_9
        with pytest.raises(MalformedLine, match=r"^line 3: conflicting language 'nl' for dialogue 'd1'"):
            parse_dialogue_jsonl(lines)

    def test_write_then_parse_is_identity(self):
        dialogues = [
            Dialogue(
                "d1",
                "en",
                (
                    Utterance("d1", 5, "A", 'she said "wait\there"', False),
                    Utterance("d1", 6, "B", "Wahrheit? buenísimo", True),
                ),
            ),
            Dialogue("d2", "nl", (Utterance("d2", 0, "C", "ok"),)),
        ]
        buf = io.StringIO()
        write_dialogues(dialogues, buf)
        assert parse_dialogue_jsonl(io.StringIO(buf.getvalue())) == dialogues

    @given(
        st.lists(
            st.tuples(
                st.text(st.characters(blacklist_categories=("Cs",)), min_size=1).filter(str.strip),
                st.booleans(),
            ),
            min_size=1,
            max_size=6,
        ),
        st.integers(min_value=0, max_value=900),
    )
    def test_round_trip_any_texts(self, turns, base):
        utterances = tuple(
            Utterance("dlg", base + i, "S", text, flag) for i, (text, flag) in enumerate(turns)
        )
        dialogues = [Dialogue("dlg", "en", utterances)]
        buf = io.StringIO()
        write_dialogues(dialogues, buf)
        assert parse_dialogue_jsonl(io.StringIO(buf.getvalue())) == dialogues

    def test_lone_surrogate_escape_is_a_malformed_line(self):
        # valid JSON, but UTF-8 cannot write it; an escaped surrogate pair is one character
        lines = [*jsonl(utt_obj(0, "\U0001f600 ok?")), *jsonl(utt_obj(1, "hi \ud800 there?"))]
        with pytest.raises(MalformedLine) as exc:
            parse_dialogue_jsonl(lines)
        assert str(exc.value) == "line 2: string holds a lone surrogate"
        (d,) = parse_dialogue_jsonl(lines[:1])
        assert d.utterances[0].text == "\U0001f600 ok?"


class TestTsv:
    def test_three_columns(self):
        (d,) = parse_tsv_transcript(["1\tA\thello\n", "2\tB\tare you sure?\n"], dialogue_id="t")
        assert [u.speaker for u in d.utterances] == ["A", "B"]
        assert d.utterances[1].text == "are you sure?"

    def test_interruption_marker_stripped(self):
        lines = ["746\tA\tit includes heat and uhm, I think --\n", "747\tB\tWater?\n"]
        (d,) = parse_tsv_transcript(lines)
        first, second = d.utterances
        assert first.interrupted is True
        assert first.text == "it includes heat and uhm, I think"
        assert second.interrupted is False
        assert second.turn_index == 747

    def test_custom_marker(self):
        (d,) = parse_tsv_transcript(["1\tA\tso I was+\n"], interruption_marker="+")
        assert d.utterances[0].interrupted is True
        assert d.utterances[0].text == "so I was"

    def test_tabs_inside_text_survive(self):
        (d,) = parse_tsv_transcript(["1\tA\tleft\tright\n"])
        assert d.utterances[0].text == "left\tright"

    def test_blank_lines_skipped(self):
        (d,) = parse_tsv_transcript(["1\tA\ta\n", "\n", "2\tB\tb\n"])
        assert len(d.utterances) == 2

    def test_too_few_columns(self):
        with pytest.raises(MalformedLine, match="3 tab-separated"):
            parse_tsv_transcript(["1\tA\n"])

    def test_non_integer_line_number(self):
        with pytest.raises(MalformedLine, match="integer"):
            parse_tsv_transcript(["x\tA\thello\n"])

    def test_marker_only_text_rejected(self):
        with pytest.raises(MalformedLine, match="empty text"):
            parse_tsv_transcript(["1\tA\t--\n"])

    def test_duplicate_line_number(self):
        with pytest.raises(DuplicateTurn):
            parse_tsv_transcript(["1\tA\ta\n", "1\tB\tb\n"])

    def test_line_number_takes_only_ascii_digits(self):
        (d,) = parse_tsv_transcript([" 7 \tA\thello\n", "8\tB\tworld\n"])
        assert [u.turn_index for u in d.utterances] == [7, 8]
        with pytest.raises(MalformedLine, match="^line 1: turn number must be non-negative$"):
            parse_tsv_transcript([" -3\tA\thello\n"])
        # int() would read each of these: an underscore, a plus sign, non-ASCII digits
        for number in ["1_0", "+1", "\u0663", "\uff11", "1\u0660"]:
            expected = f"^line 2: first column must be an integer, got {re.escape(repr(number))}$"
            with pytest.raises(MalformedLine, match=expected):
                parse_tsv_transcript(["0\tA\thello\n", f"{number}\tB\tworld\n"])

    def test_over_long_first_column_is_worded_and_cut(self):
        with pytest.raises(MalformedLine, match="^line 1: first column: integer too long$"):
            parse_tsv_transcript(["9" * 5000 + "\tA\thello\n"])
        with pytest.raises(MalformedLine) as info:
            parse_tsv_transcript(["x" * 5000 + "\tA\thello\n"])
        assert str(info.value) == f"line 1: first column must be an integer, got {'x' * 40!r}... (5000 characters)"

    def test_gap_rejected(self):
        with pytest.raises(NonDenseTurns):
            parse_tsv_transcript(["1\tA\ta\n", "3\tB\tb\n"])

    def test_empty_transcript(self):
        with pytest.raises(EmptyTranscript):
            parse_tsv_transcript(["\n", "  \n"])


EAF_DOC = """<?xml version="1.0" encoding="UTF-8"?>
<ANNOTATION_DOCUMENT AUTHOR="" FORMAT="3.0">
  <TIME_ORDER>
    <TIME_SLOT TIME_SLOT_ID="ts1" TIME_VALUE="0"/>
    <TIME_SLOT TIME_SLOT_ID="ts2" TIME_VALUE="1200"/>
    <TIME_SLOT TIME_SLOT_ID="ts3" TIME_VALUE="2400"/>
    <TIME_SLOT TIME_SLOT_ID="ts4"/>
  </TIME_ORDER>
  <TIER TIER_ID="spkB">
    <ANNOTATION>
      <ALIGNABLE_ANNOTATION ANNOTATION_ID="a2" TIME_SLOT_REF1="ts2" TIME_SLOT_REF2="ts3">
        <ANNOTATION_VALUE>Water?</ANNOTATION_VALUE>
      </ALIGNABLE_ANNOTATION>
    </ANNOTATION>
    <ANNOTATION>
      <ALIGNABLE_ANNOTATION ANNOTATION_ID="a3" TIME_SLOT_REF1="ts3" TIME_SLOT_REF2="ts4">
        <ANNOTATION_VALUE>   </ANNOTATION_VALUE>
      </ALIGNABLE_ANNOTATION>
    </ANNOTATION>
  </TIER>
  <TIER TIER_ID="tierA" PARTICIPANT="Amy">
    <ANNOTATION>
      <ALIGNABLE_ANNOTATION ANNOTATION_ID="a1" TIME_SLOT_REF1="ts1" TIME_SLOT_REF2="ts2">
        <ANNOTATION_VALUE>it includes heat and uhm, I think --</ANNOTATION_VALUE>
      </ALIGNABLE_ANNOTATION>
    </ANNOTATION>
  </TIER>
</ANNOTATION_DOCUMENT>
"""


class TestEaf:
    def test_minimal_document(self, tmp_path):
        path = tmp_path / "amy.eaf"
        path.write_text(EAF_DOC, encoding="utf-8")
        (d,) = parse_eaf(path)
        assert d.dialogue_id == "amy"
        assert [u.speaker for u in d.utterances] == ["Amy", "spkB"]
        assert [u.turn_index for u in d.utterances] == [0, 1]
        first, second = d.utterances
        assert first.text == "it includes heat and uhm, I think"
        assert first.interrupted is True
        assert second.text == "Water?"

    def test_empty_values_skipped(self, tmp_path):
        path = tmp_path / "x.eaf"
        path.write_text(EAF_DOC, encoding="utf-8")
        (d,) = parse_eaf(path)
        assert len(d.utterances) == 2  # whitespace-only annotation dropped

    def test_turns_numbered_after_marker_only_annotations_are_dropped(self, tmp_path):
        doc = """<ANNOTATION_DOCUMENT>
  <TIME_ORDER>
    <TIME_SLOT TIME_SLOT_ID="ts1" TIME_VALUE="0"/>
    <TIME_SLOT TIME_SLOT_ID="ts2" TIME_VALUE="1000"/>
    <TIME_SLOT TIME_SLOT_ID="ts3" TIME_VALUE="2000"/>
  </TIME_ORDER>
  <TIER TIER_ID="A">
    <ANNOTATION><ALIGNABLE_ANNOTATION TIME_SLOT_REF1="ts1">
      <ANNOTATION_VALUE>I think --</ANNOTATION_VALUE></ALIGNABLE_ANNOTATION></ANNOTATION>
    <ANNOTATION><ALIGNABLE_ANNOTATION TIME_SLOT_REF1="ts2">
      <ANNOTATION_VALUE>--</ANNOTATION_VALUE></ALIGNABLE_ANNOTATION></ANNOTATION>
    <ANNOTATION><ALIGNABLE_ANNOTATION TIME_SLOT_REF1="ts3">
      <ANNOTATION_VALUE>Water?</ANNOTATION_VALUE></ALIGNABLE_ANNOTATION></ANNOTATION>
  </TIER>
</ANNOTATION_DOCUMENT>
"""
        path = tmp_path / "gap.eaf"
        path.write_text(doc, encoding="utf-8")
        (d,) = parse_eaf(path)
        assert [(u.turn_index, u.text) for u in d.utterances] == [(0, "I think"), (1, "Water?")]

    def test_marker_only_annotations_leave_no_usable_annotation(self, tmp_path):
        path = tmp_path / "cut.eaf"
        path.write_text(EAF_DOC.replace("Water?", "--").replace("it includes heat and uhm, I think --", "--"),
                        encoding="utf-8")
        with pytest.raises(EmptyTranscript) as info:
            parse_eaf(path)
        assert str(info.value) == f"{path}: eaf source has no usable annotations"

    def test_invalid_xml(self, tmp_path):
        path = tmp_path / "broken.eaf"
        path.write_text("<ANNOTATION_DOCUMENT><TIER>", encoding="utf-8")
        with pytest.raises(IngestError, match="XML"):
            parse_eaf(path)

    def test_no_annotations(self, tmp_path):
        path = tmp_path / "empty.eaf"
        path.write_text(
            '<?xml version="1.0"?><ANNOTATION_DOCUMENT><TIME_ORDER/></ANNOTATION_DOCUMENT>',
            encoding="utf-8",
        )
        with pytest.raises(EmptyTranscript):
            parse_eaf(path)

    def test_unresolvable_time_slot(self, tmp_path):
        doc = EAF_DOC.replace('TIME_SLOT_REF1="ts1"', 'TIME_SLOT_REF1="nope"')
        path = tmp_path / "bad.eaf"
        path.write_text(doc, encoding="utf-8")
        with pytest.raises(IngestError, match="TIME_SLOT_REF1"):
            parse_eaf(path)

    def test_ordered_by_time_value_not_slot_listing(self, tmp_path):
        doc = """<ANNOTATION_DOCUMENT>
  <TIME_ORDER>
    <TIME_SLOT TIME_SLOT_ID="late" TIME_VALUE="3000"/>
    <TIME_SLOT TIME_SLOT_ID="untimed"/>
    <TIME_SLOT TIME_SLOT_ID="early" TIME_VALUE="0"/>
  </TIME_ORDER>
  <TIER TIER_ID="A">
    <ANNOTATION><ALIGNABLE_ANNOTATION TIME_SLOT_REF1="late">
      <ANNOTATION_VALUE>later</ANNOTATION_VALUE></ALIGNABLE_ANNOTATION></ANNOTATION>
    <ANNOTATION><ALIGNABLE_ANNOTATION TIME_SLOT_REF1="untimed">
      <ANNOTATION_VALUE>after later</ANNOTATION_VALUE></ALIGNABLE_ANNOTATION></ANNOTATION>
    <ANNOTATION><ALIGNABLE_ANNOTATION TIME_SLOT_REF1="early">
      <ANNOTATION_VALUE>earlier</ANNOTATION_VALUE></ALIGNABLE_ANNOTATION></ANNOTATION>
  </TIER>
</ANNOTATION_DOCUMENT>
"""
        path = tmp_path / "order.eaf"
        path.write_text(doc, encoding="utf-8")
        (d,) = parse_eaf(path)
        # a slot without a value stays right after the slot listed before it
        assert [u.text for u in d.utterances] == ["earlier", "later", "after later"]

    def test_non_integer_time_value_names_the_slot(self, tmp_path):
        doc = EAF_DOC.replace('TIME_VALUE="1200"', 'TIME_VALUE="1.2s"')
        path = tmp_path / "bad.eaf"
        path.write_text(doc, encoding="utf-8")
        with pytest.raises(IngestError, match="'ts2'.*'1.2s'"):
            parse_eaf(path)

    def test_time_value_takes_only_ascii_digits(self, tmp_path):
        path = tmp_path / "bad.eaf"
        for value in ["2_000", "+1200", "\u0661200"]:
            path.write_text(EAF_DOC.replace('TIME_VALUE="1200"', f'TIME_VALUE="{value}"'), encoding="utf-8")
            with pytest.raises(IngestError, match=f"'ts2' has a non-integer TIME_VALUE {re.escape(repr(value))}$"):
                parse_eaf(path)

    def test_over_long_time_value_is_worded_and_cut(self, tmp_path):
        path = tmp_path / "bad.eaf"
        path.write_text(EAF_DOC.replace('TIME_VALUE="1200"', f'TIME_VALUE="{"9" * 5000}"'), encoding="utf-8")
        with pytest.raises(IngestError, match=f"^{re.escape(str(path))}: time slot 'ts2' TIME_VALUE: integer too long$"):
            parse_eaf(path)
        path.write_text(EAF_DOC.replace('TIME_VALUE="1200"', f'TIME_VALUE="{"x" * 5000}"'), encoding="utf-8")
        with pytest.raises(IngestError, match=r"'ts2' has a non-integer TIME_VALUE 'x{40}'\.\.\. \(5000 characters\)$"):
            parse_eaf(path)


Q_LINE = {
    "kind": "q",
    "dialogue_id": "d1",
    "turn_index": 3,
    "span_start": 0,
    "span_end": 12,
    "q_type": "WH",
    "feature": "LOC",
    "annotator_id": "A1",
}
A_LINE = {
    "kind": "a",
    "dialogue_id": "d1",
    "turn_index": 4,
    "a_type": "FA",
    "question_ref": "d1:3:0-12",
    "annotator_id": "A1",
}


class TestAnnotations:
    def test_read_both_kinds(self):
        records = read_annotations(jsonl(Q_LINE, A_LINE))
        question, answer = records
        assert question == QuestionAnnotation("d1", 3, (0, 12), QuestionType.WH, Feature.LOC, "A1")
        assert answer == AnswerAnnotation("d1", 4, AnswerType.FA, "d1:3:0-12", "A1")

    def test_null_feature(self):
        records = read_annotations(jsonl(dict(Q_LINE, feature=None)))
        assert records[0].feature is None

    def test_unknown_kind(self):
        with pytest.raises(UnknownTag):
            read_annotations(jsonl(dict(Q_LINE, kind="x")))

    def test_unknown_question_type_names_line(self):
        with pytest.raises(UnknownTag) as exc:
            read_annotations([*jsonl(Q_LINE), *jsonl(dict(Q_LINE, q_type="ZZ"))])
        assert exc.value.line_no == 2
        assert exc.value.value == "ZZ"

    def test_long_unknown_tags_are_cut_in_the_message(self):
        tags = ["X" * 40, "X" * 5000, ["WH"] * 3000]
        shown = [repr("X" * 40), f"{'X' * 40!r}... (5000 characters)", f"{str(tags[2])[:40]}... (18000 characters)"]
        for tag, text in zip(tags, shown):
            with pytest.raises(UnknownTag) as exc:
                read_annotations(jsonl(dict(Q_LINE, q_type=tag)))
            assert str(exc.value) == f"line 1: unknown tag {text}"
            assert exc.value.value == tag

    def test_tag_nested_near_the_decoder_limit_is_shown(self):
        # the deepest lists that decode are too deep for repr a few frames further down
        for depth in range(800, sys.getrecursionlimit()):
            line = json.dumps(dict(Q_LINE, q_type="@")).replace('"@"', "[" * depth + "]" * depth)
            with pytest.raises(MalformedLine):  # UnknownTag, or JSON nesting too deep
                read_annotations([line])

    @pytest.mark.parametrize("feature", ["NOPE", ""])  # "" is a tag outside the set, unlike null
    def test_unknown_feature(self, feature):
        with pytest.raises(UnknownTag, match=f"^line 1: unknown tag '{feature}'$"):
            read_annotations(jsonl(dict(Q_LINE, feature=feature)))

    def test_unknown_answer_type(self):
        with pytest.raises(UnknownTag):
            read_annotations(jsonl(dict(A_LINE, a_type="XY")))

    def test_missing_kind(self):
        broken = dict(Q_LINE)
        del broken["kind"]
        with pytest.raises(MalformedLine, match="kind"):
            read_annotations(jsonl(broken))

    def test_missing_span(self):
        broken = dict(Q_LINE)
        del broken["span_end"]
        with pytest.raises(MalformedLine, match="span_end"):
            read_annotations(jsonl(broken))

    def test_reversed_span(self):
        with pytest.raises(MalformedLine):
            read_annotations(jsonl(dict(Q_LINE, span_start=9, span_end=2)))

    def test_missing_annotator(self):
        broken = dict(A_LINE)
        del broken["annotator_id"]
        with pytest.raises(MalformedLine, match="annotator_id"):
            read_annotations(jsonl(broken))

    def test_round_trip_structural(self):
        records = read_annotations(jsonl(Q_LINE, A_LINE, dict(Q_LINE, turn_index=9, feature=None)))
        buf = io.StringIO()
        write_annotations(records, buf)
        assert read_annotations(io.StringIO(buf.getvalue())) == records

    def test_round_trip_bytes_stable(self):
        records = read_annotations(jsonl(Q_LINE, A_LINE))
        once, twice = io.StringIO(), io.StringIO()
        write_annotations(records, once)
        write_annotations(read_annotations(io.StringIO(once.getvalue())), twice)
        assert once.getvalue() == twice.getvalue()

    def test_lone_surrogate_escape_is_a_malformed_line(self):
        lines = [*jsonl(dict(Q_LINE, annotator_id="Zo\u00eb")), *jsonl(dict(A_LINE, dialogue_id="d\udc00"))]
        with pytest.raises(MalformedLine) as exc:
            read_annotations(lines)
        assert str(exc.value) == "line 2: string holds a lone surrogate"
        assert read_annotations(lines[:1])[0].annotator_id == "Zo\u00eb"

    def test_write_rejects_foreign_objects(self):
        with pytest.raises(TypeError):
            write_annotations([object()], io.StringIO())

    def test_question_annotator_fault_names_line_once(self):
        broken = dict(Q_LINE)
        del broken["annotator_id"]
        for obj, message in (
            (broken, "line 1: missing field 'annotator_id'"),
            (dict(Q_LINE, annotator_id=7), "line 1: annotator_id must be a string"),
        ):
            with pytest.raises(MalformedLine) as exc:
                read_annotations(jsonl(obj))
            assert str(exc.value) == message


# any text UTF-8 can write, often with a quote, a backslash, a control character,
# U+2028 (which JSON leaves raw) or a non-BMP character
TEXT = st.text(
    st.one_of(st.characters(blacklist_categories=("Cs",)), st.sampled_from('"\\\x00\x1f\x7f\u2028\U0001f600'))
)


@st.composite
def annotation_records(draw):
    dialogue_id, turn, annotator = draw(TEXT.filter(bool)), draw(st.integers(0, 10**6)), draw(TEXT)
    if draw(st.booleans()):
        start = draw(st.integers(0, 10**6))
        span = (start, draw(st.integers(start, 2 * 10**6)))
        q_type, feature = draw(st.sampled_from(QuestionType)), draw(st.none() | st.sampled_from(Feature))
        return QuestionAnnotation(dialogue_id, turn, span, q_type, feature, annotator)
    a_type, ref = draw(st.sampled_from(AnswerType)), draw(TEXT.filter(bool))
    return AnswerAnnotation(dialogue_id, turn, a_type, ref, annotator)


def readme_layout(rec):
    """The dict json.dumps turns into a record's line, keys in README order."""
    if isinstance(rec, QuestionAnnotation):
        return {
            "kind": "q", "dialogue_id": rec.dialogue_id, "turn_index": rec.turn_index,
            "span_start": rec.span[0], "span_end": rec.span[1], "q_type": rec.q_type.value,
            "feature": rec.feature.value if rec.feature is not None else None, "annotator_id": rec.annotator_id,
        }
    return {
        "kind": "a", "dialogue_id": rec.dialogue_id, "turn_index": rec.turn_index, "a_type": rec.a_type.value,
        "question_ref": rec.question_ref, "annotator_id": rec.annotator_id,
    }


def layout_path_only(strings):
    """A context in which the readers' JSON path raises, if no string in ``strings`` needs a JSON escape.

    The writers' lines are then read on the layout path alone, so a writer
    whose layout leaves the readers' patterns behind fails a test.
    """
    if any(json.dumps(s, ensure_ascii=False) != f'"{s}"' for s in strings):
        return contextlib.nullcontext()
    return mock.patch.object(ingestion, "_json_record", side_effect=AssertionError("line read on the JSON path"))


class TestWriters:
    """Each written line is json.dumps(..., ensure_ascii=False) of README's layout, and reads back."""

    @settings(max_examples=200, deadline=None)
    @given(
        TEXT.filter(bool),
        TEXT.filter(bool),
        st.integers(0, 10**6),
        st.lists(st.tuples(TEXT, TEXT.filter(str.strip), st.booleans()), min_size=1, max_size=4),
    )
    def test_dialogue_lines(self, dialogue_id, language, base, turns):
        utterances = tuple(
            Utterance(dialogue_id, base + i, speaker, text, flag) for i, (speaker, text, flag) in enumerate(turns)
        )
        dialogues = [Dialogue(dialogue_id, language, utterances)]
        buf = io.StringIO()
        write_dialogues(dialogues, buf)
        expected = [
            {"dialogue_id": u.dialogue_id, "turn_index": u.turn_index, "speaker": u.speaker, "text": u.text,
             "interrupted": u.interrupted, "language": language}
            for u in utterances
        ]
        assert buf.getvalue() == "".join(json.dumps(d, ensure_ascii=False) + "\n" for d in expected)
        strings = [dialogue_id, language, *(s for speaker, text, _ in turns for s in (speaker, text))]
        with layout_path_only(strings):
            assert parse_dialogue_jsonl(io.StringIO(buf.getvalue())) == dialogues

    @settings(max_examples=200, deadline=None)
    @given(st.lists(annotation_records(), min_size=1, max_size=4))
    def test_annotation_lines(self, records):
        buf = io.StringIO()
        write_annotations(records, buf)
        assert buf.getvalue() == "".join(json.dumps(readme_layout(r), ensure_ascii=False) + "\n" for r in records)
        strings = [s for r in records for s in readme_layout(r).values() if type(s) is str]
        with layout_path_only(strings):
            assert read_annotations(io.StringIO(buf.getvalue())) == records


# any string, with extra weight on what JSON escapes: quotes, backslashes,
# control characters, non-ASCII and lone surrogates
ANY_TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\ud800\udcff\U0001f600')), max_size=8
)
TAGS = st.sampled_from([*QuestionType, *Feature, *AnswerType])
NUMBERS = st.one_of(
    st.integers(), st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 10**400])
)
REPORT_RECORDS = st.one_of(
    st.builds(
        AgreementReport, ANY_TEXT, st.lists(ANY_TEXT, max_size=3).map(tuple), st.floats(), st.floats(),
        st.integers(0, 10**6), st.booleans(),
    ),
    st.builds(
        DisagreementRecord, ANY_TEXT, ANY_TEXT, st.dictionaries(ANY_TEXT, TAGS | ANY_TEXT, max_size=3),
        st.sampled_from(DisagreementCategory),
    ),
    st.builds(Violation, st.sampled_from(ViolationKind), ANY_TEXT, ANY_TEXT),
)
DOCUMENTS = st.recursive(
    st.one_of(ANY_TEXT, TAGS, NUMBERS, st.booleans(), st.none(), REPORT_RECORDS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(ANY_TEXT, children, max_size=4),
    ),
    max_leaves=20,
)


def as_generators(o, swap):
    """``o`` with each list ``swap()`` picks, at any depth, replaced by a generator over its elements."""
    if isinstance(o, dict):
        return {key: as_generators(value, swap) for key, value in o.items()}
    if type(o) in (list, tuple):
        items = [as_generators(value, swap) for value in o]
        if type(o) is tuple:
            return tuple(items)
        return (value for value in items) if swap() else items
    return o


README = Path(__file__).resolve().parent.parent / "README.md"

# the value README's record lines give a field -> its value kind in the tables
README_VALUES = {
    "a non-empty string": ingestion._ID,
    "a non-negative integer": ingestion._COUNT,
    "integers, with 0 <= start <= end": ingestion._INTEGER,
    "a string": ingestion._STRING,
    "a string that is not blank": ingestion._TEXT,
    "`true` or `false`": ingestion._BOOLEAN,
    "a question type": ingestion._QUESTION_TYPE,
    "a feature or `null`": ingestion._FEATURE,
    "an answer type": ingestion._ANSWER_TYPE,
}


class TestRecordTables:
    """README's record lines are the readers' tables, and its example lines read and write back as they are."""

    def test_readme_lists_each_kinds_fields(self):
        text = README.read_text(encoding="utf-8").split("Record lines, field by field", 1)[1].split("\n\n", 2)[1]
        readme = {}
        for block in re.split(r"^- ", text, flags=re.M)[1:]:
            kind = re.search(r'`"kind": "(\w+)"`', block)
            rows = re.findall(r"^  - (.+?): (.+?)(?:; default `(.+)`)?[;.]$", block, flags=re.M)
            readme[kind and kind[1]] = [
                (re.findall(r"`(\w+)`", keys), README_VALUES[value], default) for keys, value, default in rows
            ]
        tables = {
            kind: [(keys.split(), value, json.dumps(default[0]) if default else "") for keys, value, *default in fields]
            for kind, fields in (ingestion._UTTERANCE, ingestion._QUESTION, ingestion._ANSWER)
        }
        assert readme == tables

    def test_readme_example_lines_take_the_layout_path_and_write_back(self):
        text = README.read_text(encoding="utf-8").split("## File formats", 1)[1]
        blocks = re.findall(r"```json\n(.*?)```", text, flags=re.S)
        lines = [line + "\n" for block in blocks for line in block.splitlines()]
        assert len(lines) == 3
        with mock.patch.object(ingestion, "_json_record", side_effect=AssertionError("line read on the JSON path")):
            for line in lines:
                out = io.StringIO()
                if line.startswith('{"kind"'):
                    write_annotations(read_annotations([line]), out)
                else:
                    write_dialogues(parse_dialogue_jsonl([line]), out)
                assert out.getvalue() == line


class TestJsonWriter:
    """write_json gives the bytes of json.dump(..., indent=2, sort_keys=True), streamed."""

    @settings(max_examples=500, deadline=None)
    @given(DOCUMENTS)
    def test_matches_json_dumps(self, doc):
        buf = io.StringIO()
        write_json(doc, buf)
        assert buf.getvalue() == json.dumps(doc, indent=2, sort_keys=True)

    @settings(max_examples=300, deadline=None)
    @given(DOCUMENTS, st.data())
    def test_a_generator_is_written_as_its_list(self, doc, data):
        buf = io.StringIO()
        write_json(as_generators(doc, lambda: data.draw(st.booleans(), label="swap")), buf)
        assert buf.getvalue() == json.dumps(doc, indent=2, sort_keys=True)

    def test_an_empty_generator_is_an_empty_array(self):
        for doc, expected in (((x for x in ()), "[]"), ({"rows": iter(())}, '{\n  "rows": []\n}')):
            buf = io.StringIO()
            write_json(doc, buf)
            assert buf.getvalue() == expected

    def test_a_generator_is_pulled_one_row_per_write(self):
        rows = [{"item": f"d:{i}:0-5", "tags": {"anna": "YN", "ben": "WH"}, "layer": "questions"} for i in range(5)]
        buf = io.StringIO()
        written_before = []  # the text written when each row is built

        def build():
            for row in rows:
                written_before.append(buf.getvalue())
                yield dict(row)

        write_json({"disagreements": build()}, buf)
        assert buf.getvalue() == json.dumps({"disagreements": rows}, indent=2, sort_keys=True)
        assert written_before[0] == '{\n  "disagreements": '
        for text, row in zip(written_before[1:], rows):
            # every line of the row before, down to its closing brace, is written
            assert text.endswith(json.dumps(row, indent=2, sort_keys=True).replace("\n", "\n    "))

    def test_records_are_written_one_at_a_time(self):
        records = [
            Violation(
                ViolationKind.DANGLING_REFERENCE, f"d:{i}", f"answer references unknown question 'x:{i}:0-1'"
            )._asdict()
            for i in range(1000)
        ]
        doc = {"count": len(records), "violations": records}
        sizes = []

        class Recording(io.StringIO):
            def write(self, text):
                sizes.append(len(text))
                return super().write(text)

        buf = Recording()
        write_json(doc, buf)
        assert buf.getvalue() == json.dumps(doc, indent=2, sort_keys=True)
        one_record = max(len(json.dumps(r, indent=2, sort_keys=True)) for r in records)
        assert max(sizes) <= 3 * one_record


class TestSharedIds:
    """Records read from different lines share one string per id; records read together share more."""

    def test_annotation_ids(self):
        lines = jsonl(
            dict(Q_LINE, dialogue_id="dialogue-one", annotator_id="annotator-anna"),
            dict(A_LINE, dialogue_id="dialogue-one", annotator_id="annotator-anna"),
        )
        question, answer = read_annotations(lines)
        assert question.dialogue_id is answer.dialogue_id
        assert question.annotator_id is answer.annotator_id

    def test_utterance_ids(self):
        lines = jsonl(
            utt_obj(0, dialogue_id="dialogue-one", speaker="speaker-amy"),
            utt_obj(1, dialogue_id="dialogue-one", speaker="speaker-amy"),
        )
        [dialogue] = parse_dialogue_jsonl(lines)
        first, second = dialogue.utterances
        assert first.dialogue_id is second.dialogue_id
        assert first.speaker is second.speaker

    @staticmethod
    def item_lines(annotator):
        # numbers past 256, which the interpreter does not cache: each parse of one makes a new int
        question = dict(Q_LINE, turn_index=1000, span_start=300, span_end=4000, annotator_id=annotator)
        answer = dict(A_LINE, turn_index=1001, question_ref="d1:1000:300-4000", annotator_id=annotator)
        return question, answer

    def test_files_read_together_share_spans_turns_and_refs(self, tmp_path):
        anna, ben = tmp_path / "anna.jsonl", tmp_path / "ben.jsonl"
        anna.write_text("".join(jsonl(*self.item_lines("anna"))), encoding="utf-8")
        # keys reversed: ben's lines take the JSON decoder's path, anna's the layout's
        ben.write_text("".join(jsonl(*(dict(reversed(o.items())) for o in self.item_lines("ben")))), encoding="utf-8")
        q_anna, a_anna, q_ben, a_ben = cli._read_annotation_files("--input", [anna, ben])
        assert (q_anna.annotator_id, q_ben.annotator_id) == ("anna", "ben")
        assert q_anna.span is q_ben.span
        assert q_anna.turn_index is q_ben.turn_index
        assert a_anna.turn_index is a_ben.turn_index
        assert a_anna.question_ref is a_ben.question_ref

    def test_a_second_read_shares_nothing_with_the_first(self, tmp_path):
        path = tmp_path / "anna.jsonl"
        path.write_text("".join(jsonl(*self.item_lines("anna"))), encoding="utf-8")
        first, second = (cli._read_annotation_files("--input", [path]) for _ in range(2))
        assert first == second
        assert first[0].span is not second[0].span
        for one, two in zip(first, second):
            assert one.turn_index is not two.turn_index

    def test_equal_feature_vectors_are_one_object(self):
        texts = ["where did you go?", "did you see him?", "where did you go?", "did you see him?", "really?"]
        dialogue = Dialogue("d1", "en", tuple(Utterance("d1", i, "A", text) for i, text in enumerate(texts)))
        keys = [("d1", i, (0, len(text))) for i, text in enumerate(texts)]
        vectors = [fv for *_, fv in cli._question_features([dialogue], keys, DEFAULT_EXTRACTOR)]
        assert len(set(vectors)) < len(vectors)  # the second and fourth questions repeat a vector
        assert len({id(fv) for fv in vectors}) == len(set(vectors))


U_LINE = utt_obj(0)

# field values that break a record: wrong type, a boolean for an integer,
# unknown tags, NaN
BAD_VALUES = st.one_of(
    st.sampled_from([None, True, False, 2.5, float("nan"), "", "ZZ", "q", "a", "WH", "FA", "d2"]),
    st.integers(-2, 14),
)

# lines that hold no record: blank, whitespace only (JSON whitespace or not),
# not JSON, not an object, nested past the recursion limit, an over-long integer
ODD_LINES = st.sampled_from(
    [
        "\n", "", "   \n", "\t\r\n", "\r\n", "\x0c\n", " \x0c \n", "\u00a0\n",
        "NaN\n", '{"kind": NaN}\n', "{broken\n", "[1, 2]\n", "\ufeff{}\n", "{} {}\n",
        "[" * 3000 + "]" * 3000 + "\n",
        '{"kind": ' + "[" * 3000 + "]" * 3000 + "}\n",
        '{"turn_index": ' + "9" * 5000 + "}\n",
    ]
)


# string values: quotes, backslashes, control characters, non-ASCII (written
# raw unless escaped), and whitespace str.strip takes but JSON does not
FIELD_TEXT = st.one_of(
    st.sampled_from(["\u00a0", "\u3000", " \t", "\u2028"]),
    st.text(
        st.one_of(
            st.characters(blacklist_categories=("Cs",)), st.sampled_from('"\\\x00\x1f\x7f\u00a0\u3000\u00e9')
        ),
        max_size=6,
    ),
)

# integers spelled by hand: a leading zero, a sign, an exponent, a fraction,
# 19 digits (past the layout's 18), a non-ASCII digit
SPELLINGS = st.sampled_from(["00", "-0", "1e2", "1.0", "1" * 19, "\u0661"])
SPELLED = "@spelled@"


@st.composite
def record_lines(draw, bases, layout=False):
    """One JSONL line from a base record, maybe with one field mutated, in some line form.

    The bases' keys are in the documented layout's order. With ``layout``
    the line is written as the writers write it, so it takes the readers'
    layout path or comes close; otherwise it may be padded, or written with
    ``\\u`` escapes, and is more often read on their JSON path. A string
    value may be written as it is, unescaped, and an integer spelled by hand.
    """
    obj = dict(draw(st.sampled_from(bases)), turn_index=draw(st.integers(0, 3)))
    mutation = draw(
        st.sampled_from(["none"] * 4 + ["missing", "set", "container", "reversed span"] + ["text", "spelling"] * 3)
    )
    field = draw(st.sampled_from(sorted(obj)))
    spelled = ""
    if mutation == "text":
        value = draw(FIELD_TEXT)
        if draw(st.booleans()):
            value, spelled = SPELLED, f'"{value}"'
        obj[draw(st.sampled_from([k for k, v in obj.items() if type(v) is str]))] = value
    elif mutation == "spelling":
        obj[draw(st.sampled_from([k for k, v in obj.items() if type(v) is int]))] = SPELLED
        spelled = draw(SPELLINGS)
    elif mutation == "missing":
        del obj[field]
    elif mutation == "set":
        obj[field] = draw(BAD_VALUES)
    elif mutation == "container":  # a list or dict where a tag (or any field) belongs
        tags = [name for name in ("kind", "q_type", "feature", "a_type") if name in obj]
        obj[draw(st.sampled_from(tags or [field]))] = draw(st.sampled_from([[], ["WH"], {}, {"q_type": "WH"}]))
    elif mutation == "reversed span":
        obj["span_start"], obj["span_end"] = 9, 2
    line = json.dumps(obj, ensure_ascii=not layout and draw(st.booleans())).replace(f'"{SPELLED}"', spelled)
    if layout:
        return line + "\n"
    prefix = draw(st.sampled_from(["", "", " ", "\t", "\x0c"]))
    suffix = draw(st.sampled_from(["", "", " ", "\t ", "\r", "\x0c", " \x0c", "\u00a0"]))
    return prefix + line + suffix + draw(st.sampled_from(["\n", "\r\n", ""]))


def any_lines(bases):
    """A line near the documented layout, another line of a base record, or an odd line."""
    return st.one_of(record_lines(bases, layout=True), record_lines(bases), ODD_LINES)


def typed(record):
    """(type, fields) of a record, each field as (type, value), and a Dialogue's utterances each typed too.

    A record equals a plain tuple of its fields, and a tag equals its string,
    so ``==`` alone would pass a reader that gave tuples, or the wrong class.
    """
    fields = (*record[:2], tuple(map(typed, record.utterances))) if isinstance(record, Dialogue) else record
    return type(record), tuple((type(value), value) for value in fields)


def outcome(reader, lines):
    """("ok", each record typed) or ("error", exception type, message)."""
    try:
        return "ok", [typed(record) for record in reader(lines)]
    except ValueError as exc:
        return "error", type(exc), str(exc)


# writer-layout lines of 400 records, with non-ASCII text, which is written raw
BLOCK_QUESTIONS = [
    QuestionAnnotation("d1", turn, (0, 4), qt, Feature.LOC if qt is QuestionType.WH else None, "ané")
    for turn, qt in zip(range(0, 400, 2), itertools.cycle(QuestionType))
]
BLOCK_ANNOTATIONS = [
    rec for q in BLOCK_QUESTIONS
    for rec in (q, AnswerAnnotation("d1", q.turn_index + 1, AnswerType.UT, q.ref, "ané"))
]
BLOCK_DIALOGUES = [
    Dialogue("d1", "en", tuple(Utterance("d1", turn, "A", f"turn {turn}, café?") for turn in range(400)))
]


def written(write, records):
    out = io.StringIO()
    write(records, out)
    return out.getvalue().splitlines(keepends=True)


def with_tag(line, **changes):
    return json.dumps({**json.loads(line), **changes}, ensure_ascii=False) + "\n"


# forms of a writer line, each giving the lines that stand in its place; "bad" is the reader's own
ODD_FORMS = {
    "blank": lambda line: ["\n", line],
    "keys reordered": lambda line: [json.dumps(dict(reversed(json.loads(line).items())), ensure_ascii=False) + "\n"],
    "escaped": lambda line: [json.dumps(json.loads(line)) + "\n"],  # its non-ASCII as \u escapes
    "crlf": lambda line: [line[:-1] + "\r\n"],
}
BLOCK_READERS = {
    "annotations": (
        written(write_annotations, BLOCK_ANNOTATIONS), read_annotations, reference_readers.read_annotations,
        lambda line: [with_tag(line, **{"q_type" if '"kind": "q"' in line else "a_type": "ZZ"})],
    ),
    "dialogues": (
        written(write_dialogues, BLOCK_DIALOGUES), parse_dialogue_jsonl, reference_readers.parse_dialogue_jsonl,
        lambda line: [with_tag(line, text=" ")],  # in the layout, but the record type refuses it
    ),
}


class TestReaderEquivalence:
    """The readers give what the reference readers give, on any list of lines."""

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(any_lines([Q_LINE, A_LINE]), max_size=6))
    def test_annotations(self, lines):
        expected = outcome(reference_readers.read_annotations, lines)
        if expected[0] == "error":
            # the reference stated the line twice for a question's annotator_id fault
            expected = (*expected[:2], re.sub(r"^(line \d+: )\1", r"\1", expected[2]))
        assert outcome(read_annotations, lines) == expected

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(any_lines([U_LINE, dict(U_LINE, dialogue_id="d2")]), max_size=6))
    def test_dialogues(self, lines):
        assert outcome(parse_dialogue_jsonl, lines) == outcome(reference_readers.parse_dialogue_jsonl, lines)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("reader", sorted(BLOCK_READERS))
    def test_inputs_of_several_blocks(self, reader, data):
        """Writer lines mixed with odd lines anywhere, over several blocks, read as the reference reads them."""
        lines, read, reference, bad = BLOCK_READERS[reader]
        forms = {**ODD_FORMS, "bad": bad}
        odd = data.draw(st.dictionaries(st.integers(0, len(lines) - 1), st.sampled_from(sorted(forms)), max_size=8))
        lines = [new for i, line in enumerate(lines) for new in (forms[odd[i]](line) if i in odd else [line])]
        if data.draw(st.booleans()):
            lines[-1] = lines[-1].rstrip("\r\n")  # a last line without LF
        assert sum(map(len, lines)) > 3 * ingestion._BLOCK
        expected = outcome(reference, lines)
        if expected[0] == "error":  # as in test_annotations
            expected = (*expected[:2], re.sub(r"^(line \d+: )\1", r"\1", expected[2]))
        assert outcome(read, lines) == expected

    def test_every_pair_of_fields_each_missing_or_bad(self):
        """Each ordered pair of one kind's fields, each field left out or given a bad value: 9,396 lines.

        The reference reads both keys of a span before it checks either, so a
        bad span_start with span_end left out is worded as the missing field.
        """
        missing = object()
        values = [missing, None, True, 2.5, "", "ZZ", -1, [], "q"]
        kinds = [
            (U_LINE, parse_dialogue_jsonl, reference_readers.parse_dialogue_jsonl),
            (Q_LINE, read_annotations, reference_readers.read_annotations),
            (A_LINE, read_annotations, reference_readers.read_annotations),
        ]
        read, differ = 0, []
        for base, reader, reference in kinds:
            pairs = itertools.product(itertools.permutations(base, 2), itertools.product(values, repeat=2))
            for fields, faults in pairs:
                obj = dict(base)
                for field, value in zip(fields, faults):
                    if value is missing:
                        del obj[field]
                    else:
                        obj[field] = value
                lines = [json.dumps(obj) + "\n"]
                expected = outcome(reference, lines)
                if expected[0] == "error":  # as in test_annotations
                    expected = (*expected[:2], re.sub(r"^(line \d+: )\1", r"\1", expected[2]))
                read += 1
                if outcome(reader, lines) != expected:
                    differ.append(lines[0])
        assert (read, differ) == (9396, [])


class TestChecksOfRecordsBuiltAsTuples:
    """The readers build records as tuples, past their classes' calls, and still run each check a class runs."""

    SPAN_FAULT = "bad span (9, 2): need 0 <= start <= end"

    @staticmethod
    def lines_with(lines, line_no, **changes):
        """``lines`` with line ``line_no`` (1-based) given ``changes``; it stays in the writer's layout."""
        lines = list(lines)
        lines[line_no - 1] = with_tag(lines[line_no - 1], **changes)
        return lines

    @pytest.mark.parametrize("reader, changes, message", [
        ("annotations", {"span_start": 9, "span_end": 2}, SPAN_FAULT),
        ("dialogues", {"text": "\u00a0"}, "text must be a non-empty string"),  # written raw: blank to str.strip
    ])
    def test_a_value_refused_inside_a_block(self, reader, changes, message):
        lines, read, reference, _ = BLOCK_READERS[reader]
        lines = self.lines_with(lines, 41, **changes)  # in the first block, of 64 lines (a question's, if annotations)
        pattern = (ingestion._ANNOTATION_READER if reader == "annotations" else ingestion._UTTERANCE_READER)[1]
        assert all(map(pattern.fullmatch, lines[:64]))  # the whole block is in the layout: only the builder refuses
        expected = ("error", MalformedLine, f"line 41: {message}")
        assert outcome(reference, lines) == expected
        assert outcome(read, lines) == expected

    def test_files_read_together_check_each_span_once_and_keep_no_refused_one(self, tmp_path):
        lines = written(write_annotations, BLOCK_ANNOTATIONS)[:100]
        files = {
            "good.jsonl": lines,
            "bad.jsonl": self.lines_with(lines, 41, span_start=9, span_end=2),
            "bad again.jsonl": self.lines_with(lines, 13, span_start=9, span_end=2),
        }
        for name, content in files.items():
            (tmp_path / name).write_text("".join(content), encoding="utf-8")
        # one table for every file, as cli._read_annotation_files reads them: the bad span is refused, at its
        # own line, in each file, and a span first built in one file is the same object in the next
        shared = {}
        first = read_annotations(files["good.jsonl"], shared)
        for name, line_no in (("bad.jsonl", 41), ("bad again.jsonl", 13)):
            expected = ("error", MalformedLine, f"line {line_no}: {self.SPAN_FAULT}")
            assert outcome(reference_readers.read_annotations, files[name]) == expected
            assert outcome(lambda lines: read_annotations(lines, shared), files[name]) == expected
        second = read_annotations(files["good.jsonl"], shared)
        assert [typed(r) for r in second] == [typed(r) for r in first]
        assert all(one.span is two.span for one, two in zip(first[::2], second[::2]))

        with pytest.raises(MalformedLine) as exc:
            cli._read_annotation_files("--input", [tmp_path / "good.jsonl", tmp_path / "bad again.jsonl"])
        assert str(exc.value) == f"{tmp_path / 'bad again.jsonl'}: line 13: {self.SPAN_FAULT}"
        records = cli._read_annotation_files("--input", [tmp_path / "good.jsonl"] * 2)
        assert records[0].span == (0, 4) and all(q.span is records[0].span for q in records[::2])
