import codecs
import contextlib
import gc
import importlib
import io
import json
import logging
import operator
import re
import signal
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qapkit
from qapkit import (
    QuestionType,
    Utterance,
    extract_features,
    load_lexicon,
    load_model,
    load_wh_feature_map,
    map_wh_feature,
    predict,
    rule_classify,
    tokenize,
)
from qapkit import cli as cli_module
from qapkit import evaluation as evaluation_module
from qapkit import features as features_module
from qapkit import model as model_module
from qapkit.cli import main
from qapkit.features import FEATURE_NAMES
from qapkit.ingestion import open_input
from helpers import make_fv, python_process, run_process


def write_jsonl(path, objs):
    with open(path, "w", encoding="utf-8") as f:
        for obj in objs:
            f.write(json.dumps(obj, ensure_ascii=False) + "\n")
    return path


def utt_obj(turn, text, dialogue="d1", speaker="A", interrupted=False, language="en"):
    return {
        "dialogue_id": dialogue,
        "turn_index": turn,
        "speaker": speaker,
        "text": text,
        "interrupted": interrupted,
        "language": language,
    }


def q_obj(turn, text, q_type, dialogue="d1", feature=None, annotator="gold", span=None):
    start, end = span if span else (0, len(text))
    return {
        "kind": "q",
        "dialogue_id": dialogue,
        "turn_index": turn,
        "span_start": start,
        "span_end": end,
        "q_type": q_type,
        "feature": feature,
        "annotator_id": annotator,
    }


def a_obj(turn, a_type, ref, dialogue="d1", annotator="gold"):
    return {
        "kind": "a",
        "dialogue_id": dialogue,
        "turn_index": turn,
        "a_type": a_type,
        "question_ref": ref,
        "annotator_id": annotator,
    }


TRAIN_TEXTS = [
    (0, "Where did you go?", "WH"),
    (1, "Do you want coffee or tea?", "DQ"),
    (2, "Did you see him?", "YN"),
    (3, "really?", "PQ"),
]


@pytest.fixture
def train_corpus(tmp_path):
    corpus = write_jsonl(
        tmp_path / "corpus.jsonl", [utt_obj(t, text) for t, text, _ in TRAIN_TEXTS]
    )
    gold = write_jsonl(
        tmp_path / "gold.jsonl", [q_obj(t, text, label) for t, text, label in TRAIN_TEXTS]
    )
    return corpus, gold


class TestIngest:
    def test_tsv_to_canonical_jsonl(self, run_cli, tmp_path):
        src = tmp_path / "amy.tsv"
        src.write_text("746\tBOB\tDid you --\n747\tAMY\tWater?\n", encoding="utf-8")
        out = tmp_path / "amy.jsonl"
        code, _, _ = run_cli("ingest", "--input", src, "--format", "tsv", "--output", out)
        assert code == 0
        lines = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert lines == [
            utt_obj(746, "Did you", dialogue="amy", speaker="BOB", interrupted=True),
            utt_obj(747, "Water?", dialogue="amy", speaker="AMY"),
        ]

    def test_jsonl_normalization(self, run_cli, tmp_path):
        turns = [
            utt_obj(0, '¿Dónde está "la" carpeta C:\\tmp?', speaker="Zoë", language="es"),
            utt_obj(1, "en\tdie\x1f 😀", interrupted=True, language="es"),
        ]
        src = write_jsonl(tmp_path / "in.jsonl", turns[::-1])
        out = tmp_path / "out.jsonl"
        code, _, _ = run_cli("ingest", "--input", src, "--output", out)
        assert code == 0
        # sorted by turn, and in the canonical layout, which write_jsonl writes too
        assert out.read_bytes() == write_jsonl(tmp_path / "canonical.jsonl", turns).read_bytes()

    def test_eaf(self, run_cli, tmp_path):
        src = tmp_path / "session.eaf"
        src.write_text(
            """<?xml version="1.0" encoding="UTF-8"?>
<ANNOTATION_DOCUMENT>
  <TIME_ORDER>
    <TIME_SLOT TIME_SLOT_ID="ts1" TIME_VALUE="0"/>
    <TIME_SLOT TIME_SLOT_ID="ts2" TIME_VALUE="1500"/>
    <TIME_SLOT TIME_SLOT_ID="ts3" TIME_VALUE="3000"/>
  </TIME_ORDER>
  <TIER TIER_ID="spkA" PARTICIPANT="AMY">
    <ANNOTATION>
      <ALIGNABLE_ANNOTATION ANNOTATION_ID="a1" TIME_SLOT_REF1="ts1" TIME_SLOT_REF2="ts2">
        <ANNOTATION_VALUE>Did you --</ANNOTATION_VALUE>
      </ALIGNABLE_ANNOTATION>
    </ANNOTATION>
  </TIER>
  <TIER TIER_ID="spkB" PARTICIPANT="BOB">
    <ANNOTATION>
      <ALIGNABLE_ANNOTATION ANNOTATION_ID="a2" TIME_SLOT_REF1="ts2" TIME_SLOT_REF2="ts3">
        <ANNOTATION_VALUE>Water?</ANNOTATION_VALUE>
      </ALIGNABLE_ANNOTATION>
    </ANNOTATION>
  </TIER>
</ANNOTATION_DOCUMENT>
""",
            encoding="utf-8",
        )
        out = tmp_path / "session.jsonl"
        code, _, _ = run_cli("ingest", "--input", src, "--format", "eaf", "--output", out)
        assert code == 0
        lines = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert lines == [
            utt_obj(0, "Did you", dialogue="session", speaker="AMY", interrupted=True),
            utt_obj(1, "Water?", dialogue="session", speaker="BOB"),
        ]

    def test_eaf_turns_are_numbered_after_empty_annotations_are_dropped(self, run_cli, tmp_path):
        slots = "".join(f'<TIME_SLOT TIME_SLOT_ID="ts{i}" TIME_VALUE="{i}000"/>' for i in range(3))
        values = ("Did you --", "--", "Water?")
        tier = "".join(
            f'<ANNOTATION><ALIGNABLE_ANNOTATION TIME_SLOT_REF1="ts{i}"><ANNOTATION_VALUE>{v}</ANNOTATION_VALUE>'
            "</ALIGNABLE_ANNOTATION></ANNOTATION>"
            for i, v in enumerate(values)
        )
        src = tmp_path / "gap.eaf"
        src.write_text(
            f'<ANNOTATION_DOCUMENT><TIME_ORDER>{slots}</TIME_ORDER><TIER TIER_ID="A">{tier}</TIER></ANNOTATION_DOCUMENT>',
            encoding="utf-8",
        )
        corpus = tmp_path / "gap.jsonl"
        assert run_cli("ingest", "--input", src, "--format", "eaf", "--output", corpus)[0] == 0
        assert [json.loads(line)["turn_index"] for line in corpus.read_text(encoding="utf-8").splitlines()] == [0, 1]
        code, _, err = run_cli("classify", "--input", corpus, "--output", tmp_path / "pred.jsonl")
        assert code == 0, err

    def test_unknown_format_is_usage_error(self, run_cli, tmp_path):
        code, _, err = run_cli("ingest", "--input", tmp_path / "x", "--format", "docx")
        assert code == 2
        assert "docx" in err

    def test_malformed_line_reports_position(self, run_cli, tmp_path):
        src = tmp_path / "bad.tsv"
        src.write_text("0\tA\thello\n1\tB\n", encoding="utf-8")
        code, _, err = run_cli("ingest", "--input", src, "--format", "tsv")
        assert code == 2
        assert err.startswith("error:")
        assert "line 2" in err

    def test_missing_input_file(self, run_cli, tmp_path):
        code, _, err = run_cli("ingest", "--input", tmp_path / "nope.jsonl")
        assert code == 2
        assert "error:" in err

    def test_one_info_line_per_ingest(self, run_cli, tmp_path, caplog):
        src = write_jsonl(
            tmp_path / "in.jsonl",
            [utt_obj(0, "a?", dialogue="x"), utt_obj(0, "b?", dialogue="y"), utt_obj(1, "c.", dialogue="y"),
             utt_obj(0, "d.", dialogue="z")],
        )
        with caplog.at_level(logging.INFO, logger="qapkit"):
            code, _, _ = run_cli("ingest", "--input", src, "--output", tmp_path / "out.jsonl")
        assert code == 0
        info = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert info == ["ingested 4 utterances in 3 dialogues"]

    @pytest.mark.parametrize(
        "name, content",
        [
            ("dup.jsonl", "".join(json.dumps(utt_obj(t, "hi", dialogue="d")) + "\n" for t in (0, 1, 0))),
            ("d.tsv", "0\tA\thi\n1\tB\thi\n0\tA\thi\n"),
        ],
        ids=["jsonl", "tsv"],
    )
    def test_duplicate_turn_names_its_line(self, run_cli, tmp_path, name, content):
        src = tmp_path / name
        src.write_text(content, encoding="utf-8")
        code, _, err = run_cli("ingest", "--input", src, "--format", src.suffix[1:])
        assert (code, err) == (2, f"error: {src}: line 3: duplicate turn 0 in dialogue 'd'\n")

    @pytest.mark.parametrize(
        "flag, value", [("--dialogue-id", "zz"), ("--language", "es"), ("--interruption-marker", "##")]
    )
    def test_jsonl_input_rejects_the_tsv_and_eaf_flags(self, run_cli, tmp_path, flag, value):
        src = write_jsonl(tmp_path / "in.jsonl", [utt_obj(0, "hi ##")])
        out = tmp_path / "out.jsonl"
        code, _, err = run_cli("ingest", "--input", src, flag, value, "--output", out)
        assert (code, err) == (2, f"error: {flag} applies only to --format tsv and eaf\n")
        assert not out.exists()

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_invalid_utf8_names_file_and_line(self, run_cli, tmp_path, newline):
        src = tmp_path / "bad.jsonl"
        write_jsonl(src, [utt_obj(0, "hello?"), utt_obj(1, "cafe"), utt_obj(2, "café")])
        src.write_bytes(src.read_bytes().replace(b"\n", newline).replace(b"\xc3\xa9", b"\xff"))
        code, _, err = run_cli("ingest", "--input", src)
        assert (code, err) == (2, f"error: {src}:3: invalid UTF-8 at byte 68 of the line (invalid start byte)\n")
        # a JSON fault in the same file is counted on the same lines
        src.write_bytes(src.read_bytes().replace(b"\xff", b"\xc3\xa9").replace(b'"cafe"', b"cafe"))
        code, _, err = run_cli("ingest", "--input", src)
        assert (code, err) == (2, f"error: {src}: line 2: invalid JSON: Expecting value\n")


    def test_a_fault_read_before_an_invalid_byte_is_reported(self, run_cli, tmp_path):
        # 51,781 bytes: a repeated turn on line 2, and byte 40,000 (inside line 3's text) invalid UTF-8;
        # the decoder fails while line 3 is read, after line 2 is read
        src = tmp_path / "c.jsonl"
        head = "".join(json.dumps(utt_obj(0, "hi", dialogue="d")) + "\n" for _ in range(2))
        text_size = 51_781 - len(head) - len(json.dumps(utt_obj(1, "", dialogue="d")) + "\n")
        data = bytearray((head + json.dumps(utt_obj(1, "x" * text_size, dialogue="d")) + "\n").encode())
        data[39_999] = 0xFF
        src.write_bytes(data)
        assert len(data) == 51_781
        code, _, err = run_cli("classify", "--input", src, "--output", tmp_path / "pred.jsonl")
        assert (code, err) == (2, f"error: {src}: line 2: duplicate turn 0 in dialogue 'd'\n")


class TestClassify:
    def test_rule_mode_writes_annotations(self, run_cli, tmp_path):
        corpus = write_jsonl(
            tmp_path / "c.jsonl",
            [
                utt_obj(0, "Do you want coffee or tea?"),
                utt_obj(1, "I went home."),
                utt_obj(2, "Where did you go?"),
            ],
        )
        out = tmp_path / "pred.jsonl"
        code, _, _ = run_cli("classify", "--input", corpus, "--output", out)
        assert code == 0
        recs = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert len(recs) == 2  # the statement is skipped
        assert recs[0] == q_obj(0, "Do you want coffee or tea?", "DQ", annotator="rule")
        assert recs[1] == q_obj(2, "Where did you go?", "WH", feature="LOC", annotator="rule")

    def test_annotator_id_flag(self, run_cli, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", [utt_obj(0, "really?")])
        out = tmp_path / "pred.jsonl"
        run_cli("classify", "--input", corpus, "--annotator-id", "r1", "--output", out)
        assert json.loads(out.read_text(encoding="utf-8"))["annotator_id"] == "r1"

    def test_no_questions_means_empty_output(self, run_cli, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", [utt_obj(0, "Nothing here.")])
        out = tmp_path / "pred.jsonl"
        code, _, _ = run_cli("classify", "--input", corpus, "--output", out)
        assert code == 0
        assert out.read_text(encoding="utf-8") == ""

    def test_question_span_override(self, run_cli, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", [utt_obj(0, "You see? Tell me where you went")])
        spans = write_jsonl(
            tmp_path / "spans.jsonl",
            [q_obj(0, "", "YN", span=span, annotator="seg") for span in ((0, 8), (17, 31))],  # q_type is ignored
        )
        config = _file(tmp_path / "ext.json", json.dumps({"cliche_lexicon": ["you know", "you see"]}))
        out = tmp_path / "pred.jsonl"
        code, _, _ = run_cli(
            "classify", "--input", corpus, "--questions", spans, "--extractor-config", config, "--output", out
        )
        assert code == 0
        recs = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [(r["span_start"], r["span_end"], r["q_type"], r["feature"]) for r in recs] == [
            (0, 8, "PQ", None), (17, 31, "WH", "LOC")
        ]

    def test_question_file_answer_records_are_checked_but_not_used(self, run_cli, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", [utt_obj(0, "Did you go?"), utt_obj(1, "Yes.")])
        question = q_obj(0, "Did you go?", "YN", annotator="seg")
        plain = write_jsonl(tmp_path / "plain.jsonl", [question])
        good = write_jsonl(tmp_path / "good.jsonl", [question, a_obj(1, "PA", "d1:0:0-11", annotator="seg")])
        bad = write_jsonl(tmp_path / "bad.jsonl", [question, a_obj(1, "ZZ", "d1:0:0-11", annotator="seg")])

        def classify(path):
            return run_cli("classify", "--input", corpus, "--questions", path, "--deterministic")

        listing = classify(plain)
        assert listing[0] == 0 and listing[1]
        assert classify(good) == listing
        assert classify(bad) == (2, "", f"error: {bad}: line 2: unknown tag 'ZZ'\n")

    def test_language_filter(self, run_cli, tmp_path):
        corpus = write_jsonl(
            tmp_path / "c.jsonl",
            [
                utt_obj(0, "really?", dialogue="en1", language="en"),
                utt_obj(0, "vraiment?", dialogue="fr1", language="fr"),
            ],
        )
        out = tmp_path / "pred.jsonl"
        run_cli("classify", "--input", corpus, "--language", "fr", "--output", out)
        recs = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [r["dialogue_id"] for r in recs] == ["fr1"]

    def test_question_span_for_unknown_utterance(self, run_cli, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", [utt_obj(0, "Where did you go?")])
        spans = write_jsonl(
            tmp_path / "spans.jsonl",
            [q_obj(0, "Where", "WH", span=(0, 5)), q_obj(9, "abc", "YN", dialogue="zzz")],
        )
        out = tmp_path / "pred.jsonl"
        code, _, err = run_cli("classify", "--input", corpus, "--questions", spans, "--output", out)
        assert code == 2
        assert "zzz:9:0-3" in err

    def test_language_filter_skips_spans_of_other_languages(self, run_cli, tmp_path, caplog):
        corpus = write_jsonl(
            tmp_path / "c.jsonl",
            [
                utt_obj(0, "really?", dialogue="en1", language="en"),
                utt_obj(0, "vraiment?", dialogue="fr1", language="fr"),
            ],
        )
        spans = write_jsonl(
            tmp_path / "spans.jsonl",
            [q_obj(0, "really?", "PQ", dialogue="en1"), q_obj(0, "vraiment?", "PQ", dialogue="fr1")],
        )
        out = tmp_path / "pred.jsonl"
        with caplog.at_level(logging.INFO, logger="qapkit"):
            code, _, _ = run_cli(
                "classify", "--input", corpus, "--language", "fr", "--questions", spans,
                "--output", out,
            )
        assert code == 0
        recs = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [r["dialogue_id"] for r in recs] == ["fr1"]
        assert any("skipped 1 questions" in r.getMessage() for r in caplog.records)

    def test_language_filter_skips_a_span_running_past_its_text(self, run_cli, tmp_path):
        corpus = write_jsonl(
            tmp_path / "c.jsonl",
            [
                utt_obj(0, "really?", dialogue="en1", language="en"),
                utt_obj(0, "vraiment?", dialogue="fr1", language="fr"),
            ],
        )
        spans = write_jsonl(
            tmp_path / "spans.jsonl",
            [q_obj(0, "x", "PQ", dialogue="en1", span=(0, 40)), q_obj(0, "vraiment?", "PQ", dialogue="fr1")],
        )
        out = tmp_path / "pred.jsonl"
        code, _, err = run_cli(
            "classify", "--input", corpus, "--language", "fr", "--questions", spans, "--output", out
        )
        assert code == 0
        assert "error" not in err
        assert [json.loads(line)["dialogue_id"] for line in out.read_text(encoding="utf-8").splitlines()] == ["fr1"]

    def test_language_filter_still_reports_a_span_of_an_unknown_dialogue(self, run_cli, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", [utt_obj(0, "vraiment?", dialogue="fr1", language="fr")])
        spans = write_jsonl(
            tmp_path / "spans.jsonl",
            [q_obj(0, "vraiment?", "PQ", dialogue="fr1"), q_obj(9, "abc", "YN", dialogue="zzz")],
        )
        code, _, err = run_cli("classify", "--input", corpus, "--language", "fr", "--questions", spans)
        assert code == 2
        assert err == f"error: {spans}: line 2: question zzz:9:0-3 has no matching utterance\n"

    def test_too_deeply_nested_model_exits_two(self, run_cli, tmp_path):
        leaf = json.dumps({"label": "YN", "distribution": {"YN": 1}})
        node = leaf
        for _ in range(3000):
            node = f'{{"feature": "has_wh", "threshold": null, "left": {node}, "right": {leaf}}}'
        model = tmp_path / "deep.json"
        model.write_text(f'{{"version": 1, "root": {node}}}', encoding="utf-8")
        corpus = write_jsonl(tmp_path / "c.jsonl", [utt_obj(0, "Where to?")])
        code, _, err = run_cli("classify", "--input", corpus, "--mode", "tree", "--model", model)
        assert code == 2
        assert "JSON nesting too deep" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "threshold", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
        ids=["nan", "infinity", "-infinity", "1e400", "400-digit-int"],
    )
    def test_model_threshold_must_be_finite(self, run_cli, tmp_path, threshold):
        leaf = json.dumps({"label": "YN", "distribution": {"YN": 1}})
        model = tmp_path / "model.json"
        model.write_text(
            f'{{"version": 1, "root": {{"feature": "length", "threshold": {threshold}, "left": {leaf}, "right": {leaf}}}}}',
            encoding="utf-8",
        )
        corpus = write_jsonl(tmp_path / "c.jsonl", [utt_obj(0, "Where to?")])
        code, _, err = run_cli("classify", "--input", corpus, "--mode", "tree", "--model", model)
        assert code == 2
        assert err.startswith(f"error: {model}: ")
        assert "finite" in err

    def test_tree_mode_requires_model(self, run_cli, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", [utt_obj(0, "really?")])
        code, _, err = run_cli("classify", "--input", corpus, "--mode", "tree")
        assert code == 2
        assert "model" in err

    def test_lexicon_override_changes_verdict(self, run_cli, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", [utt_obj(0, "right?")])
        out = tmp_path / "pred.jsonl"
        run_cli("classify", "--input", corpus, "--output", out)
        assert json.loads(out.read_text(encoding="utf-8"))["q_type"] == "PQ"

        lex = tmp_path / "cliche.txt"
        lex.write_text("you know\noh yeah\n", encoding="utf-8")
        run_cli("classify", "--input", corpus, "--lexicon", f"cliche={lex}", "--output", out)
        # no longer a cliche, so the tag-word reading wins
        assert json.loads(out.read_text(encoding="utf-8"))["q_type"] == "YN"

    def test_bad_lexicon_flag(self, run_cli, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", [utt_obj(0, "right?")])
        code, _, err = run_cli("classify", "--input", corpus, "--lexicon", "nope")
        assert code == 2
        assert "NAME=PATH" in err

    def test_threshold_changes_context_verdict(self, run_cli, tmp_path):
        corpus = write_jsonl(
            tmp_path / "c.jsonl",
            [
                utt_obj(0, "you want the red car", interrupted=True),
                utt_obj(1, "you want the red car maybe?"),
            ],
        )
        out = tmp_path / "pred.jsonl"
        run_cli("classify", "--input", corpus, "--output", out)
        # overlap 5/6 with the cut-off turn reads as a completion
        assert json.loads(out.read_text(encoding="utf-8").splitlines()[-1])["q_type"] == "CS"

        run_cli("classify", "--input", corpus, "--threshold", "0.9", "--output", out)
        assert json.loads(out.read_text(encoding="utf-8").splitlines()[-1])["q_type"] == "YN"

    def test_wh_map_override_and_coverage_warning(self, run_cli, tmp_path, caplog):
        corpus = write_jsonl(tmp_path / "c.jsonl", [utt_obj(0, "What is that?")])
        wh_map = tmp_path / "map.txt"
        wh_map.write_text("where LOC\n", encoding="utf-8")
        out = tmp_path / "pred.jsonl"
        with caplog.at_level(logging.WARNING, logger="qapkit"):
            code, _, _ = run_cli(
                "classify", "--input", corpus, "--wh-map", wh_map, "--output", out
            )
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8"))["feature"] is None  # "what" unmapped
        assert any("misses wh tokens" in r.getMessage() for r in caplog.records)

    def test_each_span_and_previous_turn_is_tokenized_once(self, run_cli, tmp_path, monkeypatch):
        last = "Really? Where was it? Was it old?"
        spans = [(0, 7), (8, 21), (22, 33)]
        corpus = write_jsonl(
            tmp_path / "c.jsonl",
            [utt_obj(0, "We walked for hours."), utt_obj(1, "Then we saw the mill."), utt_obj(2, last)],
        )
        questions = write_jsonl(tmp_path / "q.jsonl", [q_obj(2, "", "YN", span=span) for span in spans])
        returned, wh_tokens = [], []

        def counting_tokenize(text):
            returned.append(tokenize(text))
            return returned[-1]

        def recording_map(tokens, mapping=None):
            wh_tokens.append(tokens)
            return map_wh_feature(tokens, mapping)

        monkeypatch.setattr(cli_module, "tokenize", counting_tokenize)
        monkeypatch.setattr(cli_module, "map_wh_feature", recording_map)
        monkeypatch.setattr(features_module, "tokenize", lambda text: pytest.fail(f"features.tokenize({text!r})"))
        out = tmp_path / "pred.jsonl"
        code, _, err = run_cli("classify", "--input", corpus, "--questions", questions, "--output", out)
        assert code == 0, err
        assert [json.loads(line)["q_type"] for line in out.read_text(encoding="utf-8").splitlines()] == ["PQ", "WH", "YN"]
        assert len(returned) == len(spans) + 1  # one previous turn, shared by the three spans
        assert len(wh_tokens) == 1
        assert wh_tokens[0] == tokenize(last[8:21])
        assert any(tokens is wh_tokens[0] for tokens in returned)

    def test_output_is_stable_across_runs(self, run_cli, tmp_path):
        corpus = write_jsonl(
            tmp_path / "c.jsonl", [utt_obj(0, "Did you see him?"), utt_obj(1, "why?")]
        )
        out1, out2 = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
        run_cli("classify", "--input", corpus, "--output", out1)
        run_cli("classify", "--input", corpus, "--output", out2)
        assert out1.read_bytes() == out2.read_bytes()


def _verdict(run_cli, tmp_path, corpus, *flags):
    out = tmp_path / "pred.jsonl"
    code, _, err = run_cli("classify", "--input", corpus, *flags, "--output", out)
    assert code == 0, err
    return json.loads(out.read_text(encoding="utf-8").splitlines()[-1])["q_type"]


class TestExtractionSettings:
    """The extractor config sets each setting; a flag given on the command line wins."""

    @pytest.fixture
    def short_after_cut(self, tmp_path):
        # 7 tokens, none shared with the cut-off turn: CS only when the length cap reaches 7
        return write_jsonl(
            tmp_path / "short.jsonl",
            [utt_obj(0, "and then we went to", interrupted=True), utt_obj(1, "a small quiet town by a lake?")],
        )

    @pytest.fixture
    def overlapping(self, tmp_path):
        # 6 tokens, 5 shared with the cut-off turn: CS only while the threshold is at most 5/6
        return write_jsonl(
            tmp_path / "overlap.jsonl",
            [utt_obj(0, "you want the red car", interrupted=True), utt_obj(1, "you want the red car maybe?")],
        )

    @staticmethod
    def config(tmp_path, **fields):
        path = tmp_path / "extractor.json"
        path.write_text(json.dumps(fields), encoding="utf-8")
        return path

    def test_config_length_cap_changes_the_verdict(self, run_cli, tmp_path, short_after_cut):
        assert _verdict(run_cli, tmp_path, short_after_cut) == "YN"
        config = self.config(tmp_path, cliche_length_cap=7)
        assert _verdict(run_cli, tmp_path, short_after_cut, "--extractor-config", config) == "CS"

    def test_config_threshold_changes_the_verdict(self, run_cli, tmp_path, overlapping):
        assert _verdict(run_cli, tmp_path, overlapping) == "CS"
        config = self.config(tmp_path, similarity_threshold=0.9)
        assert _verdict(run_cli, tmp_path, overlapping, "--extractor-config", config) == "YN"

    def test_length_cap_flag_wins_over_the_config(self, run_cli, tmp_path, short_after_cut):
        config = self.config(tmp_path, cliche_length_cap=7)
        flags = ("--extractor-config", config, "--cliche-length-cap", "6")
        assert _verdict(run_cli, tmp_path, short_after_cut, *flags) == "YN"

    def test_threshold_flag_wins_over_the_config(self, run_cli, tmp_path, overlapping):
        config = self.config(tmp_path, similarity_threshold=0.9)
        flags = ("--extractor-config", config, "--threshold", "0.5")
        assert _verdict(run_cli, tmp_path, overlapping, *flags) == "CS"

    def test_lexicon_flag_wins_over_the_config(self, run_cli, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", [utt_obj(0, "you know?")])
        config = self.config(tmp_path, cliche_lexicon=["okay"])
        # "you know" is no cliché under the config's lexicon, and one under the flag's
        assert _verdict(run_cli, tmp_path, corpus, "--extractor-config", config) == "YN"
        lex = tmp_path / "cliche.txt"
        lex.write_text("you know\n", encoding="utf-8")
        flags = ("--extractor-config", config, "--lexicon", f"cliche={lex}")
        assert _verdict(run_cli, tmp_path, corpus, *flags) == "PQ"

    def test_multi_word_wh_entries_are_flagged(self, run_cli, tmp_path, train_corpus, caplog):
        corpus, gold = train_corpus
        config = self.config(tmp_path, wh_lexicon=["who", "how much"])
        commands = [
            ("classify", "--input", corpus, "--output", tmp_path / "pred.jsonl"),
            ("train", "--input", corpus, "--annotations", gold, "--output", tmp_path / "m.json"),
        ]
        for argv in commands:
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="qapkit"):
                code, _, err = run_cli(*argv, "--extractor-config", config, "--deterministic")
            assert code == 0, err
            warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
            assert warnings == ["wh lexicon entries of more than one word never match: how much"]

    @pytest.mark.parametrize("flag", ["--wh-map", "--cliche-length-cap"])
    def test_train_rejects_flags_it_does_not_read(self, run_cli, tmp_path, train_corpus, flag):
        corpus, gold = train_corpus
        wh_map = tmp_path / "map.txt"
        wh_map.write_text("where LOC\n", encoding="utf-8")
        value = wh_map if flag == "--wh-map" else "3"
        code, _, err = run_cli(
            "train", "--input", corpus, "--annotations", gold, "--output", tmp_path / "m.json", flag, value
        )
        assert code == 2
        assert f"unrecognized arguments: {flag}" in err
        assert not (tmp_path / "m.json").exists()

    def test_train_accepts_a_config_with_a_length_cap(self, run_cli, tmp_path, train_corpus):
        corpus, gold = train_corpus
        config = self.config(tmp_path, cliche_length_cap=7, similarity_threshold=0.4)
        code, _, err = run_cli(
            "train", "--input", corpus, "--annotations", gold, "--output", tmp_path / "m.json",
            "--extractor-config", config, "--deterministic",
        )
        assert code == 0, err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--model", "m.json"), "--model applies only to --mode tree"),
            (("--mode", "rule", "--model", "m.json"), "--model applies only to --mode tree"),
            (("--mode", "tree", "--model", "m.json", "--cliche-length-cap", "3"),
             "--cliche-length-cap applies only to --mode rule"),
            (("--mode", "tree"), "tree mode requires --model"),
        ],
        ids=["model-default-mode", "model-rule-mode", "cap-tree-mode", "tree-mode-without-model"],
    )
    def test_classify_checks_its_mode_flags_first(self, run_cli, tmp_path, flags, message):
        # no input file exists: the flags are checked before any input is read
        code, _, err = run_cli("classify", "--input", tmp_path / "missing.jsonl", *flags)
        assert (code, err) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("cap", [-1, None])
    def test_flags_and_config_values_give_the_same_message(self, run_cli, tmp_path, cap):
        corpus = write_jsonl(tmp_path / "c.jsonl", [utt_obj(0, "really?")])
        message = "cliche_length_cap must be a non-negative integer"
        code, _, err = run_cli("classify", "--input", corpus, "--cliche-length-cap", "-1")
        assert (code, err) == (2, f"error: {message}\n")
        config = self.config(tmp_path, cliche_length_cap=cap)
        code, _, err = run_cli("classify", "--input", corpus, "--extractor-config", config)
        assert (code, err) == (2, f"error: {config}: {message}\n")

    def test_lexicon_flag_file_is_named_as_spelled(self, run_cli, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_jsonl(tmp_path / "c.jsonl", [utt_obj(0, "who?")])
        (tmp_path / "wh.txt").write_text("who\n?!\n", encoding="utf-8")
        code, _, err = run_cli("classify", "--input", "c.jsonl", "--lexicon", "wh=./wh.txt")
        assert (code, err) == (2, "error: ./wh.txt: line 2: entry '?!' has no word tokens\n")

    def test_unreadable_lexicon_flag_file_names_its_field_and_path(self, run_cli, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_jsonl(tmp_path / "c.jsonl", [utt_obj(0, "who?")])
        code, _, err = run_cli("classify", "--input", "c.jsonl", "--lexicon", "wh=missing.txt")
        assert (code, err) == (2, "error: wh_lexicon: cannot read 'missing.txt': No such file or directory\n")
        code, _, err = run_cli("classify", "--input", "c.jsonl", "--lexicon", f"wh={tmp_path}")
        assert (code, err) == (2, f"error: wh_lexicon: cannot read {str(tmp_path)!r}: Is a directory\n")

    def test_repeated_lexicon_flag_reads_only_the_last_file(self, run_cli, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", [utt_obj(0, "you know?")])
        lex = tmp_path / "cliche.txt"
        lex.write_text("you know\n", encoding="utf-8")
        flags = ("--lexicon", f"cliche={tmp_path / 'missing.txt'}", "--lexicon", f"cliche={lex}")
        assert _verdict(run_cli, tmp_path, corpus, *flags) == "PQ"

    def test_an_unknown_lexicon_name_is_refused(self, run_cli, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", [utt_obj(0, "Where?")])
        code, _, err = run_cli("classify", "--input", corpus, "--lexicon", "bogus=x.txt")
        assert (code, err) == (2, "error: unknown lexicon name 'bogus' (use one of wh, aux, tag, cliche)\n")

    def test_a_config_lexicon_that_is_neither_phrases_nor_a_path_is_refused(self, run_cli, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", [utt_obj(0, "Where?")])
        config = self.config(tmp_path, wh_lexicon=3)
        code, _, err = run_cli("classify", "--input", corpus, "--extractor-config", config)
        assert (code, err) == (2, f"error: {config}: wh_lexicon must be a list of phrases or a file path\n")


PHRASES = st.lists(st.sampled_from(["you know", "okay", "who", "is it", "right"]), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(
    lexicons=st.dictionaries(st.sampled_from(features_module.LEXICON_NAMES), st.tuples(PHRASES, st.booleans())),
    threshold=st.none() | st.floats(0.0, 1.0),
    cap=st.none() | st.integers(0, 50),
)
def test_config_file_and_flags_give_equal_configs(tmp_path_factory, lexicons, threshold, cap):
    d = tmp_path_factory.mktemp("settings")
    doc, argv = {}, ["classify", "--input", "c.jsonl"]
    for name, (phrases, inline) in lexicons.items():
        path = d / f"{name}.txt"
        path.write_text("".join(p + "\n" for p in phrases), encoding="utf-8")
        doc[f"{name}_lexicon"] = phrases if inline else path.name
        argv += ["--lexicon", f"{name}={path}"]
    if threshold is not None:
        doc["similarity_threshold"] = threshold
        argv += ["--threshold", repr(threshold)]
    if cap is not None:
        doc["cliche_length_cap"] = cap
        argv += ["--cliche-length-cap", str(cap)]
    config = d / "ext.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    from_flags = cli_module._extraction_setup(cli_module.build_parser().parse_args(argv))
    assert features_module.load_extractor_config(config) == from_flags


class TestTrain:
    def test_model_file_and_summary(self, run_cli, tmp_path, train_corpus):
        corpus, gold = train_corpus
        model_path = tmp_path / "model.json"
        code, out, _ = run_cli(
            "train",
            "--input", corpus,
            "--annotations", gold,
            "--output", model_path,
            "--deterministic",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary == {
            "instances": 4,
            "n_set_aside": 0,
            "training_accuracy": 1.0,
            "depth": summary["depth"],
            "label_distribution": {"DQ": 1, "PQ": 1, "WH": 1, "YN": 1},
            "model": str(model_path),
        }
        assert summary["depth"] >= 2
        readme = (ROOT / "README.md").read_text(encoding="utf-8").split("\n- `train`, the summary on stdout", 1)[1]
        assert sorted(re.findall(r"^  - `(\w+)`:", readme.split("\n\n", 1)[0], flags=re.M)) == sorted(summary)
        with open(model_path, encoding="utf-8") as f:
            model = load_model(f)
        assert predict(model, make_fv(has_wh=True)).value == "WH"

    def test_summary_timestamp_unless_deterministic(self, run_cli, tmp_path, train_corpus):
        corpus, gold = train_corpus
        _, out, _ = run_cli("train", "--input", corpus, "--annotations", gold,
                            "--output", tmp_path / "m.json")
        assert "generated_at" in json.loads(out)

    def test_baseline_flag(self, run_cli, tmp_path, train_corpus):
        corpus, gold = train_corpus
        model_path = tmp_path / "base.json"
        code, out, _ = run_cli(
            "train", "--input", corpus, "--annotations", gold,
            "--output", model_path, "--baseline", "--deterministic",
        )
        assert code == 0
        assert json.loads(out)["depth"] == 0
        with open(model_path, encoding="utf-8") as f:
            model = load_model(f)
        # four-way tie resolves to the first label in the fixed order
        assert predict(model, make_fv()).value == "YN"

    def test_max_depth_caps_the_tree(self, run_cli, tmp_path, train_corpus):
        corpus, gold = train_corpus
        code, out, _ = run_cli(
            "train", "--input", corpus, "--annotations", gold,
            "--output", tmp_path / "m.json", "--max-depth", "1", "--deterministic",
        )
        assert code == 0
        assert json.loads(out)["depth"] <= 1

    def test_a_large_min_samples_leaf_leaves_one_leaf(self, run_cli, tmp_path, train_corpus):
        corpus, gold = train_corpus
        code, out, _ = run_cli(
            "train", "--input", corpus, "--annotations", gold,
            "--output", tmp_path / "m.json", "--min-samples-leaf", "99", "--deterministic",
        )
        assert code == 0
        assert json.loads(out)["depth"] == 0

    @pytest.mark.parametrize("mode", [(), ("--baseline",)], ids=["tree", "baseline"])
    @pytest.mark.parametrize(
        "flag, message",
        [("--max-depth", "max_depth must be >= 1 when set"), ("--min-samples-leaf", "min_samples_leaf must be >= 1")],
        ids=["max-depth", "min-samples-leaf"],
    )
    def test_a_limit_below_one_is_refused_before_any_input_is_read(self, run_cli, tmp_path, flag, message, mode):
        code, _, err = run_cli(
            "train", "--input", tmp_path / "missing.jsonl", "--annotations", tmp_path / "missing-gold.jsonl",
            "--output", tmp_path / "m.json", flag, "0", *mode,
        )
        assert code == 2
        assert err == f"error: {message}\n"
        assert not (tmp_path / "m.json").exists()

    def test_limit_utterances_cuts_training_data(self, run_cli, tmp_path, train_corpus, caplog):
        corpus, gold = train_corpus
        with caplog.at_level(logging.INFO, logger="qapkit"):
            code, out, _ = run_cli(
                "train", "--input", corpus, "--annotations", gold,
                "--output", tmp_path / "m.json", "--limit-utterances", "2", "--deterministic",
            )
        assert code == 0
        assert json.loads(out)["instances"] == 2
        # the cut is logged: every question read is either trained on or set aside
        (info,) = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        counts = re.fullmatch(r"--limit-utterances 2: training on (\d+) questions, (\d+) set aside", info)
        kept, aside = map(int, counts.groups())
        assert (kept, kept + aside) == (2, len(TRAIN_TEXTS))

    def test_the_summary_counts_the_questions_the_limit_sets_aside(self, run_cli, tmp_path, train_corpus):
        corpus, gold = train_corpus
        with open(gold, "a", encoding="utf-8") as f:  # a repeat is not a kept question, so it is not set aside
            f.write(json.dumps(q_obj(3, "really?", "YN")) + "\n")
        code, out, _ = run_cli(
            "train", "--input", corpus, "--annotations", gold,
            "--output", tmp_path / "m.json", "--limit-utterances", "2", "--deterministic",
        )
        assert code == 0
        summary = json.loads(out)
        assert (summary["instances"], summary["instances"] + summary["n_set_aside"]) == (2, len(TRAIN_TEXTS))

    def test_limit_utterances_beyond_corpus(self, run_cli, tmp_path, train_corpus):
        corpus, gold = train_corpus
        code, _, err = run_cli(
            "train", "--input", corpus, "--annotations", gold,
            "--output", tmp_path / "m.json", "--limit-utterances", "99",
        )
        assert code == 2
        assert "exceeds corpus size" in err

    def test_limit_utterances_still_checks_every_annotation(self, run_cli, tmp_path, train_corpus):
        corpus, gold = train_corpus
        with open(gold, "a", encoding="utf-8") as f:
            f.write(json.dumps(q_obj(9, "abc", "YN", dialogue="zzz")) + "\n")
        code, _, err = run_cli(
            "train", "--input", corpus, "--annotations", gold,
            "--output", tmp_path / "m.json", "--limit-utterances", "2",
        )
        assert code == 2
        assert "zzz:9:0-3" in err

    def test_unresolved_span_is_reported_before_a_bad_limit(self, run_cli, tmp_path, train_corpus):
        corpus, gold = train_corpus
        with open(gold, "a", encoding="utf-8") as f:
            f.write(json.dumps(q_obj(9, "abc", "YN", dialogue="zzz")) + "\n")
        code, _, err = run_cli(
            "train", "--input", corpus, "--annotations", gold,
            "--output", tmp_path / "m.json", "--limit-utterances", "-1",
        )
        assert code == 2
        assert err == f"error: {gold}: line 5: question zzz:9:0-3 has no matching utterance\n"

    def test_annotation_without_utterance(self, run_cli, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", [utt_obj(0, "hi?")])
        gold = write_jsonl(tmp_path / "g.jsonl", [q_obj(7, "hi?", "YN")])
        code, _, err = run_cli(
            "train", "--input", corpus, "--annotations", gold, "--output", tmp_path / "m.json"
        )
        assert code == 2
        assert "no matching utterance" in err

    @pytest.mark.parametrize("limit", [(), ("--limit-utterances", "2")], ids=["all", "limit"])
    def test_the_corpus_is_dropped_before_the_tree_grows(self, run_cli, tmp_path, train_corpus, monkeypatch, limit):
        corpus, gold = train_corpus
        real_load, real_train = cli_module._load_corpus, cli_module.train_tree
        loaded, grown = [], []

        class Corpus(list):  # unlike a list, a subclass takes weak references
            pass

        def load(paths):
            dialogues = Corpus(real_load(paths))
            loaded.append(weakref.ref(dialogues))
            return dialogues

        def train(*args):
            assert [ref() for ref in loaded] == [None], "the corpus is still held while the tree grows"
            grown.append(True)
            return real_train(*args)

        monkeypatch.setattr(cli_module, "_load_corpus", load)
        monkeypatch.setattr(cli_module, "train_tree", train)
        code, out, _ = run_cli(
            "train", "--input", corpus, "--annotations", gold, "--output", tmp_path / "m.json", "--deterministic",
            *limit,
        )
        assert code == 0
        assert json.loads(out)["instances"] == (2 if limit else len(TRAIN_TEXTS))
        assert grown == [True]


class TestReadOrder:
    """train reads --annotations, and classify --questions, before the corpus: with two bad inputs, that
    file's error is reported. An input with a single fault gives the stderr it always gave."""

    CORPUS = [utt_obj(0, "Where did you go?"), utt_obj(1, "Did you see him?")]
    BAD_CORPUS = [utt_obj(0, "Where did you go?"), {**utt_obj(1, "x"), "text": ""}]
    CORPUS_ERROR = "error: c.jsonl: line 2: text must be a non-empty string\n"
    ANNOTATIONS = [q_obj(0, "Where did you go?", "WH"), a_obj(1, "PA", "d1:0:0-17")]
    BAD_ANNOTATIONS = [q_obj(0, "Where did you go?", "WH"), q_obj(1, "Did you see him?", "XX")]
    ANNOTATION_ERROR = "error: g.jsonl: line 2: unknown tag 'XX'\n"
    # the question and its answer, each given again
    REPEATED = ANNOTATIONS + ANNOTATIONS
    REPEAT_WARNING = "WARNING 2 repeated annotation records set aside: the first record per annotator and item counts\n"
    TRAIN = ("train", "--input", "c.jsonl", "--annotations", "g.jsonl")
    CLASSIFY = ("classify", "--input", "c.jsonl", "--questions", "g.jsonl")

    @staticmethod
    def stderr(tmp_path, corpus, annotations, *argv):
        write_jsonl(tmp_path / "c.jsonl", corpus)
        write_jsonl(tmp_path / "g.jsonl", annotations)
        code, _, err = run_process("-m", "qapkit.cli", *argv, "--output", "out.json", cwd=tmp_path)
        return code, err.decode()

    @pytest.mark.parametrize("command", [TRAIN, CLASSIFY], ids=["train", "classify"])
    def test_with_both_inputs_bad_the_annotation_error_is_reported(self, tmp_path, command):
        assert self.stderr(tmp_path, self.BAD_CORPUS, self.BAD_ANNOTATIONS, *command) == (2, self.ANNOTATION_ERROR)

    def test_classify_reads_the_questions_before_the_model(self, tmp_path):
        (tmp_path / "m.json").write_text("[]", encoding="utf-8")
        argv = (*self.CLASSIFY, "--mode", "tree", "--model", "m.json")
        assert self.stderr(tmp_path, self.CORPUS, self.BAD_ANNOTATIONS, *argv) == (2, self.ANNOTATION_ERROR)
        _, err = self.stderr(tmp_path, self.CORPUS, self.ANNOTATIONS, *argv)
        assert err == "error: m.json: expected a JSON object\n"

    @pytest.mark.parametrize("command", [TRAIN, CLASSIFY], ids=["train", "classify"])
    @pytest.mark.parametrize(
        "corpus, annotations, expected",
        [
            (BAD_CORPUS, ANNOTATIONS, CORPUS_ERROR),
            (BAD_CORPUS, REPEATED, CORPUS_ERROR),  # no warning: the corpus error ends the command first
            (CORPUS, BAD_ANNOTATIONS, ANNOTATION_ERROR),
        ],
        ids=["bad-corpus", "bad-corpus-with-repeats", "bad-annotations"],
    )
    def test_an_input_with_a_single_fault_gives_its_error_alone(self, tmp_path, command, corpus, annotations, expected):
        assert self.stderr(tmp_path, corpus, annotations, *command) == (2, expected)

    def test_train_warns_of_repeats_before_an_unresolved_span(self, tmp_path):
        annotations = [*self.REPEATED, q_obj(9, "abc", "YN", dialogue="zzz")]
        unresolved = "error: g.jsonl: line 5: question zzz:9:0-3 has no matching utterance\n"
        assert self.stderr(tmp_path, self.CORPUS, annotations, *self.TRAIN) == (2, self.REPEAT_WARNING + unresolved)


# question texts with gold labels; equal texts after the same statement give equal feature vectors,
# and "Did you go?" is labelled both YN and WH, so no model fits every instance
REPEATED_QUESTIONS = [
    ("Did you go?", "YN"),
    ("Where did you go?", "WH"),
    ("really?", "PQ"),
    ("Did you go?", "YN"),
    ("Do you want coffee or tea?", "DQ"),
    ("really?", "PQ"),
    ("Where did you go?", "WH"),
    ("Did you go?", "WH"),
]


class TestDecideOnce:
    """classify and train's accuracy decide each distinct vector once, and write what per-question calls give."""

    @pytest.fixture
    def corpus(self, tmp_path):
        utts, gold, vectors = [], [], []
        for i, (text, label) in enumerate(REPEATED_QUESTIONS):
            utts += [utt_obj(2 * i, "Okay then."), utt_obj(2 * i + 1, text)]
            gold.append(q_obj(2 * i + 1, text, label))
            previous = Utterance("d1", 2 * i, "A", "Okay then.", False)
            vectors.append(extract_features(Utterance("d1", 2 * i + 1, "A", text, False), previous=previous))
        assert len(set(vectors)) < len(vectors)
        labels = [QuestionType(label) for _, label in REPEATED_QUESTIONS]
        return write_jsonl(tmp_path / "c.jsonl", utts), write_jsonl(tmp_path / "g.jsonl", gold), vectors, labels

    @pytest.fixture
    def calls(self, monkeypatch):
        """The feature vector of each call the CLI makes to predict or rule_classify, by function name."""
        seen = {"predict": [], "rule_classify": []}
        for name, fv_at in (("predict", 1), ("rule_classify", 0)):
            def counted(*args, _real=getattr(cli_module, name), _seen=seen[name], _at=fv_at):
                _seen.append(args[_at])
                return _real(*args)

            monkeypatch.setattr(cli_module, name, counted)
        return seen

    @staticmethod
    def q_types(path):
        return [QuestionType(json.loads(line)["q_type"]) for line in path.read_text(encoding="utf-8").splitlines()]

    def test_classify_rule_mode(self, run_cli, tmp_path, corpus, calls):
        corpus_path, _, vectors, _ = corpus
        code, _, _ = run_cli("classify", "--input", corpus_path, "--output", tmp_path / "p.jsonl")
        assert code == 0
        assert sorted(calls["rule_classify"]) == sorted(set(vectors))
        assert calls["predict"] == []
        assert self.q_types(tmp_path / "p.jsonl") == [rule_classify(fv) for fv in vectors]

    def test_train_then_classify_tree_mode(self, run_cli, tmp_path, corpus, calls):
        corpus_path, gold_path, vectors, labels = corpus
        model_path = tmp_path / "m.json"
        code, out, _ = run_cli("train", "--input", corpus_path, "--annotations", gold_path,
                               "--output", model_path, "--deterministic")
        assert code == 0
        assert sorted(calls["predict"]) == sorted(set(vectors))
        with open(model_path, encoding="utf-8") as f:
            model = load_model(f)
        expected = [predict(model, fv) for fv in vectors]
        accuracy = json.loads(out)["training_accuracy"]
        assert accuracy == sum(map(operator.eq, expected, labels)) / len(labels) < 1

        calls["predict"].clear()
        code, _, _ = run_cli("classify", "--input", corpus_path, "--mode", "tree", "--model", model_path,
                             "--output", tmp_path / "p.jsonl")
        assert code == 0
        assert sorted(calls["predict"]) == sorted(set(vectors))
        assert calls["rule_classify"] == []
        assert self.q_types(tmp_path / "p.jsonl") == expected


class TestPipeline:
    def test_train_classify_evaluate_round_trip(self, run_cli, tmp_path, train_corpus):
        corpus, gold = train_corpus
        model_path = tmp_path / "model.json"
        pred_path = tmp_path / "pred.jsonl"
        run_cli("train", "--input", corpus, "--annotations", gold,
                "--output", model_path, "--deterministic")
        code, _, _ = run_cli(
            "classify", "--input", corpus, "--mode", "tree", "--model", model_path,
            "--output", pred_path,
        )
        assert code == 0
        code, out, _ = run_cli(
            "evaluate", "--gold", gold, "--pred", pred_path, "--deterministic"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["accuracy"] == 1.0
        assert (doc["n_items"], doc["n_gold_only"], doc["n_pred_only"]) == (4, 0, 0)


class TestEvaluate:
    def test_questions_in_one_file_only_are_counted_and_warned_of(self, run_cli, tmp_path, caplog):
        gold = write_jsonl(tmp_path / "g.jsonl", [q_obj(turn, "Where?", "WH") for turn in range(3)])
        pred = write_jsonl(tmp_path / "p.jsonl", [q_obj(turn, "Where?", "WH", annotator="rule") for turn in (0, 5)])
        with caplog.at_level(logging.INFO, logger="qapkit"):
            code, out, _ = run_cli("evaluate", "--gold", gold, "--pred", pred, "--deterministic")
        assert code == 0
        doc = json.loads(out)
        assert (doc["accuracy"], doc["n_items"], doc["n_gold_only"], doc["n_pred_only"]) == (1.0, 1, 2, 1)
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.WARNING, "questions left out of the scores: 2 only in gold, 1 only in predictions")
        ]

    def test_invalid_utf8_in_gold_names_file_and_line(self, run_cli, tmp_path):
        gold = write_jsonl(tmp_path / "g.jsonl", [q_obj(0, "a?", "YN"), q_obj(1, "b?", "YN")])
        gold.write_bytes(gold.read_bytes().replace(b'"gold"', b'"g\xffld"'))
        pred = write_jsonl(tmp_path / "p.jsonl", [q_obj(0, "a?", "YN", annotator="rule")])
        code, _, err = run_cli("evaluate", "--gold", gold, "--pred", pred)
        assert code == 2
        assert f"{gold}:1: invalid UTF-8" in err
        assert "Traceback" not in err

    def test_report_document(self, run_cli, tmp_path):
        gold = write_jsonl(
            tmp_path / "g.jsonl",
            [q_obj(0, "a?", "YN"), q_obj(1, "b?", "YN"), q_obj(2, "c?", "WH")],
        )
        pred = write_jsonl(
            tmp_path / "p.jsonl",
            [q_obj(0, "a?", "YN", annotator="rule"), q_obj(1, "b?", "PQ", annotator="rule"),
             q_obj(2, "c?", "WH", annotator="rule")],
        )
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            "evaluate", "--gold", gold, "--pred", pred, "--output", out_path, "--deterministic"
        )
        assert code == 0
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["labels"] == ["YN", "DQ", "PQ", "CS", "WH"]
        assert doc["accuracy"] == pytest.approx(2 / 3)
        assert doc["n_items"] == 3
        assert "confusion_text" in doc
        assert "generated_at" not in doc
        # a readable copy still lands on stdout when writing to a file
        assert "Support" in out
        assert "accuracy 0.6667" in out

    def test_timestamp_present_by_default(self, run_cli, tmp_path):
        gold = write_jsonl(tmp_path / "g.jsonl", [q_obj(0, "a?", "YN")])
        code, out, _ = run_cli("evaluate", "--gold", gold, "--pred", gold)
        assert code == 0
        assert "generated_at" in json.loads(out)

    def test_deterministic_reruns_are_identical(self, run_cli, tmp_path):
        gold = write_jsonl(tmp_path / "g.jsonl", [q_obj(0, "a?", "YN"), q_obj(1, "b?", "WH")])
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run_cli("evaluate", "--gold", gold, "--pred", gold, "--output", out1, "--deterministic")
        run_cli("evaluate", "--gold", gold, "--pred", gold, "--output", out2, "--deterministic")
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("flag", ["--gold", "--pred"])
    def test_a_file_of_two_annotators_is_refused(self, run_cli, tmp_path, flag):
        one = write_jsonl(tmp_path / "one.jsonl", [q_obj(0, "a?", "YN"), q_obj(1, "b?", "WH")])
        two = write_jsonl(
            tmp_path / "two.jsonl",
            [q_obj(0, "a?", "PQ", annotator="A2"), q_obj(1, "b?", "WH", annotator="A1")],
        )
        files = {"--gold": one, "--pred": one, flag: two}
        code, out, err = run_cli("evaluate", "--gold", files["--gold"], "--pred", files["--pred"])
        assert (code, out) == (2, "")
        assert err == f"error: {flag}: {two} holds questions of more than one annotator (A1, A2)\n"

    @pytest.mark.parametrize("flag", ["--gold", "--pred"])
    def test_answer_records_are_checked_but_not_scored(self, run_cli, tmp_path, flag):
        questions = [q_obj(0, "a?", "YN"), q_obj(2, "b?", "WH")]
        plain = write_jsonl(tmp_path / "plain.jsonl", questions)
        good = write_jsonl(tmp_path / "good.jsonl", [questions[0], a_obj(1, "PA", "d1:0:0-2"), questions[1]])
        bad = write_jsonl(tmp_path / "bad.jsonl", [questions[0], a_obj(1, "ZZ", "d1:0:0-2"), questions[1]])

        def evaluate(path):
            files = {"--gold": plain, "--pred": plain, flag: path}
            return run_cli("evaluate", "--gold", files["--gold"], "--pred", files["--pred"], "--deterministic")

        report = evaluate(plain)
        assert report[0] == 0
        assert evaluate(good) == report
        assert evaluate(bad) == (2, "", f"error: {bad}: line 2: unknown tag 'ZZ'\n")

    def test_answers_of_another_annotator_do_not_count(self, run_cli, tmp_path):
        gold = write_jsonl(
            tmp_path / "g.jsonl", [q_obj(0, "a?", "YN"), a_obj(1, "PA", "d1:0:0-2", annotator="other")]
        )
        code, out, _ = run_cli("evaluate", "--gold", gold, "--pred", gold, "--deterministic")
        assert code == 0
        assert json.loads(out)["n_items"] == 1

    def test_disjoint_files(self, run_cli, tmp_path):
        gold = write_jsonl(tmp_path / "g.jsonl", [q_obj(0, "a?", "YN")])
        pred = write_jsonl(tmp_path / "p.jsonl", [q_obj(5, "b?", "YN")])
        code, _, err = run_cli("evaluate", "--gold", gold, "--pred", pred)
        assert code == 2
        assert "share no question annotations" in err


def agreement_files(tmp_path):
    def records(annotator):
        return [
            q_obj(0, "Did you see him?", "YN", annotator=annotator),
            q_obj(2, "Where did you go?", "WH", feature="LOC", annotator=annotator),
            a_obj(1, "PA", "d1:0:0-16", annotator=annotator),
        ]

    return (
        write_jsonl(tmp_path / "a1.jsonl", records("A1")),
        write_jsonl(tmp_path / "a2.jsonl", records("A2")),
    )


class TestAgree:
    def test_identical_annotators_get_full_marks(self, run_cli, tmp_path):
        f1, f2 = agreement_files(tmp_path)
        code, out, _ = run_cli("agree", "--input", f1, f2, "--deterministic")
        assert code == 0
        doc = json.loads(out)
        assert set(doc["layers"]) == {"questions", "features", "answers"}
        for layer, reports in doc["layers"].items():
            assert reports[-1]["is_mean"]
            for report in reports:
                assert report["observed"] == 1.0
                assert report["kappa"] == 1.0
        assert doc["layers"]["questions"][0]["n_items"] == 2
        assert doc["layers"]["features"][0]["n_items"] == 1
        assert doc["layers"]["answers"][0]["n_items"] == 1
        assert doc["disagreements"] == []

    def test_disagreement_listing(self, run_cli, tmp_path):
        f1 = write_jsonl(tmp_path / "a1.jsonl", [q_obj(0, "x?", "YN", annotator="A1")])
        f2 = write_jsonl(tmp_path / "a2.jsonl", [q_obj(0, "x?", "PQ", annotator="A2")])
        code, out, _ = run_cli("agree", "--input", f1, f2, "--deterministic")
        assert code == 0
        doc = json.loads(out)
        assert doc["disagreements"] == [
            {
                "layer": "questions",
                "item": "d1:0:0-2",
                "tags": {"A1": "YN", "A2": "PQ"},
                "category": "uncategorized",
            }
        ]

    def test_single_layer_flag(self, run_cli, tmp_path):
        f1, f2 = agreement_files(tmp_path)
        code, out, _ = run_cli(
            "agree", "--input", f1, f2, "--layer", "questions", "--deterministic"
        )
        assert code == 0
        assert list(json.loads(out)["layers"]) == ["questions"]

    def test_single_annotator_fails(self, run_cli, tmp_path, caplog):
        f1 = write_jsonl(tmp_path / "a1.jsonl", [q_obj(0, "x?", "YN", annotator="A1")])
        with caplog.at_level(logging.WARNING, logger="qapkit"):
            code, _, err = run_cli("agree", "--input", f1)
        assert code == 2
        assert "error:" in err
        skipped = [r for r in caplog.records if "skipped" in r.getMessage()]
        assert len(skipped) == 3  # one warning per layer before giving up

    def test_each_annotator_is_indexed_once(self, run_cli, tmp_path, monkeypatch):
        index_by_item = cli_module.index_by_item
        indexed = []

        def counting(records):
            indexed.append(index_by_item(records))
            return indexed[-1]

        monkeypatch.setattr(cli_module, "index_by_item", counting)
        files = [
            write_jsonl(
                tmp_path / f"{who}.jsonl",
                [q_obj(0, "x?", "YN", annotator=who), a_obj(1, "PA", "d1:0:0-2", annotator=who)],
            )
            for who in ("A1", "A2", "A3")
        ]
        code, _, _ = run_cli("agree", "--input", *files, "--deterministic")
        assert code == 0
        # one index of every record, with one entry per annotator
        ((indexes, repeats),) = indexed
        assert (list(indexes), repeats) == (["A1", "A2", "A3"], [])


class TestValidate:
    def test_violations_exit_one(self, run_cli, tmp_path):
        ref = "d1:0:0-16"
        ann = write_jsonl(
            tmp_path / "ann.jsonl",
            [q_obj(0, "Did you see him?", "YN"), a_obj(1, "FA", ref)],
        )
        code, out, _ = run_cli("validate", "--input", ann, "--deterministic")
        assert code == 1
        doc = json.loads(out)
        assert doc["count"] == 1
        assert doc["violations"][0]["kind"] == "illegal-answer-for-question"
        assert ref in doc["violations"][0]["item"]

    def test_clean_file_exits_zero(self, run_cli, tmp_path):
        ann = write_jsonl(
            tmp_path / "ann.jsonl",
            [q_obj(0, "Did you see him?", "YN"), a_obj(1, "PA", "d1:0:0-16")],
        )
        code, out, _ = run_cli("validate", "--input", ann, "--deterministic")
        assert code == 0
        assert json.loads(out) == {"count": 0, "violations": []}

    def test_misplaced_feature_counts_once(self, run_cli, tmp_path):
        ref = "d1:0:0-16"
        ann = write_jsonl(
            tmp_path / "ann.jsonl",
            [q_obj(0, "Did you see him?", "YN", feature="LOC"), a_obj(1, "PA", ref), a_obj(2, "UA", ref)],
        )
        code, out, _ = run_cli("validate", "--input", ann, "--deterministic")
        assert code == 1
        doc = json.loads(out)
        # the second answer to the question is a repeat, reported after the question's own violation
        assert [v["kind"] for v in doc["violations"]] == ["feature-not-applicable", "duplicate-record"]

    def test_report_text(self, run_cli, tmp_path):
        ann = write_jsonl(
            tmp_path / "ann.jsonl",
            [q_obj(0, "Did you see him?", "YN"), a_obj(1, "FA", "d1:0:0-16")],
        )
        code, out, _ = run_cli("validate", "--input", ann, "--deterministic")
        assert code == 1
        assert out == """{
  "count": 1,
  "violations": [
    {
      "item": "d1:0:0-16",
      "kind": "illegal-answer-for-question",
      "message": "FA answers are not allowed for YN questions"
    }
  ]
}
"""

    def test_dangling_answer(self, run_cli, tmp_path):
        ann = write_jsonl(tmp_path / "ann.jsonl", [a_obj(1, "PA", "d1:0:0-4")])
        code, out, _ = run_cli("validate", "--input", ann, "--deterministic")
        assert code == 1
        assert json.loads(out)["violations"][0]["kind"] == "dangling-reference"


ONE_TURN_EAF = """<?xml version="1.0" encoding="UTF-8"?>
<ANNOTATION_DOCUMENT>
  <TIME_ORDER><TIME_SLOT TIME_SLOT_ID="ts1" TIME_VALUE="0"/></TIME_ORDER>
  <TIER TIER_ID="spkA" PARTICIPANT="AMY">
    <ANNOTATION>
      <ALIGNABLE_ANNOTATION ANNOTATION_ID="a1" TIME_SLOT_REF1="ts1">
        <ANNOTATION_VALUE>Water?</ANNOTATION_VALUE>
      </ALIGNABLE_ANNOTATION>
    </ANNOTATION>
  </TIER>
</ANNOTATION_DOCUMENT>
"""


FLAG_FAULTS = pytest.mark.parametrize(
    "value, fault", [("d\udcff", "is not valid UTF-8"), ("", "must be non-empty")], ids=["not-utf8", "empty"]
)


class TestCommandLineStrings:
    """A command-line string that is written out, or that selects dialogues, must be non-empty UTF-8.

    Argument bytes that are not UTF-8 reach Python as lone surrogates ("\\udcff"
    for the byte 0xff); the command exits 2 naming the flag or file name before
    it reads any input, and never opens --output.
    """

    @FLAG_FAULTS
    @pytest.mark.parametrize("flag", ["--annotator-id", "--language"])
    def test_classify_flag(self, run_cli, tmp_path, flag, value, fault):
        out = tmp_path / "p.jsonl"
        code, _, err = run_cli("classify", "--input", tmp_path / "missing.jsonl", flag, value, "--output", out)
        assert (code, err) == (2, f"error: {flag} {fault}\n")
        assert not out.exists()

    @FLAG_FAULTS
    @pytest.mark.parametrize("flag", ["--dialogue-id", "--language"])
    def test_ingest_flag(self, run_cli, tmp_path, flag, value, fault):
        out = tmp_path / "out.jsonl"
        argv = ("ingest", "--input", tmp_path / "missing.tsv", "--format", "tsv", flag, value, "--output", out)
        code, _, err = run_cli(*argv)
        assert (code, err) == (2, f"error: {flag} {fault}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [
            *((command, "--output") for command in ("ingest", "classify", "train", "evaluate", "agree", "validate")),
            ("classify", "--wh-map"),
            ("classify", "--extractor-config"),
            ("train", "--extractor-config"),
            ("classify", "--questions"),
            ("classify", "--model"),
        ],
    )
    def test_an_empty_path_is_refused_before_input_is_read(self, run_cli, tmp_path, command, flag):
        missing = tmp_path / "missing.jsonl"
        inputs = {
            "ingest": ("--input", missing),
            "classify": ("--input", missing, "--mode", "tree" if flag == "--model" else "rule"),
            "train": ("--input", missing, "--annotations", missing),
            "evaluate": ("--gold", missing, "--pred", missing),
            "agree": ("--input", missing),
            "validate": ("--input", missing),
        }
        out = tmp_path / "out.json"
        argv = (command, *inputs[command], flag, "")
        code, stdout, err = run_cli(*argv, *(("--output", out) if flag != "--output" else ()))
        assert (code, stdout, err) == (2, "", f"error: {flag} must be non-empty\n")
        assert not out.exists()

    def test_an_empty_interruption_marker_turns_marking_off(self, run_cli, tmp_path):
        src = _file(tmp_path / "amy.tsv", "0\tAMY\tWater --\n")
        out = tmp_path / "amy.jsonl"
        code, _, _ = run_cli("ingest", "--input", src, "--format", "tsv", "--interruption-marker", "", "--output", out)
        assert code == 0
        record = json.loads(out.read_text(encoding="utf-8"))
        assert (record["text"], record["interrupted"]) == ("Water --", False)

    @pytest.mark.parametrize(
        "fmt, content", [("tsv", "0\tAMY\tWater?\n"), ("eaf", ONE_TURN_EAF)], ids=["tsv", "eaf"]
    )
    def test_file_name_as_default_dialogue_id(self, run_cli, tmp_path, fmt, content):
        src = tmp_path / f"amy\udcff.{fmt}"  # the file name holds the byte 0xff
        src.write_text(content, encoding="utf-8")
        out = tmp_path / "amy.jsonl"
        code, _, err = run_cli("ingest", "--input", src, "--format", fmt, "--output", out)
        assert code == 2
        assert err == (
            f"error: file name 'amy\\udcff.{fmt}' is not valid UTF-8; name the dialogue with --dialogue-id\n"
        )
        assert not out.exists()
        code, _, _ = run_cli("ingest", "--input", src, "--format", fmt, "--dialogue-id", "amy", "--output", out)
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8"))["dialogue_id"] == "amy"


class TestTopLevel:
    def test_version(self, run_cli):
        code, out, _ = run_cli("--version")
        assert code == 0
        assert "qapkit" in out

    def test_no_command_is_usage_error(self, run_cli):
        code, _, err = run_cli()
        assert code == 2

    def test_collector_off_while_a_command_runs_and_restored_after_each_exit_code(
        self, run_cli, tmp_path, monkeypatch
    ):
        corpus = write_jsonl(tmp_path / "raw.jsonl", [utt_obj(0, "Where?")])
        violating = write_jsonl(tmp_path / "v.jsonl", [q_obj(0, "Where?", "YN"), a_obj(1, "FA", "d1:0:0-6")])
        seen = []
        monkeypatch.setattr(cli_module, "write_dialogues", lambda *a: seen.append(gc.isenabled()))
        thresholds = gc.get_threshold()
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                for argv, expected in (
                    (("ingest", "--input", corpus, "--output", tmp_path / "out.jsonl"), 0),
                    (("validate", "--input", violating, "--deterministic"), 1),
                    (("validate", "--input", tmp_path / "missing.jsonl"), 2),
                ):
                    assert run_cli(*argv)[0] == expected
                    assert gc.isenabled() is enabled
                    assert gc.get_threshold() == thresholds
        finally:
            gc.enable()
        assert seen == [False, False]  # off while the command ran, whatever the state before

    def test_invalid_annotation_json_names_the_file(self, run_cli, tmp_path):
        bad = tmp_path / "broken.jsonl"
        bad.write_text("{not json\n", encoding="utf-8")
        code, _, err = run_cli("validate", "--input", bad)
        assert code == 2
        assert "broken.jsonl" in err


ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def big_agreement(tmp_path):
    """Two annotators typing 3,000 questions differently: an agree report of about 460 KiB."""
    for annotator, q_type in (("anna", "YN"), ("ben", "WH")):
        records = [q_obj(i, "Where?", q_type, annotator=annotator) for i in range(3000)]
        write_jsonl(tmp_path / f"{annotator}.jsonl", records)
    return ("-m", "qapkit.cli", "agree", "--input", "anna.jsonl", "ben.jsonl", "--deterministic")


# each command's arguments, and the qapkit modules it loads beyond the package, cli, ingestion and model
COMMAND_MODULES = pytest.mark.parametrize(("argv", "modules"), [
    pytest.param(("--version",), (), id="version"),
    pytest.param(("--help",), (), id="help"),
    pytest.param(("ingest", "--input", "corpus.jsonl"), (), id="ingest-jsonl"),
    pytest.param(("ingest", "--input", "t.tsv", "--format", "tsv"), (), id="ingest-tsv"),
    pytest.param(("ingest", "--input", "s.eaf", "--format", "eaf"), (), id="ingest-eaf"),
    pytest.param(("validate", "--input", "gold.jsonl"), (), id="validate"),
    pytest.param(("evaluate", "--gold", "gold.jsonl", "--pred", "pred.jsonl"), ("evaluation",), id="evaluate"),
    pytest.param(("agree", "--input", "gold.jsonl", "pred.jsonl"), ("evaluation",), id="agree"),
    pytest.param(("classify", "--input", "corpus.jsonl"), ("features", "lexicon", "rules", "text"), id="classify-rule"),
    pytest.param(("classify", "--input", "corpus.jsonl", "--mode", "tree", "--model", "model.json"),
                 ("features", "lexicon", "rules", "text", "tree"), id="classify-tree"),
    pytest.param(("train", "--input", "corpus.jsonl", "--annotations", "gold.jsonl", "--output", "m.json"),
                 ("features", "lexicon", "text", "tree"), id="train"),
])

# runs the command given as its arguments; the qapkit modules then loaded are the last line of stderr
FOOTPRINT = """import sys
from qapkit import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(*sorted(m for m in sys.modules if m.startswith("qapkit")), file=sys.stderr)
sys.exit(code)
"""


class TestCommandProcess:
    """The command as a process: python -m qapkit.cli, which the installed qapkit script runs too."""

    @COMMAND_MODULES
    def test_a_command_loads_only_the_modules_it_runs(self, run_cli, tmp_path, train_corpus, argv, modules):
        (tmp_path / "t.tsv").write_text("0\tA\tWhere did you go?\n", encoding="utf-8")
        (tmp_path / "s.eaf").write_text(ONE_TURN_EAF, encoding="utf-8")
        corpus, gold = train_corpus
        assert run_cli("train", "--input", corpus, "--annotations", gold, "--output", tmp_path / "model.json")[0] == 0
        assert run_cli("classify", "--input", corpus, "--output", tmp_path / "pred.jsonl")[0] == 0
        code, _, err = run_process("-c", FOOTPRINT, *argv, cwd=tmp_path)
        assert code == 0, err
        expected = ["qapkit", "qapkit.cli", "qapkit.ingestion", "qapkit.model", *(f"qapkit.{m}" for m in modules)]
        assert err.decode().splitlines()[-1].split() == sorted(expected)

    def test_importing_the_cli_loads_neither_dataclasses_nor_inspect(self, tmp_path):
        code = "import qapkit.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        assert run_process("-c", code, cwd=tmp_path)[:2] == (0, b"[]\n")
        # dependency-free: each module the import adds to those the interpreter's startup loaded is stdlib or qapkit
        code = (
            "import sys; startup = set(sys.modules); import qapkit.cli; "
            "print(sorted({m.partition('.')[0] for m in set(sys.modules) - startup}"
            " - set(sys.stdlib_module_names) - {'qapkit'}))"
        )
        assert run_process("-c", code, cwd=tmp_path)[:2] == (0, b"[]\n")

    def test_installed_script_and_module_share_one_entry_function(self):
        assert 'qapkit = "qapkit.cli:run"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")

    def test_a_report_through_a_pipe_matches_the_output_file(self, tmp_path, big_agreement):
        code, piped, _ = run_process(*big_agreement, cwd=tmp_path)
        assert code == 0
        assert run_process(*big_agreement, "--output", "agree.json", cwd=tmp_path)[:2] == (0, b"")
        written = (tmp_path / "agree.json").read_bytes()
        assert len(written) > 256 * 1024
        assert piped == written

    def test_exit_codes_pass_through_unchanged(self, tmp_path):
        write_jsonl(tmp_path / "clean.jsonl", [q_obj(0, "Where?", "WH"), a_obj(1, "FA", "d1:0:0-6")])
        write_jsonl(tmp_path / "violating.jsonl", [q_obj(0, "Where?", "YN"), a_obj(1, "FA", "d1:0:0-6")])
        for argv, expected in (
            (("validate", "--input", "clean.jsonl", "--deterministic"), 0),
            (("validate", "--input", "violating.jsonl", "--deterministic"), 1),
            (("validate", "--input", "missing.jsonl"), 2),
            (("validate",), 2),  # a usage error, from argparse
            (("--version",), 0),
        ):
            code, out, err = run_process("-m", "qapkit.cli", *argv, cwd=tmp_path)
            assert code == expected, argv
            assert b"Traceback" not in err
        assert out.decode().startswith("qapkit ")  # --version's output, flushed before the exit

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
    def test_a_closed_pipe_ends_the_command_by_sigpipe_without_a_message(self, tmp_path, big_agreement):
        proc = python_process(*big_agreement, cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()  # as `| head -c 10` does
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == -signal.SIGPIPE
        assert "error:" not in err and "Traceback" not in err


class TestNamespace:
    """``import qapkit`` loads no module: each name loads the module defining it, and cli loads per command."""

    def test_each_exported_name_is_the_object_its_module_defines(self):
        for name in qapkit.__all__:
            module = f"qapkit.{qapkit._MODULE_OF[name]}"
            obj = getattr(qapkit, name)
            assert obj is getattr(importlib.import_module(module), name), name
            assert getattr(obj, "__module__", module) == module, name  # constants carry no __module__

    def test_a_star_import_binds_exactly_all_and_dir_lists_it(self):
        namespace = {}
        exec("from qapkit import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == qapkit.__all__
        assert set(qapkit.__all__) <= set(dir(qapkit))

    def test_an_unknown_name_is_an_attribute_error(self):
        assert not hasattr(qapkit, "nope")
        assert not hasattr(cli_module, "nope")

    def test_a_module_is_reached_as_an_attribute_without_its_own_import(self, tmp_path):
        code = "import qapkit; print(qapkit.tree.candidate_splits.__module__, qapkit.evaluation.LAYERS)"
        assert run_process("-c", code, cwd=tmp_path)[:2] == (0, b"qapkit.tree ('questions', 'features', 'answers')\n")

    def test_the_layer_table_follows_layers(self):
        assert tuple(evaluation_module._LAYER_TABLE) == model_module.LAYERS

    def test_the_tracer_installs_and_its_wrappers_see_a_command_run(self, tmp_path):
        write_jsonl(tmp_path / "corpus.jsonl", [utt_obj(0, "Where did you go?")])
        # bench/ is on the import path only while the tracer loads, as in test_golden.py
        code = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "try:\n"
            "    import tracer\n"
            "finally:\n"
            "    sys.path.remove(sys.argv[1])\n"
            "t = tracer.Tracer()\n"
            "t.install()\n"
            "from qapkit import cli\n"
            "assert cli.main(['classify', '--input', 'corpus.jsonl', '--output', 'p.jsonl']) == 0\n"
            "print(*sorted(set(t.names[span[0]] for span in t.spans)))\n"
        )
        returncode, out, err = run_process("-c", code, ROOT / "bench", cwd=tmp_path)
        assert returncode == 0, err
        assert {
            "ingestion.parse_dialogue_jsonl", "text.tokenize", "rules.rule_classify", "rules.map_wh_feature",
            "ingestion.write_annotations",
        } <= set(out.decode().split())


class TestAnnotationIndex:
    def test_first_record_for_an_item_wins(self, run_cli, tmp_path):
        ref = "d1:0:0-17"
        first = [
            q_obj(0, "Where did you go?", "WH", feature="LOC", annotator="A1"),
            a_obj(1, "FA", ref, annotator="A1"),
        ]
        repeats = [
            q_obj(0, "Where did you go?", "YN", annotator="A1"),
            a_obj(1, "UA", ref, annotator="A1"),
        ]
        f1 = write_jsonl(tmp_path / "a1.jsonl", first + repeats)
        f2 = write_jsonl(
            tmp_path / "a2.jsonl", [{**rec, "annotator_id": "A2"} for rec in first]
        )

        for gold, pred in ((f1, f2), (f2, f1)):
            code, out, _ = run_cli("evaluate", "--gold", gold, "--pred", pred, "--deterministic")
            assert code == 0
            doc = json.loads(out)
            assert (doc["n_items"], doc["accuracy"]) == (1, 1.0)

        code, out, _ = run_cli("agree", "--input", f1, f2, "--deterministic")
        assert code == 0
        doc = json.loads(out)
        assert set(doc["layers"]) == {"questions", "features", "answers"}
        for reports in doc["layers"].values():
            assert [(r["n_items"], r["observed"]) for r in reports] == [(1, 1.0), (1, 1.0)]
        assert doc["disagreements"] == []


    def test_a_span_typed_twice_trains_once_and_fails_validation(self, run_cli, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", [utt_obj(0, "Did you see him?")])
        ann = write_jsonl(
            tmp_path / "a.jsonl",
            [q_obj(0, "Did you see him?", "YN", annotator="A"), q_obj(0, "Did you see him?", "WH", annotator="A")],
        )
        code, out, _ = run_cli(
            "train", "--input", corpus, "--annotations", ann, "--output", tmp_path / "m.json", "--deterministic"
        )
        assert code == 0
        summary = json.loads(out)
        assert (summary["instances"], summary["training_accuracy"], summary["label_distribution"]) == (
            1, 1.0, {"YN": 1}
        )

        code, out, _ = run_cli("validate", "--input", ann, "--deterministic")
        assert code == 1
        assert json.loads(out) == {
            "count": 1,
            "violations": [
                {
                    "kind": "duplicate-record",
                    "item": "d1:0:0-16",
                    "message": "annotator 'A' labels this question again: YN, then WH (tags differ);"
                    " the first record counts",
                }
            ],
        }

    def test_train_evaluate_and_agree_warn_once_of_the_repeats(self, run_cli, tmp_path, caplog, train_corpus):
        corpus, gold = train_corpus
        ref = "d1:0:0-17"
        mine = [q_obj(0, "Where did you go?", "WH", annotator="A"), a_obj(1, "FA", ref, annotator="A")]
        repeats = [q_obj(0, "Where did you go?", "YN", annotator="A"), a_obj(1, "UA", ref, annotator="A")]
        f1 = write_jsonl(tmp_path / "a.jsonl", mine + repeats + [mine[0]])
        f2 = write_jsonl(tmp_path / "b.jsonl", [{**rec, "annotator_id": "B"} for rec in mine])
        for argv in (
            ("train", "--input", corpus, "--annotations", f1, "--output", tmp_path / "m.json"),
            ("evaluate", "--gold", f1, "--pred", f2),
            ("agree", "--input", f1, f2),
        ):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="qapkit"):
                code, _, _ = run_cli(*argv, "--deterministic")
            assert code == 0, argv
            assert [(r.levelno, r.getMessage()) for r in caplog.records if "repeated" in r.getMessage()] == [
                (logging.WARNING, "3 repeated annotation records set aside: the first record per annotator and"
                 " item counts")
            ], argv


QUESTION_TYPES = st.sampled_from(["YN", "WH", "DQ", "PQ", "CS"])
ANSWER_TYPES = st.sampled_from(["PA", "NA", "FA", "PHA", "UA", "UT", "DA"])


@st.composite
def records_with_repeats(draw):
    """Question and answer lines of two annotators on TRAIN_TEXTS, some lines given again with any tag."""
    objs = []
    for who, turn in draw(st.lists(st.tuples(st.sampled_from(["A1", "A2"]), st.integers(0, 3)), min_size=1,
                                   max_size=6)):
        text = TRAIN_TEXTS[turn][1]
        objs.append(q_obj(turn, text, draw(QUESTION_TYPES), annotator=who))
        if draw(st.booleans()):
            objs.append(a_obj(turn + 1, draw(ANSWER_TYPES), f"d1:{turn}:0-{len(text)}", annotator=who))
    for obj in draw(st.lists(st.sampled_from(objs), min_size=1, max_size=4)):
        tag = "q_type" if obj["kind"] == "q" else "a_type"
        objs.append({**obj, tag: draw(QUESTION_TYPES if tag == "q_type" else ANSWER_TYPES)})
    return draw(st.permutations(objs))


def _quiet_main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


@settings(max_examples=40, deadline=None)
@given(objs=records_with_repeats())
def test_train_agree_and_validate_count_the_same_records(tmp_path_factory, objs):
    d = tmp_path_factory.mktemp("repeats")
    corpus = write_jsonl(d / "corpus.jsonl", [utt_obj(t, text) for t, text, _ in TRAIN_TEXTS])
    ann = write_jsonl(d / "ann.jsonl", objs)
    # the first line per annotator and item, found by a plain scan: (annotator, kind) -> lines kept
    items, kept, given_lines = set(), Counter(), Counter()
    for obj in objs:
        who_kind = (obj["annotator_id"], obj["kind"])
        given_lines[who_kind] += 1
        item = (*who_kind, obj["turn_index"] if obj["kind"] == "q" else obj["question_ref"])
        if item not in items:
            items.add(item)
            kept[who_kind] += 1

    code, out = _quiet_main("train", "--input", corpus, "--annotations", ann, "--output", d / "m.json",
                            "--deterministic")
    assert code == 0
    assert json.loads(out)["instances"] == sum(n for (_, kind), n in kept.items() if kind == "q")

    counted = []
    agreement = cli_module.pairwise_agreement

    def counting(indexes, layer):
        counted.append({(who, kind): len(index[i]) for who, index in indexes.items() for i, kind in enumerate("qa")})
        return agreement(indexes, layer)

    with mock.patch.object(cli_module, "pairwise_agreement", counting):
        _quiet_main("agree", "--input", ann, "--deterministic")
    assert +Counter(counted[0]) == kept

    code, out = _quiet_main("validate", "--input", ann, "--deterministic")
    assert code == 1
    set_aside = Counter()
    for v in json.loads(out)["violations"]:
        if v["kind"] == "duplicate-record":
            who, what = re.match(r"annotator '(\w+)' labels (this question|the answer)", v["message"]).groups()
            set_aside[who, "q" if what == "this question" else "a"] += 1
    assert given_lines - set_aside == kept


CORPUS_LINE = json.dumps(utt_obj(0, "Where did you go?")) + "\n"
GOLD_LINE = json.dumps(q_obj(0, "Where did you go?", "WH")) + "\n"
BAD_UTF8_LINE2 = b"who\nwh\xffat\n"
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _file(path, content):
    if isinstance(content, str):
        content = content.encode("utf-8")
    path.write_bytes(content)
    return path


def _corpus_input(d):
    good = _file(d / "a.jsonl", CORPUS_LINE)
    bad = _file(d / "b.jsonl", json.dumps(utt_obj(0, "hi", dialogue="d2")) + "\n{oops\n")
    gold = _file(d / "gold.jsonl", GOLD_LINE)
    argv = ("train", "--input", good, bad, "--annotations", gold, "--output", d / "m.json")
    return argv, bad, "line 2: invalid JSON"


def _tsv(d):
    bad = _file(d / "t.tsv", "0\tA\thello\nx\tB\tworld\n")
    return ("ingest", "--input", bad, "--format", "tsv"), bad, "line 2: first column"


def _eaf(d):
    bad = _file(d / "s.eaf", '<?xml version="1.0"?>\n<ANNOTATION_DOCUMENT>\n<TIER></ANNOTATION_DOCUMENT>\n')
    return ("ingest", "--input", bad, "--format", "eaf"), bad, "line 3"


def _wh_map(d):
    corpus = _file(d / "c.jsonl", CORPUS_LINE)
    bad = _file(d / "map.txt", "where LOC\nwho\n")
    return ("classify", "--input", corpus, "--wh-map", bad), bad, "line 2: expected two columns"


def _wh_map_conflict(d):
    corpus = _file(d / "c.jsonl", CORPUS_LINE)
    bad = _file(d / "map.txt", "where LOC\nWHERE TMP\n")
    return ("classify", "--input", corpus, "--wh-map", bad), bad, "line 2: 'where' maps to TMP here but to LOC at line 1"


def _lexicon(d):
    corpus = _file(d / "c.jsonl", CORPUS_LINE)
    bad = _file(d / "wh.txt", BAD_UTF8_LINE2)
    return ("classify", "--input", corpus, "--lexicon", f"wh={bad}"), bad, f"{bad}:2: invalid UTF-8"


def _wordless_lexicon_entry(d):
    corpus = _file(d / "c.jsonl", CORPUS_LINE)
    bad = _file(d / "lex.txt", "you know\n?!\n")
    return ("classify", "--input", corpus, "--lexicon", f"cliche={bad}"), bad, "line 2: entry '?!' has no word tokens"


def _wordless_inline_entry(d):
    corpus = _file(d / "c.jsonl", CORPUS_LINE)
    bad = _file(d / "ext.json", json.dumps({"cliche_lexicon": ["you know", "?!"]}))
    argv = ("classify", "--input", corpus, "--extractor-config", bad)
    return argv, bad, "cliche_lexicon: entry '?!' has no word tokens"


def _config_lexicon(d):
    corpus = _file(d / "c.jsonl", CORPUS_LINE)
    lexicon = _file(d / "wh.txt", BAD_UTF8_LINE2)
    config = _file(d / "ext.json", json.dumps({"wh_lexicon": "wh.txt"}))
    # the config names the lexicon, so the message names both, outer first
    argv = ("classify", "--input", corpus, "--extractor-config", config)
    return argv, config, f"{lexicon}:2: invalid UTF-8"


def _missing_config_lexicon(d):
    corpus = _file(d / "c.jsonl", CORPUS_LINE)
    config = _file(d / "ext.json", json.dumps({"aux_lexicon": "nope.txt"}))
    argv = ("classify", "--input", corpus, "--extractor-config", config)
    return argv, config, f"aux_lexicon: cannot read {str(d / 'nope.txt')!r}: No such file or directory"


def _extractor_config(d):
    corpus = _file(d / "c.jsonl", CORPUS_LINE)
    bad = _file(d / "ext.json", '{\n  "similarity_threshold": 0.5,\n  oops\n}\n')
    return ("classify", "--input", corpus, "--extractor-config", bad), bad, "line 3: invalid JSON"


def _utf8_extractor_config(d):
    corpus = _file(d / "c.jsonl", CORPUS_LINE)
    bad = _file(d / "ext.json", b'{\n  "wh_lexicon": ["wh\xffat"]\n}\n')
    return ("classify", "--input", corpus, "--extractor-config", bad), bad, f"{bad}:2: invalid UTF-8"


def _utf8_model(d):
    corpus = _file(d / "c.jsonl", CORPUS_LINE)
    bad = _file(d / "m.json", b'{"version": 1,\n "root": "\xff"}\n')
    return ("classify", "--input", corpus, "--mode", "tree", "--model", bad), bad, f"{bad}:2: invalid UTF-8"


def _model(d):
    corpus = _file(d / "c.jsonl", CORPUS_LINE)
    bad = _file(d / "m.json", '{"version": 1,\n "root": }\n')
    return ("classify", "--input", corpus, "--mode", "tree", "--model", bad), bad, "line 2: invalid JSON"


def _annotations(d):
    pred = _file(d / "pred.jsonl", GOLD_LINE)
    bad = _file(d / "gold.jsonl", GOLD_LINE + json.dumps(q_obj(0, "Where", "XX")) + "\n")
    return ("evaluate", "--gold", bad, "--pred", pred), bad, "line 2: unknown tag 'XX'"


def _question_spans(d):
    corpus = _file(d / "c.jsonl", CORPUS_LINE)
    bad = _file(d / "spans.jsonl", GOLD_LINE + json.dumps(q_obj(9, "abc", "YN", dialogue="zzz")) + "\n")
    argv = ("classify", "--input", corpus, "--questions", bad)
    return argv, bad, "line 2: question zzz:9:0-3 has no matching utterance"


def _question_span_past_its_text(d):
    corpus = _file(d / "c.jsonl", CORPUS_LINE)
    bad = _file(d / "spans.jsonl", GOLD_LINE + json.dumps(q_obj(0, "abc", "YN", span=(9, 40))) + "\n")
    argv = ("classify", "--input", corpus, "--questions", bad)
    return argv, bad, "line 2: question d1:0:9-40: span exceeds utterance length 17"


def _training_annotations(d):
    corpus = _file(d / "c.jsonl", CORPUS_LINE)
    gold = _file(d / "gold.jsonl", GOLD_LINE)
    # line 1 repeats gold's question; line 3 is the first record of the over-long span
    long_span = json.dumps(q_obj(0, "Where did you go?", "YN", span=(0, 40))) + "\n"
    bad = _file(d / "more.jsonl", GOLD_LINE + "\n" + long_span + long_span)
    argv = ("train", "--input", corpus, "--annotations", gold, bad, "--output", d / "m.json")
    return argv, bad, "line 3: question d1:0:0-40: span exceeds utterance length 17"


def _padded_annotations(d):
    # a CRLF line, a padded line and a blank line hold no fault
    lines = [GOLD_LINE.replace("\n", "\r\n"), " " + json.dumps(q_obj(1, "abcd", "PQ")) + "  \n", "\n"]
    bad = _file(d / "padded.jsonl", "".join(lines) + json.dumps(q_obj(2, "abcd", "XX")))
    return ("validate", "--input", bad), bad, "line 4: unknown tag 'XX'"


def _long_tag(d):
    bad = _file(d / "gold.jsonl", json.dumps(q_obj(0, "abcd", "X" * 5000)) + "\n")
    return ("validate", "--input", bad), bad, f"line 1: unknown tag {'X' * 40!r}... (5000 characters)"


def _long_number(d):
    bad = _file(d / "n.tsv", "9" * 5000 + "\tA\thello\n")
    return ("ingest", "--input", bad, "--format", "tsv"), bad, "line 1: first column: integer too long"


INPUT_MAKERS = pytest.mark.parametrize(
    "make",
    [
        _corpus_input, _tsv, _eaf, _wh_map, _wh_map_conflict, _lexicon, _wordless_lexicon_entry,
        _wordless_inline_entry, _config_lexicon, _missing_config_lexicon, _extractor_config,
        _utf8_extractor_config, _model, _utf8_model, _annotations, _padded_annotations, _long_tag,
        _question_spans, _question_span_past_its_text, _training_annotations, _long_number,
    ],
)


def _bad_second_line(d, command, line):
    """The argv of ``command`` reading a JSON-lines input whose second line is ``line``, and that input."""
    first = CORPUS_LINE if command in ("ingest", "classify") else GOLD_LINE
    bad = _file(d / "bad.jsonl", first + line)
    argv = {
        "ingest": ("ingest", "--input", bad),
        "classify": ("classify", "--input", bad),
        "evaluate": ("evaluate", "--gold", bad, "--pred", _file(d / "p.jsonl", GOLD_LINE)),
        "validate": ("validate", "--input", bad),
    }[command]
    return argv, bad


class TestInputErrorsNameTheFile:
    @INPUT_MAKERS
    def test_every_input_kind(self, run_cli, tmp_path, make):
        argv, bad, where = make(tmp_path)
        code, _, err = run_cli(*argv)
        assert code == 2
        assert err.startswith(f"error: {bad}")
        assert where in err
        assert len(err.replace(str(tmp_path), "")) < 200  # a long value read from the file is cut
        assert "Traceback" not in err

    @INPUT_MAKERS
    def test_a_byte_order_mark_changes_nothing(self, run_cli, tmp_path, make):
        argv, bad, _ = make(tmp_path)
        plain = run_cli(*argv)
        _file(bad, codecs.BOM_UTF8 + bad.read_bytes())
        assert run_cli(*argv) == plain

    @pytest.mark.parametrize("command", ["ingest", "classify", "evaluate", "validate"])
    def test_deep_json_nesting_exits_two(self, run_cli, tmp_path, command):
        argv, deep = _bad_second_line(tmp_path, command, "[" * 100_000 + "\n")
        code, _, err = run_cli(*argv)
        assert code == 2
        assert err.startswith(f"error: {deep}: line 2: JSON nesting too deep")

    @pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="this interpreter has no integer digit limit")
    @pytest.mark.parametrize("command", ["ingest", "classify", "evaluate", "validate"])
    def test_integer_past_the_digit_limit_exits_two(self, run_cli, tmp_path, command):
        argv, big = _bad_second_line(tmp_path, command, '{"n": ' + "9" * (INT_DIGIT_LIMIT + 1) + "}\n")
        code, _, err = run_cli(*argv)
        assert code == 2
        assert err.startswith(f"error: {big}: line 2:")

    @pytest.mark.parametrize("command", ["ingest", "classify", "evaluate", "validate"])
    def test_lone_surrogate_exits_two(self, run_cli, tmp_path, command):
        argv, bad = _bad_second_line(tmp_path, command, '{"dialogue_id": "d\\udc00"}\n')
        out = tmp_path / "out.jsonl"
        code, _, err = run_cli(*argv, "--output", out)
        assert code == 2
        assert err == f"error: {bad}: line 2: string holds a lone surrogate\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, document, reason",
        [
            ("[1]", "[1]", "expected a JSON object"),
            ('{"version": }', '{\n"version": }', "line 2: invalid JSON: Expecting value"),
            ("[" * 3000 + "]" * 3000, "[" * 3000 + "]" * 3000, "JSON nesting too deep"),
            pytest.param(
                "[" + "9" * 5000 + "]", "[" + "9" * 5000 + "]", "integer too long",
                marks=pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="this interpreter has no integer digit limit"),
            ),
        ],
        ids=["not-an-object", "syntax", "nesting", "long-integer"],
    )
    def test_every_json_input_words_a_fault_alike(self, run_cli, tmp_path, line, document, reason):
        corpus = _file(tmp_path / "c.jsonl", CORPUS_LINE)
        annotations = _file(tmp_path / "gold.jsonl", GOLD_LINE + line + "\n")
        doc = _file(tmp_path / "doc.json", document + "\n")
        where = "" if reason.startswith("line 2: ") else "line 2: "  # a JSONL fault is on its line
        for argv, path, expected in [
            (("validate", "--input", annotations), annotations, where + reason),
            (("classify", "--input", corpus, "--extractor-config", doc), doc, reason),
            (("classify", "--input", corpus, "--mode", "tree", "--model", doc), doc, reason),
        ]:
            code, _, err = run_cli(*argv)
            assert (code, err) == (2, f"error: {path}: {expected}\n")

    def test_deep_extractor_config_exits_two(self, run_cli, tmp_path):
        corpus = _file(tmp_path / "c.jsonl", CORPUS_LINE)
        config = _file(tmp_path / "ext.json", '{"wh_lexicon": ' + "[" * 100_000)
        code, _, err = run_cli("classify", "--input", corpus, "--extractor-config", config)
        assert code == 2
        assert err.startswith(f"error: {config}: JSON nesting too deep")

    @pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="this interpreter has no integer digit limit")
    @pytest.mark.parametrize(
        "flags, field",
        [(("--extractor-config",), "similarity_threshold"), (("--mode", "tree", "--model"), "version")],
        ids=["extractor-config", "model"],
    )
    def test_integer_past_the_digit_limit_in_a_json_document_exits_two(self, run_cli, tmp_path, flags, field):
        corpus = _file(tmp_path / "c.jsonl", CORPUS_LINE)
        doc = _file(tmp_path / "doc.json", f'{{"{field}": ' + "9" * (INT_DIGIT_LIMIT + 1) + "}\n")
        code, _, err = run_cli("classify", "--input", corpus, *flags, doc)
        assert code == 2
        assert err == f"error: {doc}: integer too long\n"

    def test_gap_in_a_long_transcript_names_the_missing_turn(self, run_cli, tmp_path):
        lines = [f"{i}\tA\tline {i}\n" for i in range(5000) if i != 2500]
        src = _file(tmp_path / "long.tsv", "".join(lines))
        code, _, err = run_cli("ingest", "--input", src, "--format", "tsv")
        assert code == 2
        assert "turn 2500 missing between 2499 and 2501" in err
        assert len(err) < 300

    def test_gap_of_several_turns_names_the_range(self, run_cli, tmp_path):
        src = _file(tmp_path / "gap.tsv", "0\tA\ta\n1\tB\tb\n5\tA\tc\n")
        code, _, err = run_cli("ingest", "--input", src, "--format", "tsv")
        assert code == 2
        assert err == f"error: {src}: dialogue 'gap': turn indices not consecutive (turns 2-4 missing between 1 and 5)\n"

    def test_negative_limit_utterances(self, run_cli, tmp_path, train_corpus):
        corpus, gold = train_corpus
        code, _, err = run_cli(
            "train", "--input", corpus, "--annotations", gold,
            "--output", tmp_path / "m.json", "--limit-utterances", "-1",
        )
        assert code == 2
        assert err == "error: --limit-utterances must be non-negative, got -1\n"

    def test_train_without_output(self, run_cli, train_corpus):
        corpus, gold = train_corpus
        code, _, err = run_cli("train", "--input", corpus, "--annotations", gold)
        assert code == 2
        assert "--output" in err

    def test_latin1_eaf_honours_its_xml_declaration(self, run_cli, tmp_path):
        src = _file(
            tmp_path / "fr.eaf",
            '''<?xml version="1.0" encoding="ISO-8859-1"?>
<ANNOTATION_DOCUMENT>
  <TIME_ORDER><TIME_SLOT TIME_SLOT_ID="ts1" TIME_VALUE="0"/></TIME_ORDER>
  <TIER TIER_ID="spkA"><ANNOTATION>
    <ALIGNABLE_ANNOTATION ANNOTATION_ID="a1" TIME_SLOT_REF1="ts1">
      <ANNOTATION_VALUE>Tu es allé où ?</ANNOTATION_VALUE>
    </ALIGNABLE_ANNOTATION>
  </ANNOTATION></TIER>
</ANNOTATION_DOCUMENT>
'''.encode("latin-1"),
        )
        out = tmp_path / "fr.jsonl"
        code, _, _ = run_cli("ingest", "--input", src, "--format", "eaf", "--output", out)
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8"))["text"] == "Tu es allé où ?"


class TestUnopenableFiles:
    """A file that cannot be opened is named by its flag: ``FLAG: cannot read 'PATH': REASON``."""

    @pytest.fixture(autouse=True)
    def files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _file(tmp_path / "c.jsonl", CORPUS_LINE)
        _file(tmp_path / "gold.jsonl", GOLD_LINE)
        (tmp_path / "adir").mkdir()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("evaluate", "--gold", "nope.jsonl", "--pred", "gold.jsonl"),
             "--gold: cannot read 'nope.jsonl': No such file or directory"),
            (("evaluate", "--gold", "gold.jsonl", "--pred", "nope.jsonl"),
             "--pred: cannot read 'nope.jsonl': No such file or directory"),
            (("classify", "--input", "c.jsonl", "--wh-map", "missing.txt"),
             "--wh-map: cannot read 'missing.txt': No such file or directory"),
            (("classify", "--input", "c.jsonl", "--mode", "tree", "--model", "missing.json"),
             "--model: cannot read 'missing.json': No such file or directory"),
            (("classify", "--input", "c.jsonl", "--extractor-config", "missing.json"),
             "--extractor-config: cannot read 'missing.json': No such file or directory"),
            (("classify", "--input", "c.jsonl", "--questions", "adir"), "--questions: cannot read 'adir': Is a directory"),
            (("classify", "--input", "adir"), "--input: cannot read 'adir': Is a directory"),
            (("ingest", "--input", "adir"), "--input: cannot read 'adir': Is a directory"),
            (("ingest", "--input", "adir", "--format", "tsv"), "--input: cannot read 'adir': Is a directory"),
            (("ingest", "--input", "adir", "--format", "eaf"), "--input: cannot read 'adir': Is a directory"),
            (("train", "--input", "c.jsonl", "adir", "--annotations", "gold.jsonl", "--output", "m.json"),
             "--input: cannot read 'adir': Is a directory"),
            (("train", "--input", "c.jsonl", "--annotations", "gold.jsonl", "adir", "--output", "m.json"),
             "--annotations: cannot read 'adir': Is a directory"),
            (("agree", "--input", "gold.jsonl", "adir"), "--input: cannot read 'adir': Is a directory"),
            (("validate", "--input", "missing.jsonl"), "--input: cannot read 'missing.jsonl': No such file or directory"),
            (("validate", "--input", "gold.jsonl", "--output", "nodir/x.json"),
             "--output: cannot write 'nodir/x.json': No such file or directory"),
            (("validate", "--input", "gold.jsonl", "--output", "adir"), "--output: cannot write 'adir': Is a directory"),
        ],
        ids=[
            "evaluate-gold", "evaluate-pred", "classify-wh-map", "classify-model", "classify-extractor-config",
            "classify-questions", "classify-input-dir", "ingest-jsonl-dir", "ingest-tsv-dir", "ingest-eaf-dir",
            "train-input-dir", "train-annotations-dir", "agree-input-dir", "validate-input", "output-no-dir",
            "output-is-dir",
        ],
    )
    def test_names_flag_path_and_reason(self, run_cli, argv, message):
        code, _, err = run_cli(*argv)
        assert (code, err) == (2, f"error: {message}\n")

    def test_library_readers_still_raise_oserror(self, tmp_path):
        missing = tmp_path / "missing.txt"
        with pytest.raises(FileNotFoundError), open_input(missing):
            pass
        with pytest.raises(FileNotFoundError):
            load_lexicon(missing)
        with pytest.raises(FileNotFoundError):
            load_wh_feature_map(missing)


# Arbitrary input files for every file-reading command: broken JSON, wrong
# types, bad tags, invalid UTF-8, huge or negative numbers and deep nesting.
TAGS = st.sampled_from(["q", "a", "WH", "YN", "DQ", "CS", "PQ", "LOC", "AG", "TH", "PA", "FA", "UA", "XX", ""])
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([10**30, -(10**30), -1, 2**63]),
    st.floats(), st.text(max_size=12), TAGS,
)
REFS = st.one_of(st.sampled_from(["d1:0:0-17", "d1:1:0-6", "d1:0:0-999"]), st.text(max_size=12))
UTTERANCE = st.fixed_dictionaries(
    {"dialogue_id": st.sampled_from(["d1", "d2", ""]), "turn_index": st.integers(-2, 3),
     "speaker": st.sampled_from(["A", "B"]), "text": st.sampled_from(["Where did you go?", "really?", "or", " "])},
    optional={"interrupted": SCALARS, "language": st.sampled_from(["en", "nl", ""])},
)
Q_TYPES = st.one_of(st.sampled_from(["WH", "YN", "DQ", "CS", "PQ"]), TAGS)
ANNOTATION = st.one_of(
    st.builds(  # the question the other files annotate, so items align
        lambda q_type, annotator: q_obj(0, "Where did you go?", q_type, annotator=annotator),
        Q_TYPES, st.sampled_from(["g", "p"]),
    ),
    st.fixed_dictionaries(
        {"kind": st.just("q"), "dialogue_id": st.sampled_from(["d1", "d2"]), "turn_index": st.integers(-1, 3),
         "span_start": st.sampled_from([0, 7, -1, 20]), "span_end": st.sampled_from([17, 7, 0, 99, -1]),
         "q_type": Q_TYPES,
         "annotator_id": st.sampled_from(["g", "p"])},
        optional={"feature": st.one_of(st.none(), TAGS)},
    ),
    st.fixed_dictionaries(
        {"kind": st.just("a"), "dialogue_id": st.just("d1"), "turn_index": st.integers(-1, 3),
         "a_type": st.one_of(st.sampled_from(["PA", "NA", "FA", "PHA", "UA", "UT", "DA"]), TAGS),
         "question_ref": REFS, "annotator_id": st.sampled_from(["g", "p"])}
    ),
)
OTHER = st.dictionaries(
    st.sampled_from(["kind", "turn_index", "text", "wh_lexicon", "similarity_threshold", "cliche_length_cap", "version"]),
    st.one_of(SCALARS, st.lists(st.text(max_size=8), max_size=3)),
)
NODE = st.recursive(
    st.fixed_dictionaries({"label": TAGS, "distribution": st.dictionaries(TAGS, SCALARS, max_size=3)}),
    lambda child: st.fixed_dictionaries(
        {"feature": st.sampled_from([*FEATURE_NAMES, "zz"]), "threshold": SCALARS, "left": child, "right": child}
    ),
    max_leaves=6,
)
MODEL = st.fixed_dictionaries({"version": st.one_of(st.just(1), SCALARS), "root": NODE})
LINE = st.one_of(
    st.one_of(UTTERANCE, ANNOTATION, OTHER, MODEL).map(lambda obj: json.dumps(obj).encode()),
    st.text(max_size=30).map(str.encode),
    st.binary(max_size=30),
    st.integers(1, 100_000).map(lambda n: b"[" * n + b"{" * (n % 3)),
    st.tuples(st.integers(), st.sampled_from(["A", "B"]), st.text(max_size=20)).map(
        lambda row: "\t".join(map(str, row)).encode()
    ),
    st.tuples(st.sampled_from(["where", "who", "what"]), TAGS).map(lambda row: " ".join(row).encode()),
    st.sampled_from([
        b'<?xml version="1.0" encoding="UTF-8"?>', b"<ANNOTATION_DOCUMENT>", b"</ANNOTATION_DOCUMENT>",
        b'<TIME_ORDER><TIME_SLOT TIME_SLOT_ID="ts1" TIME_VALUE="x"/></TIME_ORDER>',
        b'<TIER TIER_ID="A"><ANNOTATION><ALIGNABLE_ANNOTATION TIME_SLOT_REF1="ts1">'
        b"<ANNOTATION_VALUE>hi?</ANNOTATION_VALUE></ALIGNABLE_ANNOTATION></ANNOTATION></TIER>",
    ]),
)
# Sequences of records alone reach past the first line more often than mixed ones.
CONTENT = st.one_of(
    st.lists(LINE, max_size=12),
    *(st.lists(records.map(lambda obj: json.dumps(obj).encode()), max_size=12) for records in (UTTERANCE, ANNOTATION)),
).map(b"\n".join)

FILE_KINDS = {
    "ingest-jsonl": ("ingest", "--input", "{f}"),
    "ingest-tsv": ("ingest", "--input", "{f}", "--format", "tsv"),
    "ingest-eaf": ("ingest", "--input", "{f}", "--format", "eaf"),
    "classify-input": ("classify", "--input", "{f}"),
    "classify-questions": ("classify", "--input", "{corpus}", "--questions", "{f}"),
    "classify-model": ("classify", "--input", "{corpus}", "--mode", "tree", "--model", "{f}"),
    "classify-lexicon": ("classify", "--input", "{corpus}", "--lexicon", "cliche={f}"),
    "classify-wh-map": ("classify", "--input", "{corpus}", "--wh-map", "{f}"),
    "classify-extractor-config": ("classify", "--input", "{corpus}", "--extractor-config", "{f}"),
    "train-input": ("train", "--input", "{f}", "--annotations", "{gold}", "--output", "{out}"),
    "train-annotations": ("train", "--input", "{corpus}", "--annotations", "{f}", "--output", "{out}"),
    "evaluate": ("evaluate", "--gold", "{f}", "--pred", "{gold}"),
    "agree": ("agree", "--input", "{f}", "{gold}"),
    "validate": ("validate", "--input", "{f}"),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    _file(d / "corpus.jsonl", CORPUS_LINE + json.dumps(utt_obj(1, "really?")) + "\n")
    _file(d / "gold.jsonl", GOLD_LINE + json.dumps(a_obj(1, "FA", "d1:0:0-17")) + "\n")
    return d


class TestAnyInputExitCode:
    @pytest.mark.parametrize("kind", sorted(FILE_KINDS))
    @settings(deadline=None)
    @given(content=CONTENT)
    def test_exits_0_1_or_2_without_a_traceback(self, fuzz_dir, kind, content):
        fuzzed = _file(fuzz_dir / "fuzzed", content)
        paths = {"f": fuzzed, "corpus": fuzz_dir / "corpus.jsonl", "gold": fuzz_dir / "gold.jsonl", "out": fuzz_dir / "m.json"}
        argv = [arg.format(**paths) for arg in FILE_KINDS[kind]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # an exception escaping main would end the process with a traceback
        assert code in ((0, 1, 2) if kind == "validate" else (0, 2))
        assert "Traceback" not in err.getvalue()


def _lines(*objs):
    return "".join(json.dumps(obj) + "\n" for obj in objs)


# each concrete error message README quotes -> (files written under README's names, the command's arguments)
README_ERRORS = {
    "error: --language applies only to --format tsv and eaf": (
        {"corpus.jsonl": CORPUS_LINE}, ["ingest", "--input", "corpus.jsonl", "--language", "en"]
    ),
    "error: spans.jsonl: line 2: question zzz:9:0-3 has no matching utterance": (
        {"corpus.jsonl": CORPUS_LINE, "spans.jsonl": GOLD_LINE + _lines(q_obj(9, "abc", "YN", dialogue="zzz"))},
        ["classify", "--input", "corpus.jsonl", "--questions", "spans.jsonl"],
    ),
    "error: map.txt: line 2: 'where' maps to TMP here but to LOC at line 1": (
        {"corpus.jsonl": CORPUS_LINE, "map.txt": "where LOC\nwhere TMP\n"},
        ["classify", "--input", "corpus.jsonl", "--wh-map", "map.txt"],
    ),
    "error: --model applies only to --mode tree": (
        {"corpus.jsonl": CORPUS_LINE}, ["classify", "--input", "corpus.jsonl", "--model", "model.json"]
    ),
    "error: --cliche-length-cap applies only to --mode rule": (
        {"corpus.jsonl": CORPUS_LINE},
        ["classify", "--input", "corpus.jsonl", "--mode", "tree", "--model", "model.json", "--cliche-length-cap", "3"],
    ),
    "error: max_depth must be >= 1 when set": (
        {"corpus.jsonl": CORPUS_LINE, "gold.jsonl": GOLD_LINE},
        ["train", "--input", "corpus.jsonl", "--annotations", "gold.jsonl", "--output", "model.json",
         "--max-depth", "0"],
    ),
    "error: min_samples_leaf must be >= 1": (
        {"corpus.jsonl": CORPUS_LINE, "gold.jsonl": GOLD_LINE},
        ["train", "--input", "corpus.jsonl", "--annotations", "gold.jsonl", "--output", "model.json",
         "--min-samples-leaf", "0"],
    ),
    "error: --gold: gold.jsonl holds questions of more than one annotator (anna, ben)": (
        {"gold.jsonl": _lines(q_obj(0, "Where?", "WH", annotator="anna"), q_obj(1, "Why?", "WH", annotator="ben")),
         "pred.jsonl": GOLD_LINE},
        ["evaluate", "--gold", "gold.jsonl", "--pred", "pred.jsonl"],
    ),
    "error: gold.jsonl: line 2: unknown tag 'XX'": (
        {"gold.jsonl": GOLD_LINE + _lines(q_obj(1, "Why?", "XX"))}, ["validate", "--input", "gold.jsonl"]
    ),
    "error: model.json: expected a JSON object": (
        {"corpus.jsonl": CORPUS_LINE, "model.json": "[]\n"},
        ["classify", "--input", "corpus.jsonl", "--mode", "tree", "--model", "model.json"],
    ),
    "error: b.jsonl: dialogue 'd' appears in more than one input": (
        {"a.jsonl": _lines(utt_obj(0, "Where?", dialogue="d")), "b.jsonl": _lines(utt_obj(1, "Why?", dialogue="d")),
         "gold.jsonl": _lines(q_obj(0, "Where?", "WH", dialogue="d"))},
        ["train", "--input", "a.jsonl", "b.jsonl", "--annotations", "gold.jsonl", "--output", "m.json"],
    ),
    "error: wh.txt:3: invalid UTF-8 at byte 5 of the line (invalid start byte)": (
        {"corpus.jsonl": CORPUS_LINE, "wh.txt": b"who\nwhere\nwhat\xff\n"},
        ["classify", "--input", "corpus.jsonl", "--lexicon", "wh=wh.txt"],
    ),
    "error: ext.json: aux_lexicon: cannot read 'nope.txt': No such file or directory": (
        {"corpus.jsonl": CORPUS_LINE, "ext.json": '{"aux_lexicon": "nope.txt"}\n'},
        ["classify", "--input", "corpus.jsonl", "--extractor-config", "ext.json"],
    ),
    "error: --gold: cannot read 'nope.jsonl': No such file or directory": (
        {"pred.jsonl": GOLD_LINE}, ["evaluate", "--gold", "nope.jsonl", "--pred", "pred.jsonl"]
    ),
    "error: --input: cannot read 'corpora': Is a directory": (
        {"corpora/corpus.jsonl": CORPUS_LINE}, ["ingest", "--input", "corpora", "--output", "corpus.jsonl"]
    ),
    "error: --output: cannot write 'nodir/x.json': No such file or directory": (
        {"gold.jsonl": GOLD_LINE}, ["validate", "--input", "gold.jsonl", "--output", "nodir/x.json"]
    ),
    "error: --annotator-id is not valid UTF-8": (
        {"corpus.jsonl": CORPUS_LINE}, ["classify", "--input", "corpus.jsonl", "--annotator-id", "\udcff"]
    ),
    "error: --language must be non-empty": (
        {"corpus.jsonl": CORPUS_LINE}, ["classify", "--input", "corpus.jsonl", "--language", ""]
    ),
}


class TestReadmeErrors:
    """Every error message README quotes, reproduced exactly by a command on the files it names."""

    def test_every_quoted_message_has_a_case(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        quoted = {" ".join(span.split()) for span in re.findall(r"`(error:\s[^`]*)`", text)}
        quoted.discard("error: FLAG: cannot read 'PATH': REASON")  # the template, not a message
        assert quoted == README_ERRORS.keys()

    @pytest.mark.parametrize("message", README_ERRORS)
    def test_the_command_ends_with_the_message(self, run_cli, tmp_path, monkeypatch, message):
        files, argv = README_ERRORS[message]
        for name, content in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            _file(tmp_path / name, content)
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(*argv)
        assert (code, err.splitlines()[-1]) == (2, message)
