"""The JSONL readers as they were before records were decoded on a fast path.

``read_annotations`` and ``parse_dialogue_jsonl`` below, with their helpers,
are kept verbatim as the reference the library's readers are compared with:
on any list of lines both give equal records, or raise the same exception
type with the same message.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Union

from qapkit import (
    AnswerAnnotation,
    AnswerType,
    Dialogue,
    DuplicateTurn,
    Feature,
    MalformedLine,
    QuestionAnnotation,
    QuestionType,
    UnknownTag,
    Utterance,
)


def _json_lines(lines: Iterable[str]) -> Iterator[tuple[int, dict]]:
    """(1-based line number, object) for each non-blank JSONL line; raises MalformedLine."""
    for line_no, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise MalformedLine(line_no, f"invalid JSON: {exc.msg}") from exc
        except RecursionError:
            raise MalformedLine(line_no, "JSON nesting too deep") from None
        except ValueError:  # an integer past the interpreter's digit limit
            raise MalformedLine(line_no, "integer too long") from None
        if not isinstance(obj, dict):
            raise MalformedLine(line_no, "expected a JSON object")
        yield line_no, obj


def _utterance_from_obj(obj: dict, line_no: int) -> tuple[Utterance, str]:
    dialogue_id, turn_index = _id_fields(obj, line_no)
    speaker = _require(obj, "speaker", line_no)
    if not isinstance(speaker, str):
        raise MalformedLine(line_no, "speaker must be a string")
    text = _require(obj, "text", line_no)
    if not isinstance(text, str) or not text.strip():
        raise MalformedLine(line_no, "text must be a non-empty string")
    interrupted = obj.get("interrupted", False)
    if not isinstance(interrupted, bool):
        raise MalformedLine(line_no, "interrupted must be a boolean")
    language = obj.get("language", "en")
    if not isinstance(language, str) or not language:
        raise MalformedLine(line_no, "language must be a non-empty string")
    return Utterance(dialogue_id, turn_index, speaker, text, interrupted), language


def parse_dialogue_jsonl(lines: Iterable[str]) -> list[Dialogue]:
    """Parse canonical dialogue JSONL into dialogues sorted by id.

    Blank lines are skipped. Raises MalformedLine (with the 1-based line
    number), DuplicateTurn, or NonDenseTurns.
    """
    by_dialogue: dict[str, dict[int, Utterance]] = {}
    languages: dict[str, str] = {}
    for line_no, obj in _json_lines(lines):
        utt, language = _utterance_from_obj(obj, line_no)
        turns = by_dialogue.setdefault(utt.dialogue_id, {})
        if utt.turn_index in turns:
            raise DuplicateTurn(utt.dialogue_id, utt.turn_index, line_no)
        turns[utt.turn_index] = utt
        known = languages.setdefault(utt.dialogue_id, language)
        if known != language:
            raise MalformedLine(
                line_no, f"conflicting language {language!r} for dialogue {utt.dialogue_id!r} (was {known!r})"
            )

    return [
        Dialogue(d, languages[d], tuple(turns[i] for i in sorted(turns))) for d, turns in sorted(by_dialogue.items())
    ]


def _require(obj: dict, key: str, line_no: int) -> object:
    if key not in obj:
        raise MalformedLine(line_no, f"missing field {key!r}")
    return obj[key]


def _tag(enum_cls, value: object, line_no: int):
    if isinstance(value, str):
        try:
            return enum_cls(value)
        except ValueError:
            pass
    raise UnknownTag(value, line_no)


def read_annotations(lines: Iterable[str]) -> list[Union[QuestionAnnotation, AnswerAnnotation]]:
    """Parse annotation JSONL into question and answer records, in file order.

    Each line is an object whose ``kind`` is "q" or "a". Unknown kinds and
    tag values raise UnknownTag; structural problems raise MalformedLine.
    """
    records: list[Union[QuestionAnnotation, AnswerAnnotation]] = []
    for line_no, obj in _json_lines(lines):
        kind = _require(obj, "kind", line_no)

        if kind == "q":
            dialogue_id, turn_index = _id_fields(obj, line_no)
            span_start = _require(obj, "span_start", line_no)
            span_end = _require(obj, "span_end", line_no)
            for name, value in (("span_start", span_start), ("span_end", span_end)):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise MalformedLine(line_no, f"{name} must be an integer")
            q_type = _tag(QuestionType, _require(obj, "q_type", line_no), line_no)
            raw_feature = obj.get("feature")
            feature = None if raw_feature is None else _tag(Feature, raw_feature, line_no)
            try:
                records.append(
                    QuestionAnnotation(
                        dialogue_id,
                        turn_index,
                        (span_start, span_end),
                        q_type,
                        feature,
                        _annotator(obj, line_no),
                    )
                )
            except ValueError as exc:
                raise MalformedLine(line_no, str(exc)) from exc
        elif kind == "a":
            dialogue_id, turn_index = _id_fields(obj, line_no)
            a_type = _tag(AnswerType, _require(obj, "a_type", line_no), line_no)
            question_ref = _require(obj, "question_ref", line_no)
            if not isinstance(question_ref, str) or not question_ref:
                raise MalformedLine(line_no, "question_ref must be a non-empty string")
            records.append(
                AnswerAnnotation(dialogue_id, turn_index, a_type, question_ref, _annotator(obj, line_no))
            )
        else:
            raise UnknownTag(kind, line_no)
    return records


def _id_fields(obj: dict, line_no: int) -> tuple[str, int]:
    dialogue_id = _require(obj, "dialogue_id", line_no)
    if not isinstance(dialogue_id, str) or not dialogue_id:
        raise MalformedLine(line_no, "dialogue_id must be a non-empty string")
    turn_index = _require(obj, "turn_index", line_no)
    if isinstance(turn_index, bool) or not isinstance(turn_index, int) or turn_index < 0:
        raise MalformedLine(line_no, "turn_index must be a non-negative integer")
    return dialogue_id, turn_index


def _annotator(obj: dict, line_no: int) -> str:
    annotator_id = _require(obj, "annotator_id", line_no)
    if not isinstance(annotator_id, str):
        raise MalformedLine(line_no, "annotator_id must be a string")
    return annotator_id
