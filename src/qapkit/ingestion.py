"""Readers and writers for dialogue transcripts and annotation files.

The canonical interchange format is JSONL with one utterance per line.
Tab-separated transcripts and ELAN ``.eaf`` exports are normalized into the
same canonical form. Turn indices inside a dialogue must form a consecutive
run but need not start at zero, so source line numbering survives ingestion.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Sequence, Union

from .model import (
    AnswerAnnotation,
    AnswerType,
    Feature,
    QuestionAnnotation,
    QuestionType,
    Utterance,
)


class IngestError(ValueError):
    """Base class for transcript and annotation parsing failures."""


class MalformedLine(IngestError):
    """A line that cannot be parsed into a record."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


class DuplicateTurn(IngestError):
    def __init__(self, dialogue_id: str, turn_index: int):
        super().__init__(f"duplicate turn {turn_index} in dialogue {dialogue_id!r}")


class NonDenseTurns(IngestError):
    """Turn indices of a dialogue do not form a consecutive run."""

    def __init__(self, dialogue_id: str, indices: Sequence[int]):
        before, after = next((a, b) for a, b in zip(indices, indices[1:]) if b != a + 1)
        missing = f"turn {before + 1}" if after == before + 2 else f"turns {before + 1}-{after - 1}"
        super().__init__(
            f"dialogue {dialogue_id!r}: turn indices not consecutive ({missing} missing between {before} and {after})"
        )


class EmptyTranscript(IngestError):
    """A transcript source yielded no utterances."""


class UnknownTag(IngestError):
    """A tag value outside its closed set."""

    def __init__(self, value: object, line_no: Optional[int] = None):
        where = f"line {line_no}: " if line_no is not None else ""
        super().__init__(f"{where}unknown tag {value!r}")
        self.value = value
        self.line_no = line_no


@contextmanager
def _naming(path: Union[str, Path]) -> Iterator[None]:
    """Put ``PATH: `` in front of a ValueError raised inside, keeping its type.

    Invalid UTF-8 becomes a ValueError naming ``PATH:LINE`` and the byte.
    """
    try:
        yield
    except UnicodeDecodeError as exc:
        with open(path, "rb") as raw:  # the decoder's error gives no line; find it in the bytes
            for line_no, line in enumerate(raw, 1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as bad:
                    raise ValueError(
                        f"{path}:{line_no}: invalid UTF-8 at byte {bad.start + 1} of the line ({bad.reason})"
                    ) from None
        raise ValueError(f"{path}: {exc}") from None
    except ValueError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


@contextmanager
def open_input(path: Union[str, Path]) -> Iterator[IO[str]]:
    """Open a UTF-8 text input file; every ValueError raised while it is open names it."""
    with _naming(path), open(path, encoding="utf-8") as f:
        yield f


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


@dataclass(frozen=True)
class Dialogue:
    """All turns of one conversation, sorted by turn index; the indices form a consecutive run."""

    dialogue_id: str
    language: str
    utterances: tuple[Utterance, ...]

    def __post_init__(self) -> None:
        if not self.language:
            raise ValueError("language must be non-empty")
        for u in self.utterances:
            if u.dialogue_id != self.dialogue_id:
                raise ValueError(f"utterance {u.turn_index} belongs to dialogue {u.dialogue_id!r}")
        indices = [u.turn_index for u in self.utterances]
        if indices != sorted(indices) or len(set(indices)) != len(indices):
            raise ValueError("utterances must be sorted by distinct turn_index")
        # consecutive, not necessarily 0-based: t, t+1, ..., t+n-1
        if indices and indices[-1] - indices[0] != len(indices) - 1:
            raise NonDenseTurns(self.dialogue_id, indices)


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
            raise DuplicateTurn(utt.dialogue_id, utt.turn_index)
        turns[utt.turn_index] = utt
        known = languages.setdefault(utt.dialogue_id, language)
        if known != language:
            raise MalformedLine(
                line_no, f"conflicting language {language!r} for dialogue {utt.dialogue_id!r} (was {known!r})"
            )

    return [
        Dialogue(d, languages[d], tuple(turns[i] for i in sorted(turns))) for d, turns in sorted(by_dialogue.items())
    ]


def _strip_interruption(text: str, marker: str) -> tuple[str, bool]:
    if marker and text.endswith(marker):
        return text[: -len(marker)].rstrip(), True
    return text, False


def parse_tsv_transcript(
    lines: Iterable[str],
    dialogue_id: str = "transcript",
    language: str = "en",
    interruption_marker: str = "--",
) -> list[Dialogue]:
    """Parse a three-column transcript: line number, speaker, text.

    Columns are tab-separated; further tabs stay inside the text column. A
    trailing interruption marker is stripped from the text and sets the
    utterance's interrupted flag. The source line number becomes the turn
    index, so the run must be consecutive.
    """
    turns: dict[int, Utterance] = {}
    for line_no, raw in enumerate(lines, start=1):
        stripped = raw.rstrip("\n")
        if not stripped.strip():
            continue
        parts = stripped.split("\t", 2)
        if len(parts) != 3:
            raise MalformedLine(line_no, f"expected 3 tab-separated columns, got {len(parts)}")
        try:
            turn_index = int(parts[0])
        except ValueError:
            raise MalformedLine(line_no, f"first column must be an integer, got {parts[0]!r}") from None
        if turn_index < 0:
            raise MalformedLine(line_no, "turn number must be non-negative")
        text, interrupted = _strip_interruption(parts[2].strip(), interruption_marker)
        if not text:
            raise MalformedLine(line_no, "empty text")
        if turn_index in turns:
            raise DuplicateTurn(dialogue_id, turn_index)
        turns[turn_index] = Utterance(dialogue_id, turn_index, parts[1].strip(), text, interrupted)

    if not turns:
        raise EmptyTranscript("transcript has no utterances")
    return [Dialogue(dialogue_id, language, tuple(turns[i] for i in sorted(turns)))]


def parse_eaf(
    source: Union[str, Path, IO[bytes], IO[str]],
    dialogue_id: Optional[str] = None,
    language: str = "en",
    interruption_marker: str = "--",
) -> list[Dialogue]:
    """Parse a minimal ELAN .eaf export into one dialogue.

    Alignable annotations from all tiers are merged and ordered by the
    TIME_VALUE of their start time slot. A slot without a value keeps its
    document position in TIME_ORDER, right after the slot listed before it.
    The tier's PARTICIPANT attribute, falling back to TIER_ID, names the
    speaker. An annotation left empty once the interruption marker is
    stripped is dropped, and the kept ones get turn indices 0..n-1 in
    temporal order. The XML declaration's encoding is honoured; given a
    path, errors name it.
    """
    if dialogue_id is None:
        dialogue_id = Path(source).stem if isinstance(source, (str, Path)) else "eaf"
    with _naming(source) if isinstance(source, (str, Path)) else nullcontext():
        try:
            root = ET.parse(source).getroot()
        except ET.ParseError as exc:
            raise IngestError(f"invalid .eaf XML: {exc}") from exc

        slot_key: dict[str, tuple[float, int]] = {}  # slot id -> (time, document position)
        time = float("-inf")
        for i, slot in enumerate(root.iter("TIME_SLOT")):
            slot_id = slot.get("TIME_SLOT_ID")
            if slot_id is None:
                continue
            value = slot.get("TIME_VALUE")
            if value is not None:
                try:
                    time = int(value)
                except ValueError:
                    raise IngestError(
                        f"time slot {slot_id!r} has a non-integer TIME_VALUE {value!r}"
                    ) from None
            slot_key[slot_id] = (time, i)

        entries = []  # (sort key, tier position, speaker, text)
        for tier_pos, tier in enumerate(root.iter("TIER")):
            speaker = tier.get("PARTICIPANT") or tier.get("TIER_ID") or "unknown"
            for ann in tier.iter("ALIGNABLE_ANNOTATION"):
                ref1 = ann.get("TIME_SLOT_REF1")
                if ref1 is None or ref1 not in slot_key:
                    raise IngestError(f"annotation without a resolvable TIME_SLOT_REF1 in tier {speaker!r}")
                value = ann.find("ANNOTATION_VALUE")
                text = (value.text or "") if value is not None else ""
                text = text.strip()
                if not text:
                    continue
                entries.append((slot_key[ref1], tier_pos, speaker, text))

        if not entries:
            raise EmptyTranscript("eaf source has no non-empty alignable annotations")
        entries.sort(key=lambda e: (e[0], e[1]))
        utterances = []
        for _, _, speaker, text in entries:
            text, interrupted = _strip_interruption(text, interruption_marker)
            if text:
                utterances.append(Utterance(dialogue_id, len(utterances), speaker, text, interrupted))
        if not utterances:
            raise EmptyTranscript("eaf source has no usable annotations")
        return [Dialogue(dialogue_id, language, tuple(utterances))]


def write_dialogues(dialogues: Iterable[Dialogue], stream: IO[str]) -> None:
    """Write dialogues as canonical JSONL, one utterance per line."""
    for dialogue in dialogues:
        for u in dialogue.utterances:
            obj = {
                "dialogue_id": u.dialogue_id,
                "turn_index": u.turn_index,
                "speaker": u.speaker,
                "text": u.text,
                "interrupted": u.interrupted,
                "language": dialogue.language,
            }
            stream.write(json.dumps(obj, ensure_ascii=False) + "\n")


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


def write_annotations(
    records: Iterable[Union[QuestionAnnotation, AnswerAnnotation]], stream: IO[str]
) -> None:
    """Write annotation records as JSONL with a fixed key order."""
    for rec in records:
        if isinstance(rec, QuestionAnnotation):
            obj = {
                "kind": "q",
                "dialogue_id": rec.dialogue_id,
                "turn_index": rec.turn_index,
                "span_start": rec.span[0],
                "span_end": rec.span[1],
                "q_type": rec.q_type.value,
                "feature": rec.feature.value if rec.feature is not None else None,
                "annotator_id": rec.annotator_id,
            }
        elif isinstance(rec, AnswerAnnotation):
            obj = {
                "kind": "a",
                "dialogue_id": rec.dialogue_id,
                "turn_index": rec.turn_index,
                "a_type": rec.a_type.value,
                "question_ref": rec.question_ref,
                "annotator_id": rec.annotator_id,
            }
        else:
            raise TypeError(f"not an annotation record: {rec!r}")
        stream.write(json.dumps(obj, ensure_ascii=False) + "\n")
