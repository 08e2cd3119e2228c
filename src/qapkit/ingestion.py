"""Readers and writers for dialogue transcripts and annotation files.

The canonical interchange format is JSONL with one utterance per line.
Tab-separated transcripts and ELAN ``.eaf`` exports are normalized into the
same canonical form. Turn indices inside a dialogue must form a consecutive
run but need not start at zero, so source line numbering survives ingestion.
"""

from __future__ import annotations

import json
import re
import reprlib
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Optional, Sequence, TypeVar, Union

from .model import (
    AnswerAnnotation,
    AnswerType,
    Feature,
    QuestionAnnotation,
    QuestionType,
    Utterance,
    checked_record,
)

T = TypeVar("T")


class IngestError(ValueError):
    """Base class for transcript and annotation parsing failures."""


class MalformedLine(IngestError):
    """A line that cannot be parsed into a record."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


class DuplicateTurn(MalformedLine):
    """A record repeating a turn of its dialogue; ``line_no`` is the repeat's line."""

    def __init__(self, dialogue_id: str, turn_index: int, line_no: int):
        super().__init__(line_no, f"duplicate turn {turn_index} in dialogue {dialogue_id!r}")


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


class UnknownTag(MalformedLine):
    """A tag value outside its closed set."""

    def __init__(self, value: object, line_no: int):
        super().__init__(line_no, f"unknown tag {_shown(value)}")
        self.value = value


@contextmanager
def _naming(path: Union[str, Path]) -> Iterator[None]:
    """Put ``PATH: `` in front of a ValueError raised inside, keeping its type.

    Invalid UTF-8 becomes a ValueError naming ``PATH:LINE`` and the byte.
    Lines end at LF, CRLF or CR, as text-mode reading counts them.
    """
    try:
        yield
    except UnicodeDecodeError as exc:
        with open(path, "rb") as raw:  # the decoder's error gives no line; find it in the bytes
            # a chunk ends at LF, so no CRLF is split between two chunks
            lines = (line for chunk in raw for line in chunk.splitlines())
            for line_no, line in enumerate(lines, 1):
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
def _cannot(verb: str, name: str, path: Union[str, Path]) -> Iterator[None]:
    """Turn an OSError raised inside into the ValueError ``NAME: cannot VERB 'PATH': REASON``."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"{name}: cannot {verb} {str(path)!r}: {exc.strerror or exc}") from None


@contextmanager
def open_input(path: Union[str, Path]) -> Iterator[IO[str]]:
    """Open a UTF-8 text input file, skipping a leading byte-order mark; a ValueError raised while open names it."""
    with _naming(path), open(path, encoding="utf-8-sig") as f:
        yield f


def decode_json(text: str, line_no: Optional[int] = None) -> dict:
    """The JSON object in ``text``: a whole document, or the JSONL line ``line_no``.

    A fault is a MalformedLine at ``line_no``. In a whole document, invalid
    JSON is a MalformedLine at the error's line; any other fault is an IngestError.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedLine(line_no or exc.lineno, f"invalid JSON: {exc.msg}") from exc
    except RecursionError:
        reason = "JSON nesting too deep"
    except ValueError:  # an integer past the interpreter's digit limit
        reason = "integer too long"
    else:
        if isinstance(obj, dict):
            return obj
        reason = "expected a JSON object"
    raise IngestError(reason) if line_no is None else MalformedLine(line_no, reason)


_raw_decode = json.JSONDecoder().raw_decode


def _json_record(raw: str, line_no: int, build: Callable[[dict, int], T]) -> Optional[T]:
    """build(object, line_no) of the JSONL line ``raw``, or None for a line of only whitespace.

    Any JSON layout is taken: keys in any order, extra keys, escapes. A line
    may carry JSON whitespace (space, tab, CR, LF) around its object. Raises
    MalformedLine for a line that is not one JSON object (see decode_json),
    for a field name or string value holding a lone surrogate (UTF-8 cannot
    write it), and for a field ``build`` reads by subscription that is missing.
    """
    try:  # a clean line decodes once; any other goes through decode_json, which words the fault
        obj, end = _raw_decode(raw)
        clean = type(obj) is dict and not raw[end:].strip(" \t\n\r")
    except (ValueError, RecursionError):
        clean = False
    if not clean:
        if not raw.strip():
            return None
        obj = decode_json(raw, line_no)
    if "\\u" in raw:  # in text decoded from UTF-8, only a \u escape can spell a surrogate
        try:
            "".join(s for item in obj.items() for s in item if type(s) is str).encode()
        except UnicodeEncodeError:
            raise MalformedLine(line_no, "string holds a lone surrogate") from None
    try:
        return build(obj, line_no)
    except KeyError as exc:
        raise MalformedLine(line_no, f"missing field {exc.args[0]!r}") from None


# The documented line layouts (README "File formats"), which the writers emit.
# A string group takes only text JSON decodes to itself: no quote, backslash or
# U+0000-U+001F. A number group takes only a non-negative integer in JSON's
# spelling; [0-9], not \d, which takes other scripts' digits too.
_STRING = r'"([^"\\\x00-\x1f]*)"'
_NON_EMPTY = r'"([^"\\\x00-\x1f]+)"'
_NUMBER = "(0|[1-9][0-9]{0,17})"
_UTTERANCE_LINE = re.compile(
    f'{{"dialogue_id": {_NON_EMPTY}, "turn_index": {_NUMBER}, "speaker": {_STRING}, "text": {_STRING}, '
    f'"interrupted": (true|false), "language": {_NON_EMPTY}}}\n?'
)
_QUESTION_LINE = re.compile(
    f'{{"kind": "q", "dialogue_id": {_NON_EMPTY}, "turn_index": {_NUMBER}, "span_start": {_NUMBER}, '
    f'"span_end": {_NUMBER}, "q_type": {_STRING}, "feature": (?:null|{_STRING}), "annotator_id": {_STRING}}}\n?'
)
_ANSWER_LINE = re.compile(
    f'{{"kind": "a", "dialogue_id": {_NON_EMPTY}, "turn_index": {_NUMBER}, "a_type": {_STRING}, '
    f'"question_ref": {_NON_EMPTY}, "annotator_id": {_STRING}}}\n?'
)


def _records(
    lines: Iterable[str], from_line: Callable[[str], Optional[T]], build: Callable[[dict, int], T]
) -> Iterator[tuple[int, T]]:
    """(1-based line number, record) for each non-blank JSONL line.

    ``from_line`` gives the record of a line in its documented layout, or
    None for any other line; a value the record types or tag tables refuse
    raises KeyError or ValueError there. A line it gives no record for goes
    through _json_record with ``build``, which gives the same record for a
    line that holds one and words the fault of a line that does not.
    """
    for line_no, raw in enumerate(lines, start=1):
        try:
            record = from_line(raw)
        except (KeyError, ValueError):  # a bad value in the layout
            record = None
        if record is None:
            record = _json_record(raw, line_no, build)
            if record is None:  # a blank line
                continue
        yield line_no, record


class Dialogue(checked_record("Dialogue", "dialogue_id language utterances")):
    """All turns of one conversation, sorted by turn index; the indices form a consecutive run."""

    __slots__ = ()

    def __new__(cls, dialogue_id: str, language: str, utterances: tuple[Utterance, ...]):
        if not language:
            raise ValueError("language must be non-empty")
        for u in utterances:
            if u.dialogue_id != dialogue_id:
                raise ValueError(f"utterance {u.turn_index} belongs to dialogue {u.dialogue_id!r}")
        indices = [u.turn_index for u in utterances]
        if indices != sorted(indices) or len(set(indices)) != len(indices):
            raise ValueError("utterances must be sorted by distinct turn_index")
        # consecutive, not necessarily 0-based: t, t+1, ..., t+n-1
        if indices and indices[-1] - indices[0] != len(indices) - 1:
            raise NonDenseTurns(dialogue_id, indices)
        return tuple.__new__(cls, (dialogue_id, language, utterances))


def _utterance_from_obj(obj: dict, line_no: int) -> tuple[Utterance, str]:
    """(utterance, language) of one JSONL object; every ``obj[key]`` must be a required field.

    ``_json_record`` reports a KeyError raised here or in ``_id_fields`` as that field missing.
    """
    dialogue_id, turn_index = _id_fields(obj, line_no)
    speaker = obj["speaker"]
    if type(speaker) is not str:
        raise MalformedLine(line_no, "speaker must be a string")
    speaker = sys.intern(speaker)
    text = obj["text"]
    if not isinstance(text, str) or not text.strip():
        raise MalformedLine(line_no, "text must be a non-empty string")
    interrupted = obj.get("interrupted", False)
    if not isinstance(interrupted, bool):
        raise MalformedLine(line_no, "interrupted must be a boolean")
    language = obj.get("language", "en")
    if not isinstance(language, str) or not language:
        raise MalformedLine(line_no, "language must be a non-empty string")
    return Utterance(dialogue_id, turn_index, speaker, text, interrupted), language


def _utterance_from_line(raw: str) -> Optional[tuple[Utterance, str]]:
    """(utterance, language) of a line in the documented layout, or None for any other line; blank text raises."""
    match = _UTTERANCE_LINE.fullmatch(raw)
    if match is None:
        return None
    dialogue_id, turn_index, speaker, text, interrupted, language = match.groups()
    utt = Utterance(sys.intern(dialogue_id), int(turn_index), sys.intern(speaker), text, interrupted == "true")
    return utt, language


def parse_dialogue_jsonl(lines: Iterable[str]) -> list[Dialogue]:
    """Parse canonical dialogue JSONL into dialogues sorted by id.

    Blank lines are skipped. A line in the documented layout is read from
    its text alone; any other goes through the JSON decoder, with the same
    result (see _records). Raises MalformedLine (with the 1-based line
    number; DuplicateTurn is one) or NonDenseTurns. Utterances with the same
    dialogue id or speaker share one string object.
    """
    by_dialogue: dict[str, dict[int, Utterance]] = {}
    languages: dict[str, str] = {}
    for line_no, (utt, language) in _records(lines, _utterance_from_line, _utterance_from_obj):
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


def _whole_number(text: str) -> int:
    """The integer ``text`` spells as an optional ``-`` and the digits 0-9, spaces around allowed.

    Raises ValueError for anything else ``int`` would take: ``+``, ``_``, non-ASCII digits.
    Digits past the interpreter's limit raise OverflowError("integer too long").
    """
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("not a whole number")
    try:
        return int(text)
    except ValueError:
        raise OverflowError("integer too long") from None


def _shown(value: object) -> str:
    """``repr(value)``; a string (or another value's repr) past 40 characters shows its first 40 and its length."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 40 else f"{value[:40]!r}... ({len(value)} characters)"
    try:
        text = repr(value)
    except RecursionError:  # a JSON value nested almost as deep as the decoder takes
        return reprlib.repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


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
            turn_index = _whole_number(parts[0])
        except OverflowError as exc:
            raise MalformedLine(line_no, f"first column: {exc}") from None
        except ValueError:
            raise MalformedLine(line_no, f"first column must be an integer, got {_shown(parts[0])}") from None
        if turn_index < 0:
            raise MalformedLine(line_no, "turn number must be non-negative")
        text, interrupted = _strip_interruption(parts[2].strip(), interruption_marker)
        if not text:
            raise MalformedLine(line_no, "empty text")
        if turn_index in turns:
            raise DuplicateTurn(dialogue_id, turn_index, line_no)
        turns[turn_index] = Utterance(dialogue_id, turn_index, parts[1].strip(), text, interrupted)

    if not turns:
        raise EmptyTranscript("transcript has no utterances")
    return [Dialogue(dialogue_id, language, tuple(turns[i] for i in sorted(turns)))]


def parse_eaf(
    path: Union[str, Path],
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
    temporal order. The XML declaration's encoding is honoured; errors name
    the file.
    """
    import xml.etree.ElementTree as ET  # here, not at the top: no other command reads XML
    if dialogue_id is None:
        dialogue_id = Path(path).stem
    with _naming(path):
        try:
            root = ET.parse(path).getroot()
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
                    time = _whole_number(value)
                except OverflowError as exc:
                    raise IngestError(f"time slot {_shown(slot_id)} TIME_VALUE: {exc}") from None
                except ValueError:
                    raise IngestError(
                        f"time slot {_shown(slot_id)} has a non-integer TIME_VALUE {_shown(value)}"
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


# the C escaper json.dumps(..., ensure_ascii=False) uses: the quoted JSON string
_quote = json.encoder.encode_basestring
# the C escaper of json.dumps' default (ensure_ascii=True): non-ASCII as \u escapes
_ascii = json.encoder.encode_basestring_ascii


def write_json(doc: Any, stream: IO[str]) -> None:
    """Write ``doc`` exactly as ``json.dump(doc, stream, indent=2, sort_keys=True)`` does.

    Dict keys must be strings. Strings, a string enum's members among them
    (each written as its string), go through the C escaper, other
    scalars through ``json.dumps``. Lists, tuples and dicts are written one
    element at a time, so a long document is never held as one string. A
    named-tuple record is a tuple, written as an array as ``json.dump`` does;
    pass its ``_asdict()`` to write it as an object.
    """
    _write_json(doc, "", stream.write)


def _write_json(o: Any, pad: str, write: Callable[[str], object]) -> None:
    """Write ``o`` where the stream stands; each line after its first is indented by ``pad``."""
    if isinstance(o, str):
        write(_ascii(o))
    elif isinstance(o, (list, tuple, dict)):
        if not o:
            write("{}" if isinstance(o, dict) else "[]")
            return
        inner = pad + "  "
        if isinstance(o, dict):
            opener, closer = "{\n", f"\n{pad}}}"
            items = ((f"{_ascii(key)}: ", value) for key, value in sorted(o.items()))
        else:
            opener, closer = "[\n", f"\n{pad}]"
            items = (("", value) for value in o)
        lead = opener + inner
        for prefix, value in items:
            if isinstance(value, str):
                write(lead + prefix + _ascii(value))
            else:
                write(lead + prefix)
                _write_json(value, inner, write)
            lead = ",\n" + inner
        write(closer)
    else:
        write(json.dumps(o))


def write_dialogues(dialogues: Iterable[Dialogue], stream: IO[str]) -> None:
    """Write dialogues as canonical JSONL, one utterance per line, in README's layout."""
    for dialogue in dialogues:
        language = _quote(dialogue.language)
        for u in dialogue.utterances:
            stream.write(
                f'{{"dialogue_id": {_quote(u.dialogue_id)}, "turn_index": {u.turn_index!r}, '
                f'"speaker": {_quote(u.speaker)}, "text": {_quote(u.text)}, '
                f'"interrupted": {"true" if u.interrupted else "false"}, "language": {language}}}\n'
            )


# tag value -> member for each closed tagset of the annotation records; only a
# string is looked up, since a list or dict value is unhashable (and unknown too)
_QUESTION_TYPES, _FEATURES, _ANSWER_TYPES = (
    {member.value: member for member in tags} for tags in (QuestionType, Feature, AnswerType)
)


def _annotation_from_obj(obj: dict, line_no: int) -> Union[QuestionAnnotation, AnswerAnnotation]:
    """The record of one JSONL object; every ``obj[key]`` must be a required field.

    ``_json_record`` reports a KeyError raised here or in ``_id_fields`` as that field missing.
    """
    kind = obj["kind"]
    if kind != "q" and kind != "a":
        raise UnknownTag(kind, line_no)
    dialogue_id, turn_index = _id_fields(obj, line_no)
    if kind == "a":
        value = obj["a_type"]
        a_type = _ANSWER_TYPES.get(value) if type(value) is str else None
        if a_type is None:
            raise UnknownTag(value, line_no)
        question_ref = obj["question_ref"]
        if type(question_ref) is not str or not question_ref:
            raise MalformedLine(line_no, "question_ref must be a non-empty string")
        annotator_id = obj["annotator_id"]
        if type(annotator_id) is not str:
            raise MalformedLine(line_no, "annotator_id must be a string")
        return AnswerAnnotation(dialogue_id, turn_index, a_type, question_ref, sys.intern(annotator_id))
    span = obj["span_start"], obj["span_end"]
    for name, value in zip(("span_start", "span_end"), span):
        if type(value) is not int:
            raise MalformedLine(line_no, f"{name} must be an integer")
    value = obj["q_type"]
    q_type = _QUESTION_TYPES.get(value) if type(value) is str else None
    if q_type is None:
        raise UnknownTag(value, line_no)
    value = obj.get("feature")
    feature = _FEATURES.get(value) if type(value) is str else None
    if feature is None and value is not None:
        raise UnknownTag(value, line_no)
    annotator_id = obj["annotator_id"]
    if type(annotator_id) is not str:
        raise MalformedLine(line_no, "annotator_id must be a string")
    try:
        return QuestionAnnotation(dialogue_id, turn_index, span, q_type, feature, sys.intern(annotator_id))
    except ValueError as exc:
        raise MalformedLine(line_no, str(exc)) from exc


def _annotation_from_line(raw: str) -> Union[QuestionAnnotation, AnswerAnnotation, None]:
    """The record of a line in a documented layout, or None for any other line; a bad tag or span raises."""
    match = _QUESTION_LINE.fullmatch(raw)
    if match is not None:
        dialogue_id, turn_index, start, end, q_type, value, annotator_id = match.groups()
        q_type, span = _QUESTION_TYPES[q_type], (int(start), int(end))
        feature = _FEATURES[value] if value is not None else None
        return QuestionAnnotation(
            sys.intern(dialogue_id), int(turn_index), span, q_type, feature, sys.intern(annotator_id)
        )
    match = _ANSWER_LINE.fullmatch(raw)
    if match is None:
        return None
    dialogue_id, turn_index, a_type, question_ref, annotator_id = match.groups()
    a_type = _ANSWER_TYPES[a_type]
    return AnswerAnnotation(sys.intern(dialogue_id), int(turn_index), a_type, question_ref, sys.intern(annotator_id))


def read_annotations(lines: Iterable[str]) -> list[Union[QuestionAnnotation, AnswerAnnotation]]:
    """Parse annotation JSONL into question and answer records, in file order.

    Each line is an object whose ``kind`` is "q" or "a". A line in its
    kind's documented layout is read from its text alone; any other goes
    through the JSON decoder, with the same result (see _records). Unknown
    kinds and tag values raise UnknownTag; structural problems raise
    MalformedLine. Records with the same dialogue or annotator id share one
    string object.
    """
    return [record for _, record in _records(lines, _annotation_from_line, _annotation_from_obj)]


def _id_fields(obj: dict, line_no: int) -> tuple[str, int]:
    """(dialogue id, turn index) of one JSONL object; the id is interned, so a dialogue's records share it."""
    dialogue_id = obj["dialogue_id"]
    if type(dialogue_id) is not str or not dialogue_id:
        raise MalformedLine(line_no, "dialogue_id must be a non-empty string")
    turn_index = obj["turn_index"]
    if type(turn_index) is not int or turn_index < 0:
        raise MalformedLine(line_no, "turn_index must be a non-negative integer")
    return sys.intern(dialogue_id), turn_index


def write_annotations(
    records: Iterable[Union[QuestionAnnotation, AnswerAnnotation]], stream: IO[str]
) -> None:
    """Write annotation records as JSONL, one per line, in README's layout."""
    for rec in records:
        if isinstance(rec, QuestionAnnotation):
            feature = _quote(rec.feature.value) if rec.feature is not None else "null"
            line = (
                f'{{"kind": "q", "dialogue_id": {_quote(rec.dialogue_id)}, "turn_index": {rec.turn_index!r}, '
                f'"span_start": {rec.span[0]!r}, "span_end": {rec.span[1]!r}, "q_type": {_quote(rec.q_type.value)}, '
                f'"feature": {feature}, "annotator_id": {_quote(rec.annotator_id)}}}\n'
            )
        elif isinstance(rec, AnswerAnnotation):
            line = (
                f'{{"kind": "a", "dialogue_id": {_quote(rec.dialogue_id)}, "turn_index": {rec.turn_index!r}, '
                f'"a_type": {_quote(rec.a_type.value)}, "question_ref": {_quote(rec.question_ref)}, '
                f'"annotator_id": {_quote(rec.annotator_id)}}}\n'
            )
        else:
            raise TypeError(f"not an annotation record: {rec!r}")
        stream.write(line)
