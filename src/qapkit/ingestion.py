"""Readers and writers for dialogue transcripts and annotation files.

The canonical interchange format is JSONL with one utterance per line.
Tab-separated transcripts and ELAN ``.eaf`` exports are normalized into the
same canonical form. Turn indices inside a dialogue must form a consecutive
run but need not start at zero, so source line numbering survives ingestion.

Each JSONL record kind (utterance, question, answer) is stated once, as a
table of its fields: ``_UTTERANCE``, ``_QUESTION`` and ``_ANSWER``. The
readers' line layouts and the checks of their JSON path are built from them.
"""

from __future__ import annotations

import json
import re
import reprlib
from collections.abc import Iterator
from contextlib import contextmanager
from functools import partial
from itertools import islice, repeat
from pathlib import Path
from sys import intern
from typing import IO, Any, Callable, Iterable, Optional, Sequence, Union

from .model import (
    AnswerAnnotation,
    AnswerType,
    Feature,
    QuestionAnnotation,
    QuestionType,
    Utterance,
    checked_record,
)


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


# tag value -> member for each closed tagset of the annotation records
_QUESTION_TYPES, _FEATURES, _ANSWER_TYPES = (
    {member.value: member for member in tags} for tags in (QuestionType, Feature, AnswerType)
)
# a feature group holds the value as JSON spells it: null, or a tag in quotes
_FEATURE_SPELLINGS = {"null": None, **{json.dumps(tag): member for tag, member in _FEATURES.items()}}

# A field's value kind: (its group in the documented layout; what the JSON
# path's message says a value must be, or None for a tag, whose fault is an
# UnknownTag; the test a decoded value passes). A group between quotes holds a
# string's text, and takes only text JSON decodes to itself: no quote,
# backslash or U+0000-U+001F. Any other group holds the value as JSON spells
# it. A number group takes only a non-negative integer in JSON's spelling;
# [0-9], not \d, which takes other scripts' digits too. A tag test looks up
# only a string, since a list or dict value is unhashable.
_QUOTED = r'"([^"\\\x00-\x1f]*)"'
_DIGITS = "(0|[1-9][0-9]{0,17})"
_ID = (r'"([^"\\\x00-\x1f]+)"', "a non-empty string", lambda v: type(v) is str and v != "")
_COUNT = (_DIGITS, "a non-negative integer", lambda v: type(v) is int and v >= 0)
_INTEGER = (_DIGITS, "an integer", lambda v: type(v) is int)
_STRING = (_QUOTED, "a string", lambda v: type(v) is str)
_TEXT = (_QUOTED, "a non-empty string", lambda v: type(v) is str and v.strip() != "")
_BOOLEAN = ("(true|false)", "a boolean", lambda v: type(v) is bool)
_QUESTION_TYPE = (_QUOTED, None, lambda v: type(v) is str and v in _QUESTION_TYPES)
_ANSWER_TYPE = (_QUOTED, None, lambda v: type(v) is str and v in _ANSWER_TYPES)
_FEATURE = (r'(null|"[^"\\\x00-\x1f]*")', None, lambda v: v is None or type(v) is str and v in _FEATURES)

# The one statement of each JSONL record kind's fields (README "File formats"):
# its "kind" value, or None for an utterance, which has none, and one row per
# field in the documented order. A row gives the key, the value kind and, for a
# field that may be left out, its default. A span's two keys are one row: both
# are read before either is checked.
_UTTERANCE = (None, (
    ("dialogue_id", _ID),
    ("turn_index", _COUNT),
    ("speaker", _STRING),
    ("text", _TEXT),
    ("interrupted", _BOOLEAN, False),
    ("language", _ID, "en"),
))
_QUESTION = ("q", (
    ("dialogue_id", _ID),
    ("turn_index", _COUNT),
    ("span_start span_end", _INTEGER),
    ("q_type", _QUESTION_TYPE),
    ("feature", _FEATURE, None),
    ("annotator_id", _STRING),
))
_ANSWER = ("a", (
    ("dialogue_id", _ID),
    ("turn_index", _COUNT),
    ("a_type", _ANSWER_TYPE),
    ("question_ref", _ID),
    ("annotator_id", _STRING),
))


def _reader(*tables: tuple) -> tuple[tuple, re.Pattern]:
    """A reader of the record kinds of ``tables``: (kinds, pattern); see _records.

    The pattern is the alternation of the kinds' documented layouts, which the
    writers emit, each with one group per field key. It matches one whole line
    from its start, with or without its LF. Its row, as findall gives it,
    holds every group: '' for each group of the kinds the line is not. Each
    of ``kinds`` is a table's "kind" value and fields, and the position in a
    row of its first group.
    """
    kinds, layouts, offset = [], [], 0
    for kind, fields in tables:
        spelled = [f'"{key}": {value[0]}' for keys, value, *_ in fields for key in keys.split()]
        layouts.append("{" + ", ".join([f'"kind": "{kind}"'] * bool(kind) + spelled) + "}")
        kinds.append((kind, fields, offset))
        offset += len(spelled)
    return tuple(kinds), re.compile(f"^(?:{'|'.join(layouts)})$\n?", re.M)


def _spelled(value: Union[None, bool, int, str]) -> str:
    """json.dumps of a checked value an unquoted group holds: null, a boolean, an integer or a tag; faster."""
    if value is None or type(value) is bool:
        return "null" if value is None else "true" if value else "false"
    return f'"{value}"' if type(value) is str else str(value)


def _json_record(raw: str, line_no: int, reader: tuple, build: Callable[[list], list]) -> Any:
    """The record of the JSONL line ``raw`` of one of the reader's kinds (see _records), or None for a blank line.

    Any JSON layout is taken: keys in any order, extra keys, escapes, JSON
    whitespace (space, tab, CR, LF) around the object. The line's kind is the
    one its "kind" value names, or the only one, which has none. The kind's
    table is read in order, each value checked and then spelled as the
    pattern's group holds it, and the row findall would give is built.
    Raises MalformedLine for a line that is not one JSON object (see
    decode_json), a field name or string value holding a lone surrogate
    (UTF-8 cannot write it), a field missing that has no default, or a value
    its kind or record type refuses; UnknownTag for a kind or tag outside its set.
    """
    if not raw.strip():
        return None
    obj = decode_json(raw, line_no)
    if "\\u" in raw:  # in text decoded from UTF-8, only a \u escape can spell a surrogate
        try:
            "".join(s for item in obj.items() for s in item if type(s) is str).encode()
        except UnicodeEncodeError:
            raise MalformedLine(line_no, "string holds a lone surrogate") from None
    kinds, pattern = reader
    row = [""] * pattern.groups
    try:
        for kind, fields, offset in kinds:
            if kind is None or kind == obj["kind"]:
                break
        else:
            raise UnknownTag(obj["kind"], line_no)
        for keys, (group, what, test), *default in fields:
            keys = keys.split()
            values = [obj.get(key, default[0]) if default else obj[key] for key in keys]
            for key, value in zip(keys, values):
                if not test(value):
                    raise MalformedLine(line_no, f"{key} must be {what}") if what else UnknownTag(value, line_no)
                row[offset] = value if group[0] == '"' else _spelled(value)
                offset += 1
    except KeyError as exc:
        raise MalformedLine(line_no, f"missing field {exc.args[0]!r}") from None
    try:
        return build([row])[0]
    except ValueError as exc:
        raise MalformedLine(line_no, str(exc)) from exc


_BLOCK = 16384  # characters of text in a block of lines, about


def _records(
    lines: Iterable[str], reader: tuple, build: Callable[[list], list]
) -> Iterator[tuple[Sequence[int], list]]:
    """(1-based line numbers, records) of the non-blank JSONL lines, a block of lines at a time.

    ``reader`` is (kinds, pattern), as _reader gives it: the kinds read and
    the alternation of their layouts. ``build`` is the reader's one builder:
    it gives the list of records of a list of the pattern's rows, and raises
    ValueError or KeyError where a record type or tag table refuses a value.

    Lines are taken in blocks of about _BLOCK characters. A block whose every
    line ends in LF, holds no other LF and is in a layout is read with one
    findall of the pattern and one builder call. Any other block, and one in
    which the builder refuses a value, is read line by line: a line in a
    layout is built from its groups unless a value is refused, and any other
    goes through _json_record, which gives the same record for a line that
    holds one and words the fault of a line that does not. Such a block
    yields each record before the next line is read, so the first faulty
    line's fault is the one raised, and a consumer's check of a record (a
    repeated turn, say) comes before any fault of a later line. A fault the
    line iterator raises, such as invalid UTF-8, comes after the records of
    the lines read before it.
    """
    pattern = reader[1]
    lines = iter(lines)
    line_no, size = 0, 64  # lines read so far; lines the next block takes
    while True:
        block: list[str] = []
        fault = None
        try:
            block.extend(islice(lines, size))  # on a fault, keeps the lines read before it
        except Exception as exc:  # raised again once the lines read before it are read
            fault = exc
        text = "".join(block)
        # a block whose first line is not in a layout is not searched
        rows = pattern.findall(text) if pattern.match(text) and all(map(str.endswith, block, repeat("\n"))) else ()
        records = None
        if len(rows) == len(block) == text.count("\n"):
            try:
                records = build(rows)
            except (KeyError, ValueError):  # a value refused: the line path finds and words it
                pass
        if records is not None:
            yield range(line_no + 1, line_no + 1 + len(block)), records
        else:
            for number, raw in enumerate(block, line_no + 1):
                match = pattern.fullmatch(raw)
                record = None
                if match is not None:
                    try:
                        record = build([match.groups()])[0]
                    except (KeyError, ValueError):
                        pass
                if record is None:
                    record = _json_record(raw, number, reader, build)
                if record is not None:  # not a blank line
                    yield (number,), [record]
        if fault is not None:
            raise fault
        if len(block) < size:  # the lines ran out
            return
        line_no += len(block)
        size = min(2 * size, 1 + _BLOCK * size // max(len(text), 1))


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


def _utterances(rows: list) -> list[tuple[Utterance, str]]:
    """(utterance, language) of each utterance line's row of groups; blank text raises ValueError."""
    return [
        (Utterance(intern(dialogue_id), int(turn_index), intern(speaker), text, interrupted == "true"), language)
        for dialogue_id, turn_index, speaker, text, interrupted, language in rows
    ]


_UTTERANCE_READER = _reader(_UTTERANCE)


def parse_dialogue_jsonl(lines: Iterable[str]) -> list[Dialogue]:
    """Parse canonical dialogue JSONL into dialogues sorted by id.

    Each line holds one utterance, whose fields the table ``_UTTERANCE``
    states. Blank lines are skipped. Lines in the documented layout are read
    a block at a time from their text alone; any other line goes through the
    JSON decoder, with the same result (see _records). Raises MalformedLine
    (with the 1-based line number; DuplicateTurn is one) or NonDenseTurns,
    the fault of the first line that has one. Utterances with the same
    dialogue id or speaker share one string object.
    """
    by_dialogue: dict[str, dict[int, Utterance]] = {}
    languages: dict[str, str] = {}
    for line_nos, records in _records(lines, _UTTERANCE_READER, _utterances):
        for line_no, (utt, language) in zip(line_nos, records):
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
    element at a time, so a long document is never held as one string. Any
    iterator, a generator among them, is written as an array, each element
    taken only once the one before is written, so a long listing can be
    built row by row. A named-tuple record is a tuple, written as an array
    as ``json.dump`` does; pass its ``_asdict()`` to write it as an object.
    """
    _write_json(doc, "", stream.write)


def _write_json(o: Any, pad: str, write: Callable[[str], object]) -> None:
    """Write ``o`` where the stream stands; each line after its first is indented by ``pad``."""
    if isinstance(o, str):
        write(_ascii(o))
    elif isinstance(o, (list, tuple, dict, Iterator)):
        inner = pad + "  "
        if isinstance(o, dict):
            opener, closer = "{\n", f"\n{pad}}}"
            items = ((f"{_ascii(key)}: ", value) for key, value in sorted(o.items()))
        else:
            opener, closer = "[\n", f"\n{pad}]"
            items = (("", value) for value in o)
        lead = first = opener + inner
        for prefix, value in items:
            if isinstance(value, str):
                write(lead + prefix + _ascii(value))
            else:
                write(lead + prefix)
                _write_json(value, inner, write)
            lead = ",\n" + inner
        write(closer if lead is not first else opener[0] + closer[-1])  # an empty one is {} or []
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


def _annotations(shared: dict, rows: list) -> list[Union[QuestionAnnotation, AnswerAnnotation]]:
    """The record of each annotation line's row of groups: a question's seven, then an answer's five.

    A question line's row leaves the answer's groups '', and an answer line's
    the question's. An unknown tag raises KeyError, a bad span ValueError.
    ``shared`` maps the spelling of a turn number, and the two of a span, to
    the object every record with that number or span holds (see read_annotations).
    """
    # the number or span is built only when the table lacks it (or the number is 0, and keep finds it)
    number, keep = shared.get, shared.setdefault
    records: list[Union[QuestionAnnotation, AnswerAnnotation]] = []
    for (dialogue_id, turn_index, span_start, span_end, q_type, feature, annotator_id,
         a_dialogue_id, a_turn_index, a_type, question_ref, a_annotator_id) in rows:
        if dialogue_id:
            span = span_start, span_end
            records.append(QuestionAnnotation(
                intern(dialogue_id), number(turn_index) or keep(turn_index, int(turn_index)),
                number(span) or keep(span, (int(span_start), int(span_end))), _QUESTION_TYPES[q_type],
                _FEATURE_SPELLINGS[feature], intern(annotator_id),
            ))
        else:
            records.append(AnswerAnnotation(
                intern(a_dialogue_id), number(a_turn_index) or keep(a_turn_index, int(a_turn_index)),
                _ANSWER_TYPES[a_type], intern(question_ref), intern(a_annotator_id),
            ))
    return records


_ANNOTATION_READER = _reader(_QUESTION, _ANSWER)


def read_annotations(
    lines: Iterable[str], shared: Optional[dict] = None
) -> list[Union[QuestionAnnotation, AnswerAnnotation]]:
    """Parse annotation JSONL into question and answer records, in file order.

    Each line is an object whose ``kind`` is "q" or "a"; the tables
    ``_QUESTION`` and ``_ANSWER`` state each kind's fields. Lines in their
    kind's documented layout are read a block at a time from their text
    alone; any other line goes through the JSON decoder, with the same result
    (see _records). Unknown kinds and tag values raise UnknownTag; structural
    problems raise MalformedLine; either is the fault of the first line that has one.

    Records with equal dialogue ids, annotator ids or question references
    share one interned string; records with equal spans or turn numbers
    share one object, through the table ``shared``. Pass one dict to the
    reads of files read together (several annotators' files of the same
    items) to share across them; by default the table is this call's own.
    """
    build = partial(_annotations, {} if shared is None else shared)
    records: list[Union[QuestionAnnotation, AnswerAnnotation]] = []
    for _, block in _records(lines, _ANNOTATION_READER, build):
        records += block
    return records


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
