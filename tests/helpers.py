"""Small builders shared across test modules."""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import strategies as st

import qapkit
from qapkit import (
    AnswerAnnotation,
    AnswerType,
    Feature,
    FeatureVector,
    QuestionAnnotation,
    QuestionType,
    Utterance,
    Violation,
    ViolationKind,
)

FV_DEFAULTS = dict(
    has_wh=False,
    has_or=False,
    has_inversion=False,
    has_tag=False,
    last_utt_similar=False,
    last_utt_incomplete=False,
    has_cliche=False,
    length=3,
)


def make_fv(**overrides) -> FeatureVector:
    values = dict(FV_DEFAULTS)
    values.update(overrides)
    return FeatureVector(**values)


def utt(text, turn=0, dialogue="d", speaker="A", interrupted=False) -> Utterance:
    return Utterance(dialogue, turn, speaker, text, interrupted)


# where the qapkit these tests import lives: the source tree, or an installed package's site-packages
QAPKIT_PATH = str(Path(qapkit.__file__).resolve().parent.parent)


def python_process(*args, cwd, path=QAPKIT_PATH, **kwargs) -> subprocess.Popen:
    """``python ARGS`` as a child process that imports the qapkit under ``path`` (by default the same qapkit),
    started with subprocess.Popen's keywords.

    Its stdout is block-buffered, as it is by default, so output left in the buffer at exit would be lost.
    """
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(path), env.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, *map(str, args)], cwd=cwd, env=env, **kwargs)


def run_process(*args, cwd, path=QAPKIT_PATH) -> tuple[int, bytes, bytes]:
    """(exit code, stdout, stderr) of ``python ARGS`` importing the qapkit under ``path``; ``-m qapkit.cli ARGV``
    runs the command."""
    proc = python_process(*args, cwd=cwd, path=path, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    return proc.returncode, out, err


ANNOTATORS = st.sampled_from(["A1", "A2", "A3"])
QUESTIONS = st.builds(
    QuestionAnnotation,
    dialogue_id=st.just("d"),
    turn_index=st.integers(min_value=0, max_value=1),
    span=st.sampled_from([(0, 1), (0, 4)]),
    q_type=st.sampled_from(QuestionType),
    feature=st.none() | st.sampled_from(Feature),
    annotator_id=ANNOTATORS,
)


@st.composite
def annotation_records(draw):
    """(questions, answers): interleaved annotators, repeated question records, several answers per
    question, dangling refs, and features on question types that take none."""
    questions = draw(st.lists(QUESTIONS, max_size=10))
    # the refs of the drawn questions, plus refs that no question can have
    refs = st.sampled_from([x.ref for x in questions] + ["d:2:0-1", "x:0:0-1"])
    answer = st.builds(
        AnswerAnnotation,
        dialogue_id=st.just("d"),
        turn_index=st.integers(min_value=0, max_value=5),
        a_type=st.sampled_from(AnswerType),
        question_ref=refs,
        annotator_id=ANNOTATORS,
    )
    return questions, draw(st.lists(answer, max_size=10))


def _item(rec):
    """What a record labels: its kind, its annotator, and its question's position or reference."""
    if isinstance(rec, QuestionAnnotation):
        return ("q", rec.annotator_id, rec.key)
    return ("a", rec.annotator_id, rec.question_ref)


def first_records(records):
    """(kept, repeats) of a record list by a plain scan: a record is kept when no earlier one has its item."""
    kept, repeats = [], []
    for i, rec in enumerate(records):
        (repeats if any(_item(p) == _item(rec) for p in records[:i]) else kept).append(rec)
    return kept, repeats


def duplicate_violations(records):
    """The duplicate-record violation of each repeat in a record list, in order, as README words it."""
    _, repeats = first_records(records)
    out = []
    for repeat in repeats:
        first = next(p for p in records if _item(p) == _item(repeat))
        tags = []
        for rec in (first, repeat):
            if isinstance(rec, AnswerAnnotation):
                tags.append(rec.a_type.value)
            else:
                tags.append(rec.q_type.value + (f"/{rec.feature.value}" if rec.feature else ""))
        if isinstance(repeat, QuestionAnnotation):
            item, what = repeat.ref, "this question"
        else:
            item, what = repeat.question_ref, "the answer to this question"
        differ = "tags differ" if tags[0] != tags[1] else "same tags"
        out.append(
            Violation(
                ViolationKind.DUPLICATE_RECORD,
                item,
                f"annotator {repeat.annotator_id!r} labels {what} again: {tags[0]}, then {tags[1]} ({differ});"
                " the first record counts",
            )
        )
    return out
