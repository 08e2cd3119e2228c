"""Tests of the benchmark itself: generator, oracles and span arithmetic.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import hashlib
import json
import random
import sys
from functools import partial
from pathlib import Path

import pytest

import gen
import launch
import run
import tracer
import workloads
from qapkit import cli

SMALL = {
    "pipeline-20k": partial(workloads.pipeline, n_utterances=600),
    "annotators-8": partial(workloads.annotators, n_utterances=1500),
    "long-turns": partial(workloads.long_turns, n_turns=300),
}


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    dirs = [tmp_path / str(i) for i in range(3)]
    for d, seed in zip(dirs, (7, 7, 8)):
        d.mkdir()
        SMALL[name](seed, d)
    assert digest(dirs[0]) == digest(dirs[1])
    assert digest(dirs[0]) != digest(dirs[2])


def test_generator_covers_the_branches_the_code_takes():
    corpus = gen.short_dialogues(random.Random(3), 3000, per_dialogue=33)
    fvs = [q.fv for q in corpus.questions]
    assert {q.truth for q in corpus.questions} == set(gen.QUESTION_TYPES)
    has_wh, has_or, inversion, tag, similar, incomplete, cliche, length = range(8)
    assert any(fv[has_wh] and fv[cliche] for fv in fvs)  # a cliche outranks the wh cue
    assert any(fv[tag] and not fv[inversion] for fv in fvs)
    assert any(fv[has_or] for fv in fvs)
    assert any(fv[incomplete] and fv[similar] and fv[length] > 5 for fv in fvs)  # similar CS path
    assert any(fv[incomplete] and not fv[similar] and fv[length] <= 5 for fv in fvs)  # short CS path

    session, tsv = gen.long_session(random.Random(3), 400, "s", label_noise=0.1)
    spans_per_turn = {}
    for q in session.questions:
        spans_per_turn[q.turn_index] = spans_per_turn.get(q.turn_index, 0) + 1
    assert max(spans_per_turn.values()) == 3
    assert any(line.endswith(" --\n") for line in tsv)

    records = gen.annotate(random.Random(3), corpus.questions, "x", 0.1, answer_rate=0.9)
    assert {r["a_type"] for r in records if r["kind"] == "a"} == {"PA", "NA", "FA", "PHA", "UA", "UT", "DA"}


def run_in_process(commands, work: Path, capsys, monkeypatch) -> dict:
    """Run each command through qapkit.cli.main and return its stdout by name."""
    monkeypatch.chdir(work)
    outputs = {}
    for command in commands:
        code = cli.main(command.argv)
        outputs[command.name] = capsys.readouterr().out
        assert code == command.exit_code, command.name
        assert command.check(work, outputs[command.name]) == [], command.name
    return outputs


def rewrite_json(path: Path, change) -> None:
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def rewrite_first_line(path: Path, change) -> None:
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[0])
    change(record)
    lines[0] = json.dumps(record) + "\n"
    path.write_text("".join(lines))


def flip_type(rec):
    rec["q_type"] = "PQ" if rec["q_type"] != "PQ" else "YN"


# Each corrupts one command's output in place and returns the stdout to check.
CORRUPTIONS = {
    "ingest": lambda w, out: rewrite_first_line(w / "corpus.jsonl", lambda r: r.update(text=r["text"] + " x")) or out,
    "classify_rule": lambda w, out: rewrite_first_line(w / "pred_rule.jsonl", flip_type) or out,
    "train": lambda w, out: out.replace('"instances": ', '"instances": 1'),
    "classify_tree": lambda w, out: rewrite_first_line(w / "pred_tree.jsonl", flip_type) or out,
    "evaluate": lambda w, out: rewrite_json(w / "evaluate.json", lambda d: d["counts"][0].__setitem__(0, d["counts"][0][0] + 1)) or out,
    "agree": lambda w, out: rewrite_json(w / "agree.json", lambda d: d["layers"]["questions"][0].update(kappa=0.5)) or out,
    "validate": lambda w, out: rewrite_json(w / "validate.json", lambda d: d.update(count=d["count"] + 1)) or out,
}


@pytest.mark.parametrize("name", ["pipeline-20k", "annotators-8"])
def test_each_oracle_rejects_a_corrupted_output(tmp_path, capsys, monkeypatch, name):
    commands = SMALL[name](5, tmp_path)
    outputs = run_in_process(commands, tmp_path, capsys, monkeypatch)
    for command in commands:
        stdout = CORRUPTIONS[command.name](tmp_path, outputs[command.name])
        assert command.check(tmp_path, stdout) != [], f"{command.name} accepted a corrupted output"


def test_long_turns_oracles_accept_the_program_output(tmp_path, capsys, monkeypatch):
    run_in_process(SMALL["long-turns"](5, tmp_path), tmp_path, capsys, monkeypatch)


def test_self_times_subtract_the_union_of_children():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("a.child", 15, 25, 1),
        ("b", 50, 70, 0),
        ("c", 60, 80, 0),  # overlaps b: the overlap is subtracted from root once
        ("d", 95, 120, 0),  # runs past its parent: only 95..100 counts against root
    ]
    assert tracer.self_times(spans) == [100 - 30 - 30 - 5, 20, 10, 20, 20, 25]


def test_layer_metrics_sum_self_times_and_counts_per_pass():
    doc = {
        "command": "classify_rule",
        "names": ["cli.main", "features.extract_features", "text.tokenize"],
        "spans": [[0, 0, 1_000, -1], [1, 100, 600, 0], [2, 200, 300, 1], [2, 400, 450, 1]],
        "counts": {},
    }
    metrics = run.layer_metrics([doc])
    assert metrics["cli.classify_rule.self_s"] == pytest.approx(500e-9)
    assert metrics["features.extract_features.s"] == pytest.approx(350e-9)
    assert metrics["text.tokenize.s"] == pytest.approx(150e-9)
    assert metrics["text.tokenize.calls"] == 2
    assert metrics["tree.train_tree.s"] == 0.0


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    monkeypatch.setattr(tracer, "WRAP_POINTS", (("qapkit.cli", ("no_such_function",)),))
    with pytest.raises(LookupError, match="no_such_function"):
        tracer.Tracer().install()


def test_launcher_times_the_reference_task_around_each_command(tmp_path):
    with run.Launcher() as launcher:
        result = launcher.run([sys.executable, "-c", "print('done')"], tmp_path, 30.0)
    assert (result.code, result.stdout, result.timed_out) == (0, "done\n", False)
    assert len(result.refs) == 2 * launch.REF_SAMPLES and min(result.refs) > 0
