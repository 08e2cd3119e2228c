"""The benchmark's workloads: the inputs each one generates and the CLI commands it runs.

Each workload is a function of (seed, work directory) that writes its input
files and returns its commands in pipeline order. A command carries the
check that judges its output, so the expectations stay next to the inputs
they were generated with.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles
from gen import (
    annotate,
    dump_jsonl,
    extractor_config,
    long_session,
    plant_violations,
    short_dialogues,
)


@dataclass(frozen=True)
class Command:
    name: str  # metric stem, e.g. classify_rule
    argv: list[str]  # arguments after `python -m qapkit.cli`
    check: Callable[[Path, str], list[str]]  # (work dir, stdout) -> problems
    outputs: tuple[str, ...]  # files that must be byte-identical across repetitions
    exit_code: int = 0


def pipeline(seed: int, work: Path, n_utterances: int = 20_000) -> list[Command]:
    """Short turns in ~33-turn dialogues, two annotators; every command once per pass."""
    rng = random.Random(seed)
    corpus = short_dialogues(rng, n_utterances, per_dialogue=33)
    ann_a = annotate(rng, corpus.questions, "anna", 0.04, coverage=0.98, answer_rate=0.85)
    ann_b = annotate(rng, corpus.questions, "ben", 0.08, coverage=0.97, answer_rate=0.85)
    raw = list(corpus.utterances)
    rng.shuffle(raw)  # ingest re-normalises a shuffled export
    dump_jsonl(work / "raw.jsonl", raw)
    dump_jsonl(work / "ann_a.jsonl", ann_a)
    dump_jsonl(work / "ann_b.jsonl", ann_b)
    qs = corpus.questions
    return [
        Command("ingest", ["ingest", "--input", "raw.jsonl", "--output", "corpus.jsonl"],
                lambda w, out: oracles.check_ingest(corpus.utterances, w / "corpus.jsonl"),
                ("corpus.jsonl",)),
        Command("classify_rule",
                ["classify", "--input", "corpus.jsonl", "--output", "pred_rule.jsonl", "--deterministic"],
                lambda w, out: oracles.check_classify(qs, w / "pred_rule.jsonl", None),
                ("pred_rule.jsonl",)),
        Command("train",
                ["train", "--input", "corpus.jsonl", "--annotations", "ann_a.jsonl",
                 "--output", "model.json", "--deterministic"],
                lambda w, out: oracles.check_train(qs, ann_a, w / "model.json", out),
                ("model.json",)),
        Command("classify_tree",
                ["classify", "--input", "corpus.jsonl", "--mode", "tree", "--model", "model.json",
                 "--output", "pred_tree.jsonl", "--deterministic"],
                lambda w, out: oracles.check_classify(qs, w / "pred_tree.jsonl", w / "model.json"),
                ("pred_tree.jsonl",)),
        Command("evaluate",
                ["evaluate", "--gold", "ann_a.jsonl", "--pred", "pred_tree.jsonl",
                 "--output", "evaluate.json", "--deterministic"],
                lambda w, out: oracles.check_evaluate(ann_a, w / "pred_tree.jsonl", w / "evaluate.json"),
                ("evaluate.json",)),
        Command("agree",
                ["agree", "--input", "ann_a.jsonl", "ann_b.jsonl", "--output", "agree.json", "--deterministic"],
                lambda w, out: oracles.check_agree({"anna": ann_a, "ben": ann_b}, w / "agree.json"),
                ("agree.json",)),
        Command("validate",
                ["validate", "--input", "ann_a.jsonl", "ann_b.jsonl", "--output", "validate.json",
                 "--deterministic"],
                lambda w, out: oracles.check_validate({}, w / "validate.json"),
                ("validate.json",)),
    ]


def annotators(seed: int, work: Path, n_utterances: int = 10_000, n_annotators: int = 8) -> list[Command]:
    """Eight annotators with answers and planted violations; scoring commands only."""
    rng = random.Random(seed)
    corpus = short_dialogues(rng, n_utterances, per_dialogue=33)
    gold = annotate(rng, corpus.questions, "gold", 0.0, answer_rate=0.9)
    files, by_annotator = [], {}
    planted = {}
    for i in range(1, n_annotators + 1):
        who = f"a{i}"
        records = annotate(rng, corpus.questions, who, 0.02 + 0.015 * i, coverage=0.97, answer_rate=0.9)
        for kind, n in plant_violations(rng, records, per_kind=5).items():
            planted[kind] = planted.get(kind, 0) + n
        dump_jsonl(work / f"{who}.jsonl", records)
        files.append(f"{who}.jsonl")
        by_annotator[who] = records
    dump_jsonl(work / "gold.jsonl", gold)
    return [
        Command("evaluate",
                ["evaluate", "--gold", "gold.jsonl", "--pred", "a1.jsonl", "--output", "evaluate.json",
                 "--deterministic"],
                lambda w, out: oracles.check_evaluate(gold, w / "a1.jsonl", w / "evaluate.json"),
                ("evaluate.json",)),
        Command("agree", ["agree", "--input", *files, "--output", "agree.json", "--deterministic"],
                lambda w, out: oracles.check_agree(by_annotator, w / "agree.json"),
                ("agree.json",)),
        Command("validate", ["validate", "--input", *files, "--output", "validate.json", "--deterministic"],
                lambda w, out: oracles.check_validate(planted, w / "validate.json"),
                ("validate.json",), exit_code=1),
    ]


def long_turns(seed: int, work: Path, n_turns: int = 8_000) -> list[Command]:
    """One long TSV session, multi-span question turns, larger multi-word lexicons."""
    rng = random.Random(seed)
    corpus, tsv = long_session(rng, n_turns, "session", label_noise=0.1)
    gold = annotate(rng, corpus.questions, "gold", 0.0)
    (work / "session.tsv").write_text("".join(tsv), encoding="utf-8")
    dump_jsonl(work / "gold.jsonl", gold)
    (work / "extractor.json").write_text(json.dumps(extractor_config(), indent=1) + "\n", encoding="utf-8")
    qs = corpus.questions
    extract = ["--questions", "gold.jsonl", "--extractor-config", "extractor.json"]
    return [
        Command("ingest", ["ingest", "--input", "session.tsv", "--format", "tsv", "--output", "session.jsonl"],
                lambda w, out: oracles.check_ingest(corpus.utterances, w / "session.jsonl"),
                ("session.jsonl",)),
        Command("classify_rule",
                ["classify", "--input", "session.jsonl", *extract, "--output", "pred_rule.jsonl",
                 "--deterministic"],
                lambda w, out: oracles.check_classify(qs, w / "pred_rule.jsonl", None),
                ("pred_rule.jsonl",)),
        Command("train",
                ["train", "--input", "session.jsonl", "--annotations", "gold.jsonl",
                 "--extractor-config", "extractor.json", "--output", "model.json", "--deterministic"],
                lambda w, out: oracles.check_train(qs, gold, w / "model.json", out),
                ("model.json",)),
        Command("classify_tree",
                ["classify", "--input", "session.jsonl", "--mode", "tree", "--model", "model.json", *extract,
                 "--output", "pred_tree.jsonl", "--deterministic"],
                lambda w, out: oracles.check_classify(qs, w / "pred_tree.jsonl", w / "model.json"),
                ("pred_tree.jsonl",)),
    ]


WORKLOADS: dict[str, Callable[[int, Path], list[Command]]] = {
    "pipeline-20k": pipeline,
    "annotators-8": annotators,
    "long-turns": long_turns,
}
