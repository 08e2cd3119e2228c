"""Golden byte identity: every CLI command's output files, stdout, stderr and exit code.

The test builds a small corpus, TSV and EAF transcripts, gold and annotator
files (with planted violations), an extractor config and a wh-map, runs each
command as ``python -m qapkit.cli`` in a subprocess (log lines go to stderr
exactly as a user sees them), and compares the sha256 of every output file,
stdout and stderr, plus each exit code, with ``golden.json``. It also runs
each benchmark workload of ``bench/workloads.py`` at a tenth of its size, checks
every command with the benchmark's own oracle, and compares the sha256 of every
file left in the work directory, and each command's stdout, stderr and exit
code, with the manifest.

After an intended change of output, regenerate the manifest with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Optional

import pytest

from helpers import QAPKIT_PATH, run_process

MANIFEST = Path(__file__).with_name("golden.json")
BENCH = Path(__file__).resolve().parent.parent / "bench"

# each benchmark workload's size arguments, a tenth of the benchmark's, all run at one seed
WORKLOAD_SIZES = {
    "pipeline-20k": {"n_utterances": 2000},
    "annotators-8": {"n_utterances": 1000},
    "long-turns": {"n_turns": 800},
}
WORKLOAD_SEED = 101

# (speaker, text, interrupted) of each turn of the two corpus dialogues
TURNS = {
    "d1": [
        ("A", "we drove up north last weekend", False),
        ("B", "where did you stay?", False),
        ("A", "at a small inn by the lake", False),
        ("B", "was it cold or warm?", False),
        ("A", "cold, really cold and it rained on", True),
        ("B", "the whole time?", False),
        ("A", "yes, most of it", False),
        ("B", "you know what I mean?", False),
        ("A", "sure, that is bad luck isn't it?", False),
        ("B", "who drove the car?", False),
        ("A", "my sister did, she likes to", True),
        ("B", "drive at night?", False),
        ("A", "how much did the inn cost?", False),
        ("B", "okay?", False),
    ],
    "d2": [
        ("C", "can you pass the salt?", False),
        ("D", "here you go", False),
        ("C", "why is it so salty anyway?", False),
        ("D", "do you want water or juice?", False),
        ("C", "the soup is good right?", False),
        ("D", "huh?", False),
    ],
}

# gold type (and feature) of each question turn, by (dialogue, turn)
GOLD = {
    ("d1", 1): ("WH", "LOC"),
    ("d1", 3): ("DQ", None),
    ("d1", 5): ("CS", None),
    ("d1", 7): ("PQ", None),
    ("d1", 8): ("YN", None),
    ("d1", 9): ("WH", "AG"),
    ("d1", 11): ("CS", None),
    ("d1", 12): ("WH", "TH"),
    ("d1", 13): ("PQ", None),
    ("d2", 0): ("YN", None),
    ("d2", 2): ("WH", "RE"),
    ("d2", 3): ("DQ", "TH"),
    ("d2", 4): ("YN", None),
    ("d2", 5): ("PQ", None),
}

TSV = "1\tAMY\tso we went to the market --\n2\tBOB\tthe one by the river?\n\n3\tAMY\tyes, where else?\n"

EAF = """<?xml version="1.0" encoding="UTF-8"?>
<ANNOTATION_DOCUMENT>
  <TIME_ORDER>
    <TIME_SLOT TIME_SLOT_ID="ts1" TIME_VALUE="0"/>
    <TIME_SLOT TIME_SLOT_ID="ts2" TIME_VALUE="1500"/>
    <TIME_SLOT TIME_SLOT_ID="ts3"/>
  </TIME_ORDER>
  <TIER TIER_ID="B">
    <ANNOTATION><ALIGNABLE_ANNOTATION TIME_SLOT_REF1="ts2">
      <ANNOTATION_VALUE>Water?</ANNOTATION_VALUE></ALIGNABLE_ANNOTATION></ANNOTATION>
  </TIER>
  <TIER TIER_ID="tierA" PARTICIPANT="Amy">
    <ANNOTATION><ALIGNABLE_ANNOTATION TIME_SLOT_REF1="ts1">
      <ANNOTATION_VALUE>it includes heat and uhm --</ANNOTATION_VALUE></ALIGNABLE_ANNOTATION></ANNOTATION>
    <ANNOTATION><ALIGNABLE_ANNOTATION TIME_SLOT_REF1="ts3">
      <ANNOTATION_VALUE>or ice, maybe?</ANNOTATION_VALUE></ALIGNABLE_ANNOTATION></ANNOTATION>
  </TIER>
</ANNOTATION_DOCUMENT>
"""

# (command name, argv after ``qapkit``, output files), run in this order in one directory
COMMANDS = [
    ("ingest-jsonl", ["ingest", "--input", "corpus.jsonl", "--output", "ingested.jsonl"], ["ingested.jsonl"]),
    (
        "ingest-tsv",
        ["ingest", "--format", "tsv", "--input", "market.tsv", "--language", "es", "--output", "tsv.jsonl"],
        ["tsv.jsonl"],
    ),
    ("ingest-eaf", ["ingest", "--format", "eaf", "--input", "water.eaf", "--output", "eaf.jsonl"], ["eaf.jsonl"]),
    ("classify-rule", ["classify", "--input", "corpus.jsonl", "--output", "rule.jsonl"], ["rule.jsonl"]),
    (
        "classify-rule-flags",
        [
            "classify", "--input", "corpus.jsonl", "--questions", "gold.jsonl", "--language", "en",
            "--annotator-id", "flags", "--extractor-config", "ext/extractor.json", "--lexicon", "wh=./wh.txt",
            "--lexicon", "aux=aux.txt", "--threshold", "0.3", "--cliche-length-cap", "3", "--wh-map", "whmap.txt",
            "--output", "flags.jsonl",
        ],
        ["flags.jsonl"],
    ),
    (
        "train",
        [
            "train", "--input", "corpus.jsonl", "--annotations", "gold.jsonl",
            "--extractor-config", "ext/extractor.json", "--output", "tree.json", "--deterministic",
        ],
        ["tree.json"],
    ),
    (
        "train-baseline",
        ["train", "--input", "corpus.jsonl", "--annotations", "gold.jsonl", "--baseline", "--output", "base.json",
         "--deterministic"],
        ["base.json"],
    ),
    (
        "classify-tree",
        [
            "classify", "--input", "corpus.jsonl", "--mode", "tree", "--model", "tree.json",
            "--extractor-config", "ext/extractor.json", "--output", "tree.jsonl",
        ],
        ["tree.jsonl"],
    ),
    (
        "evaluate",
        ["evaluate", "--gold", "gold.jsonl", "--pred", "tree.jsonl", "--output", "eval.json", "--deterministic"],
        ["eval.json"],
    ),
    (
        "agree",
        ["agree", "--input", "ann1.jsonl", "ann2.jsonl", "ann3.jsonl", "--output", "agree.json", "--deterministic"],
        ["agree.json"],
    ),
    (
        "validate",
        ["validate", "--input", "ann1.jsonl", "ann2.jsonl", "ann3.jsonl", "--output", "valid.json",
         "--deterministic"],
        ["valid.json"],
    ),
]


def _jsonl(path: Path, objs) -> None:
    path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")


def _question(key, q_type, feature, annotator):
    (dialogue, turn), text = key, TURNS[key[0]][key[1]][1]
    return {"kind": "q", "dialogue_id": dialogue, "turn_index": turn, "span_start": 0, "span_end": len(text),
            "q_type": q_type, "feature": feature, "annotator_id": annotator}


def _answer(key, a_type, annotator):
    (dialogue, turn), text = key, TURNS[key[0]][key[1]][1]
    ref = f"{dialogue}:{turn}:0-{len(text)}"
    return {"kind": "a", "dialogue_id": dialogue, "turn_index": turn + 1, "a_type": a_type, "question_ref": ref,
            "annotator_id": annotator}


def build_inputs(d: Path) -> None:
    """Write every input file the commands read into directory ``d``."""
    _jsonl(
        d / "corpus.jsonl",
        [
            {"dialogue_id": dialogue, "turn_index": i, "speaker": speaker, "text": text, "interrupted": cut,
             "language": "en" if dialogue == "d1" else "es"}
            for dialogue, turns in TURNS.items()
            for i, (speaker, text, cut) in enumerate(turns)
        ],
    )
    (d / "market.tsv").write_text(TSV, encoding="utf-8")
    (d / "water.eaf").write_text(EAF, encoding="utf-8")
    _jsonl(d / "gold.jsonl", [_question(key, *tags, "gold") for key, tags in GOLD.items()])

    keys = sorted(GOLD)
    answers = ["FA", "FA", "PA", "PHA", "NA", "FA", "NA", "FA", "UT", "PA", "FA", "FA", "PA", "PHA"]
    for n in range(1, 4):
        annotator = f"ann{n}"
        records = []
        for i, key in enumerate(keys):
            q_type, feature = GOLD[key]
            if (i + n) % 4 == 0:  # a disagreement with gold; on a YN/CS/PQ answered FA, a violation
                q_type, feature = {"WH": ("YN", None), "DQ": ("WH", "TH")}.get(q_type, ("WH", "LOC"))
            if n == 3 and i == 4:
                feature = "TMP"  # a feature on a question type that takes none
            records.append(_question(key, q_type, feature, annotator))
            records.append(_answer(key, answers[i], annotator))
        records.append({"kind": "a", "dialogue_id": "d1", "turn_index": 2, "a_type": "PA",
                        "question_ref": "d1:1:0-3", "annotator_id": annotator})  # a dangling reference
        _jsonl(d / f"{annotator}.jsonl", records)

    (d / "ext").mkdir()
    (d / "ext" / "tags.txt").write_text("# tag phrases\nisn't it\nright\nyou see\n", encoding="utf-8")
    (d / "ext" / "extractor.json").write_text(
        json.dumps({"tag_lexicon": "tags.txt", "cliche_lexicon": ["you know", "okay", "huh", "bad luck"],
                    "similarity_threshold": 0.4, "cliche_length_cap": 4}),
        encoding="utf-8",
    )
    (d / "wh.txt").write_text("who\nwhere\nwhy\nhow\nhow much\n", encoding="utf-8")
    (d / "aux.txt").write_text("can\ndo\nwas\nis\n", encoding="utf-8")
    (d / "whmap.txt").write_text("# token feature\nwhere LOC\nwho AG\nwhy RE\n", encoding="utf-8")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_commands(d: Path) -> dict:
    """{command name: {"exit", "stdout", "stderr", "files"}} for COMMANDS run in directory ``d``."""
    results = {}
    for name, argv, outputs in COMMANDS:
        code, out, err = run_process("-m", "qapkit.cli", *argv, cwd=d)
        results[name] = {
            "exit": code,
            "stdout": _sha(out),
            "stderr": _sha(err),
            "files": {out: _sha((d / out).read_bytes()) for out in outputs if (d / out).exists()},
        }
    return results


def _workloads() -> dict:
    """bench/workloads.py's WORKLOADS; bench/ is on the import path only while the module loads."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads.WORKLOADS


def run_workload(name: str, d: Path, seed: int = WORKLOAD_SEED, sizes: Optional[dict] = None,
                 path=QAPKIT_PATH) -> tuple[dict, list[str]]:
    """(manifest entry, problems) of one workload run in ``d`` with the qapkit under ``path``.

    ``sizes`` are the workload's size arguments, by default its WORKLOAD_SIZES; ``{}`` gives the benchmark's
    own sizes. The entry is {"commands": {name: {"exit", "stdout", "stderr"}}, "files": {path: sha}}; the
    problems are what each command's exit code check and its own oracle found.
    """
    commands, problems = {}, []
    for command in _workloads()[name](seed, d, **(WORKLOAD_SIZES[name] if sizes is None else sizes)):
        code, out, err = run_process("-m", "qapkit.cli", *command.argv, cwd=d, path=path)
        if code != command.exit_code:
            problems.append(f"{command.name}: exit code {code}, expected {command.exit_code}")
        problems += [f"{command.name}: {problem}" for problem in command.check(d, out.decode("utf-8"))]
        commands[command.name] = {"exit": code, "stdout": _sha(out), "stderr": _sha(err)}
    files = {path.relative_to(d).as_posix(): _sha(path.read_bytes()) for path in sorted(d.rglob("*"))
             if path.is_file()}
    return {"commands": commands, "files": files}, problems


def test_every_command_output_matches_the_manifest(tmp_path):
    build_inputs(tmp_path)
    expected = {
        name: want for name, want in json.loads(MANIFEST.read_text(encoding="utf-8")).items()
        if name not in WORKLOAD_SIZES
    }
    results = run_commands(tmp_path)
    assert [results[name]["exit"] for name in expected] == [expected[name]["exit"] for name in expected]
    for name, want in expected.items():
        assert results[name] == want, name
    assert results.keys() == expected.keys()


@pytest.mark.parametrize("name", WORKLOAD_SIZES)
def test_every_benchmark_workload_output_matches_the_manifest(tmp_path, name):
    result, problems = run_workload(name, tmp_path)
    assert problems == []
    assert result == json.loads(MANIFEST.read_text(encoding="utf-8"))[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        build_inputs(Path(tmp))
        manifest = run_commands(Path(tmp))
    for name in WORKLOAD_SIZES:
        with tempfile.TemporaryDirectory() as tmp:
            manifest[name], problems = run_workload(name, Path(tmp))
        if problems:
            sys.exit("\n".join(problems))
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}")
