"""Traced in-process run of one qapkit CLI command, and span arithmetic.

Run as a script, it wraps the public functions of each qapkit module at the
names their callers look them up by, calls ``qapkit.cli.main`` with the
given arguments, and when the command ends writes every span (name, start,
end, parent) and the layer counts to a JSON file:

    python bench/tracer.py SPANS.json COMMAND_ID -- ingest --input raw.jsonl ...

Nothing under ``src/`` changes: the wrappers are installed at run time and
the process exits when the command does. A wrapped name that no longer
exists stops the run with exit code 3 before the command starts.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (object the caller looks the name up on, names). Each wrapped function's
# span is named after the module that defines it: text.tokenize, not
# features.tokenize.
WRAP_POINTS = (
    ("qapkit.cli", (
        "parse_dialogue_jsonl", "parse_tsv_transcript", "write_dialogues", "read_annotations",
        "write_annotations", "extract_features", "rule_classify", "map_wh_feature", "tokenize",
        "train_tree", "predict", "save_model", "load_model", "confusion", "score",
        "pairwise_agreement", "disagreement_report", "validate_corpus",
    )),
    ("qapkit.features", ("tokenize", "overlap_ratio")),
    ("qapkit.lexicon", ("tokenize",)),
    ("qapkit.lexicon:Lexicon", ("contains", "matches_end")),
)

ROOT_SPAN = "cli.main"


def _nodes(node) -> int:
    return 1 if node.is_leaf else 1 + _nodes(node.left) + _nodes(node.right)


# Counts taken at a boundary from its arguments and result. They are computed
# after the command ends, so they add nothing to any span.
COUNTERS = {
    "ingestion.parse_dialogue_jsonl": (
        ("ingestion.parse_dialogue_jsonl.lines", lambda a, r: sum(len(d.utterances) for d in r)),
    ),
    "ingestion.read_annotations": (("ingestion.read_annotations.records", lambda a, r: len(r)),),
    "tree.train_tree": (
        ("tree.instances", lambda a, r: len(a[0])),
        ("tree.distinct_groups", lambda a, r: len({(i.fv.as_tuple(), i.label) for i in a[0]})),
        ("tree.nodes", lambda a, r: _nodes(r.root)),
    ),
    "evaluation.pairwise_agreement": (
        ("evaluation.pairwise_agreement.pairs", lambda a, r: sum(1 for x in r if not x.is_mean)),
    ),
    "evaluation.disagreement_report": (("evaluation.disagreement_report.records", lambda a, r: len(r)),),
    "model.validate_corpus": (("model.violations", lambda a, r: len(r)),),
}


class Tracer:
    """Keeps spans in memory as [name id, start ns, end ns, parent index]."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self.stack: list[int] = [-1]
        self.deferred: list[tuple] = []

    def span(self, name: str, fn, counters=()):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, deferred, clock = self.spans, self.stack, self.deferred, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            record = [name_id, 0, 0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counters:
                deferred.append((counters, args, result))
            return result

        return wrapper

    def install(self) -> None:
        for where, names in WRAP_POINTS:
            module_name, _, class_name = where.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            for attr in names:
                fn = getattr(owner, attr, None)
                if fn is None:
                    raise LookupError(f"{where} has no attribute {attr!r}; update WRAP_POINTS in bench/tracer.py")
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                setattr(owner, attr, self.span(name, fn, COUNTERS.get(name, ())))

    def counts(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for counters, args, result in self.deferred:
            for metric, count in counters:
                out[metric] += count(args, result)
        return dict(out)

    def dump(self, path: str, command_id: str) -> None:
        doc = {"command": command_id, "names": self.names, "spans": self.spans, "counts": self.counts()}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of its interval its children cover.

    ``spans`` is a sequence of (name, start, end, parent index), parent -1
    for a root. Child intervals are merged before subtracting, so children
    that overlap each other are not subtracted twice, and each is clipped
    to its parent's interval.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.json COMMAND_ID -- CLI-ARGS...", file=sys.stderr)
        return 2
    spans_path, command_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    try:
        tracer.install()
        cli = importlib.import_module("qapkit.cli")
    except (ImportError, LookupError) as exc:
        print(f"tracer: {exc}", file=sys.stderr)
        return 3
    main_span = tracer.span(ROOT_SPAN, cli.main)
    try:
        code = main_span(cli_args)
    finally:
        tracer.dump(spans_path, command_id)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
