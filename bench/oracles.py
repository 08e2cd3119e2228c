"""Output checks the benchmark computes itself.

Each check takes the workload's expectations and the command's result and
returns a list of problems; an empty list means the output is correct. None
of them calls into qapkit: labels come from the generator's own feature
vectors and rule cascade, the expected tree from a learner written here,
tree predictions from walking the saved model, and confusion counts and
kappa from formulas written here.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import combinations
from pathlib import Path

from gen import QUESTION_TYPES, rule_type

FEATURE_ORDER = ("has_wh", "has_or", "has_inversion", "has_tag", "last_utt_similar",
                 "last_utt_incomplete", "has_cliche", "length")


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def q_key(rec: dict) -> tuple:
    return (rec["dialogue_id"], rec["turn_index"], rec["span_start"], rec["span_end"])


def check_ingest(utterances: list[dict], path: Path) -> list[str]:
    """The output parses back to the generated dialogues, in canonical order."""
    try:
        got = read_jsonl(path)
    except (OSError, ValueError) as exc:
        return [f"ingest output unreadable: {exc}"]
    if len(got) != len(utterances):
        return [f"ingest wrote {len(got)} utterances, expected {len(utterances)}"]
    for i, (g, e) in enumerate(zip(got, utterances)):
        if g != e:
            return [f"ingest line {i + 1} is {g!r}, expected {e!r}"]
    return []


def walk(model: dict, fv: tuple) -> str:
    """Route a feature vector through a saved model document to its label."""
    node = model["root"]
    while "label" not in node:
        value = fv[FEATURE_ORDER.index(node["feature"])]
        right = value > node["threshold"] if node["feature"] == "length" else bool(value)
        node = node["right"] if right else node["left"]
    return node["label"]


def check_classify(questions, path: Path, model_path: Path | None) -> list[str]:
    """One record per question; types from the rule cascade or from walking the model."""
    try:
        got = read_jsonl(path)
        model = json.loads(model_path.read_text(encoding="utf-8")) if model_path else None
    except (OSError, ValueError) as exc:
        return [f"classify output unreadable: {exc}"]
    if len(got) != len(questions):
        return [f"classify wrote {len(got)} records, expected {len(questions)}"]
    expected = {}
    for q in questions:
        q_type = walk(model, q.fv) if model else rule_type(q.fv)
        expected[(q.dialogue_id, q.turn_index, *q.span)] = (q_type, q.wh if q_type == "WH" else None)
    problems = []
    for rec in got:
        key = q_key(rec)
        if key not in expected:
            return [f"classify typed unknown question {key}"]
        if (rec["q_type"], rec["feature"]) != expected[key]:
            problems.append(f"{key}: got {rec['q_type']}/{rec['feature']}, expected {expected[key]}")
    if len({q_key(r) for r in got}) != len(got):
        problems.append("classify wrote a question twice")
    return problems[:5]


LABEL_TIE_ORDER = ("YN", "WH", "DQ", "CS", "PQ")


def entropy(counts: Counter) -> float:
    total = sum(counts.values())
    h = 0.0
    for label in sorted(counts):  # the learner's summation order, so floats match exactly
        p = counts[label] / total
        h -= p * math.log2(p)
    return h if h > 0.0 else 0.0


def id3(labelled: list[tuple[tuple, str]]) -> dict:
    """The README's tree learner, grown from (vector, label) counts, as a model document root.

    Binary splits by information gain; booleans route true right, length
    splits at midpoints between observed values with <= going left; ties
    prefer the earliest predictor, then the smallest threshold; leaf ties
    break by leaf count, then training-set count, then a fixed label order.
    """
    groups: dict[tuple, Counter] = {}
    for fv, label in labelled:
        groups.setdefault(fv, Counter())[label] += 1
    overall = Counter(label for _, label in labelled)

    def total(part) -> Counter:
        out = Counter()
        for fv in part:
            out.update(groups[fv])
        return out

    def grow(part: list[tuple]) -> dict:
        counts = total(part)
        if len(counts) > 1:
            n = sum(counts.values())
            lengths = sorted({fv[7] for fv in part})
            splits = [(i, None) for i in range(7)] + [
                (7, (lo + hi) / 2) for lo, hi in zip(lengths, lengths[1:])
            ]
            best, best_gain = None, 0.0
            for i, threshold in splits:
                goes_right = (lambda fv: fv[i] > threshold) if threshold is not None else (lambda fv: fv[i])
                left = [fv for fv in part if not goes_right(fv)]
                right = [fv for fv in part if goes_right(fv)]
                if not left or not right:
                    continue
                cl, cr = total(left), total(right)
                gain = (entropy(counts) - sum(cl.values()) / n * entropy(cl)
                        - sum(cr.values()) / n * entropy(cr))
                if gain > best_gain:
                    best, best_gain = (i, threshold, left, right), gain
            if best is not None:
                i, threshold, left, right = best
                return {"feature": FEATURE_ORDER[i], "threshold": threshold,
                        "left": grow(left), "right": grow(right)}
        label = max(counts, key=lambda l: (counts[l], overall[l], -LABEL_TIE_ORDER.index(l)))
        return {"label": label, "distribution": dict(counts)}

    return grow(sorted(groups))


def check_train(questions, gold: list[dict], model_path: Path, stdout: str) -> list[str]:
    """The saved tree equals the one grown here; instance count, labels and training accuracy."""
    try:
        summary = json.loads(stdout)
        model = json.loads(model_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"train output unreadable: {exc}"]
    fv_of = {(q.dialogue_id, q.turn_index, *q.span): q.fv for q in questions}
    labels = [(fv_of[q_key(r)], r["q_type"]) for r in gold if r["kind"] == "q"]
    problems = []
    if summary.get("instances") != len(labels):
        problems.append(f"train saw {summary.get('instances')} instances, expected {len(labels)}")
    distribution = dict(Counter(label for _, label in labels))
    if summary.get("label_distribution") != distribution:
        problems.append(f"label distribution {summary.get('label_distribution')} != {distribution}")
    if model["root"] != id3(labels):
        problems.append("saved tree differs from the tree grown from the same instances")
    accuracy = sum(walk(model, fv) == label for fv, label in labels) / len(labels)
    if abs(summary.get("training_accuracy", -1.0) - accuracy) > 1e-12:
        problems.append(f"training accuracy {summary.get('training_accuracy')} != {accuracy}")
    return problems


def check_evaluate(gold: list[dict], pred_path: Path, report_path: Path) -> list[str]:
    """Confusion counts, item count and accuracy from a count made here."""
    try:
        pred = {q_key(r): r["q_type"] for r in read_jsonl(pred_path) if r["kind"] == "q"}
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"evaluate output unreadable: {exc}"]
    gold_labels = {q_key(r): r["q_type"] for r in gold if r["kind"] == "q"}
    keys = sorted(set(gold_labels) & set(pred))
    index = {label: i for i, label in enumerate(QUESTION_TYPES)}
    counts = [[0] * len(QUESTION_TYPES) for _ in QUESTION_TYPES]
    for k in keys:
        counts[index[gold_labels[k]]][index[pred[k]]] += 1
    accuracy = sum(counts[i][i] for i in range(len(counts))) / len(keys)
    problems = []
    if report.get("labels") != list(QUESTION_TYPES) or report.get("counts") != counts:
        problems.append(f"confusion {report.get('counts')} != {counts}")
    if report.get("n_items") != len(keys):
        problems.append(f"n_items {report.get('n_items')} != {len(keys)}")
    if abs(report.get("accuracy", -1.0) - accuracy) > 1e-12:
        problems.append(f"accuracy {report.get('accuracy')} != {accuracy}")
    return problems


def kappa(a: list[str], b: list[str]) -> float:
    """Cohen's kappa: (observed - chance) / (1 - chance); 1.0 when chance is 1."""
    n = len(a)
    observed = sum(x == y for x, y in zip(a, b)) / n
    count_a, count_b = Counter(a), Counter(b)
    chance = sum(count_a[label] * count_b[label] for label in count_a) / (n * n)
    return 1.0 if chance >= 1.0 else (observed - chance) / (1.0 - chance)


def check_agree(annotators: dict[str, list[dict]], report_path: Path) -> list[str]:
    """Per-pair n_items and kappa on the questions layer, and their mean row."""
    try:
        rows = json.loads(report_path.read_text(encoding="utf-8"))["layers"]["questions"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"agree output unreadable: {exc}"]
    labels = {
        who: {q_key(r): r["q_type"] for r in recs if r["kind"] == "q"}
        for who, recs in annotators.items()
    }
    expected = []
    for a, b in combinations(sorted(labels), 2):
        keys = sorted(set(labels[a]) & set(labels[b]))
        expected.append(([a, b], len(keys), kappa([labels[a][k] for k in keys], [labels[b][k] for k in keys])))
    if len(rows) != len(expected) + 1:
        return [f"agree reported {len(rows)} question rows, expected {len(expected) + 1}"]
    problems = []
    for row, (pair, n_items, k) in zip(rows, expected):
        if row["annotators"] != pair or row["n_items"] != n_items or abs(row["kappa"] - k) > 1e-9:
            problems.append(f"pair {pair}: got n={row['n_items']} kappa={row['kappa']}, expected n={n_items} kappa={k}")
    mean = rows[-1]
    mean_kappa = sum(k for _, _, k in expected) / len(expected)
    if not mean["is_mean"] or abs(mean["kappa"] - mean_kappa) > 1e-9:
        problems.append(f"mean kappa {mean['kappa']} != {mean_kappa}")
    return problems[:5]


def check_validate(planted: dict[str, int], report_path: Path) -> list[str]:
    """The count, and the count of each kind, equal what the generator planted."""
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        kinds = dict(Counter(v["kind"] for v in report["violations"]))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"validate output unreadable: {exc}"]
    total = sum(planted.values())
    if report.get("count") != total or kinds != {k: n for k, n in planted.items() if n}:
        return [f"validate counted {report.get('count')} violations {kinds}, planted {planted}"]
    return []
