"""Scoring and agreement analysis over aligned label sequences.

Covers confusion matrices with accuracy and per-class precision/recall/F1
(macro and support-weighted averages side by side), observed agreement and
Cohen's kappa between annotators, and a disagreement listing that flags
feature-layer mismatches caused by a question-layer mismatch as cascades.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from typing import Callable, Hashable, Mapping, NamedTuple, Optional, Sequence

from .model import FEATURE_BEARING, ItemIndex, Tag, index_by_item, question_ref  # noqa: F401  (re-exported)

# Each agreement layer: the side of an ItemIndex it reads (0: questions by key,
# 1: answers by question reference) and its tag reader. A reader reads a tag's
# string as ``member._value_``: it is what ``member.value`` returns, but
# ``value`` is a property, several times slower to read.
_LAYER_TABLE: dict[str, tuple[int, Callable[[tuple], str]]] = {
    "questions": (0, operator.attrgetter("q_type._value_")),
    "features": (0, lambda ann: ann.feature._value_ if ann.feature is not None else "-"),
    "answers": (1, operator.attrgetter("a_type._value_")),
}
LAYERS = tuple(_LAYER_TABLE)


class LengthMismatch(ValueError):
    """Two label sequences that should be aligned have different lengths."""


class EmptyInput(ValueError):
    """An operation that needs at least one item got none."""


class NoAlignedItems(ValueError):
    """No item is annotated by at least two annotators."""


def _check_aligned(a: Sequence, b: Sequence) -> None:
    if len(a) != len(b):
        raise LengthMismatch(f"sequence lengths differ: {len(a)} vs {len(b)}")
    if not a:
        raise EmptyInput("empty label sequences")


class ConfusionMatrix(NamedTuple):
    """Rows are gold labels, columns are predictions."""

    labels: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.counts)

    @property
    def total(self) -> int:
        return sum(self.support)

    def to_text(self) -> str:
        """Aligned plain-text table with a trailing support column."""
        header = ["", *self.labels, "Support"]
        rows = [header]
        for label, row, support in zip(self.labels, self.counts, self.support):
            rows.append([label, *(str(c) for c in row), str(support)])
        widths = [max(len(str(row[i])) for row in rows) for i in range(len(header))]
        lines = []
        for row in rows:
            lines.append("  ".join(str(cell).rjust(width) for cell, width in zip(row, widths)))
        return "\n".join(lines)


def confusion(
    gold: Sequence[str],
    pred: Sequence[str],
    labels: Optional[Sequence[str]] = None,
) -> ConfusionMatrix:
    """Count (gold, predicted) co-occurrences.

    ``labels`` fixes the row/column order; by default it is the sorted
    union of observed labels. Labels outside an explicit list raise
    ValueError so silent miscounting cannot happen.
    """
    _check_aligned(gold, pred)
    gold = [str(g) for g in gold]
    pred = [str(p) for p in pred]
    if labels is None:
        label_list = sorted(set(gold) | set(pred))
    else:
        label_list = [str(label) for label in labels]
        missing = (set(gold) | set(pred)) - set(label_list)
        if missing:
            raise ValueError(f"labels outside the given order: {sorted(missing)}")
    index = {label: i for i, label in enumerate(label_list)}
    grid = [[0] * len(label_list) for _ in label_list]
    for g, p in zip(gold, pred):
        grid[index[g]][index[p]] += 1
    return ConfusionMatrix(tuple(label_list), tuple(tuple(row) for row in grid))


class ClassScores(NamedTuple):
    precision: float
    recall: float
    f1: float
    support: int
    undefined: bool  # a zero denominator was coerced to 0.0


class EvalReport(NamedTuple):
    accuracy: float
    per_class: Mapping[str, ClassScores]
    macro_f1: float
    weighted_f1: float
    matrix: ConfusionMatrix

    def to_json_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "weighted_f1": self.weighted_f1,
            "per_class": {label: s._asdict() for label, s in self.per_class.items()},
            "labels": list(self.matrix.labels),
            "counts": [list(row) for row in self.matrix.counts],
        }


def score(matrix: ConfusionMatrix) -> EvalReport:
    """Accuracy plus per-class and averaged F1 from a confusion matrix.

    A class with no predictions or no gold items gets precision/recall 0
    and is flagged undefined instead of dropped; macro-F1 averages over
    all classes unweighted, weighted-F1 weights by gold support.
    """
    total = matrix.total
    if total <= 0:
        raise EmptyInput("confusion matrix has no items")
    k = len(matrix.labels)
    trace = sum(matrix.counts[i][i] for i in range(k))

    per_class: dict[str, ClassScores] = {}
    for i, label in enumerate(matrix.labels):
        tp = matrix.counts[i][i]
        gold_count = sum(matrix.counts[i])
        pred_count = sum(matrix.counts[r][i] for r in range(k))
        undefined = gold_count == 0 or pred_count == 0
        precision = tp / pred_count if pred_count else 0.0
        recall = tp / gold_count if gold_count else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[label] = ClassScores(precision, recall, f1, gold_count, undefined)

    macro_f1 = sum(s.f1 for s in per_class.values()) / k
    weighted_f1 = sum(s.f1 * s.support for s in per_class.values()) / total
    return EvalReport(trace / total, per_class, macro_f1, weighted_f1, matrix)


def observed_agreement(a: Sequence, b: Sequence) -> float:
    """Fraction of positions labeled identically."""
    _check_aligned(a, b)
    return sum(map(operator.eq, a, b)) / len(a)


def cohen_kappa(a: Sequence, b: Sequence) -> float:
    """Chance-corrected agreement between two annotators.

    kappa = (A_o - A_e) / (1 - A_e) where A_e is the expected agreement
    from the two annotators' label marginals. When both sequences are the
    same single label throughout, A_e is 1 and kappa is defined as 1.0.
    """
    return _kappa(observed_agreement(a, b), a, b)


def _kappa(observed: float, a: Sequence, b: Sequence) -> float:
    """Cohen's kappa of two aligned, non-empty label sequences whose observed agreement is given."""
    n = len(a)
    marg_a = Counter(a)
    marg_b = Counter(b)
    a_e = 0.0
    for label in sorted(set(marg_a) | set(marg_b), key=str):
        a_e += (marg_a[label] / n) * (marg_b[label] / n)
    if a_e >= 1.0:
        return 1.0
    return (observed - a_e) / (1.0 - a_e)


class AgreementReport(NamedTuple):
    layer: str
    annotators: tuple[str, ...]
    observed: float
    kappa: float
    n_items: int
    is_mean: bool = False


def pairwise_agreement(indexes: Mapping[str, ItemIndex], layer: str) -> list[AgreementReport]:
    """Observed agreement and kappa for every annotator pair on one layer.

    ``indexes`` is the annotator -> ItemIndex mapping of index_by_item.
    Items align by question position (dialogue, turn, span); answers align
    by the question they reference. A final report with ``is_mean=True``
    carries the unweighted mean over pairs; its n_items sums the pairwise
    comparison counts. Raises NoAlignedItems when fewer than two annotators
    share any item.
    """
    if layer not in LAYERS:
        raise ValueError(f"unknown layer {layer!r}; expected one of {LAYERS}")
    ids = sorted(indexes)
    if len(ids) < 2:
        raise NoAlignedItems("agreement needs at least two annotators")

    side, tag = _LAYER_TABLE[layer]
    numbers: dict[Hashable, int] = {}  # item key -> number, one numbering for every annotator
    labels = {}
    for annotator in ids:
        items = indexes[annotator][side].items()
        if layer == "features":
            # feature tags are undefined outside feature-bearing types, so the
            # comparison covers only items both annotators typed as such
            items = ((key, ann) for key, ann in items if ann.q_type in FEATURE_BEARING)
        labels[annotator] = {numbers.setdefault(key, len(numbers)): tag(ann) for key, ann in items}
    reports: list[AgreementReport] = []
    for id_a, id_b in itertools.combinations(ids, 2):
        map_a, map_b = labels[id_a], labels[id_b]
        # shared items in no particular order: observed agreement is an integer
        # count over n, and kappa sums the label marginals in sorted-label order
        keys = map_a.keys() & map_b.keys()
        if not keys:
            continue
        labels_a = [map_a[k] for k in keys]
        labels_b = [map_b[k] for k in keys]
        observed = observed_agreement(labels_a, labels_b)
        reports.append(
            AgreementReport(layer, (id_a, id_b), observed, _kappa(observed, labels_a, labels_b), len(keys))
        )
    if not reports:
        raise NoAlignedItems(f"no items aligned across annotators on layer {layer!r}")
    reports.append(
        AgreementReport(
            layer,
            tuple(ids),
            sum(r.observed for r in reports) / len(reports),
            sum(r.kappa for r in reports) / len(reports),
            sum(r.n_items for r in reports),
            is_mean=True,
        )
    )
    return reports


class DisagreementCategory(Tag):
    CASCADE = "cascade"
    UNCATEGORIZED = "uncategorized"


class DisagreementRecord(NamedTuple):
    layer: str
    item: str  # question reference string
    tags: Mapping[str, str]  # annotator id -> tag ("-" for no feature)
    category: DisagreementCategory


def disagreement_report(indexes: Mapping[str, ItemIndex]) -> list[DisagreementRecord]:
    """List every item where at least two annotators disagree.

    Each side of the indexes is scanned once, item by item, over the layers
    that read it, in _LAYER_TABLE order. Records default to
    the uncategorized bucket since naming a cause is a human judgment. The
    one automatic inference: a feature-layer mismatch on an item whose
    question types also differ is marked as a cascade, because the type
    choice decides whether a feature exists at all.

    Unlike kappa scoring, the feature comparison here spans all
    co-annotated questions, so type-driven feature loss is visible.
    ``indexes`` is the annotator -> ItemIndex mapping of index_by_item.

    The listing stays a list, not a generator, since callers count it with
    ``len()`` (the benchmark's tracer does); ``agree`` builds each record's
    ``_asdict()`` row only as ``write_json`` writes it.
    """
    ids = sorted(indexes)
    records: list[DisagreementRecord] = []
    for side in (0, 1):
        layers = [(layer, tag) for layer, (layer_side, tag) in _LAYER_TABLE.items() if layer_side == side]
        maps = [(annotator, indexes[annotator][side]) for annotator in ids]
        for key in sorted({key for _, mapping in maps for key in mapping}):
            present = {annotator: ann for annotator, mapping in maps if (ann := mapping.get(key)) is not None}
            if len(present) < 2:
                continue
            item = question_ref(*key) if side == 0 else key
            category = DisagreementCategory.UNCATEGORIZED
            for layer, tag in layers:
                tags = list(map(tag, present.values()))
                if len(set(tags)) > 1:
                    records.append(DisagreementRecord(layer, item, dict(zip(present, tags)), category))
                    category = DisagreementCategory.CASCADE  # a later layer of the item follows from this one
    return records
