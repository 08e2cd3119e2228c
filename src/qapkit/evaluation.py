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
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .model import (
    FEATURE_BEARING,
    AnswerAnnotation,
    QuestionAnnotation,
    Tag,
)

AnnotationRecord = Union[QuestionAnnotation, AnswerAnnotation]

#: One annotator's questions by (dialogue, turn, span) and answers by question reference.
ItemIndex = tuple[dict[tuple, QuestionAnnotation], dict[str, AnswerAnnotation]]

LAYERS = ("questions", "features", "answers")


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
            "per_class": {
                label: {
                    "precision": s.precision,
                    "recall": s.recall,
                    "f1": s.f1,
                    "support": s.support,
                    "undefined": s.undefined,
                }
                for label, s in self.per_class.items()
            },
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


def index_by_item(records: Iterable[AnnotationRecord]) -> ItemIndex:
    """Index one annotator's records by item; the first record for an item wins.

    Questions are keyed by position (dialogue, turn, span), answers by the
    reference of the question they answer.
    """
    questions: dict[tuple, QuestionAnnotation] = {}
    answers: dict[str, AnswerAnnotation] = {}
    for rec in records:
        if isinstance(rec, QuestionAnnotation):
            questions.setdefault(rec.key, rec)
        else:
            answers.setdefault(rec.question_ref, rec)
    return questions, answers


# The loops below read a tag's string as ``member._value_``: it is what
# ``member.value`` returns, but ``value`` is a property, several times slower to read.
def _feature_tag(ann: QuestionAnnotation) -> str:
    return ann.feature._value_ if ann.feature is not None else "-"


def _layer_labels(index: ItemIndex, layer: str) -> Iterator[tuple[Hashable, str]]:
    """(item key, label) for each item of one annotator's index on a layer."""
    questions, answers = index
    if layer == "answers":
        return ((ref, ann.a_type._value_) for ref, ann in answers.items())
    if layer == "questions":
        return ((key, ann.q_type._value_) for key, ann in questions.items())
    # feature tags are undefined outside feature-bearing types, so the
    # comparison covers only items both annotators typed as such
    return ((key, _feature_tag(ann)) for key, ann in questions.items() if ann.q_type in FEATURE_BEARING)


def pairwise_agreement(indexes: Mapping[str, ItemIndex], layer: str) -> list[AgreementReport]:
    """Observed agreement and kappa for every annotator pair on one layer.

    ``indexes`` maps each annotator to the index_by_item of their records.
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

    numbers: dict[Hashable, int] = {}  # item key -> number, one numbering for every annotator
    labels = {
        annotator: {
            numbers.setdefault(key, len(numbers)): label
            for key, label in _layer_labels(indexes[annotator], layer)
        }
        for annotator in ids
    }
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

    Question, feature, and answer layers are scanned; records default to
    the uncategorized bucket since naming a cause is a human judgment. The
    one automatic inference: a feature-layer mismatch on an item whose
    question types also differ is marked as a cascade, because the type
    choice decides whether a feature exists at all.

    Unlike kappa scoring, the feature comparison here spans all
    co-annotated questions, so type-driven feature loss is visible.
    ``indexes`` maps each annotator to the index_by_item of their records.
    """
    ids = sorted(indexes)
    q_maps = [(annotator, indexes[annotator][0]) for annotator in ids]
    a_maps = [(annotator, indexes[annotator][1]) for annotator in ids]

    records: list[DisagreementRecord] = []

    for key in sorted({key for _, mapping in q_maps for key in mapping}):
        present = [(annotator, ann) for annotator, mapping in q_maps if (ann := mapping.get(key)) is not None]
        if len(present) < 2:
            continue
        ref = present[0][1].ref
        q_tags = {annotator: ann.q_type._value_ for annotator, ann in present}
        q_disagree = len(set(q_tags.values())) > 1
        if q_disagree:
            records.append(
                DisagreementRecord("questions", ref, q_tags, DisagreementCategory.UNCATEGORIZED)
            )
        f_tags = {annotator: _feature_tag(ann) for annotator, ann in present}
        if len(set(f_tags.values())) > 1:
            category = (
                DisagreementCategory.CASCADE if q_disagree else DisagreementCategory.UNCATEGORIZED
            )
            records.append(DisagreementRecord("features", ref, f_tags, category))

    for ref in sorted({ref for _, mapping in a_maps for ref in mapping}):
        present = [(annotator, ann) for annotator, mapping in a_maps if (ann := mapping.get(ref)) is not None]
        if len(present) < 2:
            continue
        a_tags = {annotator: ann.a_type._value_ for annotator, ann in present}
        if len(set(a_tags.values())) > 1:
            records.append(
                DisagreementRecord("answers", ref, a_tags, DisagreementCategory.UNCATEGORIZED)
            )
    return records
