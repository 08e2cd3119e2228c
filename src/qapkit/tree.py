"""Decision-tree learner over question feature vectors, written from scratch.

Splits are binary. A boolean predictor routes False left, True right; the
numeric ``length`` predictor routes ``<= threshold`` left with thresholds at
midpoints between adjacent distinct observed values. Each node takes the
split with maximal information gain; ties prefer the predictor earliest in
the canonical field order, then the smallest threshold. Training first groups
the instances into a label-count vector per distinct feature vector, its
counts in label string order. A node, and each side of a candidate split, sums
those vectors column by column, so the cost scales with distinct vectors, not
with instances. The sums are integers and entropy adds its terms in that fixed
label order, so the learned tree does not depend on the training file's order.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import Counter
from typing import IO, Iterable, Iterator, NamedTuple, Optional, Sequence

from .features import FEATURE_NAMES, FeatureVector
from .ingestion import IngestError, _shown, decode_json, write_json
from .model import QuestionType, checked_record


class EmptyTrainingSet(ValueError):
    """Training or baseline fitting got no instances."""


class MalformedModel(ValueError):
    """A model document that cannot be decoded into a tree."""


class UnsupportedVersion(ValueError):
    """A model document written by a newer format revision."""


MODEL_FORMAT_VERSION = 1

#: Order that breaks leaf-label ties after training frequency.
LABEL_TIE_ORDER: tuple[QuestionType, ...] = (
    QuestionType.YN, QuestionType.WH, QuestionType.DQ, QuestionType.CS, QuestionType.PQ,
)

_LENGTH_INDEX = FEATURE_NAMES.index("length")
_BOOLEAN_INDEXES = tuple(i for i in range(len(FEATURE_NAMES)) if i != _LENGTH_INDEX)

#: The labels in string order, the order a label-count vector holds them in.
_LABELS: tuple[QuestionType, ...] = tuple(sorted(QuestionType, key=str))
_NO_COUNTS = (0,) * len(_LABELS)

#: Label counts, one per label in ``_LABELS`` order.
_Counts = tuple[int, ...]
#: A distinct feature vector with its label counts.
_Group = tuple[FeatureVector, _Counts]


class LabeledInstance(NamedTuple):
    fv: FeatureVector
    label: QuestionType


class TrainConfig(checked_record("TrainConfig", "max_depth min_samples_leaf")):
    __slots__ = ()

    def __new__(cls, max_depth: Optional[int] = None, min_samples_leaf: int = 1):
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1 when set")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        return tuple.__new__(cls, (max_depth, min_samples_leaf))


class Node(NamedTuple):
    """Internal node (feature set, two children) or leaf (label set)."""

    feature: Optional[str] = None
    threshold: Optional[float] = None
    left: Optional["Node"] = None
    right: Optional["Node"] = None
    label: Optional[QuestionType] = None
    distribution: Optional[dict] = None

    @property
    def is_leaf(self) -> bool:
        return self.label is not None


class TreeModel(NamedTuple):
    root: Node

    def depth(self) -> int:
        def walk(node: Node) -> int:
            return 0 if node.is_leaf else 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)


def _entropy(counts: _Counts, total: int) -> float:
    h = 0.0
    # fixed summation order keeps float results permutation-independent
    for count in counts:
        if count:
            p = count / total
            h -= p * math.log2(p)
    return h if h > 0.0 else 0.0


def _label_counts(labels: Iterable[QuestionType]) -> _Counts:
    counts = Counter(labels)
    return tuple(counts[label] for label in _LABELS)


def entropy(labels: Iterable[QuestionType]) -> float:
    """Shannon entropy in bits of the empirical label distribution."""
    counts = _label_counts(labels)
    return _entropy(counts, sum(counts))


def _gain(counts: _Counts, n: int, parent_h: float, left: _Counts, min_leaf: int = 1) -> float:
    """Entropy reduction of sending ``left`` of the ``n`` in ``counts`` left; 0 if a side has < min_leaf."""
    nl = sum(left)
    nr = n - nl
    if nl < min_leaf or nr < min_leaf:
        return 0.0
    right = tuple(map(operator.sub, counts, left))
    gain = parent_h - nl / n * _entropy(left, nl) - nr / n * _entropy(right, nr)
    return gain if gain > 0.0 else 0.0


def _goes_right(value: object, threshold: Optional[float]) -> bool:
    return bool(value) if threshold is None else value > threshold


def candidate_splits(instances: Sequence[LabeledInstance]) -> list[tuple[str, Optional[float]]]:
    """The splits train_tree weighs at a node holding ``instances``, in tie-break order."""
    splits = _splits([(inst.fv, _NO_COUNTS) for inst in instances])  # which splits depends on the vectors alone
    return [(FEATURE_NAMES[index], threshold) for index, threshold, _ in splits]


def information_gain(
    instances: Sequence[LabeledInstance], feature: str, threshold: Optional[float] = None
) -> float:
    """Entropy reduction of one binary split; 0 when a side is empty."""
    counts = _label_counts(i.label for i in instances)
    left = _label_counts(i.label for i in instances if not _goes_right(getattr(i.fv, feature), threshold))
    n = sum(counts)
    return _gain(counts, n, _entropy(counts, n), left)


def _column_sums(rows: Iterable[_Counts], start: _Counts = _NO_COUNTS) -> _Counts:
    """``start`` plus each row of label counts, label by label."""
    return tuple(map(sum, zip(start, *rows)))


def _splits(groups: list[_Group]) -> Iterator[tuple[int, Optional[float], _Counts]]:
    """(predictor index, threshold, label counts sent left) of each split of ``groups``, in tie-break order:
    the boolean predictors in field order, then the ``length`` midpoints, ascending."""
    for index in _BOOLEAN_INDEXES:
        yield index, None, _column_sums([c for vec, c in groups if not vec[index]])
    by_length: dict[int, list[_Counts]] = {}
    for vec, c in groups:
        by_length.setdefault(vec[_LENGTH_INDEX], []).append(c)
    lengths = sorted(by_length)
    left = _NO_COUNTS
    for low, high in zip(lengths, lengths[1:]):  # running counts of length <= low
        left = _column_sums(by_length[low], left)
        yield _LENGTH_INDEX, (low + high) / 2, left


def _leaf(counts: _Counts, global_counts: _Counts) -> Node:
    seen = [i for i, count in enumerate(counts) if count]
    best = max(seen, key=lambda i: (counts[i], global_counts[i], -LABEL_TIE_ORDER.index(_LABELS[i])))
    return Node(label=_LABELS[best], distribution={_LABELS[i]: counts[i] for i in seen})


def train_tree(data: Iterable[LabeledInstance], cfg: TrainConfig = TrainConfig()) -> TreeModel:
    """Grow a tree by greedy information-gain maximization.

    Growth stops at label purity, at ``max_depth``, when a split would
    leave a side under ``min_samples_leaf``, or when no candidate split
    achieves positive gain. Leaf label ties break by count at the leaf,
    then count in the whole training set, then a fixed label order.
    """
    pairs = Counter(data)  # (feature vector, label) -> count
    if not pairs:
        raise EmptyTrainingSet("no training instances")
    slots = {label: i for i, label in enumerate(_LABELS)}
    by_vector: dict[FeatureVector, list[int]] = {}
    for (vec, label), count in pairs.items():
        by_vector.setdefault(vec, list(_NO_COUNTS))[slots[label]] = count
    groups = [(vec, tuple(counts)) for vec, counts in by_vector.items()]
    global_counts = _column_sums(by_vector.values())

    def grow(groups: list[_Group], depth: int) -> Node:
        counts = _column_sums([c for _, c in groups])
        n = sum(counts)
        if n in counts or (cfg.max_depth is not None and depth >= cfg.max_depth):  # pure: one label holds all
            return _leaf(counts, global_counts)
        parent_h = _entropy(counts, n)
        best: Optional[tuple[int, Optional[float]]] = None
        best_gain = 0.0
        for index, threshold, left in _splits(groups):
            gain = _gain(counts, n, parent_h, left, cfg.min_samples_leaf)
            if gain > best_gain:  # strict: first candidate keeps ties
                best, best_gain = (index, threshold), gain
        if best is None:
            return _leaf(counts, global_counts)
        index, threshold = best
        return Node(
            feature=FEATURE_NAMES[index], threshold=threshold,
            left=grow([g for g in groups if not _goes_right(g[0][index], threshold)], depth + 1),
            right=grow([g for g in groups if _goes_right(g[0][index], threshold)], depth + 1),
        )

    return TreeModel(root=grow(groups, 0))


def predict(model: TreeModel, fv: FeatureVector) -> QuestionType:
    """Route a feature vector to its leaf label. Total and pure."""
    node = model.root
    while not node.is_leaf:
        node = node.right if _goes_right(getattr(fv, node.feature), node.threshold) else node.left
    return node.label


def majority_baseline(labels: Iterable[QuestionType]) -> TreeModel:
    """Constant classifier packaged as a single-leaf tree.

    Predicts the most frequent training label everywhere, so it can be
    saved, loaded, and evaluated exactly like a trained model.
    """
    counts = _label_counts(labels)
    if not any(counts):
        raise EmptyTrainingSet("no training labels")
    return TreeModel(root=_leaf(counts, counts))


def _node_to_obj(node: Node) -> dict:
    if node.is_leaf:
        return {"label": node.label, "distribution": node.distribution}
    return {"feature": node.feature, "threshold": node.threshold,
            "left": _node_to_obj(node.left), "right": _node_to_obj(node.right)}


def save_model(model: TreeModel, stream: IO[str]) -> None:
    """Serialize as versioned JSON with deterministic key order."""
    doc = {"version": MODEL_FORMAT_VERSION, "root": _node_to_obj(model.root)}
    write_json(doc, stream)
    stream.write("\n")


def _node_from_obj(obj: object) -> Node:
    if not isinstance(obj, dict):
        raise MalformedModel("node must be a JSON object")
    if "label" in obj:
        try:
            label = QuestionType(obj["label"])
        except (ValueError, TypeError):
            raise MalformedModel(f"bad leaf label {_shown(obj.get('label'))}") from None
        distribution = obj.get("distribution")
        if not isinstance(distribution, dict):
            raise MalformedModel("leaf distribution must be an object")
        decoded: dict[QuestionType, int] = {}
        for key, count in distribution.items():
            try:
                decoded_key = QuestionType(key)
            except ValueError:
                raise MalformedModel(f"bad distribution label {_shown(key)}") from None
            if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                raise MalformedModel(f"bad distribution count for {key!r}")
            decoded[decoded_key] = count
        return Node(label=label, distribution=decoded)

    feature = obj.get("feature")
    if feature not in FEATURE_NAMES:
        raise MalformedModel(f"unknown split feature {_shown(feature)}")
    threshold = obj.get("threshold")
    if feature == "length":
        if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
            raise MalformedModel("length split requires a numeric threshold")
        if not abs(threshold) <= sys.float_info.max:  # NaN, infinities, integers past the float range
            raise MalformedModel("length split threshold must be finite")
        threshold = float(threshold)
    elif threshold is not None:
        raise MalformedModel(f"boolean split {feature!r} cannot carry a threshold")
    if "left" not in obj or "right" not in obj:
        raise MalformedModel(f"split on {feature!r} is missing a child")
    left, right = _node_from_obj(obj["left"]), _node_from_obj(obj["right"])
    return Node(feature=feature, threshold=threshold, left=left, right=right)


def load_model(stream: IO[str]) -> TreeModel:
    """Decode a model document; reject damage and future versions."""
    try:
        doc = decode_json(stream.read())
    except IngestError as exc:  # not a UTF-8 decoding error, which names its own line
        raise MalformedModel(str(exc)) from exc
    version = doc.get("version")
    if isinstance(version, bool) or not isinstance(version, int) or version < 1:
        raise MalformedModel(f"missing or invalid version field: {_shown(version)}")
    if version > MODEL_FORMAT_VERSION:
        raise UnsupportedVersion(
            f"model format version {_shown(version)} is newer than supported {MODEL_FORMAT_VERSION}"
        )
    if "root" not in doc:
        raise MalformedModel("model document has no root node")
    try:
        return TreeModel(root=_node_from_obj(doc["root"]))
    except RecursionError:
        raise MalformedModel("model nesting too deep") from None
