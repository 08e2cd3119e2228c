"""Decision-tree learner over question feature vectors, written from scratch.

Splits are binary. A boolean predictor routes False left, True right; the
numeric ``length`` predictor routes ``<= threshold`` left with thresholds at
midpoints between adjacent distinct observed values. Each node takes the
split with maximal information gain; ties prefer the predictor earliest in
the canonical field order, then the smallest threshold. Training first groups
the instances into label counts per distinct feature vector, in a canonical
order: nodes sum counts, so the cost scales with distinct vectors, not with
instances, and the learned tree does not depend on the training file's order.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from typing import IO, Iterable, Mapping, NamedTuple, Optional, Sequence

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

_BOOLEAN_FEATURES = tuple(n for n in FEATURE_NAMES if n != "length")
_BOOLEAN_INDEXES = tuple(FEATURE_NAMES.index(n) for n in _BOOLEAN_FEATURES)
_LENGTH_INDEX = FEATURE_NAMES.index("length")

#: A distinct feature vector with its label counts.
_Group = tuple[FeatureVector, Counter]


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


def _entropy(counts: Mapping) -> float:
    total = sum(counts.values())
    h = 0.0
    # fixed summation order keeps float results permutation-independent
    for key in sorted(counts, key=str):
        if counts[key]:
            p = counts[key] / total
            h -= p * math.log2(p)
    return h if h > 0.0 else 0.0


def entropy(labels: Iterable[QuestionType]) -> float:
    """Shannon entropy in bits of the empirical label distribution."""
    return _entropy(Counter(labels))


def _gain(counts: Mapping, parent_h: float, left: Mapping, min_leaf: int = 1) -> float:
    """Entropy reduction of sending ``left`` of ``counts`` left; 0 if a side has < min_leaf."""
    n = sum(counts.values())
    nl = sum(left.values())
    nr = n - nl
    if nl < min_leaf or nr < min_leaf:
        return 0.0
    right = {key: count - left.get(key, 0) for key, count in counts.items()}
    gain = parent_h - nl / n * _entropy(left) - nr / n * _entropy(right)
    return gain if gain > 0.0 else 0.0


def _goes_right(value: object, threshold: Optional[float]) -> bool:
    return bool(value) if threshold is None else value > threshold


def candidate_splits(instances: Sequence[LabeledInstance]) -> list[tuple[str, Optional[float]]]:
    """All splits considered at a node, in tie-break order."""
    splits: list[tuple[str, Optional[float]]] = [(name, None) for name in _BOOLEAN_FEATURES]
    lengths = sorted({inst.fv.length for inst in instances})
    for low, high in zip(lengths, lengths[1:]):
        splits.append(("length", (low + high) / 2))
    return splits


def information_gain(
    instances: Sequence[LabeledInstance], feature: str, threshold: Optional[float] = None
) -> float:
    """Entropy reduction of one binary split; 0 when a side is empty."""
    counts = Counter(i.label for i in instances)
    left = Counter(i.label for i in instances if not _goes_right(getattr(i.fv, feature), threshold))
    return _gain(counts, _entropy(counts), left)


def _add_counts(total: Counter, groups: Iterable[_Group]) -> Counter:
    for _, counts in groups:
        for label, count in counts.items():
            total[label] += count
    return total


def _leaf(counts: Counter, global_counts: Counter) -> Node:
    label = max(counts, key=lambda lbl: (counts[lbl], global_counts[lbl], -LABEL_TIE_ORDER.index(lbl)))
    return Node(label=label, distribution=dict(counts))


def train_tree(data: Iterable[LabeledInstance], cfg: TrainConfig = TrainConfig()) -> TreeModel:
    """Grow a tree by greedy information-gain maximization.

    Growth stops at label purity, at ``max_depth``, when a split would
    leave a side under ``min_samples_leaf``, or when no candidate split
    achieves positive gain. Leaf label ties break by count at the leaf,
    then count in the whole training set, then a fixed label order.
    """
    pairs = Counter((fv, label.value) for fv, label in data)
    if not pairs:
        raise EmptyTrainingSet("no training instances")
    by_vector: dict[FeatureVector, Counter] = {}
    for (vec, value), count in sorted(pairs.items()):  # canonical order
        by_vector.setdefault(vec, Counter())[QuestionType(value)] = count
    global_counts = _add_counts(Counter(), by_vector.items())

    def grow(groups: list[_Group], depth: int) -> Node:
        counts = _add_counts(Counter(), groups)
        if len(counts) == 1 or (cfg.max_depth is not None and depth >= cfg.max_depth):
            return _leaf(counts, global_counts)
        parent_h = _entropy(counts)
        best: Optional[tuple[int, Optional[float]]] = None
        best_gain = 0.0
        for index in _BOOLEAN_INDEXES:
            left = _add_counts(Counter(), (g for g in groups if not g[0][index]))
            gain = _gain(counts, parent_h, left, cfg.min_samples_leaf)
            if gain > best_gain:  # strict: first candidate keeps ties
                best, best_gain = (index, None), gain
        by_length: dict[int, list[_Group]] = {}
        for group in groups:
            by_length.setdefault(group[0][_LENGTH_INDEX], []).append(group)
        lengths = sorted(by_length)
        left = Counter()
        for low, high in zip(lengths, lengths[1:]):  # running counts of length <= low
            gain = _gain(counts, parent_h, _add_counts(left, by_length[low]), cfg.min_samples_leaf)
            if gain > best_gain:
                best, best_gain = (_LENGTH_INDEX, (low + high) / 2), gain
        if best is None:
            return _leaf(counts, global_counts)
        index, threshold = best
        return Node(
            feature=FEATURE_NAMES[index], threshold=threshold,
            left=grow([g for g in groups if not _goes_right(g[0][index], threshold)], depth + 1),
            right=grow([g for g in groups if _goes_right(g[0][index], threshold)], depth + 1),
        )

    return TreeModel(root=grow(list(by_vector.items()), 0))


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
    counts = Counter(labels)
    if not counts:
        raise EmptyTrainingSet("no training labels")
    return TreeModel(root=_leaf(counts, counts))


def _node_to_obj(node: Node) -> dict:
    if node.is_leaf:
        distribution = {str(label): count for label, count in node.distribution.items()}
        return {"label": node.label.value, "distribution": distribution}
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
