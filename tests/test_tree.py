import io
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qapkit import (
    EmptyTrainingSet,
    LabeledInstance,
    MalformedModel,
    Node,
    QuestionType,
    TrainConfig,
    TreeModel,
    UnsupportedVersion,
    entropy,
    information_gain,
    load_model,
    majority_baseline,
    predict,
    save_model,
    train_tree,
)
from qapkit.features import FEATURE_NAMES
from qapkit.tree import LABEL_TIE_ORDER, candidate_splits

from helpers import make_fv

YN, WH, DQ, CS, PQ = QuestionType.YN, QuestionType.WH, QuestionType.DQ, QuestionType.CS, QuestionType.PQ

LABELS_STRATEGY = st.lists(st.sampled_from(list(QuestionType)), min_size=1, max_size=30)


def inst(label, **fv_overrides):
    return LabeledInstance(make_fv(**fv_overrides), label)


def random_instances(rng, size):
    out = []
    for _ in range(size):
        out.append(
            LabeledInstance(
                make_fv(
                    has_wh=rng.random() < 0.5,
                    has_or=rng.random() < 0.5,
                    has_inversion=rng.random() < 0.5,
                    has_tag=rng.random() < 0.5,
                    last_utt_similar=rng.random() < 0.5,
                    last_utt_incomplete=rng.random() < 0.5,
                    has_cliche=rng.random() < 0.5,
                    length=rng.randint(0, 8),
                ),
                rng.choice(list(QuestionType)),
            )
        )
    return out


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy([YN, YN, WH, WH]) == 1.0

    def test_single_class(self):
        assert entropy([YN, YN, YN]) == 0.0

    def test_empty(self):
        assert entropy([]) == 0.0

    def test_three_to_one_split(self):
        assert entropy([YN, YN, YN, WH]) == pytest.approx(0.8112781244591328, abs=1e-15)

    def test_uniform_over_five(self):
        assert entropy(list(QuestionType)) == pytest.approx(math.log2(5))

    @given(LABELS_STRATEGY)
    def test_bounds(self, labels):
        h = entropy(labels)
        assert 0.0 <= h <= math.log2(len(QuestionType)) + 1e-12

    @given(st.permutations([YN, YN, WH, PQ, CS, CS, DQ]))
    def test_order_invariant_to_the_bit(self, labels):
        assert entropy(labels) == entropy([YN, YN, WH, PQ, CS, CS, DQ])


class TestInformationGain:
    def test_perfect_separation_equals_parent_entropy(self):
        data = [inst(YN, has_wh=False)] * 3 + [inst(WH, has_wh=True)]
        gain = information_gain(data, "has_wh")
        assert gain == pytest.approx(0.8112781244591328, abs=1e-15)
        assert gain == pytest.approx(entropy([i.label for i in data]), abs=1e-15)

    def test_identical_distributions_no_gain(self):
        data = [
            inst(YN, has_or=False),
            inst(WH, has_or=False),
            inst(YN, has_or=True),
            inst(WH, has_or=True),
        ]
        assert information_gain(data, "has_or") == 0.0

    def test_empty_side_is_zero_by_convention(self):
        data = [inst(YN), inst(WH)]  # nobody has has_tag set
        assert information_gain(data, "has_tag") == 0.0

    def test_length_threshold(self):
        data = [inst(PQ, length=1), inst(PQ, length=2), inst(YN, length=6)]
        assert information_gain(data, "length", 4.0) == pytest.approx(
            entropy([PQ, PQ, YN]), abs=1e-15
        )

    def test_never_negative_on_random_data(self):
        rng = random.Random(7)
        for _ in range(50):
            data = random_instances(rng, rng.randint(1, 12))
            for feature, threshold in candidate_splits(data):
                assert information_gain(data, feature, threshold) >= 0.0


class TestCandidateSplits:
    def test_booleans_come_first_in_field_order(self):
        data = [inst(YN, length=2), inst(WH, length=4)]
        splits = candidate_splits(data)
        assert splits[:7] == [
            ("has_wh", None),
            ("has_or", None),
            ("has_inversion", None),
            ("has_tag", None),
            ("last_utt_similar", None),
            ("last_utt_incomplete", None),
            ("has_cliche", None),
        ]
        assert splits[7:] == [("length", 3.0)]

    def test_length_midpoints(self):
        data = [inst(YN, length=1), inst(YN, length=2), inst(YN, length=6), inst(YN, length=2)]
        thresholds = [t for f, t in candidate_splits(data) if f == "length"]
        assert thresholds == [1.5, 4.0]

    def test_constant_length_offers_no_threshold(self):
        data = [inst(YN, length=3), inst(WH, length=3)]
        assert all(f != "length" for f, _ in candidate_splits(data))


class TestTraining:
    def test_pure_data_gives_single_leaf(self):
        model = train_tree([inst(PQ, length=1), inst(PQ, length=9)])
        assert model.root.is_leaf
        assert model.root.label is PQ
        assert model.root.distribution == {PQ: 2}
        assert model.depth() == 0

    def test_forced_single_split(self):
        model = train_tree([inst(YN, has_wh=False), inst(WH, has_wh=True)])
        assert model.root.feature == "has_wh"
        assert model.root.threshold is None
        assert model.root.left.label is YN  # False routes left
        assert model.root.right.label is WH
        assert model.depth() == 1

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            train_tree([])

    def test_max_depth_respected(self):
        rng = random.Random(3)
        data = random_instances(rng, 40)
        model = train_tree(data, TrainConfig(max_depth=2))
        assert model.depth() <= 2

    def test_min_samples_leaf_blocks_tiny_splits(self):
        # only has_wh separates, but one side would hold a single instance
        data = [inst(YN), inst(YN), inst(YN), inst(WH, has_wh=True)]
        model = train_tree(data, TrainConfig(min_samples_leaf=2))
        assert model.root.is_leaf
        assert model.root.label is YN

    def test_contradictory_duplicates_become_majority_leaf(self):
        data = [inst(YN), inst(YN), inst(WH)]  # identical vectors, mixed labels
        model = train_tree(data)
        assert model.root.is_leaf
        assert model.root.label is YN
        assert model.root.distribution == {YN: 2, WH: 1}

    def test_leaf_tie_breaks_by_global_frequency(self):
        # leaf sees YN and WH once each; WH is globally more frequent
        data = [
            inst(YN, length=1),
            inst(WH, length=1),
            inst(WH, has_wh=True, length=5),
            inst(WH, has_wh=True, length=5),
        ]
        model = train_tree(data, TrainConfig(max_depth=1))
        tied_leaf = model.root.left
        assert Counter({WH: 1, YN: 1}) == Counter(tied_leaf.distribution)
        assert tied_leaf.label is WH

    def test_leaf_tie_breaks_by_fixed_order_last(self):
        data = [inst(YN), inst(WH)]  # same vector, global counts tied too
        model = train_tree(data, TrainConfig(max_depth=1))
        assert model.root.is_leaf
        assert model.root.label is YN

    def test_training_accuracy_one_without_contradictions(self):
        rng = random.Random(11)
        for _ in range(25):
            raw = random_instances(rng, rng.randint(1, 30))
            seen = {}
            data = [seen.setdefault(i.fv, i) for i in raw]
            data = list(dict.fromkeys(data))
            model = train_tree(data)
            assert all(predict(model, i.fv) is i.label for i in data)

    def test_permutation_stability(self):
        rng = random.Random(13)
        for _ in range(20):
            data = random_instances(rng, rng.randint(2, 25))
            reference = train_tree(data)
            for _ in range(3):
                shuffled = data[:]
                rng.shuffle(shuffled)
                assert train_tree(shuffled) == reference

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(max_depth=0)
        with pytest.raises(ValueError):
            TrainConfig(min_samples_leaf=0)


def reference_entropy(subset):
    """Entropy of the instances' labels from a Counter, its terms summed in label string order."""
    counts = Counter(i.label for i in subset)
    out = 0.0
    for key in sorted(counts, key=str):
        p = counts[key] / len(subset)
        out -= p * math.log2(p)
    return out if out > 0.0 else 0.0


def reference_train_tree(data, cfg):
    """Instance-level learner: re-partitions every instance for every candidate split."""

    def goes_right(fv, feature, threshold):
        value = getattr(fv, feature)
        return bool(value) if threshold is None else value > threshold

    h = reference_entropy

    instances = sorted(data, key=lambda i: (i.fv.as_tuple(), i.label.value))
    global_counts = Counter(i.label for i in instances)

    def leaf(counts):
        label = max(counts, key=lambda l: (counts[l], global_counts[l], -LABEL_TIE_ORDER.index(l)))
        return Node(label=label, distribution=dict(counts))

    def grow(subset, depth):
        counts = Counter(i.label for i in subset)
        if len(counts) == 1 or (cfg.max_depth is not None and depth >= cfg.max_depth):
            return leaf(counts)
        lengths = sorted({i.fv.length for i in subset})
        splits = [(name, None) for name in FEATURE_NAMES if name != "length"]
        splits += [("length", (lo + hi) / 2) for lo, hi in zip(lengths, lengths[1:])]
        best, best_gain = None, 0.0
        for feature, threshold in splits:
            left = [i for i in subset if not goes_right(i.fv, feature, threshold)]
            right = [i for i in subset if goes_right(i.fv, feature, threshold)]
            if len(left) < cfg.min_samples_leaf or len(right) < cfg.min_samples_leaf:
                continue
            n = len(subset)
            gain = h(subset) - len(left) / n * h(left) - len(right) / n * h(right)
            if gain > best_gain:
                best, best_gain = (feature, threshold, left, right), gain
        if best is None:
            return leaf(counts)
        feature, threshold, left, right = best
        return Node(feature=feature, threshold=threshold, left=grow(left, depth + 1), right=grow(right, depth + 1))

    return TreeModel(root=grow(instances, 0))


class TestCountBasedLearner:
    """train_tree grows from label counts per distinct vector; the model must not change."""

    @staticmethod
    def dataset(rng):
        pool = [(i.fv, i.label) for i in random_instances(rng, rng.randint(1, 12))]
        data = []
        for _ in range(rng.randint(1, 80)):
            fv, label = rng.choice(pool)
            if rng.random() < 0.3:
                label = rng.choice(list(QuestionType))
            data.append(LabeledInstance(fv, label))
        return data

    @staticmethod
    def saved(model):
        buf = io.StringIO()
        save_model(model, buf)
        return buf.getvalue()

    def test_same_model_bytes_as_the_instance_level_learner(self):
        rng = random.Random(23)
        for _ in range(40):
            data = self.dataset(rng)
            for max_depth in (None, 1, 3):
                for min_samples_leaf in (1, 2, 5):
                    cfg = TrainConfig(max_depth=max_depth, min_samples_leaf=min_samples_leaf)
                    expected = reference_train_tree(data, cfg)
                    got = train_tree(data, cfg)
                    assert got == expected
                    assert self.saved(got) == self.saved(expected)


class TestScorerMatchesTheCounterDefinition:
    """entropy and information_gain sum label-count vectors; each float is the Counter definition's, to the bit."""

    # zero to six of each label: some labels missing, or all five present
    SIDES = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=5, max_size=5)

    @staticmethod
    def instances(sides, seed):
        out = []
        for label, (left, right) in zip(QuestionType, sides):
            out += [inst(label)] * left + [inst(label, has_wh=True)] * right
        random.Random(seed).shuffle(out)
        return out

    @given(SIDES, st.integers(0, 2**32))
    def test_entropy(self, sides, seed):
        data = self.instances(sides, seed)
        assert entropy([i.label for i in data]) == reference_entropy(data)

    @given(SIDES, st.integers(0, 2**32))
    def test_information_gain(self, sides, seed):
        data = self.instances(sides, seed)
        left = [i for i in data if not i.fv.has_wh]
        right = [i for i in data if i.fv.has_wh]
        expected = 0.0
        if left and right:
            n = len(data)
            h = reference_entropy
            expected = max(h(data) - len(left) / n * h(left) - len(right) / n * h(right), 0.0)
        assert information_gain(data, "has_wh") == expected


class TestPredict:
    def test_single_leaf_predicts_constantly(self):
        model = TreeModel(root=Node(label=CS, distribution={CS: 5}))
        assert predict(model, make_fv()) is CS
        assert predict(model, make_fv(has_wh=True, length=20)) is CS

    def test_length_routing_is_inclusive_on_the_left(self):
        left = Node(label=PQ, distribution={PQ: 1})
        right = Node(label=YN, distribution={YN: 1})
        model = TreeModel(root=Node(feature="length", threshold=2.5, left=left, right=right))
        assert predict(model, make_fv(length=2)) is PQ
        assert predict(model, make_fv(length=3)) is YN


class TestBaseline:
    def test_majority_label_everywhere(self):
        model = majority_baseline([YN, YN, WH])
        assert model.root.is_leaf
        for fv in (make_fv(), make_fv(has_wh=True), make_fv(length=25)):
            assert predict(model, fv) is YN

    def test_tie_prefers_fixed_order(self):
        model = majority_baseline([WH, YN, YN, WH])
        assert predict(model, make_fv()) is YN

    def test_empty(self):
        with pytest.raises(EmptyTrainingSet):
            majority_baseline([])

    def test_baseline_round_trips_like_any_model(self):
        model = majority_baseline([PQ, PQ, YN])
        buf = io.StringIO()
        save_model(model, buf)
        buf.seek(0)
        assert load_model(buf) == model


# a split on has_wh between two leaves
SPLIT = {
    "feature": "has_wh", "threshold": None,
    "left": {"label": "YN", "distribution": {"YN": 1}}, "right": {"label": "WH", "distribution": {"WH": 1}},
}


class TestSerialization:
    def roundtrip(self, model):
        buf = io.StringIO()
        save_model(model, buf)
        buf.seek(0)
        return load_model(buf)

    def test_round_trip_identity(self):
        rng = random.Random(17)
        for _ in range(10):
            model = train_tree(random_instances(rng, rng.randint(2, 30)))
            assert self.roundtrip(model) == model

    def test_saved_bytes_are_deterministic(self):
        model = train_tree([inst(YN), inst(WH, has_wh=True), inst(PQ, has_cliche=True, length=1)])
        a, b = io.StringIO(), io.StringIO()
        save_model(model, a)
        save_model(model, b)
        assert a.getvalue() == b.getvalue()

    def test_version_field_embedded(self):
        buf = io.StringIO()
        save_model(majority_baseline([YN]), buf)
        assert json.loads(buf.getvalue())["version"] == 1

    def test_truncated_document(self):
        with pytest.raises(MalformedModel):
            load_model(io.StringIO('{"version": 1, "root": {"label"'))

    def test_future_version(self):
        with pytest.raises(UnsupportedVersion):
            load_model(io.StringIO('{"version": 99, "root": {"label": "YN", "distribution": {"YN": 1}}}'))

    def test_missing_version(self):
        with pytest.raises(MalformedModel):
            load_model(io.StringIO('{"root": {"label": "YN", "distribution": {"YN": 1}}}'))

    def test_bad_label(self):
        with pytest.raises(MalformedModel):
            load_model(io.StringIO('{"version": 1, "root": {"label": "??", "distribution": {"??": 1}}}'))

    def test_unknown_split_feature(self):
        doc = {
            "version": 1,
            "root": {
                "feature": "has_sparkles",
                "threshold": None,
                "left": {"label": "YN", "distribution": {"YN": 1}},
                "right": {"label": "WH", "distribution": {"WH": 1}},
            },
        }
        with pytest.raises(MalformedModel):
            load_model(io.StringIO(json.dumps(doc)))

    def test_long_values_are_cut_in_messages(self):
        long, shown = "Z" * 5000, f"{'Z' * 40!r}... (5000 characters)"
        leaf = {"label": "YN", "distribution": {"YN": 1}}
        for doc, message in [
            ({"version": 1, "root": {"label": long}}, f"bad leaf label {shown}"),
            ({"version": 1, "root": {"label": "YN", "distribution": {long: 1}}}, f"bad distribution label {shown}"),
            (
                {"version": 1, "root": {"feature": long, "threshold": None, "left": leaf, "right": leaf}},
                f"unknown split feature {shown}",
            ),
            ({"version": long, "root": leaf}, f"missing or invalid version field: {shown}"),
            ({"version": 10**99, "root": leaf}, f"model format version {'1' + '0' * 39}... (100 characters) is newer"),
        ]:
            with pytest.raises(ValueError) as info:
                load_model(io.StringIO(json.dumps(doc)))
            assert str(info.value).startswith(message)

    def test_boolean_split_rejects_threshold(self):
        doc = {
            "version": 1,
            "root": {
                "feature": "has_wh",
                "threshold": 0.5,
                "left": {"label": "YN", "distribution": {"YN": 1}},
                "right": {"label": "WH", "distribution": {"WH": 1}},
            },
        }
        with pytest.raises(MalformedModel):
            load_model(io.StringIO(json.dumps(doc)))

    def test_missing_child(self):
        doc = {
            "version": 1,
            "root": {"feature": "has_wh", "threshold": None, "left": {"label": "YN", "distribution": {"YN": 1}}},
        }
        with pytest.raises(MalformedModel, match="child"):
            load_model(io.StringIO(json.dumps(doc)))

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"version": 1, "root": {**SPLIT, "left": 3}}, "node must be a JSON object"),
            ({"version": 1, "root": {"label": "YN", "distribution": [1]}}, "leaf distribution must be an object"),
            ({"version": 1, "root": {"label": "YN", "distribution": {"YN": -1}}}, "bad distribution count for 'YN'"),
            ({"version": 1, "root": {"label": "YN", "distribution": {"YN": True}}}, "bad distribution count for 'YN'"),
            (
                {"version": 1, "root": {**SPLIT, "feature": "length", "threshold": None}},
                "length split requires a numeric threshold",
            ),
            ({"version": 1}, "model document has no root node"),
        ],
        ids=["child", "distribution", "negative-count", "boolean-count", "length-threshold", "root"],
    )
    def test_each_fault_is_named(self, doc, message):
        with pytest.raises(MalformedModel) as info:
            load_model(io.StringIO(json.dumps(doc)))
        assert str(info.value) == message

    def test_non_object_document(self):
        with pytest.raises(MalformedModel):
            load_model(io.StringIO("[1, 2, 3]"))
