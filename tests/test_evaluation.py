import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qapkit import (
    AnswerAnnotation,
    AnswerType,
    ConfusionMatrix,
    DisagreementCategory,
    EmptyInput,
    Feature,
    LengthMismatch,
    NoAlignedItems,
    QUESTION_TYPE_ORDER,
    QuestionAnnotation,
    QuestionType,
    cohen_kappa,
    confusion,
    disagreement_report,
    index_by_item,
    observed_agreement,
    pairwise_agreement,
    score,
    write_annotations,
)

import reference_reports
from helpers import annotation_records, first_records

YN, WH, DQ, CS, PQ = QuestionType.YN, QuestionType.WH, QuestionType.DQ, QuestionType.CS, QuestionType.PQ

# five-class reference grid: rows gold, columns predicted
GRID_LABELS = ("YN", "DQ", "PQ", "CS", "WH")
GRID = (
    (74, 1, 8, 3, 2),
    (0, 3, 0, 0, 0),
    (7, 0, 15, 0, 8),
    (1, 0, 0, 0, 0),
    (10, 0, 9, 0, 43),
)


def grid_sequences():
    gold, pred = [], []
    for i, row in enumerate(GRID):
        for j, count in enumerate(row):
            gold.extend([GRID_LABELS[i]] * count)
            pred.extend([GRID_LABELS[j]] * count)
    return gold, pred


class TestConfusion:
    def test_identity_predictions(self):
        m = confusion(["YN", "WH", "YN"], ["YN", "WH", "YN"])
        assert m.labels == ("WH", "YN")
        assert m.counts == ((1, 0), (0, 2))
        assert m.support == (1, 2)
        assert m.total == 3

    def test_explicit_label_order(self):
        m = confusion(["YN", "WH"], ["WH", "WH"], labels=("YN", "WH"))
        assert m.labels == ("YN", "WH")
        assert m.counts == ((0, 1), (0, 1))

    def test_enum_values_coerce_to_strings(self):
        m = confusion([YN, WH], [YN, YN], labels=[str(q) for q in QUESTION_TYPE_ORDER])
        assert m.labels == ("YN", "DQ", "PQ", "CS", "WH")
        assert m.total == 2

    def test_default_order_is_sorted_union(self):
        m = confusion(["b", "a"], ["c", "a"])
        assert m.labels == ("a", "b", "c")

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion(["YN"], ["YN", "WH"])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            confusion([], [])

    def test_label_outside_explicit_order(self):
        with pytest.raises(ValueError, match="outside"):
            confusion(["YN", "XX"], ["YN", "YN"], labels=("YN",))

    def test_reference_grid_reconstruction(self):
        gold, pred = grid_sequences()
        m = confusion(gold, pred, labels=GRID_LABELS)
        assert m.counts == GRID
        assert m.support == (88, 3, 30, 1, 62)
        assert m.total == 184

    def test_to_text_includes_all_cells_and_support(self):
        m = ConfusionMatrix(GRID_LABELS, GRID)
        text = m.to_text()
        lines = text.splitlines()
        assert len(lines) == 6
        assert lines[0].split() == ["YN", "DQ", "PQ", "CS", "WH", "Support"]
        assert lines[1].split() == ["YN", "74", "1", "8", "3", "2", "88"]
        assert lines[5].split() == ["WH", "10", "0", "9", "0", "43", "62"]


class TestScore:
    def test_reference_grid_metrics(self):
        report = score(ConfusionMatrix(GRID_LABELS, GRID))
        assert report.accuracy == 135 / 184
        assert report.macro_f1 == pytest.approx(0.5822124268127074, abs=1e-15)
        assert report.weighted_f1 == pytest.approx(0.7380887529921007, abs=1e-15)

    def test_reference_grid_per_class(self):
        report = score(ConfusionMatrix(GRID_LABELS, GRID))
        yn = report.per_class["YN"]
        assert yn.precision == 74 / 92
        assert yn.recall == 74 / 88
        assert yn.support == 88
        assert not yn.undefined
        dq = report.per_class["DQ"]
        assert dq.precision == 3 / 4
        assert dq.recall == 1.0
        assert dq.f1 == pytest.approx(6 / 7)
        pq = report.per_class["PQ"]
        assert pq.f1 == pytest.approx(15 / 31)
        cs = report.per_class["CS"]
        # CS was predicted (wrongly) and appears in gold: defined, just zero
        assert cs.f1 == 0.0
        assert not cs.undefined
        wh = report.per_class["WH"]
        assert wh.precision == 43 / 53
        assert wh.recall == 43 / 62

    def test_constant_baseline_metrics(self):
        gold, _ = grid_sequences()
        m = confusion(gold, ["YN"] * len(gold), labels=GRID_LABELS)
        report = score(m)
        assert report.accuracy == 88 / 184
        assert report.macro_f1 == pytest.approx(0.12941176470588237, abs=1e-15)
        assert report.weighted_f1 == pytest.approx(0.309462915601023, abs=1e-14)
        assert report.per_class["YN"].recall == 1.0
        for label in ("DQ", "PQ", "CS", "WH"):
            assert report.per_class[label].undefined
            assert report.per_class[label].f1 == 0.0

    def test_undefined_class_still_counts_in_macro(self):
        m = confusion(["A", "A"], ["A", "A"], labels=("A", "B"))
        report = score(m)
        assert report.per_class["B"].undefined
        assert report.macro_f1 == 0.5
        assert report.weighted_f1 == 1.0  # B has zero support

    def test_perfect_diagonal(self):
        m = confusion(["YN", "WH", "PQ"], ["YN", "WH", "PQ"])
        report = score(m)
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0
        assert report.weighted_f1 == 1.0

    def test_relabeling_does_not_change_averages(self):
        gold, pred = grid_sequences()
        renamed = {"YN": "q1", "DQ": "q2", "PQ": "q3", "CS": "q4", "WH": "q5"}
        m1 = score(confusion(gold, pred, labels=GRID_LABELS))
        m2 = score(
            confusion(
                [renamed[g] for g in gold],
                [renamed[p] for p in pred],
            )
        )
        assert m1.accuracy == m2.accuracy
        assert m1.macro_f1 == pytest.approx(m2.macro_f1, abs=1e-15)
        assert m1.weighted_f1 == pytest.approx(m2.weighted_f1, abs=1e-15)

    def test_empty_matrix(self):
        with pytest.raises(EmptyInput):
            score(ConfusionMatrix(("A",), ((0,),)))

    def test_json_dict_shape(self):
        doc = score(ConfusionMatrix(GRID_LABELS, GRID)).to_json_dict()
        assert set(doc) == {"accuracy", "macro_f1", "weighted_f1", "per_class", "labels", "counts"}
        assert doc["labels"] == list(GRID_LABELS)
        assert doc["counts"][0] == [74, 1, 8, 3, 2]
        assert set(doc["per_class"]["YN"]) == {"precision", "recall", "f1", "support", "undefined"}


class TestObservedAgreement:
    def test_identical(self):
        assert observed_agreement(["a", "b"], ["a", "b"]) == 1.0

    def test_three_quarters(self):
        assert observed_agreement(list("aabb"), list("aaba")) == 0.75

    def test_fully_disjoint(self):
        assert observed_agreement(["a"], ["b"]) == 0.0

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            observed_agreement(["a"], [])
        with pytest.raises(EmptyInput):
            observed_agreement([], [])


class TestCohenKappa:
    def test_hand_derived_case(self):
        a = [YN, YN, WH, PQ]
        b = [YN, WH, WH, PQ]
        assert cohen_kappa(a, b) == pytest.approx(0.6363636363636364, abs=1e-15)

    def test_identical_varied_sequences(self):
        assert cohen_kappa(list("abcabc"), list("abcabc")) == 1.0

    def test_identical_constant_sequences(self):
        # A_e reaches 1, so the ratio is taken as perfect agreement
        assert cohen_kappa(["x", "x"], ["x", "x"]) == 1.0

    def test_constant_but_different(self):
        assert cohen_kappa(["x", "x"], ["y", "y"]) == 0.0

    def test_perfect_disagreement(self):
        assert cohen_kappa(["x", "y"], ["y", "x"]) == -1.0

    def test_chance_level_is_zero(self):
        a = ["x", "x", "y", "y"]
        b = ["x", "y", "x", "y"]
        assert cohen_kappa(a, b) == pytest.approx(0.0, abs=1e-15)

    @given(
        st.lists(st.sampled_from("xyz"), min_size=1, max_size=12),
        st.data(),
    )
    def test_bounds_and_ceiling(self, a, data):
        b = data.draw(st.lists(st.sampled_from("xyz"), min_size=len(a), max_size=len(a)))
        k = cohen_kappa(a, b)
        assert -1.0 - 1e-12 <= k <= 1.0 + 1e-12
        # chance correction can only lower the score
        assert k <= observed_agreement(a, b) + 1e-12


def q_ann(annotator, turn, q_type, feature=None, span=(0, 4), dialogue="d1"):
    return QuestionAnnotation(dialogue, turn, span, q_type, feature, annotator)


def a_ann(annotator, turn, a_type, ref, dialogue="d1"):
    return AnswerAnnotation(dialogue, turn, a_type, ref, annotator)


def indexed(records):
    """The annotator -> ItemIndex mapping that agreement takes, from annotator -> records."""
    indexes, _ = index_by_item(itertools.chain.from_iterable(records.values()))
    return indexes


def indexed_by_hand(records):
    """index_by_item's mapping of records whose items are all distinct, built without it."""
    indexes = {}
    for rec in records:
        questions, answers = indexes.setdefault(rec.annotator_id, ({}, {}))
        if isinstance(rec, QuestionAnnotation):
            questions[rec.key] = rec
        else:
            answers[rec.question_ref] = rec
    return indexes


def identities(indexes):
    """Each annotator's items, in order, with the id of the record held for each."""
    return [(who, [[(item, id(rec)) for item, rec in mapping.items()] for mapping in index]) for who, index in indexes.items()]


class TestIndexByItem:
    @settings(max_examples=300)
    @given(annotation_records())
    def test_the_first_record_per_annotator_and_item_counts(self, records):
        records = [*records[0], *records[1]]
        indexes, repeats = index_by_item(records)
        kept, expected_repeats = first_records(records)
        assert [id(r) for r in repeats] == [id(r) for r in expected_repeats]
        # annotators and items in order of first appearance, each holding its first record itself
        assert identities(indexes) == identities(indexed_by_hand(kept))

    def test_annotators_share_one_key_object_per_question_item(self):
        # one file interleaves A and B, a second holds C's; C alone holds turn 4, and A repeats turn 0
        records = [
            q_ann("A", 0, YN), q_ann("B", 0, YN), q_ann("A", 2, WH), a_ann("B", 1, AnswerType.PA, "d1:0:0-4"),
            q_ann("B", 2, DQ), q_ann("A", 0, WH),
            q_ann("C", 2, WH), q_ann("C", 0, PQ), q_ann("C", 4, YN), a_ann("C", 3, AnswerType.PA, "d1:2:0-4"),
        ]
        indexes, repeats = index_by_item(records)
        kept, expected_repeats = first_records(records)
        assert repeats == expected_repeats == [records[5]]
        keys = [key for questions, _ in indexes.values() for key in questions]
        assert len({id(key) for key in keys}) == len(set(keys)) == 3
        assert identities(indexes) == identities(indexed_by_hand(kept))

    def test_the_same_record_twice_is_a_repeat(self):
        rec = q_ann("A", 0, YN)
        indexes, repeats = index_by_item([rec, rec])
        assert indexes == {"A": ({rec.key: rec}, {})}
        assert repeats == [rec]


def agree_stdout(run_cli, tmp_path, records, *flags):
    """stdout of ``agree --deterministic`` over one annotation file per annotator."""
    paths = []
    for annotator, recs in records.items():
        paths.append(tmp_path / f"{annotator}.jsonl")
        with open(paths[-1], "w", encoding="utf-8") as f:
            write_annotations(recs, f)
    code, out, _ = run_cli("agree", "--input", *paths, *flags, "--deterministic")
    assert code == 0
    return out


class TestPairwiseAgreement:
    def test_two_annotators_single_layer(self):
        records = {
            "A": [q_ann("A", 0, YN), q_ann("A", 2, WH), q_ann("A", 4, PQ), q_ann("A", 6, PQ)],
            "B": [q_ann("B", 0, YN), q_ann("B", 2, WH), q_ann("B", 4, YN), q_ann("B", 6, PQ)],
        }
        reports = pairwise_agreement(indexed(records), "questions")
        assert len(reports) == 2
        pair, mean = reports
        assert pair.annotators == ("A", "B")
        assert pair.observed == 0.75
        assert pair.n_items == 4
        assert not pair.is_mean
        assert mean.is_mean
        assert mean.annotators == ("A", "B")
        assert mean.observed == pair.observed
        assert mean.kappa == pair.kappa
        assert mean.n_items == 4

    def test_three_annotators_mean_over_pairs(self):
        records = {
            name: [q_ann(name, 0, YN), q_ann(name, 1, labels[0]), q_ann(name, 2, labels[1])]
            for name, labels in {
                "A": (WH, PQ),
                "B": (WH, YN),
                "C": (PQ, PQ),
            }.items()
        }
        reports = pairwise_agreement(indexed(records), "questions")
        pairs = [r for r in reports if not r.is_mean]
        assert [r.annotators for r in pairs] == [("A", "B"), ("A", "C"), ("B", "C")]
        mean = reports[-1]
        assert mean.is_mean
        assert mean.annotators == ("A", "B", "C")
        assert mean.observed == pytest.approx(sum(r.observed for r in pairs) / 3)
        assert mean.kappa == pytest.approx(sum(r.kappa for r in pairs) / 3)
        assert mean.n_items == 9

    def test_features_layer_restricted_to_feature_bearing_types(self):
        records = {
            "A": [
                q_ann("A", 0, WH, Feature.LOC),
                q_ann("A", 1, WH, Feature.TMP),
                q_ann("A", 2, YN),  # typed YN by A: dropped from the layer
            ],
            "B": [
                q_ann("B", 0, WH, Feature.LOC),
                q_ann("B", 1, DQ, None),
                q_ann("B", 2, WH, Feature.AG),
            ],
        }
        reports = pairwise_agreement(indexed(records), "features")
        pair = reports[0]
        assert pair.n_items == 2  # turns 0 and 1 only
        assert pair.observed == 0.5  # LOC==LOC, TMP!="-"

    def test_answers_layer_aligns_by_question_ref(self):
        records = {
            "A": [a_ann("A", 1, AnswerType.PA, "d1:0:0-4"), a_ann("A", 3, AnswerType.FA, "d1:2:0-4")],
            "B": [a_ann("B", 1, AnswerType.PA, "d1:0:0-4"), a_ann("B", 3, AnswerType.UA, "d1:2:0-4")],
        }
        reports = pairwise_agreement(indexed(records), "answers")
        assert reports[0].observed == 0.5
        assert reports[0].n_items == 2

    def test_single_annotator(self):
        with pytest.raises(NoAlignedItems):
            pairwise_agreement(indexed({"A": [q_ann("A", 0, YN)]}), "questions")

    def test_disjoint_items(self):
        records = {
            "A": [q_ann("A", 0, YN)],
            "B": [q_ann("B", 5, YN)],
        }
        with pytest.raises(NoAlignedItems):
            pairwise_agreement(indexed(records), "questions")

    def test_unknown_layer(self):
        with pytest.raises(ValueError, match="layer"):
            pairwise_agreement(indexed({"A": [], "B": []}), "typos")

    def test_reports_serialize(self, run_cli, tmp_path):
        records = {name: [q_ann(name, t, YN) for t in range(3)] for name in ("A", "B")}
        out = agree_stdout(run_cli, tmp_path, records, "--layer", "questions")
        assert out == """{
  "disagreements": [],
  "layers": {
    "questions": [
      {
        "annotators": [
          "A",
          "B"
        ],
        "is_mean": false,
        "kappa": 1.0,
        "layer": "questions",
        "n_items": 3,
        "observed": 1.0
      },
      {
        "annotators": [
          "A",
          "B"
        ],
        "is_mean": true,
        "kappa": 1.0,
        "layer": "questions",
        "n_items": 3,
        "observed": 1.0
      }
    ]
  }
}
"""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_record_order_does_not_change_any_report(self, data):
        items = st.tuples(st.integers(0, 5), st.sampled_from([YN, WH, DQ, PQ]), st.sampled_from([None, *Feature]))
        records = {}
        for name in ("A", "B", "C"):
            drawn = data.draw(st.lists(items, max_size=6, unique_by=lambda item: item[0]))
            recs = [q_ann(name, t, q_type, feature) for t, q_type, feature in drawn]
            recs += [a_ann(name, t + 1, data.draw(st.sampled_from(AnswerType)), f"d1:{t}:0-4") for t, _, _ in drawn]
            records[name] = recs
        permuted = {name: data.draw(st.permutations(recs)) for name, recs in records.items()}

        def reports(by_annotator, layer):
            try:
                return pairwise_agreement(indexed(by_annotator), layer)
            except NoAlignedItems:
                return None

        for layer in ("questions", "features", "answers"):
            assert reports(permuted, layer) == reports(records, layer)

    def test_one_label_pair_and_an_annotator_sharing_nothing(self):
        records = {
            "A": [q_ann("A", t, YN) for t in range(3)],
            "B": [q_ann("B", t, YN) for t in range(3)],
            "C": [q_ann("C", t, WH, dialogue="other") for t in range(3)],
        }
        pair, mean = pairwise_agreement(indexed(records), "questions")
        assert (pair.annotators, pair.observed, pair.kappa, pair.n_items) == (("A", "B"), 1.0, 1.0, 3)
        assert mean.is_mean and mean.annotators == ("A", "B", "C")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_each_pair_matches_the_formulas_on_its_sorted_shared_items(self, data):
        # a one-label pool gives pairs labelled alike throughout (kappa 1.0); an
        # annotator in a dialogue of their own shares no item with anyone
        q_types = data.draw(st.sampled_from([[YN], [YN, WH], [YN, WH, DQ, PQ, CS]]))
        items = st.tuples(
            st.integers(0, 7), st.sampled_from(q_types), st.sampled_from([None, *Feature]), st.sampled_from(AnswerType)
        )
        records = {}
        for name in "ABCDEFGH"[: data.draw(st.integers(2, 8))]:  # up to the benchmark's 8 annotators
            dialogue = data.draw(st.sampled_from(["d1", "d1", name]))
            drawn = data.draw(st.lists(items, max_size=8, unique_by=lambda item: item[0]))
            records[name] = [q_ann(name, t, q_type, feature, dialogue=dialogue) for t, q_type, feature, _ in drawn]
            records[name] += [
                a_ann(name, t + 1, a_type, f"{dialogue}:{t}:0-4", dialogue=dialogue) for t, _, _, a_type in drawn
            ]
        indexes = indexed(records)

        def labels(index, layer):
            questions, answers = index
            if layer == "answers":
                return {ref: ann.a_type.value for ref, ann in answers.items()}
            if layer == "questions":
                return {key: ann.q_type.value for key, ann in questions.items()}
            feature_bearing = {key: ann for key, ann in questions.items() if ann.q_type in (WH, DQ)}
            return {key: ann.feature.value if ann.feature else "-" for key, ann in feature_bearing.items()}

        for layer in ("questions", "features", "answers"):
            expected = {}
            for id_a, id_b in itertools.combinations(sorted(indexes), 2):
                map_a, map_b = labels(indexes[id_a], layer), labels(indexes[id_b], layer)
                shared = sorted(map_a.keys() & map_b.keys())
                if shared:
                    labels_a, labels_b = [map_a[k] for k in shared], [map_b[k] for k in shared]
                    expected[id_a, id_b] = (
                        observed_agreement(labels_a, labels_b), cohen_kappa(labels_a, labels_b), len(shared)
                    )
            try:
                reports = pairwise_agreement(indexes, layer)
            except NoAlignedItems:
                reports = []
            got = {r.annotators: (r.observed, r.kappa, r.n_items) for r in reports if not r.is_mean}
            assert got == expected


class TestDisagreementReport:
    def test_type_mismatch_cascades_into_feature_mismatch(self):
        records = {
            "A": [q_ann("A", 0, WH, Feature.LOC)],
            "B": [q_ann("B", 0, PQ, None)],
        }
        report = disagreement_report(indexed(records))
        assert [r.layer for r in report] == ["questions", "features"]
        q_rec, f_rec = report
        assert q_rec.category is DisagreementCategory.UNCATEGORIZED
        assert q_rec.tags == {"A": "WH", "B": "PQ"}
        assert q_rec.item == "d1:0:0-4"
        assert f_rec.category is DisagreementCategory.CASCADE
        assert f_rec.tags == {"A": "LOC", "B": "-"}

    def test_feature_mismatch_alone_is_not_cascade(self):
        records = {
            "A": [q_ann("A", 0, WH, Feature.LOC)],
            "B": [q_ann("B", 0, WH, Feature.TMP)],
        }
        report = disagreement_report(indexed(records))
        assert len(report) == 1
        assert report[0].layer == "features"
        assert report[0].category is DisagreementCategory.UNCATEGORIZED

    def test_identical_annotations_yield_nothing(self):
        records = {
            "A": [q_ann("A", 0, YN), a_ann("A", 1, AnswerType.PA, "d1:0:0-4")],
            "B": [q_ann("B", 0, YN), a_ann("B", 1, AnswerType.PA, "d1:0:0-4")],
        }
        assert disagreement_report(indexed(records)) == []

    def test_plain_type_disagreement(self):
        records = {
            "A": [q_ann("A", 0, YN)],
            "B": [q_ann("B", 0, CS)],
        }
        report = disagreement_report(indexed(records))
        assert len(report) == 1
        assert report[0].layer == "questions"
        assert report[0].tags == {"A": "YN", "B": "CS"}

    def test_answer_disagreement(self):
        records = {
            "A": [a_ann("A", 1, AnswerType.PA, "d1:0:0-4")],
            "B": [a_ann("B", 1, AnswerType.DA, "d1:0:0-4")],
        }
        report = disagreement_report(indexed(records))
        assert len(report) == 1
        assert report[0].layer == "answers"
        assert report[0].tags == {"A": "PA", "B": "DA"}
        assert report[0].category is DisagreementCategory.UNCATEGORIZED

    def test_items_seen_by_one_annotator_are_skipped(self):
        records = {
            "A": [q_ann("A", 0, YN), q_ann("A", 9, WH, Feature.RE)],
            "B": [q_ann("B", 0, WH, Feature.TH)],
        }
        report = disagreement_report(indexed(records))
        assert all(r.item == "d1:0:0-4" for r in report)

    def test_output_order_is_deterministic(self):
        records = {
            "A": [q_ann("A", t, YN) for t in (5, 1, 3)],
            "B": [q_ann("B", t, PQ) for t in (3, 5, 1)],
        }
        report = disagreement_report(indexed(records))
        assert [r.item for r in report] == ["d1:1:0-4", "d1:3:0-4", "d1:5:0-4"]

    @settings(max_examples=300, deadline=None)
    @given(annotation_records())
    def test_matches_the_reference(self, records):
        records = [*records[0], *records[1]]
        indexes, _ = index_by_item(records)
        kept, _ = first_records(records)
        # the reference reads an index of the first record per annotator and item, built by hand
        got = disagreement_report(indexes)
        expected = reference_reports.disagreement_report(indexed_by_hand(kept))
        assert got == expected
        # tags in the same order, with plain strings, as the reference gives them
        assert [[(who, type(tag), tag) for who, tag in r.tags.items()] for r in got] == [
            [(who, type(tag), tag) for who, tag in r.tags.items()] for r in expected
        ]

    def test_record_serializes(self, run_cli, tmp_path):
        records = {"A": [q_ann("A", 0, WH, Feature.LOC)], "B": [q_ann("B", 0, PQ)]}
        out = agree_stdout(run_cli, tmp_path, records, "--layer", "questions")
        assert out == """{
  "disagreements": [
    {
      "category": "uncategorized",
      "item": "d1:0:0-4",
      "layer": "questions",
      "tags": {
        "A": "WH",
        "B": "PQ"
      }
    },
    {
      "category": "cascade",
      "item": "d1:0:0-4",
      "layer": "features",
      "tags": {
        "A": "LOC",
        "B": "-"
      }
    }
  ],
  "layers": {
    "questions": [
      {
        "annotators": [
          "A",
          "B"
        ],
        "is_mean": false,
        "kappa": 0.0,
        "layer": "questions",
        "n_items": 1,
        "observed": 0.0
      },
      {
        "annotators": [
          "A",
          "B"
        ],
        "is_mean": true,
        "kappa": 0.0,
        "layer": "questions",
        "n_items": 1,
        "observed": 0.0
      }
    ]
  }
}
"""


class TestKappaEdgeFloats:
    def test_macro_identity_on_symmetric_confusion(self):
        # sanity: symmetric two-class grid has equal per-class F1
        m = ConfusionMatrix(("a", "b"), ((4, 1), (1, 4)))
        report = score(m)
        assert report.per_class["a"].f1 == report.per_class["b"].f1
        assert report.macro_f1 == pytest.approx(report.per_class["a"].f1)
        assert math.isclose(report.macro_f1, report.weighted_f1)
