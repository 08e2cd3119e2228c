import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qapkit import (
    DEFAULT_WH_FEATURE_MAP,
    ExtractorConfig,
    Feature,
    FeatureVector,
    MalformedLine,
    QuestionType,
    UnknownTag,
    extract_features,
    load_wh_feature_map,
    map_wh_feature,
    rule_classify,
    tokenize,
)
from qapkit.rules import RULES

import reference_rules
from helpers import make_fv, utt

README = Path(__file__).resolve().parent.parent / "README.md"

# the word README's rule list uses for each feature a rule's test reads
README_WORDS = {
    "has_wh": "wh-word",
    "has_or": '"or"',
    "has_inversion": "inversion",
    "has_tag": "tag",
    "last_utt_similar": "overlaps",
    "last_utt_incomplete": "cut",
    "has_cliche": "cliche",
    "length": "short",
}


def classify_text(text, previous=None, cfg=ExtractorConfig()):
    return rule_classify(extract_features(utt(text, turn=1), previous=previous, cfg=cfg), cfg)


class TestWorkedExamples:
    def test_wh_question(self):
        assert classify_text("Which man is running?") is QuestionType.WH

    def test_disjunctive_questions(self):
        assert classify_text("Do you go on Monday or on Tuesday?") is QuestionType.DQ
        assert classify_text("Do you want coffee or tea?") is QuestionType.DQ

    def test_bare_propositional_question(self):
        assert classify_text("You saw him?") is QuestionType.YN

    def test_phatic_questions(self):
        for text in ("right?", "oh yeah?", "you know?"):
            assert classify_text(text) is QuestionType.PQ, text

    def test_completion_suggestion(self):
        previous = utt("it includes heat and uhm, I think", interrupted=True)
        assert classify_text("Water?", previous=previous) is QuestionType.CS


class TestPrecedence:
    def test_wh_beats_everything_except_cliche(self):
        fv = make_fv(has_wh=True, has_or=True, has_inversion=True, has_tag=True)
        assert rule_classify(fv) is QuestionType.WH

    def test_cliche_suppresses_wh(self):
        fv = make_fv(has_wh=True, has_cliche=True, length=2)
        assert rule_classify(fv) is not QuestionType.WH

    def test_or_beats_inversion(self):
        fv = make_fv(has_or=True, has_inversion=True)
        assert rule_classify(fv) is QuestionType.DQ

    def test_inversion_gives_yn(self):
        assert rule_classify(make_fv(has_inversion=True)) is QuestionType.YN

    def test_final_tag_gives_yn_unless_cliche(self):
        assert rule_classify(make_fv(has_tag=True, length=4)) is QuestionType.YN
        assert rule_classify(make_fv(has_tag=True, has_cliche=True, length=1)) is QuestionType.PQ

    def test_interrupted_context_with_overlap(self):
        fv = make_fv(last_utt_incomplete=True, last_utt_similar=True, length=9)
        assert rule_classify(fv) is QuestionType.CS

    def test_interrupted_context_with_short_question(self):
        fv = make_fv(last_utt_incomplete=True, length=1)
        assert rule_classify(fv) is QuestionType.CS

    def test_interrupted_but_long_and_unrelated_is_not_cs(self):
        fv = make_fv(last_utt_incomplete=True, length=9)
        assert rule_classify(fv) is QuestionType.YN

    def test_cliche_gives_pq(self):
        assert rule_classify(make_fv(has_cliche=True, length=1)) is QuestionType.PQ

    def test_fallback_is_yn(self):
        assert rule_classify(make_fv()) is QuestionType.YN

    def test_length_cap_is_configurable(self):
        fv = make_fv(last_utt_incomplete=True, length=7)
        assert rule_classify(fv) is QuestionType.YN
        assert rule_classify(fv, ExtractorConfig(cliche_length_cap=8)) is QuestionType.CS

    def test_cap_validation(self):
        with pytest.raises(ValueError, match="cliche_length_cap must be a non-negative integer"):
            ExtractorConfig(cliche_length_cap=-1)


class TestRuleTable:
    def test_table_types_every_vector_as_the_if_chain_did(self):
        for cap in (0, 5):
            cfg = ExtractorConfig(cliche_length_cap=cap)
            for flags in itertools.product((False, True), repeat=7):
                for length in range(9):
                    fv = FeatureVector(*flags, length)
                    assert rule_classify(fv, cfg) is reference_rules.rule_classify(fv, cfg), (fv, cap)

    def test_readme_numbers_the_rules_in_table_order(self):
        text = README.read_text(encoding="utf-8")
        listing = text.split("The rule classifier applies the first matching rule:\n\n", 1)[1].split("\n\n", 1)[0]
        items = re.findall(r"^(\d+)\. (.*(?:\n   .*)*)", listing, re.M)
        assert [int(number) for number, _ in items] == list(range(1, len(RULES) + 1))
        assert [re.search(r"→ `(\w+)`$", item)[1] for _, item in items] == [q_type.value for _, q_type in RULES]
        for (test, _), (number, item) in zip(RULES, items):
            words = set(re.findall(r'[\w"-]+', item))
            named = {name for name, word in README_WORDS.items() if word in words}
            assert named == set(test.__code__.co_names) & set(README_WORDS), f"rule {number}"


FV_STRATEGY = st.builds(
    FeatureVector,
    has_wh=st.booleans(),
    has_or=st.booleans(),
    has_inversion=st.booleans(),
    has_tag=st.booleans(),
    last_utt_similar=st.booleans(),
    last_utt_incomplete=st.booleans(),
    has_cliche=st.booleans(),
    length=st.integers(min_value=0, max_value=30),
)


class TestProperties:
    @given(FV_STRATEGY)
    def test_total_and_deterministic(self, fv):
        first = rule_classify(fv)
        assert isinstance(first, QuestionType)
        assert rule_classify(fv) is first

    @given(FV_STRATEGY)
    def test_wh_without_cliche_always_wins(self, fv):
        if fv.has_wh and not fv.has_cliche:
            assert rule_classify(fv) is QuestionType.WH

    @given(FV_STRATEGY)
    def test_or_wins_when_wh_absent(self, fv):
        if not fv.has_wh and fv.has_or:
            assert rule_classify(fv) is QuestionType.DQ


class TestWhFeatureMap:
    @pytest.mark.parametrize(
        "token,feature",
        [
            ("who", Feature.AG),
            ("whom", Feature.AG),
            ("whose", Feature.OW),
            ("where", Feature.LOC),
            ("when", Feature.TMP),
            ("why", Feature.RE),
            ("what", Feature.TH),
            ("which", Feature.CH),
            ("how", Feature.CH),
        ],
    )
    def test_default_map(self, token, feature):
        assert DEFAULT_WH_FEATURE_MAP[token] is feature
        assert map_wh_feature([token, "then"]) is feature

    def test_location_example(self):
        assert map_wh_feature(tokenize("where did you go?")) is Feature.LOC

    def test_first_wh_token_wins(self):
        assert map_wh_feature(["why", "what"]) is Feature.RE

    def test_no_wh_token(self):
        assert map_wh_feature(["you", "saw", "him"]) is None

    def test_case_insensitive(self):
        assert map_wh_feature(["Where"]) is Feature.LOC

    def test_custom_map(self):
        custom = {"how": Feature.RE}
        assert map_wh_feature(["how", "come"], custom) is Feature.RE
        assert map_wh_feature(["where"], custom) is None


class TestWhMapLoading:
    def test_two_column_file(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("# wh map\nwhere LOC\nwho\tAG\n\n", encoding="utf-8")
        mapping = load_wh_feature_map(path)
        assert mapping == {"where": Feature.LOC, "who": Feature.AG}

    def test_unknown_feature_tag(self):
        with pytest.raises(UnknownTag):
            load_wh_feature_map(["where PLACE\n"])

    def test_long_unknown_tag_is_cut(self):
        with pytest.raises(UnknownTag) as exc:
            load_wh_feature_map(["where " + "P" * 3000 + "\n"])
        assert str(exc.value) == f"line 1: unknown tag {'P' * 40!r}... (3000 characters)"

    def test_wrong_column_count(self):
        with pytest.raises(ValueError, match="two columns"):
            load_wh_feature_map(["where LOC extra\n"])

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError):
            load_wh_feature_map(["# nothing\n"])

    @pytest.mark.parametrize("second", ["where TMP", "WHERE TMP"])
    def test_token_mapped_to_a_second_tag_names_both_lines(self, second):
        with pytest.raises(MalformedLine) as exc:
            load_wh_feature_map(["# map\n", "where LOC\n", "who AG\n", second + "\n"])
        assert exc.value.line_no == 4
        assert str(exc.value) == "line 4: 'where' maps to TMP here but to LOC at line 2"

    def test_same_tag_repeated_is_accepted(self):
        assert load_wh_feature_map(["where LOC\n", "Where LOC\n"]) == {"where": Feature.LOC}

    def test_readme_lists_the_table(self):
        text = README.read_text(encoding="utf-8")
        listing = text.split("Wh-questions get a semantic-role feature", 1)[1].split("; override", 1)[0]
        listed = {
            word: Feature(tag)
            for words, tag in re.findall(r"((?:`\w+`/)*`\w+`) → `(\w+)`", listing)
            for word in re.findall(r"\w+", words)
        }
        assert listed == DEFAULT_WH_FEATURE_MAP
