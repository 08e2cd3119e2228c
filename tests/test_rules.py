import pytest
from hypothesis import given
from hypothesis import strategies as st

from qapkit import (
    DEFAULT_WH_FEATURE_MAP,
    ExtractorConfig,
    Feature,
    FeatureVector,
    QuestionType,
    UnknownTag,
    extract_features,
    load_wh_feature_map,
    map_wh_feature,
    rule_classify,
    tokenize,
)

from helpers import make_fv, utt


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

    def test_wrong_column_count(self):
        with pytest.raises(ValueError, match="two columns"):
            load_wh_feature_map(["where LOC extra\n"])

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError):
            load_wh_feature_map(["# nothing\n"])
