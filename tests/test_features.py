import json
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qapkit import (
    Dialogue,
    EmptyLexicon,
    ExtractorConfig,
    Feature,
    Lexicon,
    MalformedLine,
    Utterance,
    detect_inversion,
    extract_features,
    load_lexicon,
    load_wh_feature_map,
    map_wh_feature,
    overlap_ratio,
    tokenize,
)
from qapkit.cli import _question_features
from qapkit.features import FEATURE_NAMES, load_extractor_config
from qapkit.lexicon import DEFAULT_CLICHE, DEFAULT_WH, DEFAULT_WH_FEATURE_MAP, list_lines

from helpers import utt


class TestTokenize:
    def test_basic_sentence(self):
        assert tokenize("Do you want coffee or tea?") == ["do", "you", "want", "coffee", "or", "tea"]

    def test_empty(self):
        assert tokenize("") == []

    def test_apostrophe_words_stay_whole(self):
        assert tokenize("isn't it?") == ["isn't", "it"]

    def test_curly_apostrophe(self):
        assert tokenize("isn’t it") == ["isn’t", "it"]

    def test_punctuation_dropped(self):
        assert tokenize("well... you know!!") == ["well", "you", "know"]

    def test_hyphen_splits(self):
        assert tokenize("well-known") == ["well", "known"]

    def test_digits_kept(self):
        assert tokenize("at 5 o'clock") == ["at", "5", "o'clock"]

    def test_underscore_is_not_a_word_character(self):
        assert tokenize("a_b") == ["a", "b"]

    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("''", []),
            ("'a'", ["a"]),
            ("a''b", ["a", "b"]),
            ("O'NEIL'S", ["o'neil's"]),
            ("x\x7fy", ["x", "y"]),
        ],
    )
    def test_apostrophe_and_control_byte_edges(self, text, tokens):
        assert tokenize(text) == tokens

    # README's rule, written out here: the text lowercased, a token a maximal run of
    # letters and digits of any script (not _), a single ' or ’ joining two runs
    README_RULE = re.compile(r"[^\W_]+(?:['’][^\W_]+)*")

    @given(st.text() | st.text(st.sampled_from([*string.ascii_letters, *string.digits, *"'’_- \t\x00\x7f"])))
    def test_follows_the_readme_rule(self, text):
        assert tokenize(text) == self.README_RULE.findall(text.lower())


class TestOverlap:
    def test_partial(self):
        assert overlap_ratio(["you", "saw", "him"], ["i", "saw", "him", "yesterday"]) == pytest.approx(2 / 3)

    def test_identity(self):
        assert overlap_ratio(["a", "b"], ["a", "b"]) == 1.0

    def test_disjoint(self):
        assert overlap_ratio(["a"], ["b"]) == 0.0

    def test_empty_a(self):
        assert overlap_ratio([], ["x"]) == 0.0

    def test_duplicates_count_once(self):
        assert overlap_ratio(["a", "a", "b"], ["a"]) == 0.5

    @given(st.lists(st.sampled_from("abcdef"), max_size=8), st.lists(st.sampled_from("abcdef"), max_size=8))
    def test_bounded(self, a, b):
        assert 0.0 <= overlap_ratio(a, b) <= 1.0


class TestLexicon:
    def test_phrases_are_tokenized(self):
        lex = Lexicon.from_phrases("x", ["isn't it", "Really?"])
        assert ("isn't", "it") in lex.entries
        assert ("really",) in lex.entries

    def test_contains_token(self):
        lex = Lexicon.from_phrases("x", ["who"])
        assert lex.contains_token("who")
        assert lex.contains_token("WHO")
        assert not lex.contains_token("whom")

    def test_contains_phrase_anywhere(self):
        lex = Lexicon.from_phrases("x", ["you know"])
        assert lex.contains(["well", "you", "know", "right"])
        assert not lex.contains(["you", "always", "know"])

    def test_matches_end(self):
        lex = Lexicon.from_phrases("x", ["isn't it", "right"])
        assert lex.matches_end(["cold", "isn't", "it"])
        assert lex.matches_end(["right"])
        assert not lex.matches_end(["right", "now"])

    def test_entries_longer_than_the_tokens(self):
        lex = Lexicon.from_phrases("x", ["do you know what", "huh"])
        assert not lex.contains(["do", "you"])
        assert not lex.matches_end(["you", "know", "what"])
        assert lex.contains(["do", "you", "know", "what", "now"])
        assert lex.matches_end(["so", "do", "you", "know", "what"])

    def test_entries_sharing_a_first_token(self):
        lex = Lexicon.from_phrases("x", ["you know", "you see what i mean"])
        assert lex.contains(["so", "you", "see", "what", "i", "mean"])
        assert lex.contains(["you", "see", "you", "know"])
        assert not lex.contains(["you", "see", "what", "i"])

    @given(
        st.sets(st.lists(st.sampled_from("abc"), min_size=1, max_size=4).map(tuple), min_size=1),
        st.lists(st.sampled_from("abcd"), max_size=6),
    )
    def test_matching_agrees_with_a_brute_force_scan(self, entries, tokens):
        lex = Lexicon("x", frozenset(entries))
        windows = {tuple(tokens[i:j]) for i in range(len(tokens)) for j in range(i + 1, len(tokens) + 1)}
        assert lex.contains(tokens) == any(e in windows for e in entries)
        assert lex.matches_end(tokens) == any(
            len(e) <= len(tokens) and tuple(tokens[len(tokens) - len(e):]) == e for e in entries
        )

    def test_empty_rejected(self):
        with pytest.raises(EmptyLexicon):
            Lexicon.from_phrases("x", [])
        with pytest.raises(EmptyLexicon):
            Lexicon.from_phrases("x", ["..."])  # tokenizes to nothing

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "tags.txt"
        path.write_text("# final tags\nisn't it\n\nright\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex.name == "tags"
        assert lex.entries == frozenset({("isn't", "it"), ("right",)})

    def test_load_from_lines(self):
        lex = load_lexicon(["who\n", "# nope\n", "what\n"], name="wh")
        assert lex.entries == frozenset({("who",), ("what",)})

    def test_line_without_words_names_the_line(self):
        with pytest.raises(MalformedLine, match="line 3: .*'\\?!'"):
            load_lexicon(["who\n", "# punctuation is no entry\n", "?!\n"], name="wh")

    def test_load_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n", encoding="utf-8")
        with pytest.raises(EmptyLexicon):
            load_lexicon(path)

    def test_missing_file_is_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_lexicon(tmp_path / "missing.txt")

    def test_default_wh_lexicon_is_the_wh_feature_table(self):
        assert DEFAULT_WH.words == set(DEFAULT_WH_FEATURE_MAP)
        assert DEFAULT_WH.entries == {(word,) for word in DEFAULT_WH_FEATURE_MAP}

    def test_both_list_file_loaders_skip_and_number_lines_alike(self):
        skipped = ["\n", "   \n", "# comment\n", "  # indented comment\n", "\t#tab\n"]
        assert list(list_lines(skipped + ["  who AG \n"])) == [(6, "who AG")]
        assert load_lexicon(skipped + ["who AG\n"]).entries == {("who", "ag")}
        assert load_wh_feature_map(skipped + ["who AG\n"]) == {"who": Feature.AG}
        for load in (load_lexicon, load_wh_feature_map):
            with pytest.raises(MalformedLine) as exc:
                load(skipped + ["who AG\n", "?!\n"])
            assert exc.value.line_no == 7, load


class TestInversion:
    def test_aux_then_non_aux(self):
        assert detect_inversion(["do", "you", "want"]) is True

    def test_plain_declarative_order(self):
        assert detect_inversion(["you", "saw", "him"]) is False

    def test_empty_and_single(self):
        assert detect_inversion([]) is False
        assert detect_inversion(["do"]) is False

    def test_double_aux_not_inversion(self):
        assert detect_inversion(["is", "was", "here"]) is False


class TestExtract:
    def test_disjunctive_question_vector(self):
        previous = utt("so anyway tell me more about that trip")
        fv = extract_features(utt("Do you want coffee or tea?", turn=1), previous=previous)
        assert fv.as_tuple() == (False, True, True, False, False, False, False, 6)

    def test_field_order_is_canonical(self):
        assert FEATURE_NAMES == (
            "has_wh",
            "has_or",
            "has_inversion",
            "has_tag",
            "last_utt_similar",
            "last_utt_incomplete",
            "has_cliche",
            "length",
        )

    def test_interrupted_context(self):
        previous = utt("it includes heat and uhm, I think", interrupted=True)
        fv = extract_features(utt("Water?", turn=1), previous=previous)
        assert fv.last_utt_incomplete is True
        assert fv.length == 1

    def test_cliche_and_wh(self):
        fv = extract_features(utt("you know?"))
        assert fv.has_cliche is True
        assert fv.has_wh is False

    def test_tag_is_positional(self):
        assert extract_features(utt("right?")).has_tag is True
        assert extract_features(utt("right now?")).has_tag is False

    def test_no_previous_means_no_context_signals(self):
        fv = extract_features(utt("You saw him?"))
        assert fv.last_utt_similar is False
        assert fv.last_utt_incomplete is False

    def test_span_selects_the_question(self):
        text = "well I guess. You saw him?"
        fv = extract_features(utt(text), span=(14, 26))
        assert fv.length == 3
        assert fv.has_inversion is False

    def test_similarity_at_exact_threshold_counts(self):
        previous = utt("you went")
        # overlap of {you, saw} with {you, went} = 1/2, equal to the default threshold
        fv = extract_features(utt("you saw?", turn=1), previous=previous)
        assert fv.last_utt_similar is True

    def test_similarity_below_threshold(self):
        previous = utt("nothing in common here")
        fv = extract_features(utt("you saw him?", turn=1), previous=previous)
        assert fv.last_utt_similar is False

    def test_length_equals_token_count(self):
        for text in ("one", "two words", "a b c d e f g"):
            assert extract_features(utt(text)).length == len(tokenize(text))

    def test_wh_detection(self):
        assert extract_features(utt("Which man is running?")).has_wh is True
        assert extract_features(utt("Is the man running?")).has_wh is False

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_raising_threshold_never_turns_similar_on(self, t1, t2):
        low, high = sorted((t1, t2))
        previous = utt("you saw maybe")  # overlap 2/3, so thresholds straddle it
        question = utt("you saw him?", turn=1)
        fv_low = extract_features(question, previous=previous, cfg=ExtractorConfig(similarity_threshold=low))
        fv_high = extract_features(question, previous=previous, cfg=ExtractorConfig(similarity_threshold=high))
        assert not (not fv_low.last_utt_similar and fv_high.last_utt_similar)

    def test_growing_cliche_lexicon_is_monotone(self):
        question = utt("that was fun huh?")
        before = extract_features(question).has_cliche
        grown = Lexicon("cliche", DEFAULT_CLICHE.entries | {("fun",)})
        after = extract_features(question, cfg=ExtractorConfig(cliche_lexicon=grown)).has_cliche
        assert not (before and not after)
        assert after is True

    def test_determinism(self):
        previous = utt("it includes heat", interrupted=True)
        question = utt("Water?", turn=1)
        assert extract_features(question, previous=previous) == extract_features(question, previous=previous)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ExtractorConfig(similarity_threshold=1.5)
        with pytest.raises(ValueError):
            ExtractorConfig(similarity_threshold=-0.1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("similarity_threshold", True, "similarity_threshold must be a number"),
            ("similarity_threshold", "0.5", "similarity_threshold must be a number"),
            ("similarity_threshold", None, "similarity_threshold must be a number"),
            ("cliche_length_cap", 2.5, "cliche_length_cap must be a non-negative integer"),
            ("cliche_length_cap", True, "cliche_length_cap must be a non-negative integer"),
            ("cliche_length_cap", None, "cliche_length_cap must be a non-negative integer"),
            ("wh_lexicon", ["who"], "wh_lexicon must be a Lexicon"),
        ],
        ids=["threshold-bool", "threshold-str", "threshold-none", "cap-float", "cap-bool", "cap-none", "lexicon-list"],
    )
    def test_every_field_is_checked(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExtractorConfig(**{field: value})


class TestConfigFile:
    def test_inline_and_file_lexicons(self, tmp_path):
        (tmp_path / "wh.txt").write_text("who\nwhere\n", encoding="utf-8")
        config = {
            "wh_lexicon": "wh.txt",
            "cliche_lexicon": ["you know", "really"],
            "similarity_threshold": 0.4,
            "cliche_length_cap": 7,
        }
        path = tmp_path / "extractor.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        cfg = load_extractor_config(path)
        assert cfg.wh_lexicon.entries == frozenset({("who",), ("where",)})
        assert cfg.cliche_lexicon.entries == frozenset({("you", "know"), ("really",)})
        assert cfg.similarity_threshold == 0.4
        assert cfg.cliche_length_cap == 7
        # untouched fields keep defaults
        assert cfg.aux_lexicon.contains_token("do")

    def test_defaults_when_fields_missing(self, tmp_path):
        path = tmp_path / "extractor.json"
        path.write_text("{}", encoding="utf-8")
        cfg = load_extractor_config(path)
        assert cfg == ExtractorConfig()
        assert cfg.cliche_length_cap == 5

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "extractor.json"
        path.write_text('{"wh_words": []}', encoding="utf-8")
        with pytest.raises(ValueError, match="wh_words"):
            load_extractor_config(path)

    def test_bad_threshold_type(self, tmp_path):
        path = tmp_path / "extractor.json"
        path.write_text('{"similarity_threshold": "half"}', encoding="utf-8")
        with pytest.raises(ValueError):
            load_extractor_config(path)

    @pytest.mark.parametrize("threshold", ["1.5", "NaN", "1" + "0" * 400], ids=["1.5", "nan", "400-digit-int"])
    def test_threshold_out_of_range(self, tmp_path, threshold):
        path = tmp_path / "extractor.json"
        path.write_text(f'{{"similarity_threshold": {threshold}}}', encoding="utf-8")
        with pytest.raises(ValueError, match=r"similarity_threshold must be in \[0,1\]"):
            load_extractor_config(path)

    @pytest.mark.parametrize("cap", ["-1", "true", "2.5", '"5"', "null"])
    def test_bad_length_cap(self, tmp_path, cap):
        path = tmp_path / "extractor.json"
        path.write_text(f'{{"cliche_length_cap": {cap}}}', encoding="utf-8")
        with pytest.raises(ValueError, match="cliche_length_cap must be a non-negative integer"):
            load_extractor_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "extractor.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ValueError, match="JSON"):
            load_extractor_config(path)


# Words the random lexicons draw from; turns mix their phrases with arbitrary text.
VOCAB = ["you", "know", "see", "ΑΣ", "σας", "İt", "o'clock", "is", "what", "7"]
ALPHABET = st.one_of(st.characters(), st.sampled_from(list("ΣςİΑ'’.:_0123456789 ")))
# Entries start with one of two words, so several share a first token.
PHRASES = st.lists(
    st.tuples(st.sampled_from(VOCAB[:2]), st.lists(st.sampled_from(VOCAB[:4]), max_size=3)).map(
        lambda t: " ".join([t[0], *t[1]])
    ),
    min_size=1,
    max_size=6,
)
WH_MAP = {word: list(Feature)[i % len(Feature)] for i, word in enumerate(t for w in VOCAB for t in tokenize(w))}


def turn_texts(phrases):
    piece = st.one_of(st.sampled_from(phrases + VOCAB), st.text(ALPHABET, max_size=4))
    text = st.lists(st.one_of(piece, piece.map(str.upper)), max_size=8).map(" ".join).filter(str.strip)
    return st.lists(st.tuples(text, st.booleans()), min_size=1, max_size=4)


class TestOneFeaturePass:
    """The CLI's shared loop gives what extract_features gives one question at a time."""

    @settings(max_examples=200)
    @given(st.data())
    def test_shared_loop_matches_extract_features(self, data):
        lexicons = {name: data.draw(PHRASES) for name in ("wh", "aux", "tag", "cliche")}
        cfg = ExtractorConfig(
            **{f"{name}_lexicon": Lexicon.from_phrases(name, phrases) for name, phrases in lexicons.items()},
            similarity_threshold=data.draw(st.floats(0.0, 1.0)),
        )
        turns = data.draw(turn_texts(sorted({p for phrases in lexicons.values() for p in phrases})))
        utterances = tuple(
            Utterance("d", i, "A", text, interrupted) for i, (text, interrupted) in enumerate(turns)
        )

        def spans(n):
            return st.one_of(st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted), st.just((0, n)))

        keys = sorted(
            {
                ("d", u.turn_index, tuple(data.draw(spans(len(u.text)))))
                for u in utterances
                for _ in range(data.draw(st.integers(0, 3)))
            }
        )
        passed = list(_question_features([Dialogue("d", "en", utterances)], keys, cfg))
        assert [(utt.dialogue_id, utt.turn_index, span) for utt, span, _, _ in passed] == keys
        for utt, (s, e), tokens, fv in passed:
            previous = utterances[utt.turn_index - 1] if utt.turn_index > 0 else None
            assert tokens == tokenize(utt.text[s:e])
            assert fv == extract_features(utt, (s, e), previous, cfg)
            assert map_wh_feature(tokens, WH_MAP) == map_wh_feature(tokenize(utt.text[s:e]), WH_MAP)
            assert fv.has_wh == any(cfg.wh_lexicon.contains_token(t) for t in tokens)
            windows = {tuple(tokens[i:j]) for i in range(len(tokens)) for j in range(i + 1, len(tokens) + 1)}
            assert fv.has_cliche == any(entry in windows for entry in cfg.cliche_lexicon.entries)

    def test_span_is_tokenized_on_its_own(self):
        # Lowercasing reads context: alone, the span's sigma is word-final; in the whole text it is not.
        question = utt("ΑΣ:Α")
        dialogues = [Dialogue("d", "en", (question,))]
        [(_, _, tokens, fv)] = _question_features(dialogues, [("d", 0, (0, 2))], ExtractorConfig())
        assert tokens == ["ας"]
        assert tokenize("ΑΣ:Α") == ["ασ", "α"]
        assert fv == extract_features(question, (0, 2))
