"""Seeded input generator for the qapkit benchmark.

Every workload's inputs are built from one integer seed, so the same seed
always gives byte-identical files. Alongside the files, the generator keeps
what the oracles need to judge the program's outputs: the canonical
utterances, each question's feature vector (computed here, with lexicons
and rules written from the README, not imported from qapkit) and each
annotator's records.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# --- lexicons, as the README documents the built-in ones -------------------

WH_FEATURE = {
    "who": "AG", "whom": "AG", "whose": "OW", "where": "LOC", "when": "TMP",
    "why": "RE", "what": "TH", "which": "CH", "how": "CH",
}
AUX = (
    "am", "is", "are", "was", "were", "do", "does", "did", "have", "has", "had",
    "can", "could", "will", "would", "shall", "should", "may", "might", "must",
)
DEFAULT_TAGS = ("isn't it", "right")
DEFAULT_CLICHES = ("you know", "really", "oh yeah", "right", "okay", "huh")

# The long-turns workload replaces the tag and cliche lexicons with these
# larger multi-word lists through --extractor-config.
EXTRA_TAGS = (
    "don't you", "aren't you", "didn't you", "wasn't it", "won't you",
    "isn't that so", "doesn't it", "haven't you", "aren't they", "or not",
)
EXTRA_CLICHES = (
    "you see", "i mean", "i guess", "kind of", "sort of", "to be honest",
    "at the end of the day", "as a matter of fact", "you never know",
    "if you ask me", "by the way", "in any case", "let me think", "fair enough",
    "no way", "come on", "oh well", "i suppose", "all of a sudden", "more or less",
    "believe it or not", "in a way", "at least", "for what it's worth",
    "to tell you the truth", "as far as i know", "you know what i mean",
    "or something", "and so on", "the thing is", "mind you", "after all",
)

QUESTION_TYPES = ("YN", "DQ", "PQ", "CS", "WH")  # evaluate's row order
FEATURES = ("TMP", "LOC", "AG", "CH", "OW", "RE", "TH")
COMPATIBLE = {
    "YN": ("PA", "NA", "PHA", "UA", "UT", "DA"),
    "CS": ("PA", "NA", "PHA", "UA", "UT", "DA"),
    "WH": ("FA", "PHA", "UA", "UT", "DA"),
    "DQ": ("FA", "PHA", "UA", "UT", "DA"),
    "PQ": ("PHA", "UA", "UT", "DA"),
}
# A question type an annotator may confuse the true one with, chosen so the
# answer the annotator gives stays compatible: only planted violations count.
CONFUSABLE = {"YN": ("CS",), "CS": ("YN",), "WH": ("DQ",), "DQ": ("WH",), "PQ": ("YN", "CS")}

# --- vocabulary: no word here is a wh-word, an auxiliary, "or" or a cue -----

PRONOUNS = ("you", "we", "they", "he", "she", "it")
BASE_VERBS = ("see", "take", "make", "leave", "find", "put", "bring", "call", "visit", "paint",
              "fix", "cook", "read", "sell", "buy", "watch", "open", "close", "carry", "move")
PAST_VERBS = ("saw", "took", "made", "left", "found", "put", "brought", "called", "visited",
              "painted", "fixed", "cooked", "read", "sold", "bought", "watched", "opened",
              "closed", "carried", "moved")
NOUNS = ("car", "house", "garden", "kitchen", "paper", "coffee", "tea", "bread", "road",
         "letter", "phone", "table", "window", "train", "bus", "river", "market", "station",
         "office", "school", "park", "door", "bike", "book", "chair", "lamp", "shop", "beach",
         "hotel", "bridge")
ADJECTIVES = ("big", "small", "green", "old", "new", "quiet", "red", "cold", "warm", "long",
              "short", "late", "early", "cheap", "nice")
PREPOSITIONS = ("in", "on", "at", "near", "behind", "under", "from", "with", "to", "into")
DETERMINERS = ("the", "a", "my", "your", "our", "their", "this", "that")
ADVERBS = ("today", "yesterday", "again", "later", "there", "here", "soon", "already",
           "still", "together")


def _phrases(tokens: tuple[str, ...]) -> frozenset[tuple[str, ...]]:
    return frozenset(tuple(p.split()) for p in tokens)


@dataclass(frozen=True)
class Lexicons:
    """The four word lists feature extraction reads, as token tuples."""

    tags: frozenset
    cliches: frozenset
    wh: frozenset = frozenset(WH_FEATURE)
    aux: frozenset = frozenset(AUX)


DEFAULT_LEXICONS = Lexicons(_phrases(DEFAULT_TAGS), _phrases(DEFAULT_CLICHES))
EXTENDED_LEXICONS = Lexicons(
    _phrases(DEFAULT_TAGS + EXTRA_TAGS), _phrases(DEFAULT_CLICHES + EXTRA_CLICHES)
)


def _contains(entries: frozenset, tokens: list[str]) -> bool:
    longest = max(map(len, entries))
    return any(
        tuple(tokens[i:j]) in entries
        for i in range(len(tokens))
        for j in range(i + 1, min(len(tokens), i + longest) + 1)
    )


def _ends_with(entries: frozenset, tokens: list[str]) -> bool:
    return any(tuple(tokens[i:]) in entries for i in range(len(tokens)))


def feature_vector(tokens, prev_tokens, prev_interrupted, lex: Lexicons) -> tuple:
    """The eight README predictors, in canonical order, for one question."""
    similar = False
    if prev_tokens is not None and tokens:
        distinct = set(tokens)
        similar = len(distinct & set(prev_tokens)) / len(distinct) >= 0.5
    return (
        any(t in lex.wh for t in tokens),
        "or" in tokens,
        len(tokens) >= 2 and tokens[0] in lex.aux and tokens[1] not in lex.aux,
        _ends_with(lex.tags, tokens),
        similar,
        bool(prev_interrupted),
        _contains(lex.cliches, tokens),
        len(tokens),
    )


def rule_type(fv: tuple, short_cap: int = 5) -> str:
    """The README's six-rule cascade."""
    has_wh, has_or, inversion, tag, similar, incomplete, cliche, length = fv
    if has_wh and not cliche:
        return "WH"
    if has_or:
        return "DQ"
    if inversion or (tag and not cliche):
        return "YN"
    if incomplete and (similar or length <= short_cap):
        return "CS"
    if cliche:
        return "PQ"
    return "YN"


def wh_feature(tokens) -> str | None:
    for t in tokens:
        if t in WH_FEATURE:
            return WH_FEATURE[t]
    return None


# --- sentences ---------------------------------------------------------------


def _fill(rng: random.Random, n: int) -> list[str]:
    """n filler tokens built from short noun, prepositional and adverb phrases."""
    out: list[str] = []
    while len(out) < n:
        kind = rng.random()
        if kind < 0.4:
            out += [rng.choice(DETERMINERS), rng.choice(NOUNS)]
        elif kind < 0.7:
            out += [rng.choice(PREPOSITIONS), rng.choice(DETERMINERS), rng.choice(NOUNS)]
        elif kind < 0.85:
            out += [rng.choice(ADJECTIVES), rng.choice(NOUNS)]
        else:
            out.append(rng.choice(ADVERBS))
    return out[:n]


def statement(rng: random.Random, n: int) -> list[str]:
    return [rng.choice(PRONOUNS), rng.choice(PAST_VERBS)] + _fill(rng, max(0, n - 2))


def _pick_phrase(rng: random.Random, phrases) -> list[str]:
    return rng.choice(phrases).split()


def question(rng: random.Random, kind: str, n: int, tags, cliches) -> list[str]:
    """Tokens of one question of the given template kind, about n tokens long."""
    if kind == "wh":
        head = [rng.choice(sorted(WH_FEATURE)), rng.choice(AUX), rng.choice(PRONOUNS)]
        return head + ([rng.choice(BASE_VERBS)] if n > 3 else []) + _fill(rng, n - 4)
    if kind == "or":
        if n <= 4:
            return [rng.choice(NOUNS), "or", rng.choice(NOUNS)]
        head = [rng.choice(AUX), rng.choice(PRONOUNS), rng.choice(BASE_VERBS)]
        return head + [rng.choice(NOUNS), "or", rng.choice(NOUNS)] + _fill(rng, n - 6)
    if kind == "inv":
        head = [rng.choice(AUX), rng.choice(PRONOUNS), rng.choice(BASE_VERBS)]
        return head[: max(2, n)] + _fill(rng, n - 3)
    if kind == "tag":
        tag = _pick_phrase(rng, tags)
        return statement(rng, max(2, n - len(tag))) + tag
    if kind == "decl":
        return statement(rng, max(2, n))
    if kind == "cliche":
        phrase = _pick_phrase(rng, cliches)
        return phrase if n <= len(phrase) + 1 else statement(rng, n - len(phrase)) + phrase
    if kind == "whcliche":  # a cliche containing a wh-word outranks the wh cue
        return ["you", "know", rng.choice(sorted(WH_FEATURE))]
    if kind == "short":
        return _fill(rng, rng.randint(1, 4))
    raise ValueError(kind)


def similar_question(rng: random.Random, prev_tokens: list[str]) -> list[str]:
    """A completion that repeats most of a cut-off turn and runs past 5 tokens."""
    return list(prev_tokens) + _fill(rng, rng.randint(1, 3))


def render(tokens: list[str], end: str, tags=()) -> str:
    words = list(tokens)
    for tag in sorted(tags, key=len, reverse=True):
        tag_tokens = tag.split()
        if len(words) > len(tag_tokens) and words[-len(tag_tokens):] == tag_tokens:
            words[-len(tag_tokens) - 1] += ","
            break
    text = " ".join(words)
    return text[:1].upper() + text[1:] + end


# --- records -----------------------------------------------------------------


@dataclass
class Question:
    dialogue_id: str
    turn_index: int
    span: tuple[int, int]
    fv: tuple
    truth: str
    feature: str | None
    wh: str | None  # role of the question's first wh-word, as classify maps it
    answer_turn: int | None  # the turn that answers it, when one follows

    @property
    def ref(self) -> str:
        return f"{self.dialogue_id}:{self.turn_index}:{self.span[0]}-{self.span[1]}"


@dataclass
class Corpus:
    utterances: list[dict] = field(default_factory=list)  # canonical JSONL objects, in order
    questions: list[Question] = field(default_factory=list)


QUESTION_KINDS = ("wh", "or", "inv", "tag", "decl", "cliche", "whcliche")
SHORT_KIND_WEIGHTS = (0.30, 0.08, 0.28, 0.08, 0.10, 0.13, 0.03)


def short_dialogues(rng: random.Random, n_utterances: int, per_dialogue: int) -> Corpus:
    """Dialogues of 2-12 token turns; about a third of them are questions."""
    corpus = Corpus()
    lex = DEFAULT_LEXICONS
    n_dialogues = max(1, n_utterances // per_dialogue)
    sizes = [n_utterances // n_dialogues] * n_dialogues
    for i in range(n_utterances - sum(sizes)):
        sizes[i] += 1
    for d, size in enumerate(sizes):
        dialogue_id = f"d{d:05d}"
        start = rng.randint(0, 500)
        prev_tokens, prev_interrupted = None, False
        pending: list[Question] = []
        for k in range(size):
            turn = start + k
            if pending:
                for q in pending:
                    q.answer_turn = turn
                pending = []
            interrupted = False
            r = rng.random()
            if prev_interrupted and r < 0.6:
                if len(prev_tokens) >= 4 and rng.random() < 0.5:
                    tokens = similar_question(rng, prev_tokens)
                else:
                    tokens = question(rng, "short", 0, DEFAULT_TAGS, DEFAULT_CLICHES)
                is_question = True
            elif r < 0.33:
                kind = rng.choices(QUESTION_KINDS, SHORT_KIND_WEIGHTS)[0]
                tokens = question(rng, kind, rng.randint(2, 12), DEFAULT_TAGS, DEFAULT_CLICHES)
                is_question = True
            else:
                tokens = statement(rng, rng.randint(2, 12))
                is_question = False
                interrupted = rng.random() < 0.08
            tokens = tokens[:12]
            if is_question:
                text = render(tokens, "?", DEFAULT_TAGS)
                fv = feature_vector(tokens, prev_tokens, prev_interrupted, lex)
                truth = rule_type(fv)
                q = Question(dialogue_id, turn, (0, len(text)), fv, truth,
                             _true_feature(rng, truth, tokens), wh_feature(tokens), None)
                corpus.questions.append(q)
                pending.append(q)
            else:
                text = render(tokens, "" if interrupted else ".")
            corpus.utterances.append({
                "dialogue_id": dialogue_id, "turn_index": turn,
                "speaker": "amy" if k % 2 == 0 else "ben", "text": text,
                "interrupted": interrupted, "language": "en",
            })
            prev_tokens, prev_interrupted = tokens, interrupted
    return corpus


def _true_feature(rng: random.Random, truth: str, tokens) -> str | None:
    if truth == "WH":
        return wh_feature(tokens)
    if truth == "DQ" and rng.random() < 0.5:
        return "CH"
    return None


def long_session(rng: random.Random, n_turns: int, dialogue_id: str, label_noise: float):
    """One session of 20-80 token turns; question turns hold 1-3 question spans.

    Returns the corpus and the TSV lines; the session's turn numbers start at 1.
    """
    corpus = Corpus()
    lex = EXTENDED_LEXICONS
    tags, cliches = DEFAULT_TAGS + EXTRA_TAGS, DEFAULT_CLICHES + EXTRA_CLICHES
    tsv: list[str] = []
    prev_tokens, prev_interrupted = None, False
    for k in range(n_turns):
        turn = k + 1
        budget = rng.randint(20, 80)
        n_questions = rng.choice((1, 1, 2, 3)) if rng.random() < 0.4 else 0
        interrupted = n_questions == 0 and rng.random() < 0.1
        sentences: list[tuple[list[str], bool]] = []  # (tokens, is_question)
        for _ in range(n_questions):
            if prev_interrupted and rng.random() < 0.3:
                tokens = similar_question(rng, prev_tokens[: rng.randint(4, 12)])
            else:
                kind = rng.choices(QUESTION_KINDS, SHORT_KIND_WEIGHTS)[0]
                tokens = question(rng, kind, rng.randint(2, 40), tags, cliches)
                if rng.random() < 0.15:  # a discourse phrase in mid-question
                    cut = rng.randint(1, len(tokens))
                    tokens = tokens[:cut] + _pick_phrase(rng, cliches) + tokens[cut:]
            sentences.append((tokens, True))
        used = sum(len(t) for t, _ in sentences)
        while used < budget:
            tokens = statement(rng, max(2, min(budget - used, rng.randint(4, 15))))
            sentences.insert(rng.randint(0, len(sentences)), (tokens, False))
            used += len(tokens)
        if interrupted:  # a cut-off turn ends in the middle of a statement
            sentences.append((statement(rng, rng.randint(3, 8)), False))

        parts: list[str] = []
        offset = 0
        spans: list[tuple[int, int, list[str]]] = []
        for i, (tokens, is_question) in enumerate(sentences):
            last = i == len(sentences) - 1
            end = "?" if is_question else ("" if (interrupted and last) else ".")
            text = render(tokens, end, tags if is_question else ())
            if is_question:
                spans.append((offset, offset + len(text), tokens))
            parts.append(text)
            offset += len(text) + 1
        text = " ".join(parts)
        all_tokens = [t for tokens, _ in sentences for t in tokens]
        for start, end, tokens in spans:
            fv = feature_vector(tokens, prev_tokens, prev_interrupted, lex)
            truth = rule_type(fv)
            if rng.random() < label_noise:
                truth = rng.choice(QUESTION_TYPES)
            corpus.questions.append(
                Question(dialogue_id, turn, (start, end), fv, truth,
                         _true_feature(rng, truth, tokens), wh_feature(tokens), None)
            )
        speaker = "amy" if k % 2 == 0 else "ben"
        corpus.utterances.append({
            "dialogue_id": dialogue_id, "turn_index": turn, "speaker": speaker,
            "text": text, "interrupted": interrupted, "language": "en",
        })
        tsv.append(f"{turn}\t{speaker}\t{text}{' --' if interrupted else ''}\n")
        prev_tokens, prev_interrupted = all_tokens, interrupted
    return corpus, tsv


# --- annotators --------------------------------------------------------------


def annotate(
    rng: random.Random,
    questions: list[Question],
    annotator_id: str,
    flip_rate: float,
    coverage: float = 1.0,
    answer_rate: float = 0.0,
) -> list[dict]:
    """One annotator's question and answer records, with its own disagreement rate."""
    records: list[dict] = []
    for q in questions:
        if rng.random() >= coverage:
            continue
        q_type, feature = q.truth, q.feature
        if rng.random() < flip_rate:
            q_type = rng.choice(CONFUSABLE[q_type])
            if q_type not in ("WH", "DQ"):
                feature = None
        if q_type in ("WH", "DQ") and rng.random() < flip_rate:
            feature = rng.choice(FEATURES)
        records.append({
            "kind": "q", "dialogue_id": q.dialogue_id, "turn_index": q.turn_index,
            "span_start": q.span[0], "span_end": q.span[1], "q_type": q_type,
            "feature": feature, "annotator_id": annotator_id,
        })
        if q.answer_turn is not None and rng.random() < answer_rate:
            records.append({
                "kind": "a", "dialogue_id": q.dialogue_id, "turn_index": q.answer_turn,
                "a_type": rng.choice(COMPATIBLE[q_type]), "question_ref": q.ref,
                "annotator_id": annotator_id,
            })
    return records


def plant_violations(rng: random.Random, records: list[dict], per_kind: int) -> dict[str, int]:
    """Break per_kind records for each of the three violation kinds.

    Returns the number planted per kind. Every question has at most one
    answer per annotator, so each planted defect yields exactly one violation.
    """
    ref = lambda q: f"{q['dialogue_id']}:{q['turn_index']}:{q['span_start']}-{q['span_end']}"
    answered = {r["question_ref"]: r for r in records if r["kind"] == "a"}
    questions = [r for r in records if r["kind"] == "q"]
    plain = [q for q in questions if q["q_type"] in ("YN", "CS", "PQ") and ref(q) not in answered]
    with_answer = rng.sample([q for q in questions if ref(q) in answered], 2 * per_kind)
    for q in rng.sample(plain, per_kind):  # a feature on a type that takes none
        q["feature"] = rng.choice(FEATURES)
    for q in with_answer[:per_kind]:  # an answer type the question does not admit
        answered[ref(q)]["a_type"] = "FA" if q["q_type"] in ("YN", "CS", "PQ") else rng.choice(("PA", "NA"))
    for q in with_answer[per_kind:]:  # an answer that points at no question
        answered[ref(q)]["question_ref"] = f"{q['dialogue_id']}:{q['turn_index']}:0-0"
    return {
        "feature-not-applicable": per_kind,
        "illegal-answer-for-question": per_kind,
        "dangling-reference": per_kind,
    }


# --- files -------------------------------------------------------------------


def dump_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(json.dumps(rec) + "\n" for rec in records)


def extractor_config() -> dict:
    return {
        "tag_lexicon": list(DEFAULT_TAGS + EXTRA_TAGS),
        "cliche_lexicon": list(DEFAULT_CLICHES + EXTRA_CLICHES),
    }
