"""Command-line interface: ingest, classify, train, evaluate, agree, validate.

Exit codes: 0 on success, 1 when validation finds violations, 2 for usage
and parse errors. Report documents carry a generated_at timestamp unless
--deterministic is given, so reruns can be byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import itertools
import logging
import os
import signal
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, NoReturn, Optional, Sequence

from . import _EXPORTS, _MODULE_OF, __version__
from .ingestion import (
    Dialogue,
    MalformedLine,
    _cannot,
    open_input,
    parse_dialogue_jsonl,
    parse_eaf,
    parse_tsv_transcript,
    read_annotations,
    write_annotations,
    write_dialogues,
    write_json,
)
from .model import (
    LAYERS,
    LEXICON_NAMES,
    QUESTION_TYPE_ORDER,
    AnswerAnnotation,
    QuestionAnnotation,
    QuestionType,
    Utterance,
    index_by_item,
    question_ref,
    validate_corpus,
)

def _load(*modules: str) -> None:
    """Import each of ``modules`` and bind those of its names in ``qapkit._EXPORTS`` that are not bound yet.

    Each command loads the modules it runs before it starts; a helper that may run before, or without,
    a command loads what it reads. A bound name is left as it is: bench/tracer.py and the tests wrap
    or replace names of this module before main runs.
    """
    names = globals()
    for module in modules:
        loaded = importlib.import_module(f".{module}", __package__)
        for name in _EXPORTS[module]:
            names.setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_MODULE_OF[name])
    return globals()[name]


log = logging.getLogger("qapkit")


@contextmanager
def _open_out(path: Optional[str]):
    if path:
        with _cannot("write", "--output", path), open(path, "w", encoding="utf-8") as f:
            yield f
    else:
        yield sys.stdout


def _write_report(doc: dict, path: Optional[str], deterministic: bool) -> None:
    """Write a JSON report, stamped with generated_at unless the run is deterministic.

    A report record is a named tuple: pass its ``_asdict()`` to write it as an object.
    """
    if not deterministic:
        from datetime import datetime, timezone  # here, not at the top: only this branch needs it
        doc["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    with _open_out(path) as out:
        write_json(doc, out)
        out.write("\n")


def _load_corpus(paths: Sequence[str]) -> list[Dialogue]:
    dialogues: list[Dialogue] = []
    seen: set[str] = set()
    for path in paths:
        with _cannot("read", "--input", path), open_input(path) as f:
            for dialogue in parse_dialogue_jsonl(f):
                if dialogue.dialogue_id in seen:
                    raise ValueError(f"dialogue {dialogue.dialogue_id!r} appears in more than one input")
                seen.add(dialogue.dialogue_id)
                dialogues.append(dialogue)
    dialogues.sort(key=lambda d: d.dialogue_id)
    return dialogues


def _read_annotation_files(flag: str, paths: Sequence[str]) -> list:
    """The records of every file given to ``flag``, in order; equal spans and turn numbers are one object."""
    records = []
    shared: dict = {}  # kept for this read only: across calls it would hold every span ever read
    for path in paths:
        with _cannot("read", flag, path), open_input(path) as f:
            records.extend(read_annotations(f, shared))
    return records


def _warn_repeats(count: int) -> None:
    if count:
        log.warning("%d repeated annotation records set aside: the first record per annotator and item counts", count)


def _extraction_setup(args) -> ExtractorConfig:
    """The extractor config file's settings, or the defaults, with each flag given on top."""
    _load("features")  # a caller may run this before, or without, a command
    with _cannot("read", "--extractor-config", args.extractor_config):
        cfg = load_extractor_config(args.extractor_config) if args.extractor_config else DEFAULT_EXTRACTOR
    overrides = {}
    for item in args.lexicon:
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            raise ValueError(f"--lexicon expects NAME=PATH, got {item!r}")
        if name not in LEXICON_NAMES:
            raise ValueError(f"unknown lexicon name {name!r} (use one of {', '.join(LEXICON_NAMES)})")
        overrides[f"{name}_lexicon"] = path
    if args.threshold is not None:
        overrides["similarity_threshold"] = args.threshold
    if getattr(args, "cliche_length_cap", None) is not None:
        overrides["cliche_length_cap"] = args.cliche_length_cap
    cfg = apply_settings(cfg, overrides)
    # wh-words and auxiliaries are looked up one token at a time
    for name in ("wh", "aux"):
        phrases = sorted(" ".join(e) for e in getattr(cfg, f"{name}_lexicon").entries if len(e) > 1)
        if phrases:
            log.warning("%s lexicon entries of more than one word never match: %s", name, ", ".join(phrases))
    return cfg


def _wh_feature_map(path: Optional[str], cfg: ExtractorConfig) -> Optional[dict]:
    """The --wh-map mapping (None for the built-in one); warns about wh tokens it misses."""
    if not path:
        return None
    with _cannot("read", "--wh-map", path):
        wh_map = load_wh_feature_map(path)
    missing = sorted(cfg.wh_lexicon.words - set(wh_map))
    if missing:
        log.warning("wh-feature map misses wh tokens: %s", ", ".join(missing))
    return wh_map


def _check_utf8(value: Optional[str], message: str) -> None:
    """Raise ValueError(message) if ``value`` cannot be written as UTF-8.

    Command-line bytes that are not UTF-8 reach Python as lone surrogates,
    which no output file can hold; checked before any output is opened.
    """
    try:
        if value:
            value.encode()
    except UnicodeEncodeError:
        raise ValueError(message) from None


# flags naming a file: a file name may hold any bytes, but an empty one names no file
_PATH_FLAGS = ("output", "model", "questions", "wh_map", "extractor_config")


def _check_flag(args, name: str) -> None:
    """Raise ValueError naming the flag if the value given to ``--NAME`` is empty or not valid UTF-8.

    A flag in _PATH_FLAGS is refused only when empty.
    """
    value = getattr(args, name)
    flag = "--" + name.replace("_", "-")
    if value == "":
        raise ValueError(f"{flag} must be non-empty")
    if name not in _PATH_FLAGS:
        _check_utf8(value, f"{flag} is not valid UTF-8")


def cmd_ingest(args) -> int:
    path = Path(args.input)
    # the flags a TSV or EAF file is read with; a flag left out keeps the reader's default
    options = {
        name: getattr(args, name)
        for name in ("dialogue_id", "language", "interruption_marker")
        if getattr(args, name) is not None
    }
    if args.format == "jsonl":
        if options:
            flag = "--" + next(iter(options)).replace("_", "-")
            raise ValueError(f"{flag} applies only to --format tsv and eaf")
        dialogues = _load_corpus([path])
    else:
        _check_flag(args, "dialogue_id")
        _check_flag(args, "language")
        options["dialogue_id"] = dialogue_id = args.dialogue_id or path.stem
        _check_utf8(dialogue_id, f"file name {path.name!r} is not valid UTF-8; name the dialogue with --dialogue-id")
        with _cannot("read", "--input", path):
            if args.format == "eaf":
                dialogues = parse_eaf(path, **options)
            else:
                with open_input(path) as f:
                    dialogues = parse_tsv_transcript(f, **options)
    with _open_out(args.output) as out:
        write_dialogues(dialogues, out)
    for dialogue in dialogues:
        log.debug("dialogue %s: %d utterances", dialogue.dialogue_id, len(dialogue.utterances))
    log.info(
        "ingested %d utterances in %d dialogues", sum(len(d.utterances) for d in dialogues), len(dialogues)
    )
    return 0


def _unresolved(key: tuple, problem: str, sources: Sequence[str]) -> NoReturn:
    """Raise the error for a question span naming no utterance, or running past its text.

    It names the first line of the annotation files ``sources`` that holds
    the span; the files are read again only now that the error is raised.
    """
    message = f"question {question_ref(*key)}{problem}"
    for path in sources:
        with open_input(path) as f:
            for line_no, line in enumerate(f, 1):
                if any(isinstance(r, QuestionAnnotation) and r.key == key for r in read_annotations([line])):
                    raise MalformedLine(line_no, message)
    raise ValueError(message)


def _question_features(
    dialogues: Sequence[Dialogue],
    keys: Iterable[tuple],
    cfg: ExtractorConfig,
    sources: Sequence[str] = (),
) -> Iterator[tuple[Utterance, tuple[int, int], list[str], FeatureVector]]:
    """(utterance, span, span tokens, feature vector) of each (dialogue, turn, span) key, in key order.

    A key naming no utterance, or a span running past the utterance text,
    raises a ValueError located in ``sources`` (see _unresolved). Equal
    vectors are one object, so a caller keeping them keeps one per distinct vector.

    Each span is tokenized once. A previous turn is tokenized once for the
    run of keys that follow it, which key order keeps together. Spans are
    not sliced from the utterance's tokens: lowercasing depends on context
    (the final-sigma rule), so those could differ from the span's own.
    """
    _load("features", "text")  # a caller may run this before, or without, a command
    by_id = {d.dialogue_id: d for d in dialogues}
    vectors: dict[FeatureVector, FeatureVector] = {}
    last_prev = prev_tokens = None
    for key in keys:
        dialogue_id, turn_index, span = key
        dialogue = by_id.get(dialogue_id)
        utterances = dialogue.utterances if dialogue is not None else ()
        i = turn_index - utterances[0].turn_index if utterances else -1
        if not 0 <= i < len(utterances):
            _unresolved(key, " has no matching utterance", sources)
        utt = utterances[i]
        if span[1] > len(utt.text):
            _unresolved(key, f": span exceeds utterance length {len(utt.text)}", sources)
        previous = utterances[i - 1] if i > 0 else None
        tokens = tokenize(utt.text[span[0] : span[1]])
        if previous is not last_prev:
            last_prev = previous
            prev_tokens = tokenize(previous.text) if previous is not None else None
        interrupted = previous is not None and previous.interrupted
        fv = token_features(tokens, prev_tokens, interrupted, cfg)
        yield utt, span, tokens, vectors.setdefault(fv, fv)


def cmd_classify(args) -> int:
    _load("features", "rules", "text", *(("tree",) if args.mode == "tree" else ()))
    if args.mode == "tree" and not args.model:
        raise ValueError("tree mode requires --model")
    if args.model and args.mode != "tree":
        raise ValueError("--model applies only to --mode tree")
    if args.cliche_length_cap is not None and args.mode != "rule":
        raise ValueError("--cliche-length-cap applies only to --mode rule")
    _check_flag(args, "annotator_id")
    _check_flag(args, "language")
    cfg = _extraction_setup(args)
    wh_map = _wh_feature_map(args.wh_map, cfg)
    if args.questions:  # read before the corpus, and held only as its keys
        given = _read_annotation_files("--questions", [args.questions])
        keys = sorted({r.key for r in given if isinstance(r, QuestionAnnotation)})
        del given
    dialogues = _load_corpus([args.input])

    model = None
    if args.mode == "tree":
        with _cannot("read", "--model", args.model), open_input(args.model) as f:
            model = load_model(f)

    if not args.questions:
        keys = [
            (u.dialogue_id, u.turn_index, (0, len(u.text)))
            for d in dialogues
            for u in d.utterances
            if u.text.rstrip().endswith("?")
        ]
    skipped = 0
    if args.language:  # a key naming no dialogue is kept, for the question pass to report
        other = {d.dialogue_id for d in dialogues if d.language != args.language}
        selected = [key for key in keys if key[0] not in other]
        skipped, keys = len(keys) - len(selected), selected

    annotator = args.annotator_id or args.mode
    sources = [args.questions] if args.questions else ()
    # both classifiers are pure functions of the vector: each distinct one is decided once
    decide = functools.cache(lambda fv: predict(model, fv) if model is not None else rule_classify(fv, cfg))
    records = []
    for utt, span, tokens, fv in _question_features(dialogues, keys, cfg, sources):
        q_type = decide(fv)
        feature = map_wh_feature(tokens, wh_map) if q_type is QuestionType.WH else None
        records.append(QuestionAnnotation(utt.dialogue_id, utt.turn_index, span, q_type, feature, annotator))
    if skipped:
        log.info("skipped %d questions in dialogues not in language %s", skipped, args.language)

    with _open_out(args.output) as out:
        write_annotations(records, out)
    log.info("classified %d questions", len(records))
    return 0


def cmd_train(args) -> int:
    _load("features", "text", "tree")
    if not args.output:
        raise ValueError("train requires --output for the model file")
    # checked in both modes, before any input is read
    train_cfg = TrainConfig(max_depth=args.max_depth, min_samples_leaf=args.min_samples_leaf)
    cfg = _extraction_setup(args)
    # read before the corpus; the index and the repeats hold the answers too, which training never reads
    indexes, repeats = index_by_item(_read_annotation_files("--annotations", args.annotations))
    questions = sorted((q for kept, _ in indexes.values() for q in kept.values()), key=lambda q: q.key)
    repeat_count = len(repeats)
    del indexes, repeats
    dialogues = _load_corpus(args.input)
    _warn_repeats(repeat_count)  # after the corpus read, so a bad corpus gives its error alone
    passed = _question_features(dialogues, (q.key for q in questions), cfg, args.annotations)
    rows = [(q, utt, fv) for q, (utt, _, _, fv) in zip(questions, passed)]

    set_aside = 0
    if args.limit_utterances is not None:
        total = sum(len(d.utterances) for d in dialogues)
        if args.limit_utterances < 0:
            raise ValueError(f"--limit-utterances must be non-negative, got {args.limit_utterances}")
        if args.limit_utterances > total:
            raise ValueError(f"--limit-utterances {args.limit_utterances} exceeds corpus size {total}")
        first = set(itertools.islice((u for d in dialogues for u in d.utterances), args.limit_utterances))
        kept = [row for row in rows if row[1] in first]
        set_aside = len(rows) - len(kept)
        log.info(
            "--limit-utterances %d: training on %d questions, %d set aside",
            args.limit_utterances, len(kept), set_aside,
        )
        rows = kept
        del first, kept
    instances = [LabeledInstance(fv, q.q_type) for q, _, fv in rows]
    del dialogues, rows, questions, passed  # the tree reads only the instances

    if args.baseline:
        model = majority_baseline(inst.label for inst in instances)
    else:
        model = train_tree(instances, train_cfg)
    with _open_out(args.output) as f:
        save_model(model, f)

    decide = functools.cache(lambda fv: predict(model, fv))  # once per distinct vector, as in classify
    correct = sum(1 for inst in instances if decide(inst.fv) == inst.label)
    summary = {
        "instances": len(instances),
        "n_set_aside": set_aside,
        "training_accuracy": correct / len(instances),
        "depth": model.depth(),
        "label_distribution": Counter(inst.label for inst in instances),
        "model": str(args.output),
    }
    _write_report(summary, None, args.deterministic)
    return 0


def _annotator_questions(flag: str, path: str) -> tuple[dict, int]:
    """The kept questions, by key, of the one annotator with questions in a file; and the file's repeats."""
    indexes, repeats = index_by_item(_read_annotation_files(flag, [path]))
    annotators = sorted(annotator for annotator, (questions, _) in indexes.items() if questions)
    if len(annotators) > 1:
        raise ValueError(f"{flag}: {path} holds questions of more than one annotator ({', '.join(annotators)})")
    return (indexes[annotators[0]][0] if annotators else {}), len(repeats)


def cmd_evaluate(args) -> int:
    _load("evaluation")
    gold, gold_repeats = _annotator_questions("--gold", args.gold)
    pred, pred_repeats = _annotator_questions("--pred", args.pred)
    _warn_repeats(gold_repeats + pred_repeats)
    keys = sorted(gold.keys() & pred.keys())
    if not keys:
        raise NoAlignedItems("gold and prediction files share no question annotations")
    gold_only, pred_only = len(gold) - len(keys), len(pred) - len(keys)
    if gold_only or pred_only:
        log.warning("questions left out of the scores: %d only in gold, %d only in predictions", gold_only, pred_only)
    matrix = confusion([gold[k].q_type for k in keys], [pred[k].q_type for k in keys], labels=QUESTION_TYPE_ORDER)
    report = score(matrix)

    doc = report.to_json_dict()
    doc["n_items"] = len(keys)
    doc["n_gold_only"], doc["n_pred_only"] = gold_only, pred_only
    doc["confusion_text"] = matrix.to_text()
    _write_report(doc, args.output, args.deterministic)
    if args.output:
        print(matrix.to_text())
        print(f"accuracy {report.accuracy:.4f}  macro_f1 {report.macro_f1:.4f}  weighted_f1 {report.weighted_f1:.4f}")
    return 0


def cmd_agree(args) -> int:
    _load("evaluation")
    indexes, repeats = index_by_item(_read_annotation_files("--input", args.input))
    _warn_repeats(len(repeats))

    layers = LAYERS if args.layer == "all" else (args.layer,)
    layer_reports = {}
    for layer in layers:
        try:
            reports = pairwise_agreement(indexes, layer)
        except NoAlignedItems as exc:
            if args.layer != "all":
                raise
            log.warning("layer %s skipped: %s", layer, exc)
            continue
        layer_reports[layer] = [r._asdict() for r in reports]
        for r in reports:
            who = "mean" if r.is_mean else "~".join(r.annotators)
            log.info(
                "%s %s: observed %.4f kappa %.4f (n=%d)", layer, who, r.observed, r.kappa, r.n_items
            )
    if not layer_reports:
        raise NoAlignedItems("no layer had items aligned across annotators")

    # the listing's rows are built one at a time, as write_json takes them
    doc = {"layers": layer_reports, "disagreements": (r._asdict() for r in disagreement_report(indexes))}
    _write_report(doc, args.output, args.deterministic)
    return 0


def cmd_validate(args) -> int:
    records = _read_annotation_files("--input", args.input)
    questions = [r for r in records if isinstance(r, QuestionAnnotation)]
    answers = [r for r in records if isinstance(r, AnswerAnnotation)]
    violations = validate_corpus(questions, answers)

    doc = {"count": len(violations), "violations": [v._asdict() for v in violations]}
    _write_report(doc, args.output, args.deterministic)
    log.info("%d questions, %d answers, %d violations", len(questions), len(answers), len(violations))
    return 1 if violations else 0


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", help="output path (default: stdout)")
    parser.add_argument(
        "--deterministic",
        action="store_true",
        help="omit the generated_at timestamp so reruns are byte-identical",
    )


def _add_extractor_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lexicon",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help=f"override a built-in lexicon (names: {', '.join(LEXICON_NAMES)}); repeatable",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        help="token-overlap threshold for last_utt_similar (default 0.5)",
    )
    parser.add_argument("--extractor-config", help="JSON file with lexicons and thresholds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qapkit",
        description="Annotate, classify, and score question-answer pairs in dialogue transcripts.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="normalize a transcript into canonical dialogue JSONL")
    p.add_argument("--input", required=True, help="transcript file")
    p.add_argument("--format", choices=("jsonl", "tsv", "eaf"), default="jsonl")
    p.add_argument("--dialogue-id", help="tsv and eaf only: the dialogue id (default: file stem)")
    p.add_argument("--language", help="tsv and eaf only: the dialogue's language code (default en)")
    p.add_argument("--interruption-marker", help="tsv and eaf only: trailing marker of a cut-off turn (default --)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("classify", help="annotate question types over a canonical corpus")
    p.add_argument("--input", required=True, help="canonical dialogue JSONL")
    p.add_argument("--mode", choices=("rule", "tree"), default="rule")
    p.add_argument("--model", help="tree mode only: model file (required there)")
    p.add_argument(
        "--questions",
        help="annotation JSONL whose question spans override ?-based detection",
    )
    p.add_argument("--language", help="only classify dialogues with this language code")
    p.add_argument("--annotator-id", help="annotator id written to output records (default: mode name)")
    _add_extractor_flags(p)
    p.add_argument("--wh-map", help="two-column file mapping wh-words to feature tags")
    p.add_argument(
        "--cliche-length-cap",
        type=int,
        help="rule mode only: maximum token length still counting as short (default 5)",
    )
    _add_common_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("train", help="fit a decision tree (or majority baseline) from annotations")
    p.add_argument("--input", required=True, nargs="+", help="canonical dialogue JSONL file(s)")
    p.add_argument("--annotations", required=True, nargs="+", help="gold annotation JSONL file(s)")
    p.add_argument("--max-depth", type=int, help="maximum tree depth (default: unlimited)")
    p.add_argument("--min-samples-leaf", type=int, default=1)
    p.add_argument(
        "--limit-utterances",
        type=int,
        help="train only on annotations within the first N utterances of the corpus",
    )
    p.add_argument("--baseline", action="store_true", help="fit the majority-class baseline instead")
    _add_extractor_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score predicted question annotations against gold")
    p.add_argument("--gold", required=True, help="gold annotation JSONL")
    p.add_argument("--pred", required=True, help="predicted annotation JSONL")
    _add_common_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("agree", help="inter-annotator agreement and disagreement report")
    p.add_argument("--input", required=True, nargs="+", help="annotation JSONL file(s), all annotators")
    p.add_argument("--layer", choices=(*LAYERS, "all"), default="all")
    _add_common_flags(p)
    p.set_defaults(func=cmd_agree)

    p = sub.add_parser("validate", help="check annotation files against the compatibility constraints")
    p.add_argument("--input", required=True, nargs="+", help="annotation JSONL file(s)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not logging.getLogger().handlers:
        logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    enabled = gc.isenabled()
    # a command builds its records in bulk and holds them until exit: a collection would free nothing
    gc.disable()
    try:
        for name in _PATH_FLAGS:
            if hasattr(args, name):
                _check_flag(args, name)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


def run() -> NoReturn:
    """The ``qapkit`` command: main(), then exit at once, without tearing down the heap."""
    if hasattr(signal, "SIGPIPE"):  # a closed pipe ends the command as it does any Unix producer
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help, --version and usage errors
        code = exc.code
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
