"""Toolkit for annotating question-answer pairs in spoken dialogue.

Covers corpus ingestion, surface-feature extraction, rule-based and
decision-tree question typing, wh-word semantic-role mapping, answer-type
validation, and inter-annotator agreement scoring.

Importing the package loads none of its modules: each name below loads the
module that defines it the first time it is read.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the module that defines it
_EXPORTS = {
    "evaluation": (
        "AgreementReport", "ClassScores", "ConfusionMatrix", "DisagreementCategory", "DisagreementRecord",
        "EmptyInput", "EvalReport", "LengthMismatch", "NoAlignedItems", "cohen_kappa", "confusion",
        "disagreement_report", "observed_agreement", "pairwise_agreement", "score",
    ),
    "features": (
        "DEFAULT_EXTRACTOR", "ExtractorConfig", "FeatureVector", "apply_settings", "detect_inversion",
        "extract_features", "load_extractor_config", "token_features",
    ),
    "ingestion": (
        "Dialogue", "DuplicateTurn", "EmptyTranscript", "IngestError", "MalformedLine", "NonDenseTurns",
        "UnknownTag", "parse_dialogue_jsonl", "parse_eaf", "parse_tsv_transcript", "read_annotations",
        "write_annotations", "write_dialogues",
    ),
    "lexicon": ("DEFAULT_WH_FEATURE_MAP", "EmptyLexicon", "Lexicon", "load_lexicon"),
    "model": (
        "QUESTION_TYPE_ORDER", "AnswerAnnotation", "AnswerType", "Feature", "QuestionAnnotation", "QuestionType",
        "Utterance", "Violation", "ViolationKind", "allowed_answer_types", "feature_applicable", "index_by_item",
        "validate_corpus",
    ),
    "rules": ("load_wh_feature_map", "map_wh_feature", "rule_classify"),
    "text": ("overlap_ratio", "tokenize"),
    "tree": (
        "EmptyTrainingSet", "LabeledInstance", "MalformedModel", "Node", "TrainConfig", "TreeModel",
        "UnsupportedVersion", "entropy", "information_gain", "load_model", "majority_baseline", "predict",
        "save_model", "train_tree",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a module, reached as qapkit.tree without its own import
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
