"""Pregroup grammars with tensor-space semantics and intonation-aware
composition: theme/rheme spans, intonational boundaries as Frobenius
merges, and a truth-theoretic set model."""

import importlib

# Each name is imported from its module when first used (PEP 562): pregroup alone loads no numpy.
_EXPORTS = {
    "frobenius": ("Spider", "boundary_tensor", "delta", "delta_tensor", "frobenius_condition_check",
                  "fuse", "iota", "mu", "mu_tensor", "spider", "zeta"),
    "intonation": ("AnnotatedSentence", "Analysis", "AnnotationSyntaxError",
                   "InfelicitousStructure", "SentenceMeaning", "Span", "SpanTyping", "analyses",
                   "boundary_contraction", "copy_expand", "meaning", "meaning_multiple_rhemes",
                   "meaning_split_theme", "parse_annotated", "type_spans"),
    "lexicon": ("Lexicon", "LexiconEntry", "LexiconError", "cosine", "load_lexicon"),
    "pregroup": ("PregroupType", "ReductionDiagram", "SimpleType", "TypeSyntaxError", "atom",
                 "cancels", "flatten", "grammatical", "parse_type", "reduce"),
    "tensor": ("ContractionError", "TypedTensor", "UnknownBaseError", "compose",
               "epsilon_contract", "eta", "semantic_shape", "tensor_from_json", "tensor_to_json"),
    "truth": ("Relation", "Universe", "UniverseError", "UnknownIndividualError", "intersect",
              "load_universe", "membership", "relation_lift", "theme_vector",
              "theme_vector_composed"),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
