"""Pregroup grammars with tensor-space semantics and intonation-aware
composition: theme/rheme spans, intonational boundaries as Frobenius
merges, and a truth-theoretic set model."""

from .frobenius import (
    Spider,
    boundary_tensor,
    delta,
    delta_tensor,
    frobenius_condition_check,
    fuse,
    iota,
    mu,
    mu_tensor,
    spider,
    zeta,
)
from .intonation import (
    AnnotatedSentence,
    Analysis,
    AnnotationSyntaxError,
    InfelicitousStructure,
    SentenceMeaning,
    Span,
    SpanTyping,
    analyses,
    boundary_contraction,
    copy_expand,
    meaning,
    meaning_multiple_rhemes,
    meaning_split_theme,
    parse_annotated,
    type_spans,
)
from .lexicon import (
    Lexicon,
    LexiconEntry,
    LexiconError,
    cosine,
    load_lexicon,
)
from .pregroup import (
    PregroupType,
    ReductionDiagram,
    SimpleType,
    TypeSyntaxError,
    atom,
    cancels,
    flatten,
    grammatical,
    parse_type,
    reduce,
)
from .tensor import (
    ContractionError,
    TypedTensor,
    UnknownBaseError,
    compose,
    epsilon_contract,
    eta,
    semantic_shape,
    tensor_from_json,
    tensor_to_json,
)
from .truth import (
    Relation,
    Universe,
    UniverseError,
    UnknownIndividualError,
    intersect,
    load_universe,
    membership,
    relation_lift,
    theme_vector,
    theme_vector_composed,
)

__version__ = "0.1.0"
