"""Intonation-annotated sentences: span typing and meaning computation.

A sentence is split into theme spans (shared information) and rheme
spans (new information) with implicit boundaries between them.  Each
span is typed and composed on its own so that it reduces to the theme
or rheme atom; the boundary then merges the span vectors over the
shared space, which over a fixed basis comes down to element-wise
multiplication: the rheme restricts the theme's alternatives.

Annotation syntax: ``{T Mary likes} {R musicals}``.  Bare tokens
outside braces form implicit theme spans, so ``Mary likes {R musicals}``
means the same thing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import getitem

import numpy as np

from .frobenius import boundary_tensor
from .lexicon import Lexicon, RHEME_BASE, THEME_BASE
from .pregroup import (
    PregroupType,
    ReductionDiagram,
    atom,
    chart_reductions,
    closest_residual,
    reduce,
)
from .tensor import TypedTensor, compose

THEME = "theme"
RHEME = "rheme"

PATTERN_SINGLE = "single-rheme"
PATTERN_DOUBLE = "double-rheme"
PATTERN_RELATIONAL = "relational-rheme"
PATTERN_SPLIT = "split-theme"

_THETA = atom(THEME_BASE)
_RHO = atom(RHEME_BASE)


class AnnotationSyntaxError(ValueError):
    """Malformed span annotation text."""


class InfelicitousStructure(Exception):
    """No typing realizes the annotated theme/rheme structure."""


@dataclass(frozen=True)
class Span:
    role: str
    tokens: tuple[str, ...]

    def __post_init__(self):
        if self.role not in (THEME, RHEME):
            raise ValueError(f"role must be 'theme' or 'rheme', not {self.role!r}")
        if not self.tokens:
            raise ValueError("a span needs at least one token")

    def __str__(self) -> str:
        tag = "T" if self.role == THEME else "R"
        return "{%s %s}" % (tag, " ".join(self.tokens))


@dataclass(frozen=True)
class AnnotatedSentence:
    spans: tuple[Span, ...]

    def __post_init__(self):
        if not self.spans:
            raise ValueError("a sentence needs at least one span")
        for a, b in zip(self.spans, self.spans[1:]):
            if a.role == b.role:
                raise ValueError("adjacent spans must differ in role")

    @property
    def roles(self) -> tuple[str, ...]:
        return tuple(s.role for s in self.spans)

    def __str__(self) -> str:
        return " ".join(str(s) for s in self.spans)


def parse_annotated(text: str) -> AnnotatedSentence:
    """Parse ``{T ...}`` / ``{R ...}`` spans; bare tokens become themes.

    Adjacent spans of the same role merge into one span.

    >>> print(parse_annotated("Mary likes {R musicals}"))
    {T Mary likes} {R musicals}
    """
    spans: list[Span] = []
    pending: list[str] = []

    def flush():
        if pending:
            spans.append(Span(THEME, tuple(pending)))
            pending.clear()

    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == "{":
            close = text.find("}", i)
            if close < 0:
                raise AnnotationSyntaxError(f"unclosed '{{' at position {i}")
            inner = text[i + 1:close]
            if "{" in inner:
                raise AnnotationSyntaxError(f"nested '{{' at position {i + 1 + inner.index('{')}")
            parts = inner.split()
            if not parts or parts[0] not in ("T", "R"):
                raise AnnotationSyntaxError(
                    f"span at position {i} must start with 'T' or 'R'"
                )
            if len(parts) < 2:
                raise AnnotationSyntaxError(f"empty span at position {i}")
            flush()
            spans.append(Span(THEME if parts[0] == "T" else RHEME, tuple(parts[1:])))
            i = close + 1
        elif c == "}":
            raise AnnotationSyntaxError(f"unmatched '}}' at position {i}")
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "{}":
                j += 1
            pending.append(text[i:j])
            i = j
    flush()
    if not spans:
        raise AnnotationSyntaxError("the sentence has no tokens")
    merged: list[Span] = []
    for s in spans:
        if merged and merged[-1].role == s.role:
            merged[-1] = Span(s.role, merged[-1].tokens + s.tokens)
        else:
            merged.append(s)
    return AnnotatedSentence(tuple(merged))


@dataclass(frozen=True)
class SpanTyping:
    """One way to type a span: chosen senses plus the reduction used."""

    span: Span
    senses: tuple[TypedTensor, ...]
    diagram: ReductionDiagram
    target: PregroupType

    def value(self) -> TypedTensor:
        return compose(self.senses, self.diagram)


@dataclass(frozen=True)
class SentenceMeaning:
    """A meaning tensor tagged with the span pattern that produced it."""

    array: np.ndarray
    pattern: str

    def __post_init__(self):
        arr = np.array(self.array, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    @property
    def order(self) -> int:
        return self.array.ndim


@dataclass(frozen=True)
class Analysis:
    """A full derivation: per-span typings, span values, and the meaning."""

    pattern: str
    typings: tuple[SpanTyping, ...]
    values: tuple[TypedTensor, ...]
    meaning: SentenceMeaning


# Spider normal form of each span pattern: every boundary network over
# the fixed basis is one spider, so the meaning is a generalized
# element-wise product of the span values.  Roles -> candidate readings
# (pattern, per-span targets, einsum spec) in canonical order.
_PATTERNS: dict[tuple[str, ...], list[tuple[str, tuple[PregroupType, ...], str]]] = {
    (THEME, RHEME): [(PATTERN_SINGLE, (_THETA, _RHO), "i,i->i")],
    (RHEME, THEME): [(PATTERN_SINGLE, (_RHO, _THETA), "i,i->i")],
    (RHEME, THEME, RHEME): [(PATTERN_DOUBLE, (_RHO, _THETA @ _THETA, _RHO), "i,ij,j->ij")],
    (THEME, RHEME, THEME): [
        (PATTERN_SPLIT, (_THETA, _RHO, _THETA), "i,i,i->i"),
        (PATTERN_RELATIONAL, (_THETA, _RHO @ _RHO, _THETA), "i,ij,j->ij"),
    ],
}


def _derivations(
    sentence: AnnotatedSentence, lexicon: Lexicon
) -> list[tuple[str, str, list[list[SpanTyping]]]]:
    """Per realizable reading: (pattern, einsum spec, options per span).

    Each (span, target) is typed by one ``chart_reductions`` call over
    the span's word-type alternatives; sense combinations follow lexicon
    order, and each combination's reductions the canonical reduction
    order.  ``type_spans`` and ``analyses`` both enumerate through here.
    """
    roles = sentence.roles
    if roles not in _PATTERNS:
        raise InfelicitousStructure(
            f"unsupported span pattern {'-'.join(roles)}: expected theme/rheme, "
            "rheme-theme-rheme, or theme-rheme-theme"
        )
    senses = [[lexicon[w].senses for w in span.tokens] for span in sentence.spans]
    alternatives = [[[s.type for s in options] for options in words] for words in senses]
    found = []
    failures: list[tuple[str, int, PregroupType]] = []
    # readings of one sentence can share a span's target
    typed: dict[tuple[int, PregroupType], list[SpanTyping]] = {}
    for pattern, targets, spec in _PATTERNS[roles]:
        for k, (span, tgt) in enumerate(zip(sentence.spans, targets)):
            if (k, tgt) not in typed:
                typed[k, tgt] = [
                    SpanTyping(span, tuple(map(getitem, senses[k], choice)), diagram, tgt)
                    for choice, diagram in chart_reductions(alternatives[k], tgt)
                ]
        options = [typed[k, tgt] for k, tgt in enumerate(targets)]
        empty = [k for k, opts in enumerate(options) if not opts]
        failures.extend((pattern, k, targets[k]) for k in empty)
        if not empty:
            found.append((pattern, spec, options))
    if not found:
        raise InfelicitousStructure("; ".join(
            f"{pattern}: span {k + 1} {sentence.spans[k]} has no sense assignment "
            f"reducing to '{target}'; best reached: '{closest_residual(alternatives[k])}'"
            for pattern, k, target in failures
        ))
    return found


def type_spans(
    sentence: AnnotatedSentence, lexicon: Lexicon
) -> list[tuple[SpanTyping, ...]]:
    """All ways to type every span of the sentence, one tuple per derivation.

    Each span must reduce to its role's target type (the theme or rheme
    atom; the middle span of the three-span patterns may carry the
    matrix type instead).  Raises InfelicitousStructure, naming the
    offending spans and the shortest type each reaches, when no sense
    combination works.
    """
    return [
        combo
        for _, _, options in _derivations(sentence, lexicon)
        for combo in itertools.product(*options)
    ]


def analyses(sentence: AnnotatedSentence, lexicon: Lexicon) -> list[Analysis]:
    """Every derivation of the sentence with its meaning, canonical order.

    Each pattern's meaning is one einsum over the span values:
    single-rheme ``i,i->i``, split-theme ``i,i,i->i``, double-rheme and
    relational-rheme ``i,ij,j->ij`` (the matrix span in the middle).
    Patterns are tried in a fixed order (for theme-rheme-theme: the
    all-vector split-theme reading before the matrix relational-rheme
    reading); within a pattern, sense combinations follow lexicon order
    and reductions follow the canonical reduction order.  Each span
    option is composed once, however many derivations share it.
    """
    lexicon.shared_dim()
    out = []
    for pattern, spec, options in _derivations(sentence, lexicon):
        valued = [[(t, t.value()) for t in opts] for opts in options]
        for combo in itertools.product(*valued):
            typings, values = zip(*combo)
            arr = np.einsum(spec, *(v.array for v in values))
            out.append(Analysis(pattern, typings, values, SentenceMeaning(arr, pattern)))
    return out


def meaning(sentence: AnnotatedSentence, lexicon: Lexicon) -> SentenceMeaning:
    """The meaning of the first derivation (see :func:`analyses`).

    For the general theme/rheme case this is the element-wise product of
    the two span vectors; the three-span patterns contract their span
    values by the einsum of their spider normal form.
    """
    return analyses(sentence, lexicon)[0].meaning


def _pattern_meaning(
    sentence: AnnotatedSentence, lexicon: Lexicon, pattern: str
) -> SentenceMeaning:
    # the three-span patterns each sit in exactly one row of the table
    roles = next(
        r for r, readings in _PATTERNS.items() if any(p == pattern for p, _, _ in readings)
    )
    if sentence.roles != roles:
        raise InfelicitousStructure(
            f"expected a {'-'.join(roles)} sentence, got {'-'.join(sentence.roles)}"
        )
    for a in analyses(sentence, lexicon):
        if a.pattern == pattern:
            return a.meaning
    raise InfelicitousStructure(
        f"no derivation of {sentence} realizes the {pattern} pattern"
    )


def meaning_multiple_rhemes(
    sentence: AnnotatedSentence, lexicon: Lexicon
) -> SentenceMeaning:
    """Order-2 meaning of a rheme-theme-rheme sentence.

    The theme composes to a matrix (type theta.theta); each rheme is
    merged into one of its wires, so the result is
    (rheme1 (x) rheme2) (.) theme-matrix.
    """
    return _pattern_meaning(sentence, lexicon, PATTERN_DOUBLE)


def meaning_split_theme(
    sentence: AnnotatedSentence, lexicon: Lexicon
) -> SentenceMeaning:
    """Order-1 meaning of a theme-rheme-theme sentence with vector spans:
    theme1 (.) rheme (.) theme2 (the spider normal form of the two
    chained boundaries)."""
    return _pattern_meaning(sentence, lexicon, PATTERN_SPLIT)


def boundary_contraction(
    theme: np.ndarray, rheme: np.ndarray, rheme_first: bool = False
) -> np.ndarray:
    """Contract the boundary tensor with a theme and a rheme vector.

    The categorical route to the single-rheme meaning; always equals the
    element-wise product of the two vectors.
    """
    theme = np.asarray(theme, dtype=np.float64)
    rheme = np.asarray(rheme, dtype=np.float64)
    if theme.ndim != 1 or rheme.ndim != 1 or theme.shape != rheme.shape:
        raise ValueError("boundary_contraction expects two equal-length vectors")
    d = theme.shape[0]
    b = boundary_tensor(d, rheme_first=rheme_first)
    if rheme_first:
        words = [TypedTensor(_RHO, rheme), b, TypedTensor(_THETA, theme)]
    else:
        words = [TypedTensor(_THETA, theme), b, TypedTensor(_RHO, rheme)]
    diagrams = reduce([w.type for w in words], atom("s"))
    assert len(diagrams) == 1
    return compose(words, diagrams[0]).array


def copy_expand(verb_matrix: np.ndarray, which: str = "object") -> np.ndarray:
    """Lift a verb matrix to an order-3 tensor by copying one wire.

    ``which="object"`` copies the column wire: T[i, k, j] = M[i, k] when
    k == j, so contracting with subject and object gives
    (subject x M) (.) object.  ``which="subject"`` copies the row wire:
    T[i, k, j] = M[i, j] when i == k, giving subject (.) (M x object).
    Contracting the middle wire with the all-ones vector recovers the
    plain transitive reading subject x M x object.
    """
    m = np.asarray(verb_matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("copy_expand expects a square matrix")
    d = m.shape[0]
    idx = np.arange(d)
    t = np.zeros((d, d, d))
    if which == "object":
        t[:, idx, idx] = m
    elif which == "subject":
        t[idx, idx, :] = m
    else:
        raise ValueError(f"which must be 'subject' or 'object', not {which!r}")
    return t
