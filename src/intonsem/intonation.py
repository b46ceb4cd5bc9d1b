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
import re
from dataclasses import dataclass
from functools import cached_property
from operator import getitem
from typing import Iterator

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
from .tensor import TypedTensor, _read_only_float64, compose

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


# One item after optional whitespace: a braced span, a run of bare tokens,
# or a stray brace.  The classes are disjoint, so matching is linear, and
# \s is exactly str.isspace(), so tokens split where str.split() splits.
_ITEM = re.compile(r"\s*(?:\{([^{}]*)\}|([^\s{}]+(?:\s+[^\s{}]+)*)|(\S))")


def parse_annotated(text: str) -> AnnotatedSentence:
    """Parse ``{T ...}`` / ``{R ...}`` spans; bare tokens become themes.

    Adjacent spans of the same role merge into one span.  Error
    positions are 0-based character indices into ``text``.

    >>> print(parse_annotated("Mary likes {R musicals}"))
    {T Mary likes} {R musicals}
    """
    spans: list[Span] = []
    i = 0
    while m := _ITEM.match(text, i):
        braced, bare, stray = m.groups()
        at = m.start(m.lastindex) - (m.lastindex == 1)  # the item's first character
        if stray == "}":
            raise AnnotationSyntaxError(f"unmatched '}}' at position {at}")
        if stray:
            if text.find("}", at) < 0:
                raise AnnotationSyntaxError(f"unclosed '{{' at position {at}")
            raise AnnotationSyntaxError(f"nested '{{' at position {text.index('{', at + 1)}")
        if bare:
            role, tokens = THEME, bare.split()
        else:
            tag, *tokens = braced.split() or [""]
            role = {"T": THEME, "R": RHEME}.get(tag)
            if role is None:
                raise AnnotationSyntaxError(f"span at position {at} must start with 'T' or 'R'")
            if not tokens:
                raise AnnotationSyntaxError(f"empty span at position {at}")
        if spans and spans[-1].role == role:
            tokens = [*spans.pop().tokens, *tokens]
        spans.append(Span(role, tuple(tokens)))
        i = m.end()
    if not spans:
        raise AnnotationSyntaxError("the sentence has no tokens")
    return AnnotatedSentence(tuple(spans))


@dataclass(frozen=True)
class SpanTyping:
    """One way to type a span: chosen senses plus the reduction used."""

    span: Span
    senses: tuple[TypedTensor, ...]
    diagram: ReductionDiagram
    target: PregroupType

    @cached_property  # composed on first use, once however many derivations share it
    def value(self) -> TypedTensor:
        return compose(self.senses, self.diagram)


@dataclass(frozen=True)
class SentenceMeaning:
    """A meaning tensor tagged with the span pattern that produced it."""

    array: np.ndarray
    pattern: str

    def __post_init__(self):  # kept or copied as a TypedTensor's array is
        object.__setattr__(self, "array", _read_only_float64(self.array))

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
) -> Iterator[tuple[str, str, tuple[SpanTyping, ...]]]:
    """Each derivation, as (pattern, einsum spec, typing per span), in
    canonical order.  A reading's spans are typed when the stream reaches
    it, each (span, target) by one ``chart_reductions`` call; sense
    combinations follow lexicon order, and each combination's reductions
    the canonical reduction order.  Raises InfelicitousStructure only if
    the stream ends without a derivation.  Nothing else enumerates
    derivations."""
    roles = sentence.roles
    if roles not in _PATTERNS:
        raise InfelicitousStructure(
            f"unsupported span pattern {'-'.join(roles)}: expected theme/rheme, "
            "rheme-theme-rheme, or theme-rheme-theme"
        )
    senses = [[lexicon[w].senses for w in span.tokens] for span in sentence.spans]
    alternatives = [[[s.type for s in options] for options in words] for words in senses]
    found = False
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
            found = True
            for typings in itertools.product(*options):
                yield pattern, spec, typings
    if not found:
        # readings of one sentence can fail at the same span
        best = {k: closest_residual(alternatives[k]) for k in {k for _, k, _ in failures}}
        raise InfelicitousStructure("; ".join(
            f"{pattern}: span {k + 1} {sentence.spans[k]} has no sense assignment "
            f"reducing to '{target}'; best reached: '{best[k]}'"
            for pattern, k, target in failures
        ))


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
    return [typings for _, _, typings in _derivations(sentence, lexicon)]


def _analysis(pattern: str, spec: str, typings: tuple[SpanTyping, ...]) -> Analysis:
    values = tuple(t.value for t in typings)
    arr = np.einsum(spec, *(v.array for v in values))
    arr.setflags(write=False)  # einsum's own, so the meaning keeps it
    return Analysis(pattern, typings, values, SentenceMeaning(arr, pattern))


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
    return [_analysis(*d) for d in _derivations(sentence, lexicon)]


def meaning(sentence: AnnotatedSentence, lexicon: Lexicon) -> SentenceMeaning:
    """The meaning of the first derivation (see :func:`analyses`), computed alone.

    For the general theme/rheme case this is the element-wise product of
    the two span vectors; the three-span patterns contract their span
    values by the einsum of their spider normal form.
    """
    lexicon.shared_dim()
    return _analysis(*next(_derivations(sentence, lexicon))).meaning


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
    lexicon.shared_dim()
    for found, spec, typings in _derivations(sentence, lexicon):
        if found == pattern:  # values are computed for this derivation alone
            return _analysis(found, spec, typings).meaning
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
