"""Command-line front end: reduce, meaning, compare, truth, selfcheck.

Output is deterministic: floats are printed with 17 significant digits
(enough to round-trip float64 bit-exactly), JSON key order is fixed, and
no timestamps or environment data appear.  Exit codes: 0 success, 1
semantic or structural failure (no reduction, infelicitous structure,
cross-order comparison, float64 overflow, a contraction past numpy's
limit on array axes, a merge that does not fit in memory, an answer or
help that stdout cannot take: ``error: cannot write output: <reason>``),
2 input error (bad arguments or syntax, unknown word or individual,
unreadable or malformed file); an ``error:`` line that stderr cannot take
keeps its code.  Commands return their answer; ``main`` is the only writer.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring, encode_basestring_ascii

import numpy as np

from . import intonation
from .frobenius import Spider, delta, frobenius_condition_check, fuse, mu, spider, zeta
from .intonation import (
    AnnotationSyntaxError,
    InfelicitousStructure,
    analyses,
    parse_annotated,
)
from .lexicon import LexiconError, _unit_scaled, cosine, load_lexicon
from .pregroup import TypeSyntaxError, atom, chart_reductions, flatten, parse_type
from .tensor import ContractionError, TypedTensor, compose, epsilon_contract, eta, tensor_to_json
from .truth import (
    UniverseError,
    UnknownIndividualError,
    intersect,
    load_universe,
    theme_vector,
)

_JSON_BASES = ((float, float), (str, str.__str__), (dict, lambda d: dict(d.items())), (list, list))


class _Failure(Exception):
    """A documented failure: ``main`` prints ``error: <message>``, exits ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Argument errors take the one ``error:`` line path, with exit 2; help takes ``_write``."""

    def error(self, message):
        raise _Failure(2, message)

    def _print_message(self, message, file=None):
        _write(message, file or sys.stderr)


def _write(text: str, stream) -> None:
    """Write and flush ``text``.  A closed or full stream gets devnull at its fd, for the
    flush at exit; on stdout that fails with exit 1, on stderr the exit code stands."""
    try:
        print(text, end="", file=stream, flush=True)
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        if stream is sys.stdout:
            raise _Failure(1, f"cannot write output: {exc.strerror}") from None


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _stable_json(obj) -> str:
    """Deterministic JSON in one pass: insertion-ordered keys, 17-significant-digit
    floats, strings through the C encoders ``json.dumps`` uses, no locale surprises."""
    kind = type(obj)
    if kind is float:
        return format(obj, ".17g")
    if kind is list:
        return "[" + ", ".join([_stable_json(v) for v in obj]) + "]"
    if kind is dict:
        return "{" + ", ".join([
            f"{encode_basestring_ascii(k) if type(k) is str else json.dumps(k)}: {_stable_json(v)}"
            for k, v in obj.items()]) + "}"
    if kind is str:
        return encode_basestring(obj)
    if isinstance(obj, int):  # bool, int or a subclass of int
        return ("true" if obj else "false") if kind is bool else str(obj)
    for base, convert in _JSON_BASES:  # a subclass prints as its base type does
        if isinstance(obj, base):
            return _stable_json(convert(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _vec_text(tensor: dict) -> str:
    """The row-major data of a wire tensor (``{"shape", "data"}``)."""
    return "[" + ", ".join(map(_fmt_float, tensor["data"])) + "]"


def _emit_dot(factors, diagram):
    yield "graph reduction {"
    yield "  rankdir=LR;"
    yield '  node [shape=plaintext, fontname="monospace"];'
    for k, f in enumerate(factors):
        yield f'  f{k + 1} [label="{f}"];'
    chain = " -- ".join(f"f{k + 1}" for k in range(len(factors)))
    if len(factors) > 1:
        yield f"  {chain} [style=invis];"
    for i, j in diagram.links:
        yield f"  f{i + 1} -- f{j + 1} [constraint=false];"
    for k in diagram.survivors:
        yield f'  f{k + 1} [shape=ellipse, label="{factors[k]}"];'
    yield "}"


def cmd_reduce(args):
    target = parse_type(args.target)
    if any(f.z != 0 for f in target):
        raise _Failure(2, f"--target must consist of plain factors, got '{target}'")
    words = args.input.split()
    if not words:
        raise _Failure(2, "empty input")
    if args.lexicon:
        lex = load_lexicon(args.lexicon)
        alternatives = [lex[w].types() for w in words]
    else:
        alternatives = [[parse_type(args.input)]]
    found = chart_reductions(alternatives, target)

    def chosen(choice):
        return [options[k] for options, k in zip(alternatives, choice)]

    if args.emit_diagram == "dot":
        if not found:
            raise _Failure(1, "no reduction to draw")
        choice, diagram = found[0]
        return 0, None, _emit_dot(flatten(chosen(choice)), diagram)

    out = {
        "input": args.input,
        "target": args.target,
        "grammatical": bool(found),
        "reductions": [
            ({"word_types": [str(t) for t in chosen(choice)]} if args.lexicon else {})
            | diagram.to_json()
            for choice, diagram in found
        ],
    }

    def text():
        if not args.lexicon:
            yield f"factors: {alternatives[0][0]}"
        if not out["grammatical"]:
            yield f"no reduction to '{target}'"
        for k, item in enumerate(out["reductions"], start=1):
            types = "types " + " | ".join(item["word_types"]) + "; " if args.lexicon else ""
            links = " ".join(f"({i},{j})" for i, j in item["links"]) or "(none)"
            survivors = " ".join(map(str, item["survivors"])) or "(none)"
            yield f"reduction {k}: {types}links {links}; survivors {survivors}"
    return (0 if out["grammatical"] else 1), out, text()


def _analysis_json(a: intonation.Analysis) -> dict:
    spans = [
        {
            "role": typing.span.role,
            "tokens": list(typing.span.tokens),
            "type": str(typing.target),
            "reduction": typing.diagram.to_json(),
            "value": tensor_to_json(value.array),
        }
        for typing, value in zip(a.typings, a.values)
    ]
    return {
        "pattern": a.pattern,
        "meaning": tensor_to_json(_finite(a.meaning).array),
        "spans": spans,
    }


def _finite(m: intonation.SentenceMeaning) -> intonation.SentenceMeaning:
    # np.einsum, which combines the spans, sets no floating-point flags
    if not np.isfinite(m.array).all():
        raise FloatingPointError("overflow encountered in einsum")
    return m


def cmd_meaning(args):
    lex = load_lexicon(args.lexicon)
    sentence = parse_annotated(args.sentence)
    out = {
        "sentence": str(sentence),
        "analyses": [_analysis_json(a) for a in analyses(sentence, lex)],
    }

    def text():
        yield out["sentence"]
        for k, a in enumerate(out["analyses"], start=1):
            yield f"analysis {k}: pattern {a['pattern']}"
            for span in a["spans"]:
                words = " ".join(span["tokens"])
                yield f"  {span['role']} '{words}' -> {span['type']}: " + _vec_text(span["value"])
            yield f"  meaning (order {len(a['meaning']['shape'])}): " + _vec_text(a["meaning"])
    return 0, out, text()


def cmd_compare(args):
    if not args.tolerance >= 0:  # also catches NaN
        raise _Failure(2, f"--tolerance must be a non-negative number, got {args.tolerance}")
    lex = load_lexicon(args.lexicon)
    ma = _finite(intonation.meaning(parse_annotated(args.a), lex))
    mb = _finite(intonation.meaning(parse_annotated(args.b), lex))
    if ma.order != mb.order:
        raise _Failure(
            1,
            f"cannot compare a meaning of order {ma.order} with one of "
            f"order {mb.order}: they live in different spaces",
        )
    va, vb = ma.array.ravel(), mb.array.ravel()
    try:
        c = cosine(va, vb)
    except ValueError as exc:
        raise _Failure(1, str(exc)) from exc
    diff, e = _unit_scaled(va - vb)
    dist = float(np.ldexp(np.linalg.norm(diff), e))
    equal = dist <= args.tolerance

    def text():
        yield f"cosine: {_fmt_float(c)}"
        yield f"distance: {_fmt_float(dist)}"
        yield f"equal (within {_fmt_float(args.tolerance)}): {str(equal).lower()}"
    return 0, {"cosine": c, "distance": dist, "equal": equal}, text()


_BOUNDARY_TOKENS = {">", "<", "⊳", "⊲"}


def cmd_truth(args):
    universe, relations = load_universe(args.universe)
    tokens = [t for t in args.query.split() if t not in _BOUNDARY_TOKENS]
    if len(tokens) != 3:
        raise _Failure(
            2, f"query must be 'subject relation rheme' (got {len(tokens)} words)"
        )
    subject, rel_name, rheme = tokens
    if rel_name not in relations:
        known = ", ".join(sorted(relations)) or "(none)"
        raise _Failure(2, f"unknown relation {rel_name!r}; universe file defines {known}")
    rel = relations[rel_name]
    theme = theme_vector(universe, rel, subject)
    inter = intersect(universe, theme, rheme)
    names = [universe.individuals[k] for k in np.flatnonzero(inter)]
    out = {
        "subject": subject,
        "relation": rel_name,
        "rheme": rheme,
        "theme_vector": tensor_to_json(theme),
        "intersection": names,
        "membership": len(names),  # the intersection is the rheme alone or empty
    }

    def text():
        yield f"theme({out['subject']} {out['relation']}) = " + _vec_text(out["theme_vector"])
        shown = "{" + ", ".join(out["intersection"]) + "}" if out["intersection"] else "∅"
        yield f"intersection: {shown}"
        yield f"membership: {out['membership']}"
    return 0, out, text()


def _selfchecks():
    """Each property of the sweep and whether it holds at every listed dim."""
    rng = np.random.default_rng(271828)
    close = functools.partial(np.allclose, rtol=1e-9, atol=1e-9)
    n, verb = atom("n"), parse_type("n.r s n.l n.l")
    ((_, diagram),) = chart_reductions([[n], [verb], [n], [n]], atom("s"))

    def copy_merge(d):
        v, m = rng.random(d), rng.random((d, d))
        np.fill_diagonal(m, 0)  # merge must ignore what is off the diagonal
        return close([mu(delta(v)), mu(delta(v) + m), mu(np.outer(zeta(d), v))], [v, v, v])

    def yanking(d):
        v = TypedTensor(n, rng.random(d))
        right = epsilon_contract(v, 0, TypedTensor(n.r @ n, eta(d)), 0)
        left = epsilon_contract(TypedTensor(n @ n.l, eta(d)), 1, v, 0)
        return close(right.array, v.array) and close(left.array, v.array)

    def fusion(d):
        dense = np.tensordot(spider(1, 2, d), spider(2, 1, d), axes=([2], [0]))
        return np.array_equal(dense, fuse(Spider(1, 2, d), Spider(2, 1, d)).array())

    def boundary(d):
        theme, rheme = rng.random(d), rng.random(d)
        product = intonation.boundary_contraction(theme, rheme)
        flipped = intonation.boundary_contraction(theme, rheme, rheme_first=True)
        return close(product, theme * rheme) and np.array_equal(product, flipped)

    def link_orders(d):
        subj, obj1, obj2 = (TypedTensor(n, rng.random(d)) for _ in range(3))
        words = [subj, TypedTensor(verb, rng.random((d,) * 4)), obj1, obj2]
        reordered = compose(words, diagram, link_order=[2, 1, 0])
        return close(compose(words, diagram).array, reordered.array)

    table = [
        ("frobenius condition (dims 1-8)", range(1, 9), frobenius_condition_check),
        ("copy/merge round trips", (2, 3, 5), copy_merge),
        ("yanking", (2, 5, 50), yanking),
        ("spider fusion sample", (1, 2, 3, 4, 5), fusion),
        ("boundary contraction = element-wise product", (2, 5, 50), boundary),
        ("contraction-order independence", (2, 5), link_orders),
    ]
    for name, dims, check in table:
        # a list, not a generator: every draw is made whichever check fails
        yield name, all([check(d) for d in dims])


def cmd_selfcheck(args):
    verdicts = dict(_selfchecks())
    text = (f"{name}: {'PASS' if ok else 'FAIL'}" for name, ok in verdicts.items())
    return (0 if all(verdicts.values()) else 1), None, text


@functools.cache  # parsing does not change the parser, so main reuses it
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="intonsem",
        description="Pregroup grammar with tensor semantics and intonation-aware "
        "composition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="search for pregroup reductions")
    p.add_argument("input", help="a type string like 'n n.r s n.l n', or words "
                   "when --lexicon is given")
    p.add_argument("--target", default="s", help="target type (default: s)")
    p.add_argument("--lexicon", help="lexicon JSON file for word lookup")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--emit-diagram", choices=("dot",), dest="emit_diagram",
                   help="emit the first reduction as a Graphviz cup diagram")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("meaning", help="compute the meaning of an annotated sentence")
    p.add_argument("sentence", help="e.g. '{T Mary likes} {R musicals}'")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_meaning)

    p = sub.add_parser("compare", help="cosine-compare two sentence meanings")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("truth", help="evaluate 'subject relation rheme' over a universe")
    p.add_argument("query", help="e.g. 'John likes Mary' (boundary markers allowed)")
    p.add_argument("--universe", required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_truth)

    p = sub.add_parser("selfcheck", help="run the built-in numeric property suite")
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        with np.errstate(over="raise", invalid="raise"):
            code, document, lines = args.func(args)
        json_out = document is not None and args.format == "json"
        _write((_stable_json(document) if json_out else "\n".join(lines)) + "\n", sys.stdout)
        return code
    except _Failure as exc:
        failure = exc
    except (
        LexiconError, UniverseError, UnknownIndividualError, TypeSyntaxError, AnnotationSyntaxError
    ) as exc:
        failure = _Failure(2, str(exc))
    except InfelicitousStructure as exc:
        failure = _Failure(1, f"infelicitous structure: {exc}")
    except ContractionError as exc:
        failure = _Failure(1, str(exc))
    except FloatingPointError as exc:
        failure = _Failure(1, f"the result is not finite in float64 ({exc})")
    _write(f"error: {failure}\n", sys.stderr)
    return failure.code


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
