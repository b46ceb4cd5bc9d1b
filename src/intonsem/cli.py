"""Command-line front end: reduce, meaning, compare, truth, selfcheck.

Output is deterministic: floats are printed with 17 significant digits
(enough to round-trip float64 bit-exactly), JSON key order is fixed, and
no timestamps or environment data appear.  Exit codes: 0 success, 1
semantic or structural failure (no reduction, infelicitous structure,
cross-order comparison, float64 overflow), 2 input error (bad arguments
or syntax, unknown word or individual, unreadable or malformed file).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

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
from .tensor import TypedTensor, compose, epsilon_contract, eta, tensor_to_json
from .truth import (
    UniverseError,
    UnknownIndividualError,
    intersect,
    load_universe,
    theme_vector,
)

class _Failure(Exception):
    """A documented failure: ``main`` prints ``error: <message>``, exits ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Argument errors take the one ``error:`` line path, with exit 2."""

    def error(self, message):
        raise _Failure(2, message)


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _stable_json(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-significant-digit
    floats, no locale surprises."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_stable_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_stable_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _vec_text(arr: np.ndarray) -> str:
    return "[" + ", ".join(_fmt_float(x) for x in np.asarray(arr).ravel()) + "]"


def _emit_dot(factors, diagram) -> str:
    lines = [
        "graph reduction {",
        "  rankdir=LR;",
        '  node [shape=plaintext, fontname="monospace"];',
    ]
    for k, f in enumerate(factors):
        lines.append(f'  f{k + 1} [label="{f}"];')
    chain = " -- ".join(f"f{k + 1}" for k in range(len(factors)))
    if len(factors) > 1:
        lines.append(f"  {chain} [style=invis];")
    for i, j in diagram.links:
        lines.append(f"  f{i + 1} -- f{j + 1} [constraint=false];")
    for k in diagram.survivors:
        lines.append(f'  f{k + 1} [shape=ellipse, label="{factors[k]}"];')
    lines.append("}")
    return "\n".join(lines)


def cmd_reduce(args) -> int:
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
    reductions = [
        ([options[k] for options, k in zip(alternatives, choice)], diagram)
        for choice, diagram in chart_reductions(alternatives, target)
    ]

    grammatical = bool(reductions)
    if args.emit_diagram == "dot":
        if not grammatical:
            raise _Failure(1, "no reduction to draw")
        types, diagram = reductions[0]
        print(_emit_dot(flatten(types), diagram))
        return 0

    if args.format == "json":
        out = {
            "input": args.input,
            "target": args.target,
            "grammatical": grammatical,
            "reductions": [],
        }
        for types, diagram in reductions:
            item = {"word_types": [str(t) for t in types]} if args.lexicon else {}
            item.update(diagram.to_json())
            out["reductions"].append(item)
        print(_stable_json(out))
    else:
        if not args.lexicon:
            print(f"factors: {alternatives[0][0]}")
        if not grammatical:
            print(f"no reduction to '{target}'")
        for k, (types, diagram) in enumerate(reductions, start=1):
            j = diagram.to_json()
            links = " ".join(f"({i},{jj})" for i, jj in j["links"]) or "(none)"
            survivors = " ".join(str(x) for x in j["survivors"]) or "(none)"
            prefix = f"reduction {k}: "
            if args.lexicon:
                prefix += "types " + " | ".join(str(t) for t in types) + "; "
            print(prefix + f"links {links}; survivors {survivors}")
    return 0 if grammatical else 1


def _analysis_json(a: intonation.Analysis) -> dict:
    spans = []
    for typing, value in zip(a.typings, a.values):
        spans.append(
            {
                "role": typing.span.role,
                "tokens": list(typing.span.tokens),
                "type": str(typing.target),
                "reduction": typing.diagram.to_json(),
                "value": tensor_to_json(value.array),
            }
        )
    return {
        "pattern": a.pattern,
        "meaning": tensor_to_json(a.meaning.array),
        "spans": spans,
    }


def _finite(found: list[intonation.Analysis]) -> list[intonation.Analysis]:
    # np.einsum, which combines the spans, sets no floating-point flags
    if not all(np.isfinite(a.meaning.array).all() for a in found):
        raise FloatingPointError("overflow encountered in einsum")
    return found


def cmd_meaning(args) -> int:
    lex = load_lexicon(args.lexicon)
    sentence = parse_annotated(args.sentence)
    found = _finite(analyses(sentence, lex))
    if args.format == "json":
        out = {
            "sentence": str(sentence),
            "analyses": [_analysis_json(a) for a in found],
        }
        print(_stable_json(out))
    else:
        print(str(sentence))
        for k, a in enumerate(found, start=1):
            print(f"analysis {k}: pattern {a.pattern}")
            for typing, value in zip(a.typings, a.values):
                words = " ".join(typing.span.tokens)
                print(
                    f"  {typing.span.role} '{words}' -> {typing.target}: "
                    + _vec_text(value.array)
                )
            order = a.meaning.order
            print(f"  meaning (order {order}): " + _vec_text(a.meaning.array))
    return 0


def cmd_compare(args) -> int:
    if not args.tolerance >= 0:  # also catches NaN
        raise _Failure(2, f"--tolerance must be a non-negative number, got {args.tolerance}")
    lex = load_lexicon(args.lexicon)
    ma = _finite(analyses(parse_annotated(args.a), lex))[0].meaning
    mb = _finite(analyses(parse_annotated(args.b), lex))[0].meaning
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
    if args.format == "json":
        print(_stable_json({"cosine": c, "distance": dist, "equal": equal}))
    else:
        print(f"cosine: {_fmt_float(c)}")
        print(f"distance: {_fmt_float(dist)}")
        print(f"equal (within {_fmt_float(args.tolerance)}): {str(equal).lower()}")
    return 0


_BOUNDARY_TOKENS = {">", "<", "⊳", "⊲"}


def cmd_truth(args) -> int:
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
    bit = len(names)  # the intersection is the rheme alone or empty
    if args.format == "json":
        out = {
            "subject": subject,
            "relation": rel_name,
            "rheme": rheme,
            "theme_vector": tensor_to_json(theme),
            "intersection": names,
            "membership": bit,
        }
        print(_stable_json(out))
    else:
        print(f"theme({subject} {rel_name}) = " + _vec_text(theme))
        shown = "{" + ", ".join(names) + "}" if names else "∅"
        print(f"intersection: {shown}")
        print(f"membership: {bit}")
    return 0


def _selfchecks():
    """Each property of the sweep and whether it holds at every listed dim."""
    rng = np.random.default_rng(271828)
    close = functools.partial(np.allclose, rtol=1e-9, atol=1e-9)
    n, verb = atom("n"), parse_type("n.r s n.l n.l")
    ((_, diagram),) = chart_reductions([[n], [verb], [n], [n]], atom("s"))

    def copy_merge(d):
        v, m = rng.random(d), rng.random((d, d))
        return close([mu(delta(v)), mu(m), mu(np.outer(zeta(d), v))], [v, np.diagonal(m), v])

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


def cmd_selfcheck(args) -> int:
    failed = False
    for name, ok in _selfchecks():
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
        failed = failed or not ok
    return 1 if failed else 0


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
            return args.func(args)
    except _Failure as exc:
        failure = exc
    except (
        LexiconError, UniverseError, UnknownIndividualError, TypeSyntaxError, AnnotationSyntaxError
    ) as exc:
        failure = _Failure(2, str(exc))
    except InfelicitousStructure as exc:
        failure = _Failure(1, f"infelicitous structure: {exc}")
    except FloatingPointError as exc:
        failure = _Failure(1, f"the result is not finite in float64 ({exc})")
    print(f"error: {failure}", file=sys.stderr)
    return failure.code


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
