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
numpy and the modules built on it are imported by the commands that
compute, so ``reduce`` on a type string, ``--help`` and argument errors
run without numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from json.encoder import encode_basestring, encode_basestring_ascii

from .pregroup import TypeSyntaxError, atom, chart_reductions, flatten, parse_type

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


def _raising():
    """numpy's error state while a command computes: float64 overflow and invalid values raise."""
    import numpy as np
    return np.errstate(over="raise", invalid="raise")


def _write(text: str, stream) -> None:
    """Write and flush ``text``.  A closed or full stream gets devnull at its fd, for the
    flush at exit; on stdout that fails with exit 1, on stderr the exit code stands."""
    try:
        print(text, end="", file=stream, flush=True)
    except OSError as exc:
        with open(os.devnull, "wb") as null:  # dup2 copies the descriptor; this one closes
            os.dup2(null.fileno(), stream.fileno())
        if stream is sys.stdout:
            raise _Failure(1, f"cannot write output: {exc.strerror}") from None


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
        from .lexicon import load_lexicon
        lex = load_lexicon(args.lexicon)
        alternatives = [lex[w].types() for w in words]
    else:
        alternatives = [[parse_type(args.input)]]
    found = chart_reductions(alternatives, target)

    def chosen(choice):
        return [options[k] for options, k in zip(alternatives, choice)]

    if args.emit_diagram == "dot":
        for choice, diagram in found:  # the first reduction alone
            return 0, None, _emit_dot(flatten(chosen(choice)), diagram)
        raise _Failure(1, "no reduction to draw")

    reductions = [
        ({"word_types": [str(t) for t in chosen(choice)]} if args.lexicon else {})
        | diagram.to_json()
        for choice, diagram in found
    ]
    out = {"input": args.input, "target": args.target, "grammatical": bool(reductions),
           "reductions": reductions}

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


def _analysis_json(a) -> dict:
    from .tensor import tensor_to_json
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
        "meaning": tensor_to_json(a.meaning.array),
        "spans": spans,
    }


def cmd_meaning(args):
    from .intonation import analyses, parse_annotated
    from .lexicon import load_lexicon
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
                words, data = " ".join(span["tokens"]), _stable_json(span["value"]["data"])
                yield f"  {span['role']} '{words}' -> {span['type']}: {data}"
            m = a["meaning"]
            yield f"  meaning (order {len(m['shape'])}): {_stable_json(m['data'])}"
    return 0, out, text()


def cmd_compare(args):
    if not args.tolerance >= 0:  # also catches NaN
        raise _Failure(2, f"--tolerance must be a non-negative number, got {args.tolerance}")
    import numpy as np
    from .intonation import meaning, parse_annotated
    from .lexicon import _unit_scaled, cosine, load_lexicon
    lex = load_lexicon(args.lexicon)
    ma = meaning(parse_annotated(args.a), lex)
    mb = meaning(parse_annotated(args.b), lex)
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
        yield f"cosine: {_stable_json(c)}"
        yield f"distance: {_stable_json(dist)}"
        yield f"equal (within {_stable_json(args.tolerance)}): {str(equal).lower()}"
    return 0, {"cosine": c, "distance": dist, "equal": equal}, text()


_BOUNDARY_TOKENS = {">", "<", "⊳", "⊲"}


def cmd_truth(args):
    import numpy as np
    from .tensor import tensor_to_json
    from .truth import intersect, load_universe, theme_vector
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
        theme_data = _stable_json(out["theme_vector"]["data"])
        yield f"theme({out['subject']} {out['relation']}) = {theme_data}"
        shown = "{" + ", ".join(out["intersection"]) + "}" if out["intersection"] else "∅"
        yield f"intersection: {shown}"
        yield f"membership: {out['membership']}"
    return 0, out, text()


def _selfchecks():
    """Each property of the sweep and whether it holds at every listed dim."""
    import numpy as np
    from . import frobenius  # its maps are looked up at each use, where a test may swap them
    from .frobenius import Spider, frobenius_condition_check, spider, zeta
    from .intonation import boundary_contraction
    from .tensor import TypedTensor, compose, epsilon_contract, eta
    rng = np.random.default_rng(271828)
    close = functools.partial(np.allclose, rtol=1e-9, atol=1e-9)
    n, verb = atom("n"), parse_type("n.r s n.l n.l")
    ((_, diagram),) = chart_reductions([[n], [verb], [n], [n]], atom("s"))

    def copy_merge(d):
        v, m = rng.random(d), rng.random((d, d))
        np.fill_diagonal(m, 0)  # merge must ignore what is off the diagonal
        delta, mu = frobenius.delta, frobenius.mu
        return close([mu(delta(v)), mu(delta(v) + m), mu(np.outer(zeta(d), v))], [v, v, v])

    def yanking(d):
        v = TypedTensor(n, rng.random(d))
        right = epsilon_contract(v, 0, TypedTensor(n.r @ n, eta(d)), 0)
        left = epsilon_contract(TypedTensor(n @ n.l, eta(d)), 1, v, 0)
        return close(right.array, v.array) and close(left.array, v.array)

    def fusion(d):
        dense = np.tensordot(spider(1, 2, d), spider(2, 1, d), axes=([2], [0]))
        return np.array_equal(dense, frobenius.fuse(Spider(1, 2, d), Spider(2, 1, d)).array())

    def boundary(d):
        theme, rheme = rng.random(d), rng.random(d)
        product = boundary_contraction(theme, rheme)
        flipped = boundary_contraction(theme, rheme, rheme_first=True)
        return close(product, theme * rheme) and np.array_equal(product, flipped)

    def bracketings(d):  # compose against epsilon_contract: the objects first, then the subject
        subj, obj1, obj2 = (TypedTensor(n, rng.random(d)) for _ in range(3))
        words = [subj, TypedTensor(verb, rng.random((d,) * 4)), obj1, obj2]
        objects = epsilon_contract(epsilon_contract(words[1], 3, obj1, 0), 2, obj2, 0)
        return close(compose(words, diagram).array, epsilon_contract(subj, 0, objects, 0).array)

    table = [
        ("frobenius condition (dims 1-8)", range(1, 9), frobenius_condition_check),
        ("copy/merge round trips", (2, 3, 5), copy_merge),
        ("yanking", (2, 5, 50), yanking),
        ("spider fusion sample", (1, 2, 3, 4, 5), fusion),
        ("boundary contraction = element-wise product", (2, 5, 50), boundary),
        ("contraction-order independence", (2, 5), bracketings),
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

    parser.commands = sub.choices  # each command's own parser, by name
    return parser


def _library_failure(exc: Exception) -> _Failure | None:
    """The failure a numpy-backed module's error stands for, or None; that module is loaded."""
    from . import intonation, lexicon, tensor, truth
    if isinstance(exc, (lexicon.LexiconError, truth.UniverseError, truth.UnknownIndividualError,
                        intonation.AnnotationSyntaxError)):
        return _Failure(2, str(exc))
    if isinstance(exc, intonation.InfelicitousStructure):
        return _Failure(1, f"infelicitous structure: {exc}")
    return _Failure(1, str(exc)) if isinstance(exc, tensor.ContractionError) else None


def _parse_args(argv) -> argparse.Namespace:
    """What the top-level parser makes of ``argv``; a named command's own parser takes the
    rest at once, where the top level would classify every argument only to pass it on."""
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    return (command.parse_args(argv[1:], argparse.Namespace(command=argv[0])) if command
            else parser.parse_args(argv))


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        computes = args.func is not cmd_reduce or args.lexicon  # reduce on types needs no numpy
        with _raising() if computes else contextlib.nullcontext():
            code, document, lines = args.func(args)
        json_out = document is not None and args.format == "json"
        _write((_stable_json(document) if json_out else "\n".join(lines)) + "\n", sys.stdout)
        return code
    except _Failure as exc:
        failure = exc
    except TypeSyntaxError as exc:
        failure = _Failure(2, str(exc))
    except FloatingPointError as exc:
        failure = _Failure(1, f"the result is not finite in float64 ({exc})")
    except Exception as exc:  # a class imported here would load numpy on --help's SystemExit
        failure = _library_failure(exc)
        if failure is None:
            raise
    _write(f"error: {failure}\n", sys.stderr)
    return failure.code


def app() -> None:
    # one BLAS thread, set before numpy loads: the thread count changes the bits of large sums
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.exit(main())


if __name__ == "__main__":
    app()
