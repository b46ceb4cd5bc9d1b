"""The benchmark's workloads: seeded request cycles with known expected results.

Each workload is a closed-loop cycle of requests of fixed composition.
The seed picks the concrete inputs (which words, which individuals, which
pool entries) and their order, never the mix, so every seed does the same
kinds and amounts of work.  Every request knows its expected exit class
and how its output is checked when it is generated:

* the four fixture sentences against ``tests/golden/*.json`` byte for byte;
* other CLI outputs over fixed input pools against SHA-256 digests in
  ``reference.json``, recorded from the seed commit (``record_reference.py``);
* short ``reduce`` requests against ``_oracles.brute_force_reductions``;
* ``truth`` requests against a plain set model of the universe file;
* ``dense-library`` meanings against independent ``np.einsum`` references.

Every JSON stdout must also parse with strict ``json.loads``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from _oracles import brute_force_reductions
from intonsem import cli
from intonsem.intonation import analyses, parse_annotated
from intonsem.lexicon import Lexicon, LexiconEntry
from intonsem.pregroup import SimpleType, parse_type
from intonsem.tensor import TypedTensor, tensor_to_json

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
GOLDEN = ROOT / "tests" / "golden"
REFERENCE = Path(__file__).with_name("reference.json")

# Paths as they appear in request argv, relative to the repository root.
SHIPPED_LEXICON = "src/intonsem/data/example_lexicon.json"
SHIPPED_UNIVERSE = "src/intonsem/data/universe_likes.json"
LONG_LEXICON = ".perfbench/long_spans_lexicon.json"
MIX_UNIVERSE = ".perfbench/cli_mix_universe.json"

FIXTURES = (
    ("single_rheme", "Mary likes {R musicals}"),
    ("double_rheme", "{R John} likes {R Mary}"),
    ("nested_rheme", "{T Mary wrote a book about} {R art}"),
    ("split_theme", "{T Mary wrote} {R a book} {T about art}"),
)
SHIPPED_NOUNS = ("Mary", "John", "musicals", "book", "art")

# cli-mix sentence templates over the shipped lexicon: every pattern and
# both single-rheme orders.
MIX_TEMPLATES = (
    "{T %s likes} {R %s}",
    "{R %s} {T likes %s}",
    "{T %s wrote a book about} {R %s}",
    "{R %s} {T likes} {R %s}",
    "{T %s wrote} {R a book} {T about %s}",
    "{T %s} {R likes} {T %s}",
)

# long-spans: the generated lexicon's content is fixed so that its outputs
# can be digested once; the run seed picks entries of the pools below.
LONG_CONTENT_SEED = 1505_06294
LONG_SENSES = {
    "N": ("n", "theta", "rho"),
    "M": ("n n.l", "theta theta.l", "rho rho.l"),
    "D": ("n n.l",),
    "V": ("n.r theta n.l", "n.r n n.l", "n.r theta", "theta n.l"),
}
LONG_WORDS = {
    "N": ("cat", "dog", "owl", "fox", "hen", "yak"),
    "M": ("red", "big", "old", "shy"),
    "D": ("the", "a"),
    "V": ("sees", "likes", "near", "with"),
}
# Theme shapes by word count; V also fills the preposition slot.
LONG_THEMES = {
    6: "NVDMMN",
    7: "NVDNVDN",
    8: "NVDMNVDN",
    9: "NVDMNVDMN",
    10: "NVDMNVDMMN",
}
LONG_POOL = 6
# One long-spans cycle: theme word counts, infelicitous k, chain k.  No
# request of the cycle takes much over 15 ms (see setup_long_spans).
LONG_CYCLE_THEMES = (6, 6, 6, 6, 7, 7, 7, 7, 8, 8, 8)
LONG_CYCLE_INFELICITOUS = (1, 1, 1)
LONG_CYCLE_CHAINS = (10, 11, 12, 13, 14, 16)

DENSE_DIM = 50
DENSE_NOUNS = ("ada", "bo", "cy", "dee", "eli", "fay", "gus", "hal")


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """``json.loads`` that also refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_key(argv) -> str:
    return json.dumps(list(argv), ensure_ascii=False)


def call_cli(argv) -> tuple[int, str, str]:
    """One in-process ``intonsem.cli.main`` call with stdout/stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


@dataclass(frozen=True)
class CliRequest:
    """A CLI invocation with its expected exit code and stdout check."""

    kind: str
    argv: tuple[str, ...]
    expect_exit: int
    check_stdout: Callable[[str], bool] | None = None  # required for exit 0

    def run(self):
        return call_cli(self.argv)

    def check(self, outcome) -> bool:
        rc, out, err = outcome
        if rc != self.expect_exit:
            return False
        if rc != 0:
            return out == "" and err.startswith("error: ") and err.count("\n") == 1
        if err:
            return False
        if "json" in self.argv:
            try:
                strict_json(out)
            except ValueError:
                return False
        return self.check_stdout is not None and self.check_stdout(out)


@dataclass(frozen=True)
class LibraryRequest:
    """``analyses`` plus ``tensor_to_json`` on a prebuilt in-memory lexicon."""

    kind: str
    sentence: str
    lexicon: Lexicon
    pattern: str
    meaning: np.ndarray
    values: tuple[np.ndarray, ...]

    def run(self):
        return [
            (
                a.pattern,
                tensor_to_json(a.meaning.array),
                [tensor_to_json(v.array) for v in a.values],
            )
            for a in analyses(parse_annotated(self.sentence), self.lexicon)
        ]

    def check(self, outcome) -> bool:
        if len(outcome) != 1:
            return False
        pattern, meaning, values = outcome[0]
        return (
            pattern == self.pattern
            and len(values) == len(self.values)
            and _close(meaning, self.meaning)
            and all(_close(v, r) for v, r in zip(values, self.values))
        )


def _close(wire: dict, ref: np.ndarray, rtol: float = 1e-9) -> bool:
    if tuple(wire["shape"]) != ref.shape:
        return False
    got = np.asarray(wire["data"], dtype=np.float64).reshape(ref.shape)
    return bool(np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref)))


@dataclass
class Workload:
    name: str
    cycle: list  # one closed-loop cycle, in seeded order
    warmup: object  # a fixed request run once at the end of set-up


# ---------------------------------------------------------------- checks


def golden_check(name: str) -> Callable[[str], bool]:
    expected = (GOLDEN / f"{name}.json").read_bytes()
    return lambda out: out.encode("utf-8") == expected


def digest_check(argv, reference: dict) -> Callable[[str], bool]:
    expected = reference[digest_key(argv)]
    return lambda out: digest(out) == expected


def same_document(expected: dict) -> Callable[[str], bool]:
    """Equal values and equal key order after a strict parse."""
    text = json.dumps(expected)
    return lambda out: json.dumps(strict_json(out)) == text


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _factor(text: str) -> SimpleType:
    base, *suffixes = text.split(".")
    return SimpleType(base, sum(1 if s == "r" else -1 for s in suffixes))


def oracle_reductions(word_types: list[str]) -> list[tuple[list[list[int]], list[int]]]:
    """Reductions of the juxtaposed types to ``s`` by exhaustive rewriting,
    1-based and in canonical (ascending link list) order."""
    factors = [_factor(f) for t in word_types for f in t.split()]
    found = sorted(brute_force_reductions(factors, [SimpleType("s")]))
    return [
        ([[i + 1, j + 1] for i, j in links], [k + 1 for k in survivors])
        for links, survivors in found
    ]


def reduce_document(text: str, word_types: list[list[str]] | None) -> dict:
    """The expected ``reduce --format json`` document for a type string
    (``word_types`` None) or for a word string with each word's sense types."""
    reductions = []
    for combo in itertools.product(*word_types) if word_types else [None]:
        for links, survivors in oracle_reductions(list(combo) if combo else [text]):
            item = {"word_types": list(combo)} if combo else {}
            item.update({"links": links, "survivors": survivors})
            reductions.append(item)
    return {"input": text, "target": "s", "grammatical": bool(reductions), "reductions": reductions}


def truth_document(individuals, pairs, subject: str, relation: str, rheme: str) -> dict:
    """The expected ``truth --format json`` document from the set model."""
    alternatives = {b for a, b in pairs if a == subject}
    return {
        "subject": subject,
        "relation": relation,
        "rheme": rheme,
        "theme_vector": {
            "shape": [len(individuals)],
            "data": [int(x in alternatives) for x in individuals],
        },
        "intersection": [rheme] if rheme in alternatives else [],
        "membership": int(rheme in alternatives),
    }


# ---------------------------------------------------------------- cli-mix


def mix_meaning_argv(template: int, x: str, y: str) -> tuple[str, ...]:
    return ("meaning", MIX_TEMPLATES[template] % (x, y), "--lexicon", SHIPPED_LEXICON, "--format", "json")


def mix_compare_argv(x: str, y: str) -> tuple[str, ...]:
    return (
        "compare", MIX_TEMPLATES[0] % (x, y), MIX_TEMPLATES[1] % (x, y),
        "--lexicon", SHIPPED_LEXICON, "--format", "json",
    )


def fixture_argv(sentence: str) -> tuple[str, ...]:
    return ("meaning", sentence, "--lexicon", SHIPPED_LEXICON, "--format", "json")


def fixture_requests() -> list[CliRequest]:
    return [CliRequest("fixture", fixture_argv(s), 0, golden_check(n)) for n, s in FIXTURES]


def _grammatical_types(rng: random.Random, n_factors: int) -> str:
    """A type string reducing to ``s``: cancellable pairs inserted around it."""
    factors = [("s", 0)]
    while len(factors) < n_factors:
        base, z = rng.choice("ns"), rng.randint(-2, 1)
        pos = rng.randint(0, len(factors))
        factors[pos:pos] = [(base, z), (base, z + 1)]
    return " ".join(b + (".l" * -z if z < 0 else ".r" * z) for b, z in factors)


def shipped_types() -> dict[str, list[str]]:
    types: dict[str, list[str]] = {}
    for entry in json.loads((ROOT / SHIPPED_LEXICON).read_text())["entries"]:
        types.setdefault(entry["word"], []).append(" ".join(entry["type"].split()))
    return types


def write_mix_universe(rng: random.Random) -> tuple[list[str], dict[str, list[tuple[str, str]]]]:
    individuals = [f"p{k:02d}" for k in range(32)]
    relations = {
        name: [(a, b) for a in individuals for b in individuals if rng.random() < 0.25]
        for name in ("likes", "knows")
    }
    doc = {"individuals": individuals, "relations": {k: [list(p) for p in v] for k, v in relations.items()}}
    (ROOT / MIX_UNIVERSE).write_text(json.dumps(doc))
    return individuals, relations


def setup_cli_mix(seed: int) -> Workload:
    """40 requests per cycle: 4 golden fixtures, 10 generated meanings, 4
    compares, 6 reduces, 12 truth queries, 2 exit-1 and 2 exit-2 requests."""
    rng = random.Random(seed)
    reference = load_reference()
    individuals, relations = write_mix_universe(rng)

    def pair():
        return rng.choice(SHIPPED_NOUNS), rng.choice(SHIPPED_NOUNS)

    cycle: list = fixture_requests()
    for template in (0, 1, 2, 3, 4, 5, 0, 1, 3, 4):
        argv = mix_meaning_argv(template, *pair())
        cycle.append(CliRequest("meaning", argv, 0, digest_check(argv, reference)))
    for _ in range(4):
        argv = mix_compare_argv(*pair())
        cycle.append(CliRequest("compare", argv, 0, digest_check(argv, reference)))
    for n_factors in (3, 5, 7, 9):
        text = _grammatical_types(rng, n_factors)
        cycle.append(CliRequest(
            "reduce-types", ("reduce", text, "--format", "json"), 0,
            same_document(reduce_document(text, None)),
        ))
    types = shipped_types()
    x, y = pair()
    for text in (f"{x} likes {y}", f"{x} snores"):
        cycle.append(CliRequest(
            "reduce-words", ("reduce", text, "--lexicon", SHIPPED_LEXICON, "--format", "json"), 0,
            same_document(reduce_document(text, [types[w] for w in text.split()])),
        ))
    shipped = json.loads((ROOT / SHIPPED_UNIVERSE).read_text())
    shipped_pairs = [tuple(p) for p in shipped["relations"]["likes"]]
    for k in range(12):
        if k < 4:
            names, path, rel, pairs = shipped["individuals"], SHIPPED_UNIVERSE, "likes", shipped_pairs
        else:
            rel = rng.choice(sorted(relations))
            names, path, pairs = individuals, MIX_UNIVERSE, relations[rel]
        subject, rheme = rng.choice(names), rng.choice(names)
        cycle.append(CliRequest(
            "truth", ("truth", f"{subject} {rel} {rheme}", "--universe", path, "--format", "json"), 0,
            same_document(truth_document(names, pairs, subject, rel, rheme)),
        ))
    x, y = pair()
    cycle.append(CliRequest("infelicitous", ("meaning", "{T %s snores} {R %s}" % (x, y),
                                             "--lexicon", SHIPPED_LEXICON, "--format", "json"), 1))
    cycle.append(CliRequest("cross-order", (
        "compare", MIX_TEMPLATES[3] % (x, y), MIX_TEMPLATES[0] % (x, y),
        "--lexicon", SHIPPED_LEXICON, "--format", "json"), 1))
    cycle.append(CliRequest("unknown-word", ("meaning", "{T %s likes} {R zebra}" % x,
                                             "--lexicon", SHIPPED_LEXICON, "--format", "json"), 2))
    cycle.append(CliRequest("unknown-individual", (
        "truth", f"{rng.choice(individuals)} likes nobody", "--universe", MIX_UNIVERSE, "--format", "json"), 2))
    rng.shuffle(cycle)
    return Workload("cli-mix", cycle, fixture_requests()[0])


# ---------------------------------------------------------------- long-spans


def write_long_lexicon() -> None:
    """The dimension-4 ambiguous lexicon; its content never depends on the run seed."""
    rng = np.random.default_rng(LONG_CONTENT_SEED)
    entries = []
    for cls, words in LONG_WORDS.items():
        for word in words:
            for type_text in LONG_SENSES[cls]:
                shape = [4] * len(type_text.split())
                data = rng.integers(0, 4, size=math.prod(shape)).tolist()
                entries.append({"word": word, "type": type_text, "shape": shape, "data": data})
    doc = {"dims": {"n": 4, "s": 4, "theta": 4, "rho": 4}, "entries": entries}
    (ROOT / LONG_LEXICON).write_text(json.dumps(doc))


def long_theme_pool() -> dict[int, list[str]]:
    """Felicitous sentences per theme word count, half theme-first."""
    rng = random.Random(LONG_CONTENT_SEED)
    pool = {}
    for length, shape in LONG_THEMES.items():
        pool[length] = []
        for k in range(LONG_POOL):
            theme = " ".join(rng.choice(LONG_WORDS[c]) for c in shape)
            rheme = rng.choice(LONG_WORDS["N"])
            pool[length].append(
                "{T %s} {R %s}" % (theme, rheme) if k % 2 == 0 else "{R %s} {T %s}" % (rheme, theme)
            )
    return pool


def long_meaning_argv(sentence: str) -> tuple[str, ...]:
    return ("meaning", sentence, "--lexicon", LONG_LEXICON, "--format", "json")


def chain_types(k: int) -> str:
    """``n n.r s n.l n (n.r n)^k``: 5 + 2k factors, exactly one reduction."""
    return "n n.r s n.l n" + " n.r n" * k


def chain_argv(k: int) -> tuple[str, ...]:
    return ("reduce", chain_types(k), "--format", "json")


def infelicitous_sentence(k: int, subject: str, rheme: str) -> str:
    return f"{subject} wrote a book " + "about a book " * k + "about {R %s}" % rheme


def setup_long_spans(seed: int) -> Workload:
    """20 requests per cycle: 11 felicitous themes of 6-8 words, 3
    infelicitous themes (exit 1), 6 reduce chains of 25-37 factors.
    Longer themes (up to 10 words) are timed in the traced run's scaling
    series: requests of 100 ms and more leave the per-request minimum at
    the mercy of the host's speed phases."""
    rng = random.Random(seed)
    reference = load_reference()
    write_long_lexicon()
    pool = long_theme_pool()
    cycle: list = []
    for length in LONG_CYCLE_THEMES:
        argv = long_meaning_argv(rng.choice(pool[length]))
        cycle.append(CliRequest(f"theme-{length}", argv, 0, digest_check(argv, reference)))
    for k in LONG_CYCLE_INFELICITOUS:
        sentence = infelicitous_sentence(k, rng.choice(("Mary", "John")), rng.choice(SHIPPED_NOUNS))
        cycle.append(CliRequest(f"infelicitous-{k}", ("meaning", sentence, "--lexicon", SHIPPED_LEXICON), 1))
    for k in LONG_CYCLE_CHAINS:
        argv = chain_argv(k)
        cycle.append(CliRequest(f"chain-{5 + 2 * k}", argv, 0, digest_check(argv, reference)))
    rng.shuffle(cycle)
    warm = chain_argv(10)
    return Workload("long-spans", cycle, CliRequest("chain-25", warm, 0, digest_check(warm, reference)))


# ---------------------------------------------------------------- dense-library


def dense_lexicon(rng: np.random.Generator, dim: int = DENSE_DIM) -> tuple[Lexicon, dict]:
    """Nouns, an order-3 transitive, one order-4 ditransitive and two
    matrices, built through the public constructors.  Also returns the
    raw arrays, which the einsum references read."""
    arrays: dict = {}
    entries = {}
    for word in DENSE_NOUNS:
        arrays[word] = {t: rng.random(dim) for t in ("n", "theta", "rho")}
    arrays["sees"] = {"n.r theta n.l": rng.random((dim,) * 3)}
    arrays["gives"] = {"n.r theta n.l n.l": rng.random((dim,) * 4)}
    arrays["likes"] = {"theta theta": rng.random((dim, dim)), "rho rho": rng.random((dim, dim))}
    for word, senses in arrays.items():
        entries[word] = LexiconEntry(word, tuple(TypedTensor(parse_type(t), a) for t, a in senses.items()))
    spaces = {"n": dim, "s": dim, "theta": dim, "rho": dim}
    # The ditransitive with its last object wire closed by each noun, in one
    # pass over the order-4 array instead of one per reference meaning.
    nouns = np.stack([arrays[w]["n"] for w in DENSE_NOUNS])
    closed = np.tensordot(arrays["gives"]["n.r theta n.l n.l"], nouns, axes=(3, 1))
    arrays["gives-closed"] = {w: closed[..., k] for k, w in enumerate(DENSE_NOUNS)}
    return Lexicon(spaces, entries), arrays


def _dense_request(kind: str, nouns: list[str], lex: Lexicon, arrays: dict) -> LibraryRequest:
    a, b, c, d = nouns

    def ein(spec, *operands):
        return np.einsum(spec, *operands, optimize=True)

    if kind.startswith("ditransitive"):
        theme = ein("i,ijk,k->j", arrays[a]["n"], arrays["gives-closed"][b], arrays[c]["n"])
        rheme = arrays[d]["rho"]
        meaning = ein("i,i->i", theme, rheme)
        theme_text = f"{{T {a} gives {b} {c}}}"
        if kind.endswith("theme-first"):
            return LibraryRequest(kind, f"{theme_text} {{R {d}}}", lex, "single-rheme", meaning, (theme, rheme))
        return LibraryRequest(kind, f"{{R {d}}} {theme_text}", lex, "single-rheme", meaning, (rheme, theme))
    if kind == "transitive":
        theme = ein("i,ijk,k->j", arrays[a]["n"], arrays["sees"]["n.r theta n.l"], arrays[b]["n"])
        rheme = arrays[c]["rho"]
        return LibraryRequest(kind, f"{{T {a} sees {b}}} {{R {c}}}", lex, "single-rheme",
                              ein("i,i->i", theme, rheme), (theme, rheme))
    if kind == "double-rheme":
        r1, m, r2 = arrays[a]["rho"], arrays["likes"]["theta theta"], arrays[b]["rho"]
        return LibraryRequest(kind, f"{{R {a}}} {{T likes}} {{R {b}}}", lex, "double-rheme",
                              ein("i,ij,j->ij", r1, m, r2), (r1, m, r2))
    if kind == "relational-rheme":
        t1, m, t2 = arrays[a]["theta"], arrays["likes"]["rho rho"], arrays[b]["theta"]
        return LibraryRequest(kind, f"{{T {a}}} {{R likes}} {{T {b}}}", lex, "relational-rheme",
                              ein("i,ij,j->ij", t1, m, t2), (t1, m, t2))
    t1, r, t2 = arrays[a]["theta"], arrays[b]["rho"], arrays[c]["theta"]
    return LibraryRequest(kind, f"{{T {a}}} {{R {b}}} {{T {c}}}", lex, "split-theme",
                          ein("i,i,i->i", t1, r, t2), (t1, r, t2))


DENSE_CYCLE = (
    ("ditransitive-theme-first",) * 4 + ("ditransitive-rheme-first",) * 4
    + ("double-rheme",) * 4 + ("transitive",) * 4 + ("relational-rheme",) * 2 + ("split-theme",) * 2
)


def setup_dense_library(seed: int) -> Workload:
    """20 requests per cycle on a d=50 lexicon built in memory: 8
    ditransitive, 4 double-rheme, 4 transitive, 2 relational, 2 split."""
    rng = random.Random(seed)
    lex, arrays = dense_lexicon(np.random.default_rng(seed))
    cycle = [_dense_request(kind, rng.sample(DENSE_NOUNS, 4), lex, arrays) for kind in DENSE_CYCLE]
    rng.shuffle(cycle)
    warm = _dense_request("ditransitive-theme-first", list(DENSE_NOUNS[:4]), lex, arrays)
    return Workload("dense-library", cycle, warm)


SETUPS = {
    "cli-mix": setup_cli_mix,
    "long-spans": setup_long_spans,
    "dense-library": setup_dense_library,
}


def digest_pool() -> list[tuple[str, ...]]:
    """Every argv whose stdout is checked against a recorded digest."""
    pool = [mix_meaning_argv(t, x, y) for t in range(len(MIX_TEMPLATES))
            for x in SHIPPED_NOUNS for y in SHIPPED_NOUNS]
    pool += [mix_compare_argv(x, y) for x in SHIPPED_NOUNS for y in SHIPPED_NOUNS]
    pool += [long_meaning_argv(s) for sentences in long_theme_pool().values() for s in sentences]
    pool += [chain_argv(k) for k in range(10, 17)]
    return pool
