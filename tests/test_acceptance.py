"""End-to-end acceptance suite: one test per shipped guarantee.

Each test prints a single ``acceptance NN <name>: PASS|FAIL`` line (run
with ``pytest tests/test_acceptance.py -v -s`` to see them) and then
asserts, so a red run pinpoints the guarantee that broke.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from intonsem import frobenius
from intonsem.frobenius import (
    boundary_tensor,
    delta_tensor,
    frobenius_condition_check,
    mu_tensor,
    spider,
)
from intonsem.intonation import (
    boundary_contraction,
    copy_expand,
    meaning_multiple_rhemes,
    parse_annotated,
)
from intonsem.lexicon import Lexicon, LexiconEntry
from intonsem.pregroup import PregroupType, SimpleType, atom, flatten, parse_type, reduce
from intonsem.tensor import TypedTensor, compose, epsilon_contract, semantic_shape
from intonsem.truth import (
    Relation,
    Universe,
    intersect,
    membership,
    theme_vector,
    theme_vector_composed,
)

from _oracles import brute_force_reductions, inverse_reduce_sequence, random_type_sequence

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "intonsem" / "data"
SRC_DIR = DATA_DIR.parent.parent


def _report(num: int, name: str, ok: bool) -> None:
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def _rel_close(a, b, tol=1e-12) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    scale = max(float(np.max(np.abs(a))) if a.size else 0.0,
                float(np.max(np.abs(b))) if b.size else 0.0, 1.0)
    return float(np.max(np.abs(a - b))) <= tol * scale if a.size else True


def test_01_reduction_and_oracle():
    ok = True

    # the transitive sentence reduces with the exact link pattern
    n, s = atom("n"), atom("s")
    out = reduce([n, n.r @ s @ n.l, n], s)
    ok = ok and [d.to_json() for d in out] == [
        {"links": [[1, 2], [4, 5]], "survivors": [3]}
    ]

    # independent brute-force enumerator agrees on 1000 random sequences
    rng = np.random.default_rng(101)
    target = [SimpleType("s")]
    for k in range(1000):
        if k % 5 < 2:
            types = inverse_reduce_sequence(rng, target)
        else:
            types = random_type_sequence(rng)
        got = {(d.links, d.survivors) for d in reduce(types, s)}
        want = brute_force_reductions(flatten(types), target)
        if got != want:
            ok = False
            break

    _report(1, "planar reduction matches brute-force oracle", ok)


def test_02_functor_laws():
    spaces = {"n": 4, "s": 2, "theta": 3, "rho": 5}
    bases = list(spaces)
    rng = np.random.default_rng(102)
    ok = semantic_shape(PregroupType(), spaces) == ()
    for _ in range(500):
        fs = tuple(
            SimpleType(str(rng.choice(bases)), int(rng.integers(-3, 4)))
            for _ in range(int(rng.integers(0, 7)))
        )
        t = PregroupType(fs)
        shape = semantic_shape(t, spaces)
        # monoidality: the shape of a concatenation concatenates the shapes
        cut = int(rng.integers(0, len(fs) + 1))
        p, q = PregroupType(fs[:cut]), PregroupType(fs[cut:])
        ok = ok and shape == semantic_shape(p, spaces) + semantic_shape(q, spaces)
        # adjoints reverse the factor order but keep each factor's space
        ok = ok and semantic_shape(t.l, spaces) == tuple(reversed(shape))
        ok = ok and semantic_shape(t.r, spaces) == tuple(reversed(shape))
        for f in fs:
            one = semantic_shape(PregroupType((f,)), spaces)
            plain = semantic_shape(PregroupType((SimpleType(f.base),)), spaces)
            ok = ok and one == plain
    _report(2, "semantic shapes are monoidal and adjoint-invariant", ok)


def test_03_combinatory_transparency():
    rng = np.random.default_rng(103)
    ok = True
    verb_type = parse_type("n.r s n.l n.l")
    for dim in (2, 5, 50):
        for _ in range(100):
            subj = TypedTensor(atom("n"), rng.random(dim))
            verb = TypedTensor(verb_type, rng.random((dim, dim, dim, dim)))
            obj1 = TypedTensor(atom("n"), rng.random(dim))
            obj2 = TypedTensor(atom("n"), rng.random(dim))
            # subject first, then the objects
            a = epsilon_contract(subj, 0, verb, 0)
            a = epsilon_contract(a, 2, obj1, 0)
            a = epsilon_contract(a, 1, obj2, 0)
            # objects first, then the subject
            b = epsilon_contract(verb, 3, obj1, 0)
            b = epsilon_contract(b, 2, obj2, 0)
            b = epsilon_contract(subj, 0, b, 0)
            ok = ok and a.type == atom("s") and b.type == atom("s")
            ok = ok and _rel_close(a.array, b.array)
            if not ok:
                break
        if not ok:
            break
    _report(3, "ditransitive bracketings agree to 1e-12", ok)


def test_04_frobenius_condition(monkeypatch):
    ok = all(frobenius_condition_check(d) for d in range(1, 9))
    bad_delta = delta_tensor(3).copy()
    bad_delta[0, 0, 1] += 1e-3
    with monkeypatch.context() as m:
        m.setattr(frobenius, "delta_tensor", lambda dim: bad_delta)
        ok = ok and not frobenius_condition_check(3)
    bad_mu = mu_tensor(5).copy()
    bad_mu[0, 1, 2] += 1e-3
    with monkeypatch.context() as m:
        m.setattr(frobenius, "mu_tensor", lambda dim: bad_mu)
        ok = ok and not frobenius_condition_check(5)
    _report(4, "Frobenius condition exact at dims 1-8, negative control fails", ok)


def test_05_spider_fusion():
    ok = True
    for dim in range(1, 6):
        for o_a in range(1, 4):
            for o_b in range(1, 5 - o_a):
                a, b = spider(0, o_a, dim), spider(0, o_b, dim)
                for k in range(1, min(o_a, o_b) + 1):
                    remaining = o_a + o_b - 2 * k
                    for ax_a in itertools.combinations(range(o_a), k):
                        for ax_b in itertools.combinations(range(o_b), k):
                            dense = np.tensordot(a, b, axes=(ax_a, ax_b))
                            if remaining == 0:
                                ok = ok and float(dense) == float(dim)
                            else:
                                ok = ok and np.array_equal(
                                    dense, spider(0, remaining, dim)
                                )
    # the symbolic shortcut agrees with the dense path on in/out splits
    from intonsem.frobenius import Spider, fuse

    for dim in (2, 5):
        for i1, o1, i2, o2 in itertools.product(range(3), repeat=4):
            if not (1 <= i1 + o1 <= 3 and 1 <= i2 + o2 <= 3):
                continue
            for k in range(1, min(o1, i2) + 1):
                got = fuse(Spider(i1, o1, dim), Spider(i2, o2, dim), wires=k)
                dense = np.tensordot(
                    spider(i1, o1, dim),
                    spider(i2, o2, dim),
                    axes=(list(range(i1 + o1 - k, i1 + o1)), list(range(k))),
                )
                if isinstance(got, float):
                    ok = ok and dense.shape == () and float(dense) == got
                else:
                    ok = ok and np.array_equal(dense, got.array())
    _report(5, "spider contractions fuse exactly (exhaustive)", ok)


def test_06_boundary_morphism():
    rng = np.random.default_rng(106)
    ok = True
    for dim in (2, 5, 50):
        ok = ok and np.array_equal(
            boundary_tensor(dim).array, boundary_tensor(dim, rheme_first=True).array
        )
        for _ in range(100):
            theme = rng.standard_normal(dim)
            rheme = rng.standard_normal(dim)
            want = theme * rheme
            ok = ok and _rel_close(boundary_contraction(theme, rheme), want)
            ok = ok and _rel_close(
                boundary_contraction(theme, rheme, rheme_first=True), want
            )
            if not ok:
                break
        if not ok:
            break
    _report(6, "boundary contraction equals element-wise product", ok)


def _truth_checks(universe: Universe, rel: Relation) -> bool:
    for s in universe.individuals:
        row = theme_vector(universe, rel, s)
        if not np.array_equal(theme_vector_composed(universe, rel, s), row):
            return False
        si = universe.index(s)
        for r in universe.individuals:
            bit = membership(universe, row, r)
            if bit != int(rel.matrix[si, universe.index(r)]):
                return False
            inter = intersect(universe, row, r)
            if bit:
                if not np.array_equal(inter, universe.basis(r)):
                    return False
            elif inter.any():
                return False
    return True


def test_07_truth_oracle():
    ok = True
    # exhaustive over every relation on universes of size 1-4
    for n in range(1, 5):
        universe = Universe(tuple(f"x{k}" for k in range(n)))
        masks = (np.arange(2 ** (n * n))[:, None] >> np.arange(n * n)) & 1
        for bits in masks:
            rel = Relation("r", bits.reshape(n, n).astype(np.float64))
            if not _truth_checks(universe, rel):
                ok = False
                break
        if not ok:
            break
    # sampled relations on universes of size 5 and 6
    rng = np.random.default_rng(107)
    for n in (5, 6):
        if not ok:
            break
        universe = Universe(tuple(f"x{k}" for k in range(n)))
        for _ in range(1000):
            rel = Relation("r", rng.integers(0, 2, size=(n, n)).astype(np.float64))
            if not _truth_checks(universe, rel):
                ok = False
                break
    _report(7, "truth model exact on exhaustive and sampled universes", ok)


def test_08_multiple_rhemes():
    rng = np.random.default_rng(108)
    ok = True
    for dim in (2, 5, 20):
        m3 = mu_tensor(dim)
        for _ in range(100):
            r1, r2 = rng.standard_normal(dim), rng.standard_normal(dim)
            theme = rng.standard_normal((dim, dim))
            # categorical wiring built from first principles: one merge
            # per rheme/theme-wire pair
            left = np.tensordot(np.tensordot(m3, r1, axes=(0, 0)), theme, axes=(0, 0))
            wired = np.tensordot(left, np.tensordot(m3, r2, axes=(1, 0)), axes=(1, 0))
            want = np.outer(r1, r2) * theme
            ok = ok and _rel_close(wired, want)
            # public route through a lexicon
            lex = Lexicon(
                {"n": dim, "s": dim, "theta": dim, "rho": dim},
                {
                    "a": LexiconEntry("a", (TypedTensor(atom("rho"), r1),)),
                    "b": LexiconEntry("b", (TypedTensor(atom("rho"), r2),)),
                    "rel": LexiconEntry(
                        "rel", (TypedTensor(parse_type("theta theta"), theme),)
                    ),
                },
            )
            got = meaning_multiple_rhemes(parse_annotated("{R a} rel {R b}"), lex)
            ok = ok and _rel_close(got.array, want)
            if not ok:
                break
        if not ok:
            break
    # basis vectors pick out single matrix entries (exhaustive at small dims)
    for dim in (2, 3, 5):
        theme = np.arange(1.0, dim * dim + 1.0).reshape(dim, dim)
        for i in range(dim):
            for j in range(dim):
                e_i, e_j = np.zeros(dim), np.zeros(dim)
                e_i[i], e_j[j] = 1.0, 1.0
                left = np.tensordot(
                    np.tensordot(mu_tensor(dim), e_i, axes=(0, 0)), theme, axes=(0, 0)
                )
                wired = np.tensordot(
                    left, np.tensordot(mu_tensor(dim), e_j, axes=(1, 0)), axes=(1, 0)
                )
                want = np.zeros((dim, dim))
                want[i, j] = theme[i, j]
                ok = ok and np.array_equal(wired, want)
    _report(8, "double-rheme wiring equals outer-product restriction", ok)


def test_09_copy_subject_object():
    rng = np.random.default_rng(109)
    ok = True
    verb_type = parse_type("n.r s n.l")
    for dim in (2, 5, 20):
        spaces_diagram = None
        for _ in range(100):
            m = rng.standard_normal((dim, dim))
            s, o = rng.standard_normal(dim), rng.standard_normal(dim)
            words_obj = [
                TypedTensor(atom("n"), s),
                TypedTensor(verb_type, copy_expand(m, "object")),
                TypedTensor(atom("n"), o),
            ]
            if spaces_diagram is None:
                (spaces_diagram,) = reduce([w.type for w in words_obj], atom("s"))
            got_obj = compose(words_obj, spaces_diagram).array
            ok = ok and _rel_close(got_obj, (s @ m) * o)
            words_sub = [
                TypedTensor(atom("n"), s),
                TypedTensor(verb_type, copy_expand(m, "subject")),
                TypedTensor(atom("n"), o),
            ]
            got_sub = compose(words_sub, spaces_diagram).array
            ok = ok and _rel_close(got_sub, s * (m @ o))
            if not ok:
                break
        if not ok:
            break
    _report(9, "copy-subject/copy-object equivalences hold to 1e-12", ok)


def test_10_split_theme():
    rng = np.random.default_rng(110)
    ok = True
    for dim in (2, 5, 50):
        left_boundary = TypedTensor(
            parse_type("theta.r rho rho.l"), spider(1, 2, dim)
        )
        right_boundary = boundary_tensor(dim, rheme_first=True)
        for _ in range(100):
            t1, r, t2 = (rng.standard_normal(dim) for _ in range(3))
            words = [
                TypedTensor(atom("theta"), t1),
                left_boundary,
                TypedTensor(atom("rho"), r),
                right_boundary,
                TypedTensor(atom("theta"), t2),
            ]
            diagrams = reduce([w.type for w in words], atom("s"))
            ok = ok and len(diagrams) == 1
            got = compose(words, diagrams[0]).array
            ok = ok and _rel_close(got, t1 * r * t2)
            if not ok:
                break
        if not ok:
            break
    _report(10, "chained two-boundary contraction equals three-way product", ok)


_FIXTURE_SENTENCES = [
    ("single_rheme", "Mary likes {R musicals}"),
    ("double_rheme", "{R John} likes {R Mary}"),
    ("nested_rheme", "{T Mary wrote a book about} {R art}"),
    ("split_theme", "{T Mary wrote} {R a book} {T about art}"),
]


def _run_fixture(sentence: str) -> bytes:
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "intonsem.cli",
            "meaning",
            sentence,
            "--lexicon",
            str(DATA_DIR / "example_lexicon.json"),
            "--format",
            "json",
        ],
        capture_output=True,
        check=True,
        # pytest's pythonpath setting reaches this process only, not the child
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])
        )},
    )
    return proc.stdout


def test_11_cli_fixtures():
    ok = True
    for name, sentence in _FIXTURE_SENTENCES:
        first = _run_fixture(sentence)
        second = _run_fixture(sentence)
        ok = ok and first == second
        golden = (GOLDEN_DIR / f"{name}.json").read_bytes()
        ok = ok and first == golden
        # the output is valid JSON that round-trips through the parser
        doc = json.loads(first.decode("utf-8"))
        ok = ok and doc["sentence"] == str(parse_annotated(sentence))
        if not ok:
            break
    _report(11, "CLI fixtures reproduce documented output byte-identically", ok)
