"""Seeded fuzz of the CLI's exit-code contract.

Mutated copies of the shipped lexicon, universe and vector sidecar files,
and random type and annotation strings, go through ``intonsem.cli.main`` in-process.  Every
call must end in exit 0, 1 or 2 without an exception or a warning.  A
non-zero exit prints nothing on stdout and exactly one ``error:`` line on
stderr, except ``reduce``'s exit 1 with no reduction, which reports on
stdout.  An exit-0 ``--format json`` document must parse with a
``json.loads`` that refuses NaN and Infinity.

Strings stay short (at most 8 tokens) because the number of reductions,
and the time to enumerate them, is not yet bounded.  No argument starts
with '-', so argparse accepts every call; its own errors take the same
one-line exit-2 path and are tested in ``test_cli.py``.
"""

import contextlib
import copy
import io
import json
import shutil

import numpy as np
import pytest

from conftest import DATA_DIR
from intonsem.cli import main

LEXICON = json.loads((DATA_DIR / "example_lexicon.json").read_text())
UNIVERSE = json.loads((DATA_DIR / "universe_likes.json").read_text())

SENTENCES = (
    "Mary likes {R musicals}",
    "{R John} likes {R Mary}",
    "{T Mary wrote} {R a book} {T about art}",
    "{T John likes} {R art}",
    "{T book book} {R musicals}",
    "zebras {R run}",
)
QUERIES = ("John likes Mary", "John likes ⊳ Sue", "Mary likes John", "Zeus likes Mary", "a b")
VALUES = (
    None, True, False, 0, 1, -3, 2, 4, 10**400, 1e308, -1e308, 0.5,
    float("nan"), float("inf"), "", "n", "theta", "rho", "n.r s n.l", "n.l", "q", "x$",
    "vectors.tsv", "missing.tsv", "John", [], [4], [2, 2], [1, 2, 3, 4], [[1]], [True],
    [["John", "Mary"]], ["John"], {}, {"shape": [4], "data": [1, 2, 3, 4]},
)
SIDECAR = (DATA_DIR / "vectors.tsv").read_text()
# a sidecar value that is not a finite number, or a missing one
SIDECAR_VALUES = ("x", "nan", "NaN", "inf", "-inf", "1e400", "1,5", "0x1", "")
UNDECODABLE = (b"\xff", b"\x80", b"\xc3", b"\xe2\x8a")
# factors that underflow a value, or overflow it alone or once multiplied
SCALES = (1e-320, 1e-160, 1e160, 1e300, 1e307, 1e308)
TYPE_TOKENS = ("n", "s", "n.r", "n.l", "s.l", "theta", "rho", "n.r.r", "n.l.l", "x",
               ".", ".q", "$", "{", "_a", "n.r.l", "é", "1n")
TEXT_TOKENS = ("Mary", "likes", "musicals", "a", "book", "about", "art", "wrote", "John",
               "{T", "{R", "{X", "{", "}", "⊳", ">", "zebra", "{R}")


def _strict_json(text: str):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def _run(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    where = f"{argv!r} -> {code}, stdout {out[:200]!r}, stderr {err!r}"
    assert code in (0, 1, 2), where
    if code == 0:
        assert err == "", where
        if "json" in argv:
            _strict_json(out)
    elif argv[0] == "reduce" and code == 1 and err == "":
        assert out, where
        if "json" in argv:
            assert _strict_json(out)["grammatical"] is False, where
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, where


def _nodes(doc, path=()):
    yield path
    if isinstance(doc, (dict, list)):
        for key in doc if isinstance(doc, dict) else range(len(doc)):
            yield from _nodes(doc[key], path + (key,))


def _mutate(rng, doc):
    """One random edit below the root: scale a number by one of SCALES,
    replace or delete a node, duplicate a list item or rename a key.
    Half the edits pick a node uniformly, which mostly reaches tensor
    data; the others walk down from the root, stopping at each level with
    probability 0.15, which mostly reaches the structure."""
    if rng.random() < 0.5:
        paths = list(_nodes(doc))[1:]
        path = paths[rng.integers(len(paths))] if paths else ()
    else:
        path, node = (), doc
        while isinstance(node, (dict, list)) and node and (not path or rng.random() < 0.85):
            keys = list(node) if isinstance(node, dict) else range(len(node))
            path += (keys[rng.integers(len(keys))],)
            node = node[path[-1]]
    if not path:
        return
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = rng.integers(5)
    if op < 2 and type(parent[key]) in (int, float) and abs(parent[key]) < 1e300:
        parent[key] *= SCALES[rng.integers(len(SCALES))]
    elif op < 3:
        parent[key] = copy.deepcopy(VALUES[rng.integers(len(VALUES))])
    elif op == 3:
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key + "_"] = parent.pop(key)


def _mutant_text(rng, base) -> str:
    doc = copy.deepcopy(base)
    for _ in range(rng.choice([1, 1, 2, 3])):
        _mutate(rng, doc)
    text = json.dumps(doc)
    if rng.random() < 0.1:
        text = text[: rng.integers(len(text))]
    return text


def _write_mutant_sidecar(rng, path) -> None:
    """Write a copy of the shipped sidecar at ``path`` with one edit: a row without
    its tab, a value from SIDECAR_VALUES, a duplicate row or undecodable bytes; or put
    a directory in the file's place."""
    if path.is_dir():
        path.rmdir()
    rows = SIDECAR.splitlines()
    k = rng.integers(len(rows))
    word, values = rows[k].split("\t")
    op = rng.integers(5)
    if op == 0:
        rows[k] = f"{word} {values}"
    elif op == 1:
        values = values.split()
        values[rng.integers(len(values))] = SIDECAR_VALUES[rng.integers(len(SIDECAR_VALUES))]
        rows[k] = word + "\t" + " ".join(values)
    elif op == 2:
        rows.insert(k, rows[k])
    elif op == 3:
        path.unlink(missing_ok=True)
        path.mkdir()
        return
    data = ("\n".join(rows) + "\n").encode()
    if op == 4:
        at = rng.integers(len(data) + 1)
        data = data[:at] + UNDECODABLE[rng.integers(len(UNDECODABLE))] + data[at:]
    path.write_bytes(data)


def _tokens(rng, pool) -> str:
    picked = rng.choice(pool, size=rng.integers(0, 9))
    return ("" if rng.random() < 0.2 else " ").join(picked)


@pytest.mark.filterwarnings("error")
def test_mutated_lexicons(tmp_path):
    rng = np.random.default_rng(20261018)
    shutil.copy(DATA_DIR / "vectors.tsv", tmp_path / "vectors.tsv")
    lex = str(tmp_path / "lex.json")
    for _ in range(500):
        (tmp_path / "lex.json").write_text(_mutant_text(rng, LEXICON))
        fmt = ("json", "text")[rng.integers(2)]
        a, b = (SENTENCES[k] for k in rng.integers(len(SENTENCES), size=2))
        _run([
            ["meaning", a, "--lexicon", lex, "--format", fmt],
            ["compare", a, b, "--lexicon", lex, "--format", fmt],
            ["reduce", "Mary likes musicals", "--lexicon", lex, "--format", fmt],
        ][rng.integers(3)])


@pytest.mark.filterwarnings("error")
def test_mutated_universes(tmp_path):
    rng = np.random.default_rng(20261019)
    universe = str(tmp_path / "universe.json")
    for _ in range(300):
        (tmp_path / "universe.json").write_text(_mutant_text(rng, UNIVERSE))
        query = QUERIES[rng.integers(len(QUERIES))]
        _run(["truth", query, "--universe", universe, "--format", ("json", "text")[rng.integers(2)]])


@pytest.mark.filterwarnings("error")
def test_mutated_sidecars(tmp_path):
    rng = np.random.default_rng(20261021)
    shutil.copy(DATA_DIR / "example_lexicon.json", tmp_path / "lex.json")
    lex = str(tmp_path / "lex.json")
    for _ in range(200):
        _write_mutant_sidecar(rng, tmp_path / "vectors.tsv")
        fmt = ("json", "text")[rng.integers(2)]
        _run([
            ["meaning", SENTENCES[rng.integers(4)], "--lexicon", lex, "--format", fmt],
            ["reduce", "John likes art", "--lexicon", lex, "--format", fmt],
        ][rng.integers(2)])


@pytest.mark.filterwarnings("error")
def test_random_strings():
    rng = np.random.default_rng(20261020)
    lex = str(DATA_DIR / "example_lexicon.json")
    for _ in range(500):
        fmt = ("json", "text")[rng.integers(2)]
        type_text, target = _tokens(rng, TYPE_TOKENS), _tokens(rng, TYPE_TOKENS[:8])
        _run(["reduce", type_text, f"--target={target}", "--format", fmt])
        if rng.random() < 0.2:
            _run(["reduce", type_text, "--emit-diagram", "dot"])
        words = _tokens(rng, TEXT_TOKENS)
        _run(["meaning", words, "--lexicon", lex, "--format", fmt])
        if rng.random() < 0.2:
            _run(["reduce", words, "--lexicon", lex, f"--target={target}", "--format", fmt])
