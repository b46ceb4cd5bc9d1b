"""Metamorphic relations of the command line, run through ``cli.main``.

Each case is a seeded random lexicon with integer data at d = 3 and one
sentence of a span pattern.  No reference model is needed: a relation
ties the output for one input to the output for a transformed input.

* Basis permutation.  Permuting the basis of every space in every sense,
  one permutation per base with ``theta`` and ``rho`` sharing one,
  permutes every tensor that ``meaning --format json`` prints the same
  way, bit for bit.  A permutation matrix is its own inverse transpose,
  so an adjoint axis takes the same matrix as its base.  A rotation is
  its own inverse transpose too, and contraction commutes with it, but
  the Frobenius merge is induced by the basis, so the merged meanings
  must break the relation: that is the negative control.
* Annotation.  Bare tokens are theme spans and adjacent spans of one
  role merge, so ``a b {R c}``, ``{T a b} {R c}`` and
  ``{T a} {T b} {R c}`` print the same bytes, errors included.
"""

import contextlib
import io
import itertools
import json

import numpy as np
import pytest

from intonsem.cli import main

D = 3
SEEDS = range(100)
BASES = ("n", "s", "theta", "rho")
# word -> types, in file order; 'sees' and 'likes' have two senses each
SENSES = {
    "ann": ("n", "theta", "rho"),
    "bob": ("n", "theta", "rho"),
    "cat": ("theta", "rho"),
    "sees": ("n.r theta", "theta n.l"),
    "likes": ("theta theta", "rho rho"),
    "runs": ("n.r s",),
    "that": ("rho s.l",),
}
SENTENCES = (
    "{T ann sees} {R bob}",  # single-rheme, theme first
    "{R ann} {T sees bob}",  # single-rheme, rheme first
    "{R ann} {T likes} {R bob}",  # double-rheme
    "{T ann sees} {R bob} {T cat}",  # split-theme
    "{T ann} {R likes} {T bob}",  # relational-rheme
    "{T ann sees} {R that bob runs}",  # an s wire inside the rheme
)
# each row prints one output; the last sentence has no derivation
ANNOTATIONS = (
    ("ann sees {R bob}", "{T ann sees} {R bob}", "{T ann} {T sees} {R bob}"),
    ("{R ann} sees bob", "{R ann} {T sees bob}", "{R ann} {T sees} {T bob}"),
    ("ann sees {R bob} cat", "{T ann sees} {R bob} {T cat}", "{T ann} {T sees} {R bob} cat"),
    ("bob sees ann {R cat}", "{T bob sees ann} {R cat}", "{T bob} {T sees} {T ann} {R cat}"),
)
# the permutations of the basis other than the identity
PERMUTATIONS = [p for p in itertools.permutations(range(D)) if p != tuple(range(D))]


def _senses(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {w: {t: rng.integers(1, 6, size=(D,) * len(t.split())) for t in types}
            for w, types in SENSES.items()}


def _write(path, senses: dict) -> str:
    path.write_text(json.dumps({"dims": dict.fromkeys(BASES, D), "entries": [
        {"word": w, "type": t, "shape": list(a.shape), "data": a.ravel().tolist()}
        for w, types in senses.items() for t, a in types.items()
    ]}))
    return str(path)


def _act(array: np.ndarray, matrices) -> np.ndarray:
    """Apply ``matrices[k]`` to axis k of ``array``."""
    for k, m in enumerate(matrices):
        array = np.moveaxis(np.tensordot(m, array, axes=(1, k)), 0, k)
    return array


def _transformed(senses: dict, matrix: dict) -> dict:
    """Every sense with each axis acted on by its factor's base matrix."""
    return {w: {t: _act(a, [matrix[f.split(".")[0]] for f in t.split()]) for t, a in types.items()}
            for w, types in senses.items()}


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _meaning(lexicon: str, sentence: str) -> dict:
    code, out, err = _run(["meaning", sentence, "--lexicon", lexicon, "--format", "json"])
    assert code == 0 and err == "", (sentence, err)
    return json.loads(out)


def _split(doc, tensors: list):
    """``doc`` with each tensor replaced by its index in ``tensors``, which collects them."""
    if isinstance(doc, dict) and "shape" in doc:
        tensors.append(np.array(doc["data"], dtype=np.float64).reshape(doc["shape"]))
        return len(tensors) - 1
    if isinstance(doc, dict):
        return {k: _split(v, tensors) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_split(v, tensors) for v in doc]
    return doc


def _cases(tmp_path, make_matrices):
    """(theta's matrix, (seed, sentence), document, document over the
    transformed lexicon) for every case; ``rho`` shares theta's matrix."""
    for seed in SEEDS:
        rng = np.random.default_rng([seed, 1])
        matrix = make_matrices(rng)
        matrix["rho"] = matrix["theta"]
        senses = _senses(seed)
        plain = _write(tmp_path / "plain.json", senses)
        moved = _write(tmp_path / "moved.json", _transformed(senses, matrix))
        for sentence in SENTENCES:
            yield matrix["theta"], (seed, sentence), _meaning(plain, sentence), _meaning(moved, sentence)


def test_a_basis_permutation_permutes_every_printed_tensor(tmp_path):
    def permutations(rng):
        return {b: np.eye(D)[list(PERMUTATIONS[rng.integers(len(PERMUTATIONS))])] for b in BASES}

    cases = 0
    for p, case, doc, got in _cases(tmp_path, permutations):
        want, have = [], []
        assert _split(doc, want) == _split(got, have), case
        assert want and all(np.array_equal(_act(a, [p] * a.ndim), b) for a, b in zip(want, have)), case
        cases += 1
    assert cases == len(SEEDS) * len(SENTENCES)


def test_a_rotation_breaks_the_merge(tmp_path):
    def rotations(rng):
        return {b: np.linalg.qr(rng.standard_normal((D, D)))[0] for b in BASES}

    for q, case, doc, got in _cases(tmp_path, rotations):
        values, meanings = ([], []), ([], [])
        for k, d in enumerate((doc, got)):
            for a in d["analyses"]:
                _split(a["meaning"], meanings[k])
                _split([s["value"] for s in a["spans"]], values[k])

        def kept(pair):
            assert pair[0] and len(pair[0]) == len(pair[1]), case
            return [np.allclose(_act(a, [q] * a.ndim), b) for a, b in zip(*pair)]

        assert all(kept(values)), case  # contraction commutes with a rotation
        assert not all(kept(meanings)), case  # the merge does not


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_annotations_of_one_structure_print_the_same_bytes(tmp_path, fmt):
    codes = set()
    for seed in SEEDS:
        lexicon = _write(tmp_path / "lex.json", _senses(seed))
        for row in ANNOTATIONS:
            outputs = {_run(["meaning", s, "--lexicon", lexicon, "--format", fmt]) for s in row}
            assert len(outputs) == 1, (seed, row, outputs)
            codes |= {code for code, _, _ in outputs}
    assert codes == {0, 1}
