"""Lexicon files: typed word senses over a space assignment.

A lexicon file is JSON with a ``dims`` object (base name -> dimension;
``n``, ``s``, ``theta`` and ``rho`` must all be present) and an
``entries`` list.  Each entry gives a word, a type string, and either an
inline tensor (``shape`` + row-major ``data``) or a ``data_ref``
pointing at a TSV sidecar of word vectors (``word<TAB>v1 v2 ... vd``),
the latter only for order-1 senses.  A word may carry several senses
under distinct types; repeating a (word, type) pair is an error.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .pregroup import PregroupType, TypeSyntaxError, parse_type
from .tensor import TypedTensor, UnknownBaseError, _finite_float64, _wire_parts, semantic_shape

THEME_BASE = "theta"
RHEME_BASE = "rho"
REQUIRED_BASES = ("n", "s", THEME_BASE, RHEME_BASE)


class LexiconError(ValueError):
    """Malformed lexicon data."""


@dataclass(frozen=True)
class LexiconEntry:
    """All senses of one word, each a typed tensor."""

    word: str
    senses: tuple[TypedTensor, ...]

    def __post_init__(self):
        if not self.senses:
            raise LexiconError(f"word {self.word!r} has no senses")
        seen = set()
        for s in self.senses:
            if s.type in seen:
                raise LexiconError(
                    f"duplicate sense for word {self.word!r} under type '{s.type}'"
                )
            seen.add(s.type)

    def sense(self, type_: PregroupType) -> TypedTensor | None:
        return next((s for s in self.senses if s.type == type_), None)

    def types(self) -> tuple[PregroupType, ...]:
        return tuple(s.type for s in self.senses)


def _check_shape(
    word: str, type_: PregroupType, shape: tuple[int, ...], spaces: Mapping[str, int]
) -> None:
    try:
        expected = semantic_shape(type_, spaces)
    except UnknownBaseError as exc:
        raise LexiconError(str(exc)) from exc
    if shape != expected:
        raise LexiconError(
            f"shape mismatch for word {word!r}, sense '{type_}': "
            f"expected {list(expected)}, got {list(shape)}"
        )


class Lexicon(dict):
    """A dict from word to entry, validated against a space assignment, ``spaces``."""

    def __init__(self, spaces: Mapping[str, int], entries: Mapping[str, LexiconEntry]):
        for base in REQUIRED_BASES:
            if base not in spaces:
                raise LexiconError(f"space assignment is missing base {base!r}")
        super().__init__(entries)
        self.spaces: dict[str, int] = dict(spaces)
        fits = set()  # the (type, shape) pairs checked so far
        for word, entry in self.items():
            if word != entry.word:
                raise LexiconError(f"entry for {entry.word!r} filed under {word!r}")
            for s in entry.senses:
                if (s.type, s.array.shape) not in fits:
                    _check_shape(word, s.type, s.array.shape, self.spaces)
                    fits.add((s.type, s.array.shape))

    def __missing__(self, word: str) -> LexiconEntry:
        raise LexiconError(f"word {word!r} is not in the lexicon")

    def shared_dim(self) -> int:
        """The common dimension of all bases; errors on mixed assignments."""
        dims = {self.spaces[b] for b in REQUIRED_BASES}
        if len(dims) != 1:
            raise LexiconError(
                "intonation composition needs one shared space, but dims are "
                + ", ".join(f"{b}={self.spaces[b]}" for b in REQUIRED_BASES)
            )
        return dims.pop()


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity of two same-length vectors; zero vectors error."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.shape[0]} vs {v.shape[0]}")
    u, v = _unit_scaled(u)[0], _unit_scaled(v)[0]
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine is undefined for a zero vector")
    return float(np.clip(float(u @ v) / (nu * nv), -1.0, 1.0))


def _unit_scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """``x * 2**-e`` and ``e``, for the ``e`` that brings the largest
    magnitude into [0.5, 1): exact where values stay normal, and the
    largest squares in dot products and norms neither overflow nor
    underflow."""
    e = int(np.frexp(np.max(np.abs(x), initial=0.0))[1])
    return np.ldexp(x, -e), e


def _read(path: Path, kind: str, error: type[ValueError] = LexiconError) -> str:
    """The text of the ``kind`` file at ``path`` as UTF-8 (JSON is UTF-8, RFC 8259, and a sidecar is
    read as its lexicon is); failure raises ``error`` as ``cannot read <kind> <path>: …``."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {kind} {path}: {exc}") from exc


_KEPT = 4  # the successful loads that _load keeps
_kept: dict = {}  # (kind, text) -> (value, refs) of the last _KEPT of them, oldest first


def _load(path: Path, kind: str, error: type[ValueError], build):
    """``build(path, raw, refs)`` of the JSON ``kind`` file at ``path`` (``raw``, its parse;
    ``build`` puts the real path and text of the sidecar at each ``data_ref`` in ``refs``), or what
    a kept call built from the same text and the same ``refs``, read again now.  JSON that does
    not parse, or nests too deep, raises ``error`` as ``<path>: parse error[ at line N]: …``."""
    text = _read(path, kind, error)
    if kept := _kept.pop((kind, text), None):  # one dict call a step: threads cannot trip
        value, refs = kept
        with contextlib.suppress(LexiconError):  # a sidecar unreadable now: the full load names it
            if all(os.path.realpath(path.parent / ref) == real
                   and _read(Path(real), "vector sidecar") == t for ref, (real, t) in refs.items()):
                _kept[kind, text] = kept  # now the newest
                return value
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:  # nested deeper than the decoder can follow
        raise error(f"{path}: parse error: {exc}") from exc
    refs = {}
    _kept[kind, text] = kept = build(path, raw, refs), refs
    for old in list(_kept)[:-_KEPT]:  # the least recently used
        _kept.pop(old, None)
    return kept[0]


def _load_sidecar(path: Path) -> tuple[str, dict[str, tuple[tuple[int], list[float]]]]:
    text, rows = _read(path, "vector sidecar"), {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        word, sep, rest = line.partition("\t")
        if not sep:
            raise LexiconError(f"{path}:{lineno}: expected 'word<TAB>values'")
        try:
            vec = [float(x) for x in rest.split()]
        except ValueError:
            raise LexiconError(f"{path}:{lineno}: non-numeric vector entry") from None
        if word in rows:
            raise LexiconError(f"{path}:{lineno}: duplicate row for {word!r}")
        if not all(map(math.isfinite, vec)):
            raise LexiconError(f"{path}:{lineno}: data holds NaN or infinity")
        rows[word] = (len(vec),), vec
    return text, rows


def load_lexicon(path: str | Path) -> Lexicon:
    """Load and validate a lexicon file.

    Errors name the file, then the offending entry by number and word (a
    duplicate sense by word and type); JSON syntax errors carry the line number.
    A file read again with the same text, and the same sidecars, is not parsed again.
    """
    dims, entries = _load(Path(path), "lexicon", LexiconError, _parse_lexicon)
    lexicon = Lexicon(dims, {})  # a dict of its own over the shared, frozen entries
    lexicon.update(entries)  # not through Lexicon(): every shape was checked
    return lexicon


def _parse_lexicon(path: Path, raw, refs: dict) -> tuple[dict, dict[str, LexiconEntry]]:
    # One pass: each distinct type string is parsed, and each (type string, shape)
    # checked, once; all data goes through one float64 conversion into one buffer.
    # Sidecars: one realpath per data_ref spelling, one read per real path.
    types, sidecars = {}, {}
    fits, inline, flat = set(), [], []
    senses: dict[str, list[tuple[PregroupType, int, tuple[int, ...]]]] = {}  # (type, start, shape)
    try:
        if not (isinstance(raw, dict) and "dims" in raw and isinstance(raw.get("entries"), list)):
            raise LexiconError("expected an object with 'dims' and an 'entries' list")
        dims = raw["dims"]
        # exact type checks throughout: JSON true/false load as bool, an int subclass
        if not isinstance(dims, dict) or not all(
            isinstance(k, str) and type(v) is int and v >= 1 for k, v in dims.items()
        ):
            raise LexiconError("'dims' must map base names to positive integers")
        for k, item in enumerate(raw["entries"], start=1):
            if not (isinstance(item, dict) and isinstance(item.get("word"), str)
                    and isinstance(item.get("type"), str)
                    and isinstance(item.get("data_ref", ""), str)):
                raise LexiconError(f"entry {k}: expected an object with 'word' and "
                                   "'type' strings (and 'data_ref', if given, a string)")
            word, text = item["word"], item["type"]
            try:
                type_ = types[text] if text in types else types.setdefault(text, parse_type(text))
                if "data_ref" in item:
                    if len(type_) != 1:
                        raise LexiconError(f"data_ref sidecars hold vectors, but type "
                                           f"'{type_}' has {len(type_)} factors")
                    ref = item["data_ref"]
                    if ref not in refs:  # realpath, unlike resolve, leaves a loop to the read
                        real = os.path.realpath(path.parent / ref)
                        sidecars[real] = sidecars.get(real) or _load_sidecar(Path(real))
                        refs[ref] = real, sidecars[real][0]
                    rows = sidecars[refs[ref][0]][1]
                    if word not in rows:
                        raise LexiconError(f"sidecar {ref!r} has no row for {word!r}")
                    shape, data = rows[word]
                else:
                    shape, data = _wire_parts(item)
                    inline.append((k, item))
                if (text, shape) not in fits:
                    _check_shape(word, type_, shape, dims)
                    fits.add((text, shape))
                senses.setdefault(word, []).append((type_, len(flat), shape))
                flat += data
            except TypeSyntaxError as exc:
                raise LexiconError(f"entry {k} ({word!r}): bad type: {exc}") from exc
            except ValueError as exc:
                raise LexiconError(f"entry {k} ({word!r}): {exc}") from exc
        values = _finite_float64(flat)
        values.setflags(write=False)  # so TypedTensor keeps each view as it is
        # LexiconEntry finds duplicate senses, Lexicon missing bases
        entries = {w: LexiconEntry(w, tuple(TypedTensor(t, values[i:i + math.prod(n)].reshape(n))
                                            for t, i, n in ss)) for w, ss in senses.items()}
        Lexicon(dims, {})  # its check for missing bases
    except ValueError as exc:
        for k, item in inline:  # an entry whose data does not convert outranks any later error
            try:
                _finite_float64(item["data"])
            except ValueError as bad:
                exc = LexiconError(f"entry {k} ({item['word']!r}): {bad}")
                break
        raise LexiconError(f"{path}: {exc}") from exc
    return dims, entries
