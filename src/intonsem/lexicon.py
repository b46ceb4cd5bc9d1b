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

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .pregroup import PregroupType, TypeSyntaxError, atom, parse_type
from .tensor import TypedTensor, semantic_shape, tensor_from_json

THEME_BASE = "theta"
RHEME_BASE = "rho"
REQUIRED_BASES = ("n", "s", THEME_BASE, RHEME_BASE)

_N = atom("n")
_RHO = atom(RHEME_BASE)
_THETA = atom(THEME_BASE)
_VERB_CANONICAL = parse_type("n.r s n.l")
_VERB_THEME_LEFT = parse_type("n.r theta")
_VERB_THEME_RIGHT = parse_type("theta n.l")


class LexiconError(ValueError):
    """Malformed lexicon data."""


class MissingSenseError(LexiconError):
    """An entry lacks the base sense a derivation needs."""


@dataclass(frozen=True)
class LexiconEntry:
    """All senses of one word, each a typed tensor."""

    word: str
    senses: tuple[TypedTensor, ...]

    def __post_init__(self):
        seen = set()
        for s in self.senses:
            key = s.type
            if key in seen:
                raise LexiconError(
                    f"duplicate sense for word {self.word!r} under type '{s.type}'"
                )
            seen.add(key)

    def sense(self, type_: PregroupType) -> TypedTensor | None:
        for s in self.senses:
            if s.type == type_:
                return s
        return None

    def types(self) -> tuple[PregroupType, ...]:
        return tuple(s.type for s in self.senses)


def _check_shape(
    word: str, type_: PregroupType, shape: tuple[int, ...], spaces: Mapping[str, int]
) -> None:
    expected = semantic_shape(type_, spaces)
    if shape != expected:
        raise LexiconError(
            f"shape mismatch for word {word!r}, sense '{type_}': "
            f"expected {list(expected)}, got {list(shape)}"
        )


class Lexicon:
    """A space assignment plus word entries, validated against it."""

    def __init__(self, spaces: Mapping[str, int], entries: Mapping[str, LexiconEntry]):
        for base in REQUIRED_BASES:
            if base not in spaces:
                raise LexiconError(f"space assignment is missing base {base!r}")
        self.spaces: dict[str, int] = dict(spaces)
        self.entries: dict[str, LexiconEntry] = dict(entries)
        for word, entry in self.entries.items():
            if word != entry.word:
                raise LexiconError(f"entry for {entry.word!r} filed under {word!r}")
            for s in entry.senses:
                _check_shape(word, s.type, s.array.shape, self.spaces)

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __getitem__(self, word: str) -> LexiconEntry:
        try:
            return self.entries[word]
        except KeyError:
            raise LexiconError(f"word {word!r} is not in the lexicon") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def words(self) -> list[str]:
        return sorted(self.entries)

    def shared_dim(self) -> int:
        """The common dimension of all bases; errors on mixed assignments."""
        dims = {self.spaces[b] for b in REQUIRED_BASES}
        if len(dims) != 1:
            raise LexiconError(
                "intonation composition needs one shared space, but dims are "
                + ", ".join(f"{b}={self.spaces[b]}" for b in REQUIRED_BASES)
            )
        return dims.pop()

    def with_intonation_senses(self, mode: str = "theme-left") -> "Lexicon":
        """Apply :func:`derive_intonation_senses` wherever it applies."""
        out = {}
        for word, entry in self.entries.items():
            try:
                out[word] = derive_intonation_senses(entry, mode)
            except MissingSenseError:
                out[word] = entry
        return Lexicon(self.spaces, out)


def _verb_matrix(entry: LexiconEntry) -> np.ndarray | None:
    """The word's map from subject space to theme space, if recoverable.

    Preferred source is an explicit intonated sense; failing that, a
    canonical transitive sense whose sentence axis is one-dimensional
    (the truth-model lift) squeezes down to the matrix.
    """
    for t in (_VERB_THEME_LEFT, _VERB_THEME_RIGHT):
        s = entry.sense(t)
        if s is not None:
            return np.asarray(s.array)
    s = entry.sense(_VERB_CANONICAL)
    if s is not None and s.array.shape[1] == 1:
        return np.asarray(s.array)[:, 0, :]
    return None


def derive_intonation_senses(entry: LexiconEntry, mode: str = "theme-left") -> LexiconEntry:
    """Extend an entry with the senses intonated composition needs.

    Nouns (entries with a plain ``n`` vector) gain the same vector under
    ``rho``.  Verbs gain a matrix sense: under ``n.r theta`` when the
    theme extends rightward from the subject (``mode="theme-left"``, the
    boundary sits after the verb) or under ``theta n.l`` when the theme
    is to the right of the boundary (``mode="theme-right"``).  Existing
    senses are kept; deriving twice is a no-op.  Entries with neither a
    noun vector nor a recoverable verb matrix raise MissingSenseError.
    """
    if mode not in ("theme-left", "theme-right"):
        raise ValueError(f"unknown mode {mode!r}")
    added: list[TypedTensor] = []
    noun = entry.sense(_N)
    if noun is not None and entry.sense(_RHO) is None:
        added.append(TypedTensor(_RHO, noun.array))
    matrix = _verb_matrix(entry)
    if matrix is not None:
        wanted = _VERB_THEME_LEFT if mode == "theme-left" else _VERB_THEME_RIGHT
        if entry.sense(wanted) is None:
            added.append(TypedTensor(wanted, matrix))
    if noun is None and matrix is None:
        raise MissingSenseError(
            f"word {entry.word!r} has neither a noun vector nor a verb-matrix "
            "sense to derive intonation senses from"
        )
    if not added:
        return entry
    return LexiconEntry(entry.word, entry.senses + tuple(added))


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


def _load_sidecar(path: Path) -> dict[str, np.ndarray]:
    rows: dict[str, np.ndarray] = {}
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise LexiconError(f"cannot read vector sidecar {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        word, sep, rest = line.partition("\t")
        if not sep:
            raise LexiconError(f"{path}:{lineno}: expected 'word<TAB>values'")
        try:
            vec = np.asarray([float(x) for x in rest.split()], dtype=np.float64)
        except ValueError:
            raise LexiconError(f"{path}:{lineno}: non-numeric vector entry") from None
        if word in rows:
            raise LexiconError(f"{path}:{lineno}: duplicate row for {word!r}")
        if not np.isfinite(vec).all():
            raise LexiconError(f"{path}:{lineno}: data holds NaN or infinity")
        rows[word] = vec
    return rows


def load_lexicon(path: str | Path) -> Lexicon:
    """Load and validate a lexicon file.

    Errors name the offending entry by number and word (a duplicate
    sense by word and type); JSON syntax errors carry the line number.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise LexiconError(f"cannot read lexicon {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise LexiconError(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict) or "dims" not in raw or not isinstance(raw.get("entries"), list):
        raise LexiconError(f"{path}: expected an object with 'dims' and an 'entries' list")
    dims = raw["dims"]
    # exact type checks throughout: JSON true/false load as bool, an int subclass
    if not isinstance(dims, dict) or not all(
        isinstance(k, str) and type(v) is int and v >= 1 for k, v in dims.items()
    ):
        raise LexiconError(f"{path}: 'dims' must map base names to positive integers")

    sidecars: dict[str, dict[str, np.ndarray]] = {}
    senses: dict[str, list[TypedTensor]] = {}
    for k, item in enumerate(raw["entries"], start=1):
        if not (
            isinstance(item, dict)
            and isinstance(item.get("word"), str)
            and isinstance(item.get("type"), str)
            and isinstance(item.get("data_ref", ""), str)
        ):
            raise LexiconError(
                f"{path}: entry {k}: expected an object with 'word' and 'type' "
                "strings (and 'data_ref', if given, a string)"
            )
        word = item["word"]
        where = f"{path}: entry {k} ({word!r})"
        try:
            type_ = parse_type(item["type"])
            if "data_ref" in item:
                if len(type_) != 1:
                    raise LexiconError(
                        f"data_ref sidecars hold vectors, but type '{type_}' "
                        f"has {len(type_)} factors"
                    )
                ref = item["data_ref"]
                if ref not in sidecars:
                    sidecars[ref] = _load_sidecar((path.parent / ref).resolve())
                if word not in sidecars[ref]:
                    raise LexiconError(f"sidecar {ref!r} has no row for {word!r}")
                arr = sidecars[ref][word]
            else:
                arr = tensor_from_json(item)
            _check_shape(word, type_, arr.shape, dims)
            senses.setdefault(word, []).append(TypedTensor(type_, arr))
        except TypeSyntaxError as exc:
            raise LexiconError(f"{where}: bad type: {exc}") from exc
        except ValueError as exc:
            raise LexiconError(f"{where}: {exc}") from exc
    # LexiconEntry finds duplicate senses, Lexicon missing bases
    try:
        return Lexicon(dims, {w: LexiconEntry(w, tuple(ss)) for w, ss in senses.items()})
    except LexiconError as exc:
        raise LexiconError(f"{path}: {exc}") from exc
