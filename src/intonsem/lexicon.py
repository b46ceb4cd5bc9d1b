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
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .pregroup import PregroupType, TypeSyntaxError, atom, parse_type
from .tensor import TypedTensor, UnknownBaseError, semantic_shape

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
                expected = semantic_shape(s.type, self.spaces)
                if s.array.shape != expected:
                    raise LexiconError(
                        f"shape mismatch for word {word!r}, sense '{s.type}': "
                        f"expected {list(expected)}, got {list(s.array.shape)}"
                    )

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
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine is undefined for a zero vector")
    return float(np.clip(float(u @ v) / (nu * nv), -1.0, 1.0))


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
        rows[word] = vec
    return rows


def load_lexicon(path: str | Path) -> Lexicon:
    """Load and validate a lexicon file.

    Errors carry the offending word and sense; JSON syntax errors carry
    the line number.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise LexiconError(f"cannot read lexicon {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise LexiconError(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict) or "dims" not in raw or "entries" not in raw:
        raise LexiconError(f"{path}: expected an object with 'dims' and 'entries'")
    dims = raw["dims"]
    # exact type checks throughout: JSON true/false load as bool, an int subclass
    if not isinstance(dims, dict) or not all(
        isinstance(k, str) and type(v) is int and v >= 1 for k, v in dims.items()
    ):
        raise LexiconError(f"{path}: 'dims' must map base names to positive integers")

    sidecars: dict[Path, dict[str, np.ndarray]] = {}
    senses: dict[str, list[TypedTensor]] = {}
    seen: set[tuple[str, PregroupType]] = set()
    for k, item in enumerate(raw["entries"]):
        where = f"{path}: entry {k + 1}"
        if not isinstance(item, dict) or "word" not in item or "type" not in item:
            raise LexiconError(f"{where}: expected an object with 'word' and 'type'")
        word = item["word"]
        try:
            type_ = parse_type(item["type"])
        except TypeSyntaxError as exc:
            raise LexiconError(f"{where} ({word!r}): bad type: {exc}") from exc
        if (word, type_) in seen:
            raise LexiconError(
                f"{where}: duplicate sense for word {word!r} under type '{type_}'"
            )
        seen.add((word, type_))
        try:
            expected = semantic_shape(type_, dims)
        except UnknownBaseError as exc:
            raise LexiconError(f"{where} ({word!r}): {exc}") from exc

        if "data_ref" in item:
            if len(type_) != 1:
                raise LexiconError(
                    f"{where} ({word!r}): data_ref sidecars hold vectors, but "
                    f"type '{type_}' has {len(type_)} factors"
                )
            ref = (path.parent / item["data_ref"]).resolve()
            if ref not in sidecars:
                sidecars[ref] = _load_sidecar(ref)
            if word not in sidecars[ref]:
                raise LexiconError(
                    f"{where}: sidecar {item['data_ref']!r} has no row for {word!r}"
                )
            arr = sidecars[ref][word]
        else:
            if "shape" not in item or "data" not in item:
                raise LexiconError(
                    f"{where} ({word!r}): need 'shape' and 'data' (or 'data_ref')"
                )
            shape, data = item["shape"], item["data"]
            if not isinstance(shape, list) or not all(type(d) is int and d >= 1 for d in shape):
                raise LexiconError(f"{where} ({word!r}): bad shape {shape}")
            if not isinstance(data, list) or not set(map(type, data)) <= {int, float}:
                raise LexiconError(f"{where} ({word!r}): 'data' must be a flat list of numbers")
            if len(data) != math.prod(shape):
                raise LexiconError(
                    f"{where} ({word!r}): data length {len(data)} does not fill "
                    f"shape {shape}"
                )
            try:
                arr = np.asarray(data, dtype=np.float64).reshape(shape)
            except OverflowError:
                raise LexiconError(f"{where} ({word!r}): data value out of float range") from None
        if not np.isfinite(arr).all():
            raise LexiconError(f"{where} ({word!r}): data holds NaN or infinity")
        if arr.shape != expected:
            raise LexiconError(
                f"shape mismatch for word {word!r}, sense '{type_}': "
                f"expected {list(expected)}, got {list(arr.shape)}"
            )
        senses.setdefault(word, []).append(TypedTensor(type_, arr))

    entries = {w: LexiconEntry(w, tuple(ss)) for w, ss in senses.items()}
    return Lexicon(dims, entries)
