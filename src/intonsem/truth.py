"""Truth-theoretic instantiation: sets as basis vectors, relations as
adjacency matrices.

Each individual of a finite universe is a basis vector.  A binary
relation is a 0/1 matrix; the row at a subject lists the individuals
that could complete the relation for it (the theme's alternative set).
Merging that row with a rheme individual is element-wise product: the
basis vector of the rheme when the pair is in the relation, zero
otherwise.  The sentence space is one-dimensional, so the verb is kept
as a plain matrix; the order-3 lift with a singleton middle axis is the
isomorphic categorical form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .pregroup import atom, parse_type
from .tensor import TypedTensor, epsilon_contract

_NOUN = atom("n")
_VERB = parse_type("n.r s n.l")


class UnknownIndividualError(ValueError):
    """A name not present in the universe."""


class UniverseError(ValueError):
    """Malformed universe data."""


@dataclass(frozen=True)
class Universe:
    individuals: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.individuals)) != len(self.individuals):
            raise UniverseError("individual names must be unique")
        if not self.individuals:
            raise UniverseError("a universe needs at least one individual")

    @property
    def dim(self) -> int:
        return len(self.individuals)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: k for k, name in enumerate(self.individuals)}

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise UnknownIndividualError(
                f"unknown individual {name!r}; universe has "
                f"{', '.join(self.individuals)}"
            ) from None

    def basis(self, name: str) -> np.ndarray:
        e = np.zeros(self.dim)
        e[self.index(name)] = 1.0
        return e


@dataclass(frozen=True)
class Relation:
    name: str
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise UniverseError(f"relation {self.name!r} needs a square matrix")
        if not ((m == 0.0) | (m == 1.0)).all():
            raise UniverseError(f"relation {self.name!r} must be 0/1 valued")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_pairs(
        cls, name: str, pairs, universe: Universe
    ) -> "Relation":
        d, at = universe.dim, universe._positions
        m = np.zeros((d, d))
        flat = []  # the row-major flat index of every pair's cell, for one assignment
        for a, b in pairs:
            try:
                flat.append(at[a] * d + at[b])
            except (KeyError, TypeError):  # Universe.index names an unknown or unhashable name
                flat.append(universe.index(a) * d + universe.index(b))
        m.put(flat, 1.0)
        return cls(name, m)


def theme_vector(universe: Universe, rel: Relation, subject: str) -> np.ndarray:
    """The subject's row of the relation: who could complete the theme."""
    if rel.matrix.shape[0] != universe.dim:
        raise UniverseError("relation and universe dimensions differ")
    return rel.matrix[universe.index(subject)].copy()


def relation_lift(rel: Relation) -> TypedTensor:
    """The verb as an order-3 tensor with a one-dimensional sentence axis."""
    d = rel.matrix.shape[0]
    return TypedTensor(_VERB, rel.matrix.reshape(d, 1, d))


def theme_vector_composed(universe: Universe, rel: Relation, subject: str) -> np.ndarray:
    """The same row computed categorically: contract the subject's basis
    vector against the order-3 lift of the relation and drop the
    singleton sentence axis."""
    subj = TypedTensor(_NOUN, universe.basis(subject))
    partial = epsilon_contract(subj, 0, relation_lift(rel), 0)
    return np.asarray(partial.array)[0, :].copy()


def membership(universe: Universe, theme: np.ndarray, rheme: str) -> int:
    """Set-membership test: the theme's bit at the rheme individual."""
    theme = np.asarray(theme, dtype=np.float64)
    if theme.shape != (universe.dim,):
        raise ValueError("theme vector does not match the universe dimension")
    if not ((theme == 0.0) | (theme == 1.0)).all():
        raise ValueError("membership expects a 0/1 theme vector")
    return int(theme[universe.index(rheme)])


def intersect(universe: Universe, theme: np.ndarray, rheme: str) -> np.ndarray:
    """Set intersection as element-wise product with the rheme's basis
    vector: e_rheme when the rheme is among the theme's alternatives,
    the zero vector otherwise."""
    theme = np.asarray(theme, dtype=np.float64)
    if theme.shape != (universe.dim,):
        raise ValueError("theme vector does not match the universe dimension")
    return theme * universe.basis(rheme)


def load_universe(path: str | Path) -> tuple[Universe, dict[str, Relation]]:
    """Load a universe file: {"individuals": [...], "relations":
    {name: [[subject, object], ...]}} with names, not indices."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise UniverseError(f"cannot read universe {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UniverseError(
            f"{path}: parse error at line {exc.lineno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict) or "individuals" not in raw:
        raise UniverseError(f"{path}: expected an object with 'individuals'")
    individuals = raw["individuals"]
    if not isinstance(individuals, list) or {*map(type, individuals)} - {str}:
        raise UniverseError(f"{path}: 'individuals' must be a list of names")
    universe = Universe(tuple(individuals))
    listed = raw.get("relations", {})
    if not isinstance(listed, dict):
        raise UniverseError(f"{path}: 'relations' must be an object mapping names to pairs")
    relations: dict[str, Relation] = {}
    for name, pairs in listed.items():
        if not isinstance(pairs, list) or {*map(type, pairs)} - {list} or {*map(len, pairs)} - {2}:
            raise UniverseError(
                f"{path}: relation {name!r} must be a list of [subject, object] pairs"
            )
        relations[name] = Relation.from_pairs(name, pairs, universe)
    return universe, relations
