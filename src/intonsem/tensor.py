"""Dense tensor semantics for pregroup types.

Every atomic base is assigned a finite-dimensional space; a type maps to
the tensor product of its factors' spaces, one axis per factor.  Taking
adjoints does not change the space, so the axis dimension of a factor
depends only on its base.  Reductions act on tensors by summing the two
matched indices of every link (generalized matrix multiplication); the
identity matrix plays the dual role of expanding a wire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .pregroup import PregroupType, ReductionDiagram, cancels, flatten


class ContractionError(ValueError):
    """Shape/type mismatch while contracting tensors."""


class UnknownBaseError(ValueError):
    """A type mentions a base with no assigned space."""


def semantic_shape(type_: PregroupType, spaces: Mapping[str, int]) -> tuple[int, ...]:
    """Axis dimensions of the space a type maps to: one axis per factor,
    dimension looked up by base name, insensitive to adjoint order.

    >>> from .pregroup import parse_type
    >>> semantic_shape(parse_type("n.r s n.l"), {"n": 4, "s": 2})
    (4, 2, 4)
    >>> semantic_shape(parse_type(""), {})
    ()
    """
    out = []
    for f in type_:
        if f.base not in spaces:
            raise UnknownBaseError(f"no space assigned to base {f.base!r}")
        dim = spaces[f.base]
        if not isinstance(dim, int) or dim < 1:
            raise UnknownBaseError(f"space for base {f.base!r} must be a positive int")
        out.append(dim)
    return tuple(out)


@dataclass(frozen=True)
class TypedTensor:
    """A tensor together with the pregroup type labelling its axes.

    The array is coerced to a C-contiguous float64 copy and frozen, so a
    TypedTensor is immutable after construction.  Its order must equal
    the number of factors of the type; the unit type carries a scalar.
    """

    type: PregroupType
    array: np.ndarray

    def __post_init__(self):
        arr = np.array(self.array, dtype=np.float64, order="C")
        if arr.ndim != len(self.type):
            raise ContractionError(
                f"tensor order {arr.ndim} does not match type "
                f"'{self.type}' with {len(self.type)} factors"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    @property
    def order(self) -> int:
        return self.array.ndim


def eta(dim: int) -> np.ndarray:
    """The cap: a wire bends into the identity matrix."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return np.eye(dim)


def epsilon_contract(
    a: TypedTensor, axis_a: int, b: TypedTensor, axis_b: int
) -> TypedTensor:
    """Contract one axis of ``a`` against one axis of ``b``.

    The two factors must cancel (a's factor on the left), and the axis
    dimensions must agree.  Remaining axes keep their order, a's first.
    """
    fa, fb = a.type[axis_a], b.type[axis_b]
    if not cancels(fa, fb):
        raise ContractionError(f"factors '{fa}' and '{fb}' do not cancel")
    if a.array.shape[axis_a] != b.array.shape[axis_b]:
        raise ContractionError(
            f"dimension mismatch: {a.array.shape[axis_a]} vs {b.array.shape[axis_b]} "
            f"for factors '{fa}' and '{fb}'"
        )
    arr = np.tensordot(a.array, b.array, axes=(axis_a, axis_b))
    rest_a = tuple(f for k, f in enumerate(a.type) if k != axis_a)
    rest_b = tuple(f for k, f in enumerate(b.type) if k != axis_b)
    return TypedTensor(PregroupType(rest_a + rest_b), arr)


def compose(
    words: Sequence[TypedTensor],
    diagram: ReductionDiagram,
    link_order: Sequence[int] | None = None,
) -> TypedTensor:
    """Evaluate a reduction diagram on word tensors.

    The word types are flattened in order and must line up with the
    diagram: same total factor count, every link cancellable with equal
    axis dimensions.  Links are contracted left-to-right by left
    endpoint; ``link_order`` (a permutation of range(len(links))) can
    reschedule them, which never changes the value.  The result carries
    the survivors' type with axes in ascending survivor order.
    """
    factors = flatten([w.type for w in words])
    if diagram.size != len(factors):
        raise ContractionError(
            f"diagram covers {diagram.size} factors but the words have {len(factors)}"
        )
    links = sorted(diagram.links)
    if link_order is not None:
        if sorted(link_order) != list(range(len(links))):
            raise ValueError("link_order must be a permutation of the link indices")
        links = [links[k] for k in link_order]

    # Each part is a tensor plus the global factor ids of its axes.
    parts: list[tuple[np.ndarray, list[int]] | None] = []
    owner: dict[int, int] = {}
    base = 0
    for w in words:
        ids = list(range(base, base + len(w.type)))
        for k in ids:
            owner[k] = len(parts)
        parts.append((np.asarray(w.array), ids))
        base += len(ids)

    for i, j in links:
        if not cancels(factors[i], factors[j]):
            raise ContractionError(
                f"link ({i + 1}, {j + 1}) joins non-cancelling factors "
                f"'{factors[i]}' and '{factors[j]}'"
            )
        pi, pj = owner[i], owner[j]
        arr_i, ids_i = parts[pi]  # type: ignore[misc]
        if pi == pj:
            u, v = ids_i.index(i), ids_i.index(j)
            if arr_i.shape[u] != arr_i.shape[v]:
                raise ContractionError(
                    f"dimension mismatch on link ({i + 1}, {j + 1})"
                )
            merged = np.trace(arr_i, axis1=u, axis2=v)
            kept = [x for x in ids_i if x not in (i, j)]
            parts[pi] = (merged, kept)
        else:
            arr_j, ids_j = parts[pj]  # type: ignore[misc]
            u, v = ids_i.index(i), ids_j.index(j)
            if arr_i.shape[u] != arr_j.shape[v]:
                raise ContractionError(
                    f"dimension mismatch on link ({i + 1}, {j + 1})"
                )
            merged = np.tensordot(arr_i, arr_j, axes=(u, v))
            kept = [x for x in ids_i if x != i] + [x for x in ids_j if x != j]
            parts[pi] = (merged, kept)
            parts[pj] = None
            for x in kept:
                owner[x] = pi

    live = [p for p in parts if p is not None]
    scalar = 1.0
    pieces = []
    for arr, ids in live:
        if ids:
            pieces.append((arr, ids))
        else:
            scalar *= float(arr)
    pieces.sort(key=lambda p: p[1][0])
    if not pieces:
        return TypedTensor(PregroupType(), np.asarray(scalar))
    out, out_ids = pieces[0]
    for arr, ids in pieces[1:]:
        out = np.tensordot(out, arr, axes=0)
        out_ids = out_ids + ids
    out = scalar * out
    perm = np.argsort(out_ids)
    out = np.transpose(out, perm)
    survivors = tuple(sorted(out_ids))
    if survivors != diagram.survivors:
        raise ContractionError("diagram survivors do not match the unlinked factors")
    return TypedTensor(PregroupType(tuple(factors[k] for k in survivors)), out)


def tensor_to_json(arr: np.ndarray) -> dict:
    """Wire form of a dense tensor: shape plus row-major data."""
    a = np.asarray(arr, dtype=np.float64)
    return {"shape": list(a.shape), "data": [float(x) for x in a.ravel(order="C")]}


def tensor_from_json(obj: dict) -> np.ndarray:
    """Inverse of :func:`tensor_to_json`, and the one parser of that form.

    Raises ``ValueError`` unless ``obj`` is an object whose ``shape`` is
    a list of positive integers (not booleans) and whose ``data`` is a
    flat list of numbers (no booleans, strings or nested lists) that
    exactly fills the shape, every value finite in float64.
    """
    if not isinstance(obj, dict) or "shape" not in obj or "data" not in obj:
        raise ValueError("need 'shape' and 'data'")
    shape, data = obj["shape"], obj["data"]
    # exact type checks: JSON true/false load as bool, an int subclass
    if not isinstance(shape, list) or not all(type(d) is int and d >= 1 for d in shape):
        raise ValueError(f"bad shape {shape}")
    if not isinstance(data, list) or not set(map(type, data)) <= {int, float}:
        raise ValueError("'data' must be a flat list of numbers")
    if len(data) != math.prod(shape):
        raise ValueError(f"data length {len(data)} does not fill shape {shape}")
    try:
        arr = np.asarray(data, dtype=np.float64).reshape(shape)
    except OverflowError:
        raise ValueError("data value out of float range") from None
    if not np.isfinite(arr).all():
        raise ValueError("data holds NaN or infinity")
    return arr
