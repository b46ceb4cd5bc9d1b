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

from .pregroup import PregroupType, ReductionDiagram, cancels


class ContractionError(ValueError):
    """Shape/type mismatch while contracting tensors, or a merged part
    past numpy's limit on array axes."""


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

    The array is kept or copied as :func:`_read_only_float64` says; a TypedTensor is
    immutable.  Its order must match the type's factor count; the unit type carries a scalar.
    """

    type: PregroupType
    array: np.ndarray

    def __post_init__(self):
        arr = _read_only_float64(self.array)
        if arr.ndim != len(self.type):
            raise ContractionError(
                f"tensor order {arr.ndim} does not match type "
                f"'{self.type}' with {len(self.type)} factors"
            )
        object.__setattr__(self, "array", arr)

    @property
    def order(self) -> int:
        return self.array.ndim


def _read_only_float64(arr) -> np.ndarray:
    """``arr`` if C-contiguous float64 and read-only down to its owner, else a read-only copy."""
    base = arr
    while type(base) is np.ndarray and not base.flags.writeable:
        base = base.base  # down to the memory's owner, whose base is None
    if base is not None or arr.dtype != np.float64 or not arr.flags.c_contiguous:
        arr = np.array(arr, dtype=np.float64, order="C")
        arr.setflags(write=False)
    return arr


def eta(dim: int) -> np.ndarray:
    """The cap: a wire bends into the identity matrix."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return np.eye(dim)


def epsilon_contract(
    a: TypedTensor, axis_a: int, b: TypedTensor, axis_b: int
) -> TypedTensor:
    """Contract one axis of ``a`` against one axis of ``b``: the one-link
    :func:`compose` of ``[a, b]``.

    The two factors must cancel (a's factor on the left), and the axis
    dimensions must agree.  Negative axes count from the end, as in
    numpy; an axis out of range raises ``IndexError``.  Remaining axes
    keep their order, a's first.
    """
    na, nb = a.order, b.order
    i, j = range(na)[axis_a], na + range(nb)[axis_b]
    rest = (*range(i), *range(i + 1, j), *range(j + 1, na + nb))
    return compose([a, b], ReductionDiagram(((i, j),), rest, na + nb))


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
    reschedule them, which never changes the value.

    The work is one collection of parts, each an array plus the global
    factor ids of its axes: one part per word to start, kept by label,
    with ``owner[k]`` the label of factor k's part.  A link between two
    parts is one tensordot that merges them, a link inside a part one
    ``np.trace``.  The parts left are folded by outer products and
    transposed into ascending survivor order, into the read-only result.
    """
    factors = [f for w in words for f in w.type]
    if diagram.size != len(factors):
        raise ContractionError(
            f"diagram covers {diagram.size} factors but the words have {len(factors)}"
        )
    links = sorted(diagram.links)
    if link_order is not None:
        if sorted(link_order) != list(range(len(links))):
            raise ValueError("link_order must be a permutation of the link indices")
        links = [links[k] for k in link_order]

    dims = [n for w in words for n in w.array.shape]
    parts, owner = {}, []
    for n, w in enumerate(words):
        parts[n] = (w.array, list(range(len(owner), len(owner) + w.order)))
        owner += [n] * w.order

    for i, j in links:
        if not cancels(factors[i], factors[j]):
            raise ContractionError(
                f"link ({i + 1}, {j + 1}) joins non-cancelling factors "
                f"'{factors[i]}' and '{factors[j]}'"
            )
        if dims[i] != dims[j]:
            raise ContractionError(
                f"dimension mismatch on link ({i + 1}, {j + 1}): {dims[i]} vs {dims[j]}"
            )
        arr, ids = parts.pop(owner[i])
        if owner[j] == owner[i]:
            arr = np.trace(arr, axis1=ids.index(i), axis2=ids.index(j))
        else:
            arr_j, ids_j = parts.pop(owner[j])
            try:
                arr = _tensordot(arr, ids.index(i), arr_j, ids_j.index(j))
            except (ValueError, MemoryError) as exc:  # past numpy's axis limit, or out of memory
                raise ContractionError(f"cannot contract link ({i + 1}, {j + 1}): {exc}") from exc
            for k in ids_j:
                owner[k] = owner[i]
            ids = ids + ids_j
        parts[owner[i]] = (arr, [k for k in ids if k not in (i, j)])

    (out, ids), *rest = parts.values() or [(np.asarray(1.0), [])]
    for arr, part_ids in rest:
        try:
            out = np.multiply.outer(out, arr)
        except (ValueError, MemoryError) as exc:  # past numpy's axis limit, or out of memory
            raise ContractionError(f"cannot fold the unlinked parts: {exc}") from exc
        ids += part_ids
    out = view = out if ids == sorted(ids) else out.transpose(np.argsort(ids))
    while view is not None and view.flags.writeable:  # compose's own: the words' are read-only
        view.flags.writeable, view = False, view.base
    return TypedTensor(PregroupType([factors[k] for k in diagram.survivors]), out)


def _tensordot(a: np.ndarray, i: int, b: np.ndarray, j: int) -> np.ndarray:
    """``np.tensordot(a, b, axes=(i, j))``'s transposes, reshapes and BLAS dot, no checks."""
    d, ra, rb = a.shape[i], a.shape[:i] + a.shape[i + 1:], b.shape[:j] + b.shape[j + 1:]
    a = a.transpose([*range(i), *range(i + 1, a.ndim), i]) if i + 1 < a.ndim else a
    b = b.transpose([j, *range(j), *range(j + 1, b.ndim)]) if j else b
    return np.dot(a.reshape(math.prod(ra), d), b.reshape(d, math.prod(rb))).reshape(ra + rb)


def tensor_to_json(arr: np.ndarray) -> dict:
    """Wire form of a dense tensor: shape plus row-major data."""
    a = np.asarray(arr, dtype=np.float64)
    return {"shape": list(a.shape), "data": a.ravel(order="C").tolist()}


def tensor_from_json(obj: dict) -> np.ndarray:
    """Inverse of :func:`tensor_to_json`, and the one parser of that form.

    Raises ``ValueError`` unless ``obj`` is an object whose ``shape`` is
    a list of positive integers (not booleans) and whose ``data`` is a
    flat list of numbers (no booleans, strings or nested lists) that
    exactly fills the shape, every value finite in float64.
    """
    shape, data = _wire_parts(obj)
    return _finite_float64(data).reshape(shape)


def _wire_parts(obj: dict) -> tuple[tuple[int, ...], list]:
    """Shape and data, checked as :func:`tensor_from_json` does before converting."""
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
    return tuple(shape), data


def _finite_float64(data: list) -> np.ndarray:
    """A flat list of numbers as one float64 array, every value finite."""
    try:
        arr = np.array(data, dtype=np.float64)
    except OverflowError:
        raise ValueError("data value out of float range") from None
    if not np.isfinite(arr).all():
        raise ValueError("data holds NaN or infinity")
    return arr
