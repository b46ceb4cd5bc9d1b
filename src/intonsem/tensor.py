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
from dataclasses import dataclass, fields
from operator import itemgetter
from typing import Mapping, Sequence

import numpy as np

from .pregroup import PregroupType, ReductionDiagram, cancels


MAX_ELEMENTS = 2 ** 28  # the most elements one merged part may hold: 2 GiB of float64


class ContractionError(ValueError):
    """Shape/type mismatch while contracting tensors, or a merged part past
    ``MAX_ELEMENTS`` or numpy's limit on array axes."""


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


@dataclass(frozen=True, init=False)
class TypedTensor:
    """A tensor together with the pregroup type labelling its axes.

    The array is kept or copied as :func:`_read_only_float64` says; a TypedTensor is
    immutable.  Its order must match the type's factor count; the unit type carries a scalar.
    """

    type: PregroupType
    array: np.ndarray

    def __init__(self, type: PregroupType, array: np.ndarray):
        arr = _read_only_float64(array)
        if arr.ndim != len(type):
            raise ContractionError(f"tensor order {arr.ndim} does not match type '{type}' "
                                   f"with {len(type)} factors")
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "array", arr)

    def __reduce__(self):  # any frozen dataclass: copies and unpickling go through its constructor
        return self.__class__, tuple([getattr(self, f.name) for f in fields(self)])

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


def compose(words: Sequence[TypedTensor], diagram: ReductionDiagram) -> TypedTensor:
    """Evaluate a reduction diagram on word tensors.

    The word types are flattened in order and must line up with the
    diagram: same total factor count, every link cancellable with equal
    axis dimensions, checked in ascending link order before any merge.
    Links are contracted by right endpoint, innermost first, so on a
    planar diagram (every reduction) each merge contracts the last axes
    of one part against the first axes of the other and moves none.

    The work is one collection of parts, each an array plus the global
    factor ids of its axes: one part per word to start, kept by label,
    with ``owner[k]`` the label of factor k's part.  A link inside a part
    is one ``np.trace``; a run of consecutive links between the same two
    parts is one tensordot that merges them.  The parts left are folded
    by outer products and transposed into ascending survivor order, into
    the read-only result.  A merge or fold whose result would pass
    ``MAX_ELEMENTS`` raises ``ContractionError`` before allocating it.
    """
    factors = [f for w in words for f in w.type]
    if diagram.size != len(factors):
        raise ContractionError(
            f"diagram covers {diagram.size} factors but the words have {len(factors)}"
        )
    links = sorted(diagram.links)
    dims = [n for w in words for n in w.array.shape]
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
    links.sort(key=itemgetter(1))

    parts, owner = {}, []
    for n, w in enumerate(words):
        parts[n] = (w.array, list(range(len(owner), len(owner) + w.order)))
        owner += [n] * w.order

    step = 0
    while step < len(links):
        i, j = gone = links[step]
        p, q = owner[i], owner[j]
        arr, ids = parts.pop(p)
        step += 1
        if p == q:
            arr = np.trace(arr, axis1=ids.index(i), axis2=ids.index(j))
        else:
            arr_j, ids_j = parts.pop(q)
            ia, ib, d = [ids.index(i)], [ids_j.index(j)], dims[i]
            while step < len(links) and owner[links[step][0]] == p and owner[links[step][1]] == q:
                k, m = links[step]
                ia.append(ids.index(k))
                ib.append(ids_j.index(m))
                gone, d, step = gone + (k, m), d * dims[k], step + 1
            try:
                _check_size(arr.size // d * (arr_j.size // d))
                arr = _tensordot(arr, ia, arr_j, ib)
            except (ValueError, MemoryError) as exc:  # past the limits on size or axes, or memory
                raise ContractionError(f"cannot contract link ({i + 1}, {j + 1}): {exc}") from exc
            for k in ids_j:
                owner[k] = p
            ids = ids + ids_j
        parts[p] = (arr, [k for k in ids if k not in gone])

    (out, ids), *rest = parts.values() or [(np.asarray(1.0), [])]
    try:
        if rest:
            _check_size(math.prod([out.size] + [arr.size for arr, _ in rest]))
        for arr, part_ids in rest:
            out = np.multiply.outer(out, arr)
            ids += part_ids
    except (ValueError, MemoryError) as exc:  # past the limits on size or axes, or memory
        raise ContractionError(f"cannot fold the unlinked parts: {exc}") from exc
    out = view = out if ids == sorted(ids) else out.transpose(np.argsort(ids))
    while view is not None and view.flags.writeable:  # compose's own: the words' are read-only
        view.flags.writeable, view = False, view.base
    return TypedTensor(PregroupType([factors[k] for k in diagram.survivors]), out)


def _check_size(count: int) -> None:
    """Raise ``ValueError`` if a result of ``count`` elements would pass ``MAX_ELEMENTS``."""
    if count > MAX_ELEMENTS:
        raise ValueError(f"the result would hold {count} elements, past the limit of {MAX_ELEMENTS}")


def _tensordot(a: np.ndarray, ia: list[int], b: np.ndarray, ib: list[int]) -> np.ndarray:
    """``np.tensordot(a, b, axes=(ia, ib))``'s transposes, reshapes and BLAS dot, no checks;
    pairs in the larger operand's axis order, so only the smaller one may be copied."""
    if len(ia) > 1:
        ia, ib = map(list, zip(*sorted(zip(ia, ib), key=itemgetter(a.size < b.size))))
    n, m = len(ia), a.ndim - len(ia)
    if ia != [*range(m, a.ndim)]:
        a = a.transpose([k for k in range(a.ndim) if k not in ia] + ia)
    if ib != [*range(n)]:
        b = b.transpose(ib + [k for k in range(b.ndim) if k not in ib])
    d = math.prod(b.shape[:n])
    return np.dot(a.reshape(-1, d), b.reshape(d, -1)).reshape(a.shape[:m] + b.shape[n:])


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
    if not isinstance(shape, list) or [d for d in shape if type(d) is not int or d < 1]:
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
