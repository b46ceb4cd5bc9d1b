"""Copying and merging over a fixed basis, spiders, and boundary tensors.

The chosen basis of the shared space makes it a special commutative
Frobenius algebra: copying sends a vector to the diagonal matrix of its
weights, merging extracts the diagonal of a matrix, the counit sums the
coordinates, and the unit is the all-ones vector (the two unit laws
force those last two).  Every network built from these maps normalizes
to a spider: a generalized Kronecker delta that is 1 exactly when all
its indices agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pregroup import parse_type
from .tensor import TypedTensor


def delta(v: np.ndarray) -> np.ndarray:
    """Copy: the diagonal matrix carrying the weights of ``v``."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("delta expects a vector")
    return np.diag(v)


def mu(w: np.ndarray) -> np.ndarray:
    """Merge: the main diagonal of a square matrix, as a vector."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("mu expects a square matrix")
    return np.diagonal(w).copy()


def iota(v: np.ndarray) -> float:
    """Counit: the sum of the coordinates."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("iota expects a vector")
    return float(v.sum())


def zeta(dim: int) -> np.ndarray:
    """Unit: the all-ones vector."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return np.ones(dim)


def spider(inputs: int, outputs: int, dim: int) -> np.ndarray:
    """Generalized Kronecker delta of order inputs + outputs: the dense
    array of ``Spider(inputs, outputs, dim)``, whose checks it shares.

    Entry 1.0 exactly when all indices agree, 0.0 otherwise.  At least
    one leg is required.

    >>> spider(1, 1, 3).tolist()
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    """
    return Spider(inputs, outputs, dim).array()


@dataclass(frozen=True)
class Spider:
    """Symbolic spider: leg counts and dimension, with a dense realization."""

    inputs: int
    outputs: int
    dim: int

    def __post_init__(self):
        if self.inputs + self.outputs < 1:
            raise ValueError("a spider needs at least one leg")
        if self.inputs < 0 or self.outputs < 0:
            raise ValueError("leg counts must be non-negative")
        if self.dim < 1:
            raise ValueError("dimension must be positive")

    def array(self) -> np.ndarray:
        order = self.inputs + self.outputs
        t = np.zeros((self.dim,) * order)
        t[(np.arange(self.dim),) * order] = 1.0
        return t


def fuse(a: Spider, b: Spider, wires: int = 1) -> Spider | float:
    """Fuse two spiders along ``wires`` output-to-input connections.

    Contracting any k >= 1 wires between two spiders yields the spider
    with the remaining legs.  When no legs remain the closed loop
    evaluates to the scalar ``dim``, returned as a float.

    >>> fuse(Spider(2, 2, 5), Spider(2, 3, 5), wires=2)
    Spider(inputs=2, outputs=3, dim=5)
    """
    if a.dim != b.dim:
        raise ValueError("spiders live over different dimensions")
    if not 1 <= wires <= min(a.outputs, b.inputs):
        raise ValueError("wires must use existing outputs of a and inputs of b")
    inputs = a.inputs + b.inputs - wires
    outputs = a.outputs + b.outputs - wires
    if inputs + outputs == 0:
        return float(a.dim)
    return Spider(inputs, outputs, a.dim)


def delta_tensor(dim: int) -> np.ndarray:
    """Copy as an order-3 tensor: one input leg, two output legs."""
    return spider(1, 2, dim)


def mu_tensor(dim: int) -> np.ndarray:
    """Merge as an order-3 tensor: two input legs, one output leg."""
    return spider(2, 1, dim)


def frobenius_condition_check(dim: int) -> bool:
    """Whether (mu x 1)(1 x delta) == delta . mu == (1 x mu)(delta x 1) for
    ``delta_tensor(dim)`` and ``mu_tensor(dim)``, looked up in this module at
    each call.  It holds exactly at every dimension.
    """
    d, m = delta_tensor(dim), mu_tensor(dim)
    # (mu x 1)(1 x delta): contract delta's first output into mu's second input.
    left = np.tensordot(m, d, axes=(1, 1)).transpose(0, 2, 1, 3)
    # delta . mu: merge, then copy the result.
    middle = np.tensordot(m, d, axes=(2, 0))
    # (1 x mu)(delta x 1): contract delta's second output into mu's first input.
    right = np.tensordot(d, m, axes=(2, 0)).transpose(0, 2, 1, 3)
    return np.array_equal(left, middle) and np.array_equal(middle, right)


def boundary_tensor(dim: int, rheme_first: bool = False) -> TypedTensor:
    """The intonational-boundary morphism as a typed order-3 tensor.

    Two caps followed by a merge of the inner wires: the entry at
    (i, k, j) is 1 exactly when i == k == j.  With ``rheme_first`` False
    the boundary follows a theme (type ``theta.r s rho.l``); with True
    it precedes one (type ``rho.r s theta.l``).
    """
    text = "rho.r s theta.l" if rheme_first else "theta.r s rho.l"
    return TypedTensor(parse_type(text), spider(1, 2, dim))
