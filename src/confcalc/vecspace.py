"""Finite dimensional normed values: scalars, vectors, and square matrices.

Every kernel in this package is generic over these three shapes.  A
:class:`VecValue` is an immutable wrapper around a read-only numpy array of
dimension 0, 1, or 2 (square).  The norm is the absolute value, the
Euclidean norm, or the Frobenius norm respectively.  Scalars and square
matrices additionally form an algebra under :func:`mul`; matrix
multiplication is not commutative, which :func:`is_commutative` reports.

Values are immutable and all operations return fresh values, so everything
here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import AlgebraError, ShapeError

__all__ = [
    "VecValue",
    "as_vecvalue",
    "axpy",
    "norm",
    "mul",
    "is_commutative",
    "zero_like",
    "identity_like",
    "to_jsonable",
    "from_jsonable",
]

_KINDS = {0: "scalar", 1: "vector", 2: "matrix"}


@dataclass(frozen=True, eq=False)
class VecValue:
    """Immutable scalar, vector, or square matrix with a norm.

    The payload is exposed as the read-only ``data`` array.  Use the
    ``scalar``/``vector``/``matrix`` constructors, or pass anything
    array-like with dimension at most 2.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=float, copy=True)
        if arr.ndim > 2:
            raise ShapeError(f"unsupported array dimension {arr.ndim}")
        if arr.ndim == 2 and arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"matrix values must be square, got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @staticmethod
    def scalar(x: float) -> "VecValue":
        return VecValue(np.asarray(float(x)))

    @staticmethod
    def vector(xs: Iterable[float]) -> "VecValue":
        arr = np.array(list(xs), dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ShapeError("vector values need a non-empty flat sequence")
        return VecValue(arr)

    @staticmethod
    def matrix(rows: Iterable[Iterable[float]]) -> "VecValue":
        arr = np.array([list(r) for r in rows], dtype=float)
        if arr.ndim != 2:
            raise ShapeError("matrix values need a nested sequence of rows")
        return VecValue(arr)

    @property
    def kind(self) -> str:
        return _KINDS[self.data.ndim]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def _binop(self, other: "VecValue", op) -> "VecValue":
        other = as_vecvalue(other)
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")
        return VecValue(op(self.data, other.data))

    def __add__(self, other):
        return self._binop(other, np.add)

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __mul__(self, c):
        return VecValue(self.data * float(c))

    __rmul__ = __mul__

    def __truediv__(self, c):
        return VecValue(self.data / float(c))

    def __neg__(self):
        return VecValue(-self.data)

    def __repr__(self):
        return f"VecValue({self.data!r})"


def as_vecvalue(x) -> VecValue:
    """Coerce a number, array, or VecValue to a VecValue."""
    if isinstance(x, VecValue):
        return x
    return VecValue(np.asarray(x, dtype=float))


def axpy(c: float, u: VecValue, d: float, v: VecValue) -> VecValue:
    """Linear combination ``c*u + d*v`` of two same-shape values."""
    u = as_vecvalue(u)
    v = as_vecvalue(v)
    if u.shape != v.shape:
        raise ShapeError(f"shape mismatch: {u.shape} vs {v.shape}")
    return VecValue(float(c) * u.data + float(d) * v.data)


def norm(v: VecValue) -> float:
    """Absolute value, Euclidean norm, or Frobenius norm by shape."""
    return as_vecvalue(v).norm()


def mul(u: VecValue, v: VecValue) -> VecValue:
    """Algebra product of two scalars or two same-size square matrices.

    Vectors carry no product; asking for one raises AlgebraError.
    """
    u = as_vecvalue(u)
    v = as_vecvalue(v)
    if u.kind == "vector" or v.kind == "vector":
        raise AlgebraError("vectors do not form an algebra under mul")
    if u.kind != v.kind:
        raise AlgebraError(f"cannot multiply {u.kind} by {v.kind}")
    if u.shape != v.shape:
        raise ShapeError(f"shape mismatch: {u.shape} vs {v.shape}")
    if u.kind == "scalar":
        return VecValue(u.data * v.data)
    return VecValue(u.data @ v.data)


def is_commutative(v: VecValue) -> bool:
    """True when the algebra containing ``v`` is commutative.

    Scalars commute.  Matrices do not in general, so any matrix value
    reports False regardless of its entries.  Vectors have no product.
    """
    v = as_vecvalue(v)
    if v.kind == "vector":
        raise AlgebraError("vectors do not form an algebra")
    return v.kind == "scalar"


def zero_like(v: VecValue) -> VecValue:
    return VecValue(np.zeros_like(as_vecvalue(v).data))


def identity_like(v: VecValue) -> VecValue:
    """Multiplicative identity of the algebra containing ``v``."""
    v = as_vecvalue(v)
    if v.kind == "scalar":
        return VecValue.scalar(1.0)
    if v.kind == "matrix":
        return VecValue(np.eye(v.shape[0]))
    raise AlgebraError("vectors do not form an algebra")


def _mnorm(x) -> float:
    # max-abs norm: for replicated components it equals the scalar run's
    # value bit for bit, which keeps control flow instance-agnostic
    return float(np.abs(x).max())


def to_jsonable(v: VecValue):
    """JSON form: scalar as a number, vector flat, matrix nested row-major."""
    v = as_vecvalue(v)
    if v.kind == "scalar":
        return float(v.data)
    return v.data.tolist()


def from_jsonable(obj) -> VecValue:
    """Inverse of :func:`to_jsonable`."""
    if isinstance(obj, (int, float)):
        return VecValue.scalar(obj)
    arr = np.asarray(obj, dtype=float)
    if arr.ndim in (1, 2):
        return VecValue(arr)
    raise ShapeError(f"cannot build a value from JSON payload of shape {arr.shape}")
