"""Degree-2 jet arithmetic.

A :class:`Jet2` carries the exact value, gradient, and Hessian of a smooth
scalar expression at a chart point, or at a block of points: the value has
the block's shape ``S`` (``()`` for one point), the gradient ``(n,) + S``
and the Hessian ``(n, n) + S``, so the point axes come last and every
operation's inner loop runs along the points.  A constant in a block has
unit axes in place of ``S`` (gradient ``(n, 1)`` in a 1-D block) and
broadcasts.  Arithmetic and the elementary functions (exp, log, sin, cos,
sqrt, real powers) propagate all three channels through the exact first-
and second-order chain rule, so any composition of supported operations
yields exact first and second partial derivatives, with no truncation
error beyond floating-point rounding.

Every operation is elementwise over the point axes and uses the same
NumPy ufuncs whatever their shape, so a point's jet is bitwise the same
alone and inside any block.  Powers go through ``np.power`` explicitly: the
``**`` operator on NumPy scalars and arrays takes shortcuts (squares, the C
library's ``pow``) that round differently from the array loop.

Only smooth operations are supported; there is deliberately no abs,
sign, or comparison inside jets.
"""

from __future__ import annotations

import operator

import numpy as np

from .record import Record

__all__ = ["Jet2", "JetDomainError", "constant", "coordinate", "OPERATIONS"]


class JetDomainError(ArithmeticError):
    """Raised when an operation leaves its smooth domain (1/0, log(-1), ...)."""


def _as_jet(x, like: "Jet2") -> "Jet2":
    if isinstance(x, Jet2):
        if x.dimension != like.dimension:
            raise ValueError(
                f"jet dimension mismatch: {x.dimension} != {like.dimension}")
        return x
    return constant(float(x), like.dimension, like.gradient.ndim - 1)


def _first(value, bad) -> float:
    """The first entry of ``value`` flagged in ``bad``, for error messages."""
    return float(np.asarray(value)[np.asarray(bad)].flat[0])


def _outer(a, b):
    return a[:, None] * b[None]


class Jet2(Record):
    """Value, gradient, and symmetric Hessian of a scalar at a point or at
    a block of points.

    The Hessian is stored as a full symmetric matrix; symmetry is
    guaranteed by construction for every supported operation.
    """

    value: np.ndarray    # shape S; a float for a constant
    gradient: np.ndarray  # shape (n,) + S
    hessian: np.ndarray   # shape (n, n) + S, symmetric

    @property
    def dimension(self) -> int:
        return self.gradient.shape[0]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Jet2":
        o = _as_jet(other, self)
        return Jet2(self.value + o.value, self.gradient + o.gradient,
                    self.hessian + o.hessian)

    __radd__ = __add__

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.gradient, -self.hessian)

    def __sub__(self, other) -> "Jet2":
        o = _as_jet(other, self)
        return Jet2(self.value - o.value, self.gradient - o.gradient,
                    self.hessian - o.hessian)

    def __rsub__(self, other) -> "Jet2":
        return _as_jet(other, self) - self

    def __mul__(self, other) -> "Jet2":
        o = _as_jet(other, self)
        v, w = self.value, o.value
        cross = _outer(self.gradient, o.gradient)
        # (cross + cross.T) first: summing the transposes in one step keeps
        # the Hessian bitwise symmetric
        return Jet2(
            v * w,
            v * o.gradient + w * self.gradient,
            v * o.hessian + w * self.hessian + (cross + cross.swapaxes(0, 1)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet2":
        return self * _as_jet(other, self)._reciprocal()

    def __rtruediv__(self, other) -> "Jet2":
        return _as_jet(other, self) * self._reciprocal()

    def __pow__(self, exponent) -> "Jet2":
        # a number is a real power; a jet is b^e = exp(e * log(b)), which
        # needs b > 0 even where e happens to be constant
        if isinstance(exponent, Jet2):
            return exp(exponent * log(self))
        return self._real_power(float(exponent))

    # -- chain-rule helpers --------------------------------------------------

    def _compose(self, f0, f1, f2) -> "Jet2":
        """Chain rule for a scalar function with derivatives f0, f1, f2 here."""
        g = self.gradient
        return Jet2(f0, f1 * g, f1 * self.hessian + f2 * _outer(g, g))

    def _reciprocal(self) -> "Jet2":
        v = self.value
        if np.any(v == 0.0):
            raise JetDomainError("division by zero")
        inv = 1.0 / v
        return self._compose(inv, -inv * inv, 2.0 * np.power(inv, 3.0))

    def _real_power(self, p: float) -> "Jet2":
        v = self.value
        if p == round(p):
            k = int(round(p))
            if k == 0:
                return constant(1.0, self.dimension, self.gradient.ndim - 1)
            if k == 1:
                return self
            if k < 0 and np.any(v == 0.0):
                raise JetDomainError("zero raised to a negative power")
            return self._compose(np.power(v, float(k)),
                                 k * np.power(v, float(k - 1)),
                                 k * (k - 1) * np.power(v, float(k - 2)))
        bad = v <= 0.0
        if np.any(bad):
            raise JetDomainError(
                f"non-integer power of non-positive value {_first(v, bad)!r}")
        f0 = np.power(v, p)
        return self._compose(f0, p * f0 / v, p * (p - 1.0) * f0 / (v * v))


def constant(value: float, dim: int, ndim: int = 0) -> Jet2:
    """Lift a constant: zero gradient and Hessian, with ``ndim`` unit axes
    to broadcast against a block of that many point axes."""
    unit = (1,) * ndim
    return Jet2(float(value), np.zeros((dim,) + unit), np.zeros((dim, dim) + unit))


def coordinate(value, index: int, dim: int) -> Jet2:
    """Lift the ``index``-th chart coordinate: unit gradient, zero Hessian.
    ``value`` may be an array of that coordinate over a block of points."""
    if not 0 <= index < dim:
        raise IndexError(f"coordinate index {index} out of range for n={dim}")
    value = np.asarray(value, dtype=float)[()]
    grad = np.zeros((dim,) + np.shape(value))
    grad[index] = 1.0
    return Jet2(value, grad, np.zeros((dim, dim) + np.shape(value)))


def exp(x: Jet2) -> Jet2:
    e = np.exp(x.value)
    return x._compose(e, e, e)


def log(x: Jet2) -> Jet2:
    v = x.value
    bad = v <= 0.0
    if np.any(bad):
        raise JetDomainError(f"log of non-positive value {_first(v, bad)!r}")
    return x._compose(np.log(v), 1.0 / v, -1.0 / (v * v))


def sin(x: Jet2) -> Jet2:
    s, c = np.sin(x.value), np.cos(x.value)
    return x._compose(s, c, -s)


def cos(x: Jet2) -> Jet2:
    s, c = np.sin(x.value), np.cos(x.value)
    return x._compose(c, -s, -c)


def sqrt(x: Jet2) -> Jet2:
    v = x.value
    bad = v <= 0.0
    if np.any(bad):
        raise JetDomainError(f"sqrt of non-positive value {_first(v, bad)!r}")
    r = np.sqrt(v)
    return x._compose(r, 0.5 / r, -0.25 / (r * v))


# every operation by name, as a compiled expression program applies them
OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "^": operator.pow, "neg": operator.neg,
              "exp": exp, "log": log, "sin": sin, "cos": cos, "sqrt": sqrt}

