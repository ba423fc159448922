"""Degree-2 jet arithmetic.

A :class:`Jet2` carries the exact value, gradient, and Hessian of a smooth
scalar expression at a chart point, or at a block of points: the value has
the block's shape ``S`` (``()`` for one point), the gradient ``S + (n,)``
and the Hessian ``S + (n, n)``.  Arithmetic and the elementary functions
(exp, log, sin, cos, sqrt, real powers) propagate all three channels
through the exact first- and second-order chain rule, so any composition of
supported operations yields exact first and second partial derivatives,
with no truncation error beyond floating-point rounding.

Every operation is elementwise over the leading axes and uses the same
NumPy ufuncs whatever their shape, so a point's jet is bitwise the same
alone and inside any block.  Powers go through ``np.power`` explicitly: the
``**`` operator on NumPy scalars and arrays takes shortcuts (squares, the C
library's ``pow``) that round differently from the array loop.

Only smooth operations are supported; there is deliberately no abs,
sign, or comparison inside jets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Jet2", "JetDomainError", "constant", "coordinate", "lift", "apply"]


class JetDomainError(ArithmeticError):
    """Raised when an operation leaves its smooth domain (1/0, log(-1), ...)."""


def _as_jet(x, dim: int) -> "Jet2":
    if isinstance(x, Jet2):
        if x.dimension != dim:
            raise ValueError(f"jet dimension mismatch: {x.dimension} != {dim}")
        return x
    return constant(float(x), dim)


def _first(value, bad) -> float:
    """The first entry of ``value`` flagged in ``bad``, for error messages."""
    return float(np.asarray(value)[np.asarray(bad)].flat[0])


def _col(value, axes: int = 1):
    """``value`` with ``axes`` trailing unit axes, to scale a gradient (1)
    or a Hessian (2); a single point's scalar broadcasts as it is."""
    if getattr(value, "ndim", 0) == 0:
        return value
    return value.reshape(value.shape + (1,) * axes)


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


@dataclass(frozen=True)
class Jet2:
    """Value, gradient, and symmetric Hessian of a scalar at a point or at
    a block of points.

    The Hessian is stored as a full symmetric matrix; symmetry is
    guaranteed by construction for every supported operation.
    """

    value: np.ndarray    # shape S; a float for a constant
    gradient: np.ndarray  # shape S + (n,)
    hessian: np.ndarray   # shape S + (n, n), symmetric

    @property
    def dimension(self) -> int:
        return self.gradient.shape[-1]

    @property
    def is_constant(self) -> bool:
        return not (self.gradient.any() or self.hessian.any())

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Jet2":
        o = _as_jet(other, self.dimension)
        return Jet2(self.value + o.value, self.gradient + o.gradient,
                    self.hessian + o.hessian)

    __radd__ = __add__

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.gradient, -self.hessian)

    def __sub__(self, other) -> "Jet2":
        o = _as_jet(other, self.dimension)
        return Jet2(self.value - o.value, self.gradient - o.gradient,
                    self.hessian - o.hessian)

    def __rsub__(self, other) -> "Jet2":
        return _as_jet(other, self.dimension) - self

    def __mul__(self, other) -> "Jet2":
        o = _as_jet(other, self.dimension)
        v, w = self.value, o.value
        cross = _outer(self.gradient, o.gradient)
        # (cross + cross.T) first: summing the transposes in one step keeps
        # the Hessian bitwise symmetric
        return Jet2(
            v * w,
            _col(v) * o.gradient + _col(w) * self.gradient,
            _col(v, 2) * o.hessian + _col(w, 2) * self.hessian
            + (cross + cross.swapaxes(-1, -2)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet2":
        return self * _as_jet(other, self.dimension)._reciprocal()

    def __rtruediv__(self, other) -> "Jet2":
        return _as_jet(other, self.dimension) * self._reciprocal()

    def __pow__(self, exponent) -> "Jet2":
        if isinstance(exponent, Jet2):
            if exponent.is_constant and np.ndim(exponent.value) == 0:
                return self._real_power(float(exponent.value))
            # general exponent: b^e = exp(e * log(b)), needs b > 0
            return exp(exponent * log(self))
        return self._real_power(float(exponent))

    # -- chain-rule helpers --------------------------------------------------

    def _compose(self, f0, f1, f2) -> "Jet2":
        """Chain rule for a scalar function with derivatives f0, f1, f2 here."""
        g = self.gradient
        return Jet2(f0, _col(f1) * g,
                    _col(f1, 2) * self.hessian + _col(f2, 2) * _outer(g, g))

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
                return constant(1.0, self.dimension)
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


def constant(value: float, dim: int) -> Jet2:
    """Lift a constant: zero gradient and Hessian."""
    return Jet2(float(value), np.zeros(dim), np.zeros((dim, dim)))


def coordinate(value, index: int, dim: int) -> Jet2:
    """Lift the ``index``-th chart coordinate: unit gradient, zero Hessian.
    ``value`` may be an array of that coordinate over a block of points."""
    if not 0 <= index < dim:
        raise IndexError(f"coordinate index {index} out of range for n={dim}")
    grad = np.zeros(dim)
    grad[index] = 1.0
    return Jet2(np.asarray(value, dtype=float)[()], grad, np.zeros((dim, dim)))


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


FUNCTIONS = {"exp": exp, "log": log, "sin": sin, "cos": cos, "sqrt": sqrt}

_BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "^": lambda a, b: a ** b,
}


def lift(value, coord_index: int | None = None, dim: int = 1) -> Jet2:
    """Lift a real number into a jet: constant if ``coord_index`` is None,
    otherwise the value of that chart coordinate."""
    if coord_index is None:
        return constant(value, dim)
    return coordinate(value, coord_index, dim)


def apply(fn: str, args: list[Jet2]) -> Jet2:
    """Apply a named elementary function or arithmetic operator to jets.

    ``fn`` is one of ``+ - * / ^ neg exp log sin cos sqrt``; all arguments
    must share one chart dimension.
    """
    if fn in _BINARY:
        if len(args) != 2:
            raise ValueError(f"operator {fn!r} takes 2 arguments")
        a, b = args
        _as_jet(b, a.dimension)  # dimension check
        return _BINARY[fn](a, b)
    if fn == "neg":
        (a,) = args
        return -a
    if fn in FUNCTIONS:
        (a,) = args
        return FUNCTIONS[fn](a)
    raise ValueError(f"unsupported jet function {fn!r}")
