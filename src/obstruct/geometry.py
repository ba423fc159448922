"""Chart-level Riemannian machinery.

A :class:`Scene` is one coordinate chart carrying a metric and a Poisson
bivector as expression fields, plus the box on which they are sampled.
Everything downstream consumes :class:`PointEvaluation` data: tensor
components together with all first and second partial derivatives at a
point, obtained by evaluating each component expression through degree-2
jets.  Derived quantities (inverse metric, Christoffel symbols, Riemann
curvature, covariant derivatives) keep carrying one order of derivative
less than their inputs, which is exactly what the second-order obstruction
tensors need.

Every array may carry leading axes in front of its tensor indices: a
block of points is evaluated as one batch, with the same arithmetic as a
single point.

Index conventions: derivative indices always trail, so ``d1[..., k]`` is
the partial by coordinate ``k`` and ``d2[..., k, l]`` is symmetric in
``(k, l)``.  The curvature sign is fixed by

    R^k_{lab} = d_a Gamma^k_{bl} - d_b Gamma^k_{al}
                + Gamma^k_{ac} Gamma^c_{bl} - Gamma^k_{bc} Gamma^c_{al}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import exprlang
from .exprlang import Expr

__all__ = [
    "Scene", "SceneValidationError", "PointEvaluation", "Christoffels",
    "eval_field", "metric_inverse", "volume_density", "christoffels",
    "riemann", "covariant_derivative", "inverse_with_partials",
]


class SceneValidationError(ValueError):
    """A scene violates one of its structural invariants."""


@dataclass(frozen=True)
class PointEvaluation:
    """Tensor components at a point with trailing-index partials.

    ``d2`` may be None for quantities whose second partials are not
    available (e.g. output of :func:`volume_density`).
    """

    components: np.ndarray
    d1: np.ndarray | None = None
    d2: np.ndarray | None = None


@dataclass(frozen=True)
class Christoffels:
    """Levi-Civita symbols ``gamma[i, j, k] = Gamma^i_{jk}`` and their
    partials ``d1[i, j, k, l] = d_l Gamma^i_{jk}``."""

    gamma: np.ndarray
    d1: np.ndarray


@dataclass(frozen=True)
class Scene:
    """A chart with metric and Poisson fields given as expressions.

    ``metric[i][j]`` holds the covariant components g_ij (declared
    symmetric: entries below the diagonal are mirrored from above it at
    evaluation time), ``poisson[i][j]`` the contravariant components
    pi^ij (mirrored antisymmetrically, zero diagonal).  ``box`` is one
    (lo, hi) pair per axis; points where the optional ``exclude``
    expression evaluates > 0 are skipped.
    """

    coords: tuple[str, ...]
    params: dict[str, float]
    metric: tuple[tuple[Expr, ...], ...]
    poisson: tuple[tuple[Expr, ...], ...]
    box: tuple[tuple[float, float], ...]
    exclude: Expr | None = None
    orientation: int = 1
    name: str = ""

    @property
    def dimension(self) -> int:
        return len(self.coords)

    # -- sampling ------------------------------------------------------------

    def is_excluded(self, point) -> bool:
        if self.exclude is None:
            return False
        return exprlang.eval_real(self.exclude, point, self.params) > 0.0

    def grid(self, counts) -> list[np.ndarray]:
        """Lexicographically ordered grid over the box, excluded points
        dropped.  ``counts`` is one sample count per axis (>= 2)."""
        counts = list(counts)
        if len(counts) == 1:
            counts = counts * self.dimension
        if len(counts) != self.dimension:
            raise ValueError(
                f"grid needs {self.dimension} per-axis counts, got {len(counts)}")
        if any(c < 2 for c in counts):
            raise ValueError("grid counts must be >= 2 per axis")
        axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(self.box, counts)]
        pts = [np.array(p) for p in itertools.product(*axes)]
        return [p for p in pts if not self.is_excluded(p)]

    def sample_points(self, rng: np.random.Generator, count: int) -> list[np.ndarray]:
        """Uniform random points in the box, rejecting excluded ones."""
        out: list[np.ndarray] = []
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        while len(out) < count:
            p = lo + (hi - lo) * rng.random(self.dimension)
            if not self.is_excluded(p):
                out.append(p)
        return out

    def scaled_poisson(self, factor: float) -> "Scene":
        """The same scene with pi multiplied by a constant factor."""
        scaled = tuple(
            tuple(exprlang.BinOp("*", exprlang.Num(float(factor)), e) for e in row)
            for row in self.poisson)
        return replace(self, poisson=scaled)

    # -- validation ----------------------------------------------------------

    def validate(self, samples_per_axis: int = 4, nondegeneracy_tol: float = 1e-12,
                 symmetry_tol: float = 1e-12) -> None:
        """Check symmetry of g, antisymmetry of pi, and |det g| > tol on a
        coarse sample of the box.  Raises :class:`SceneValidationError`."""
        n = self.dimension
        if len(self.metric) != n or any(len(r) != n for r in self.metric):
            raise SceneValidationError("metric must be an n-by-n expression array")
        if len(self.poisson) != n or any(len(r) != n for r in self.poisson):
            raise SceneValidationError("poisson must be an n-by-n expression array")
        if len(self.box) != n:
            raise SceneValidationError("box must give one (lo, hi) pair per axis")
        for pt in self.grid([samples_per_axis] * n):
            try:
                g = np.array([[exprlang.eval_real(e, pt, self.params)
                               for e in row] for row in self.metric])
                p = np.array([[exprlang.eval_real(e, pt, self.params)
                               for e in row] for row in self.poisson])
            except (ArithmeticError, ValueError) as err:
                raise SceneValidationError(
                    f"cannot evaluate the fields at {pt.tolist()}: "
                    f"{type(err).__name__}: {err}") from err
            if np.max(np.abs(g - g.T)) > symmetry_tol:
                raise SceneValidationError(
                    f"metric not symmetric at {pt.tolist()}")
            if np.max(np.abs(p + p.T)) > symmetry_tol:
                raise SceneValidationError(
                    f"poisson not antisymmetric at {pt.tolist()}")
            if abs(np.linalg.det(g)) <= nondegeneracy_tol:
                raise SceneValidationError(
                    f"metric degenerate at {pt.tolist()}")


# -- field evaluation ----------------------------------------------------------


def _eval_array(exprs, scene: Scene, point) -> PointEvaluation:
    """Jets of an array of expressions; the array's indices follow the
    point's leading (block) axes."""
    arr = np.asarray(exprs, dtype=object)
    lead, n = point.shape[:-1], point.shape[-1]
    comps = np.empty(lead + arr.shape)
    d1 = np.empty(lead + arr.shape + (n,))
    d2 = np.empty(lead + arr.shape + (n, n))
    for idx in np.ndindex(*arr.shape):
        jet = exprlang.eval_jet(arr[idx], point, scene.params)
        at = (slice(None),) * len(lead) + idx
        comps[at] = jet.value
        d1[at] = jet.gradient
        d2[at] = jet.hessian
    return PointEvaluation(comps, d1, d2)


def _from_triangle(rows, scene: Scene, point, sign: float) -> PointEvaluation:
    """A symmetric (``sign=+1``, from the upper triangle) or antisymmetric
    (``sign=-1``, from the strict upper triangle, zero diagonal) matrix
    field; each entry is evaluated once and mirrored exactly."""
    n = len(rows)
    first = 0 if sign > 0 else 1
    i = [a for a in range(n) for _ in range(a + first, n)]
    j = [b for a in range(n) for b in range(a + first, n)]
    upper = _eval_array([rows[a][b] for a, b in zip(i, j)], scene, point)
    lead = point.shape[:-1]
    out = []
    for src, tail in ((upper.components, ()), (upper.d1, (n,)),
                      (upper.d2, (n, n))):
        full = np.zeros(lead + (n, n) + tail)
        rest = (slice(None),) * len(tail)
        full[(Ellipsis, i, j) + rest] = src
        full[(Ellipsis, j, i) + rest] = sign * src
        out.append(full)
    return PointEvaluation(*out)


def eval_field(scene: Scene, which, point) -> PointEvaluation:
    """Evaluate a tensor field with all first and second partials.

    ``which`` is ``"metric"``, ``"poisson"``, or any nested sequence of
    expressions (a custom tensor).  The metric is mirrored from the upper
    triangle and the Poisson field from the strict upper triangle, so the
    declared (anti)symmetry holds bitwise in the result.

    ``point`` has shape ``(..., n)``; leading axes index a block of points
    and lead every returned array.  A single point is rejected when it is
    excluded; a block is taken to come from :meth:`Scene.grid`, which has
    already dropped excluded points.
    """
    point = np.asarray(point, dtype=float)
    if point.ndim == 1 and scene.is_excluded(point):
        raise ValueError(f"point {list(point)} is excluded from the sample domain")
    if isinstance(which, str):
        if which == "metric":
            return _from_triangle(scene.metric, scene, point, sign=+1.0)
        if which == "poisson":
            return _from_triangle(scene.poisson, scene, point, sign=-1.0)
        raise ValueError(f"unknown field {which!r}")
    return _eval_array(which, scene, point)


# -- derived quantities --------------------------------------------------------
#
# Every function below takes arrays with leading block axes (``...``) in
# front of the tensor indices.  Contractions are written as einsum calls
# over ``...``, each one elementwise in the block axes, so a point's result
# does not depend on the block it is computed in.


def inverse_with_partials(m: np.ndarray, d1: np.ndarray | None,
                          d2: np.ndarray | None):
    """Inverse of a matrix field from pointwise data.

    Returns ``(inv, d_inv, d2_inv)`` using d(M^-1) = -M^-1 dM M^-1 and its
    second-order analogue; the second partials of the inverse are exact
    given exact second partials of M.
    """
    inv = np.linalg.inv(m)
    if d1 is None:
        return inv, None, None
    left = np.einsum("...ia,...abk->...ibk", inv, d1)       # M^-1 d_k M
    dinv = -np.einsum("...ibk,...bj->...ijk", left, inv)
    if d2 is None:
        return inv, dinv, None
    # M^-1 d_l M M^-1 d_k M M^-1, symmetrized in (k, l)
    t1 = -np.einsum("...ibl,...bjk->...ijkl", left, dinv)
    second = np.einsum("...ia,...abkl->...ibkl", inv, d2)
    d2inv = (t1 + t1.swapaxes(-1, -2)
             - np.einsum("...ibkl,...bj->...ijkl", second, inv))
    return inv, dinv, d2inv


def metric_inverse(g_eval: PointEvaluation) -> PointEvaluation:
    """Contravariant metric g^ij with first and second partials.

    Raises ``numpy.linalg.LinAlgError`` on a singular metric.
    """
    inv, dinv, d2inv = inverse_with_partials(g_eval.components, g_eval.d1,
                                             g_eval.d2)
    return PointEvaluation(inv, dinv, d2inv)


def volume_density(g_eval: PointEvaluation, orientation: int = 1) -> PointEvaluation:
    """sqrt|det g| with first partials (pseudo-Riemannian metrics use the
    absolute value of the determinant).  ``orientation`` is accepted for
    symmetry with the volume form but does not affect the density."""
    det = np.linalg.det(g_eval.components)
    if np.any(det == 0.0):
        raise np.linalg.LinAlgError("singular metric")
    s = np.sqrt(np.abs(det))
    d1 = None
    if g_eval.d1 is not None:
        ginv = np.linalg.inv(g_eval.components)
        # d_k log|det g| = tr(g^-1 d_k g)
        d1 = 0.5 * s[..., None] * np.einsum("...ab,...abk->...k", ginv, g_eval.d1)
    return PointEvaluation(np.asarray(s), d1, None)


def christoffels(g_eval: PointEvaluation, inverse=None) -> Christoffels:
    """Levi-Civita symbols with their first partials (from second partials
    of the metric and the analytic inverse derivative).  ``inverse`` is
    the pair ``(g^-1, d g^-1)`` when the caller already has it."""
    g, dg, d2g = g_eval.components, g_eval.d1, g_eval.d2
    ginv, dginv = inverse or inverse_with_partials(g, dg, None)[:2]
    # S[a, j, k] = d_j g_ak + d_k g_aj - d_a g_jk
    s = (np.einsum("...akj->...ajk", dg) + dg
         - np.einsum("...jka->...ajk", dg))
    gamma = 0.5 * np.einsum("...ia,...ajk->...ijk", ginv, s)
    ds = (np.einsum("...akjl->...ajkl", d2g) + d2g
          - np.einsum("...jkal->...ajkl", d2g))
    dgamma = 0.5 * (np.einsum("...ial,...ajk->...ijkl", dginv, s)
                    + np.einsum("...ia,...ajkl->...ijkl", ginv, ds))
    return Christoffels(gamma, dgamma)


def riemann(g_eval: PointEvaluation) -> np.ndarray:
    """Riemann tensor ``R[k, l, a, b] = R^k_{lab}`` of the Levi-Civita
    connection; antisymmetric in its last two indices."""
    ch = christoffels(g_eval)
    return riemann_from_christoffels(ch)


def riemann_from_christoffels(ch: Christoffels) -> np.ndarray:
    gamma, dgamma = ch.gamma, ch.d1
    r = (np.einsum("...kbla->...klab", dgamma)
         - np.einsum("...kalb->...klab", dgamma)
         + np.einsum("...kac,...cbl->...klab", gamma, gamma)
         - np.einsum("...kbc,...cal->...klab", gamma, gamma))
    return r


def covariant_derivative(tensor_eval: PointEvaluation, ch: Christoffels,
                         variance: str) -> PointEvaluation:
    """Levi-Civita covariant derivative of an arbitrary (p, q)-tensor.

    ``variance`` gives one character per tensor index, ``"u"`` for
    contravariant (+Gamma contraction) and ``"d"`` for covariant (-Gamma).
    The derivative index trails.  First partials of the result are
    propagated when the input carries second partials.
    """
    t, dt, d2t = tensor_eval.components, tensor_eval.d1, tensor_eval.d2
    rank = t.ndim - (ch.gamma.ndim - 3)
    if len(variance) != rank or any(c not in "ud" for c in variance):
        raise ValueError(
            f"variance {variance!r} does not match tensor rank {rank}")
    if dt is None:
        raise ValueError("covariant derivative needs first partials")
    gamma, dgamma = ch.gamma, ch.d1
    letters = "abcdefgh"[:rank]
    nabla = dt.copy()
    dnabla = d2t.copy() if d2t is not None else None
    for pos, var in enumerate(variance):
        src = "..." + letters[:pos] + "s" + letters[pos + 1:]
        out = "..." + letters + "k"
        gam = "..." + (f"{letters[pos]}ks" if var == "u" else f"sk{letters[pos]}")
        sign = 1.0 if var == "u" else -1.0
        nabla += sign * np.einsum(f"{gam},{src}->{out}", gamma, t)
        if dnabla is not None:
            dnabla += sign * np.einsum(f"{gam}l,{src}->{out}l", dgamma, t)
            dnabla += sign * np.einsum(f"{gam},{src}l->{out}l", gamma, dt)
    return PointEvaluation(nabla, dnabla, None)
