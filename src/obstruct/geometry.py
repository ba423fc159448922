"""Chart-level Riemannian machinery.

A :class:`Scene` is one coordinate chart carrying a metric and a Poisson
bivector as expression fields, plus the box on which they are sampled.
Everything downstream consumes :class:`PointEvaluation` data: tensor
components together with all first and second partial derivatives at a
point, obtained by evaluating the component expressions through degree-2
jets, as one compiled program per scene (:meth:`Scene.program`).  Derived
quantities (inverse metric, Christoffel symbols, Riemann curvature,
covariant derivatives) keep carrying one order of derivative less than
their inputs, which is exactly what the second-order obstruction tensors
need.

Every array may carry leading axes in front of its tensor indices: a
block of points is evaluated as one batch, its point axis innermost in
memory so that each contraction's inner loop runs along the points.
The product rule for the partials of a contraction is written once, in
:func:`contract`; its fixed term order is what keeps a point's numbers
bitwise the same wherever a product of fields is differentiated.

Index conventions: derivative indices always trail, so ``d1[..., k]`` is
the partial by coordinate ``k`` and ``d2[..., k, l]`` is symmetric in
``(k, l)``.  The curvature sign is fixed by

    R^k_{lab} = d_a Gamma^k_{bl} - d_b Gamma^k_{al}
                + Gamma^k_{ac} Gamma^c_{bl} - Gamma^k_{bc} Gamma^c_{al}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import exprlang
from .exprlang import Expr
from .record import Record

__all__ = [
    "Scene", "SceneValidationError", "PointEvaluation", "Christoffels",
    "eval_field", "metric_inverse", "volume_density", "christoffels",
    "riemann", "covariant_derivative", "inverse_with_partials", "eval_fields",
    "inverse_second_partials", "contract",
]


class SceneValidationError(ValueError):
    """A scene violates one of its structural invariants."""


SYMMETRY_TOL = 1e-12       # Scene.validate: largest |g - g^T|, |pi + pi^T|
NONDEGENERACY_TOL = 1e-12  # Scene.validate: largest |det g| rejected
MAX_REJECTED_DRAWS = 1000  # Scene.sample_points: excluded draws in a row


class PointEvaluation(Record):
    """Tensor components at a point with trailing-index partials.

    ``d2`` may be None for quantities whose second partials are not
    available (e.g. output of :func:`volume_density`).
    """

    components: np.ndarray
    d1: np.ndarray | None = None
    d2: np.ndarray | None = None


class Christoffels(Record):
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

    @cached_property
    def _programs(self) -> dict[str, exprlang.JetProgram]:
        return {}

    def program(self, which: str) -> exprlang.JetProgram:
        """The program of the metric's upper triangle (``"metric"``), pi's
        strict upper triangle (``"poisson"``), both (``"fields"``), every
        entry of g then of pi (``"entries"``) or ``"exclude"``, compiled
        on first use and kept on the scene."""
        if which not in self._programs:
            n = self.dimension
            metric = [self.metric[a][b] for a, b in _triangle(n, False)]
            poisson = [self.poisson[a][b] for a, b in _triangle(n, True)]
            trees = {"metric": metric, "poisson": poisson,
                     "fields": metric + poisson, "exclude": [self.exclude],
                     "entries": [e for m in (self.metric, self.poisson)
                                 for row in m for e in row]}[which]
            self._programs[which] = exprlang.compile_jets(trees)
        return self._programs[which]

    def entry_values(self, point) -> tuple[np.ndarray, np.ndarray]:
        """Every declared entry of g and of pi at one point, as plain values."""
        n = self.dimension
        found = self.program("entries").values(point, self.params)
        return (np.array(found[:n * n]).reshape(n, n),
                np.array(found[n * n:]).reshape(n, n))

    # -- sampling ------------------------------------------------------------

    def is_excluded(self, point) -> bool:
        if self.exclude is None:
            return False
        try:
            return self.program("exclude").values(point, self.params)[0] > 0.0
        except (ArithmeticError, ValueError, TypeError) as err:
            # TypeError: a complex value (a negative base to a fractional
            # power) does not compare with 0
            raise SceneValidationError(
                f"cannot evaluate exclude at {np.asarray(point).tolist()}: "
                f"{type(err).__name__}: {err}") from err

    def grid(self, counts) -> np.ndarray:
        """Lexicographically ordered grid over the box as one C-ordered
        ``(P, n)`` array, the points for which :meth:`is_excluded` holds
        dropped.  ``counts`` is one sample count per axis (>= 2)."""
        counts = list(counts)
        if len(counts) == 1:
            counts = counts * self.dimension
        if len(counts) != self.dimension:
            raise ValueError(
                f"grid needs {self.dimension} per-axis counts, got {len(counts)}")
        if any(c < 2 for c in counts):
            raise ValueError("grid counts must be >= 2 per axis")
        try:
            axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(self.box, counts)]
            pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        except MemoryError:
            raise ValueError(
                f"grid {'x'.join(map(str, counts))} of {math.prod(counts)} "
                f"points does not fit in memory") from None
        pts = pts.reshape(-1, self.dimension)
        if self.exclude is None:
            return pts
        return pts[[not self.is_excluded(p) for p in pts]]

    def sample_points(self, rng: np.random.Generator, count: int) -> list[np.ndarray]:
        """Uniform random points in the box, rejecting excluded ones; gives
        up after :data:`MAX_REJECTED_DRAWS` excluded draws in a row."""
        out: list[np.ndarray] = []
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        rejected = 0
        while len(out) < count:
            p = lo + (hi - lo) * rng.random(self.dimension)
            if not self.is_excluded(p):
                out.append(p)
                rejected = 0
            elif (rejected := rejected + 1) == MAX_REJECTED_DRAWS:
                raise SceneValidationError(
                    f"no sample points: exclude drops {rejected} random "
                    f"draws in a row")
        return out

    def scaled_poisson(self, factor: float) -> "Scene":
        """The same scene with pi multiplied by a constant factor."""
        scaled = tuple(
            tuple(exprlang.BinOp("*", exprlang.Num(float(factor)), e) for e in row)
            for row in self.poisson)
        return replace(self, poisson=scaled)

    # -- validation ----------------------------------------------------------

    def validate(self, samples_per_axis: int = 4) -> None:
        """Check symmetry of g, antisymmetry of pi, and |det g| > tol on a
        coarse sample of the box, the tolerances being :data:`SYMMETRY_TOL`
        and :data:`NONDEGENERACY_TOL`.  Raises :class:`SceneValidationError`."""
        n = self.dimension
        if len(self.metric) != n or any(len(r) != n for r in self.metric):
            raise SceneValidationError("metric must be an n-by-n expression array")
        if len(self.poisson) != n or any(len(r) != n for r in self.poisson):
            raise SceneValidationError("poisson must be an n-by-n expression array")
        if len(self.box) != n:
            raise SceneValidationError("box must give one (lo, hi) pair per axis")
        for pt in self.grid([samples_per_axis] * n):
            try:
                g, p = self.entry_values(pt)
            except (ArithmeticError, ValueError) as err:
                raise SceneValidationError(
                    f"cannot evaluate the fields at {pt.tolist()}: "
                    f"{type(err).__name__}: {err}") from err
            if np.max(np.abs(g - g.T)) > SYMMETRY_TOL:
                raise SceneValidationError(
                    f"metric not symmetric at {pt.tolist()}")
            if np.max(np.abs(p + p.T)) > SYMMETRY_TOL:
                raise SceneValidationError(
                    f"poisson not antisymmetric at {pt.tolist()}")
            if abs(np.linalg.det(g)) <= NONDEGENERACY_TOL:
                raise SceneValidationError(
                    f"metric degenerate at {pt.tolist()}")


# -- field evaluation ----------------------------------------------------------


def _write(jets, cells, shape, n: int, lead, sign: float | None = None
           ) -> PointEvaluation:
    """Each jet's channels written straight into C-ordered ``shape + tail
    + lead`` buffers at its cell (and, given a ``sign``, ``sign`` times
    them at the mirrored cell), returned as views with the point axes in
    front, where block arrays carry them, and innermost in memory."""
    out = []
    for channel, tail in (("value", ()), ("gradient", (n,)),
                          ("hessian", (n, n))):
        buf = np.zeros(shape + tail + lead)
        for cell, jet in zip(cells, jets):
            x = getattr(jet, channel)
            buf[cell] = x
            if sign is not None:
                buf[cell[::-1]] = sign * x
        out.append(np.moveaxis(buf, range(-len(lead), 0), range(len(lead))))
    return PointEvaluation(*out)


def _triangle(n: int, strict: bool) -> list[tuple[int, int]]:
    """The cells on and above the diagonal (above it if ``strict``), row
    by row: the entries a matrix field is evaluated at."""
    return [(a, b) for a in range(n) for b in range(a + strict, n)]


def _matrix_field(jets, n: int, lead, strict: bool) -> PointEvaluation:
    """A symmetric matrix field from the jets of its upper triangle, or
    (``strict``) an antisymmetric one from its strict upper triangle with
    a zero diagonal; each entry is mirrored exactly."""
    return _write(jets, _triangle(n, strict), (n, n), n, lead,
                  -1.0 if strict else 1.0)


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
    point = _checked(scene, point)
    lead = point.shape[:-1]
    if isinstance(which, str):
        if which not in ("metric", "poisson"):
            raise ValueError(f"unknown field {which!r}")
        found = scene.program(which).run(point, scene.params)
        return _matrix_field(found, scene.dimension, lead, which == "poisson")
    arr = np.asarray(which, dtype=object)
    found = exprlang.compile_jets(list(arr.flat)).run(point, scene.params)
    return _write(found, list(np.ndindex(*arr.shape)), arr.shape,
                  point.shape[-1], lead)


def eval_fields(scene: Scene, point) -> tuple[PointEvaluation, PointEvaluation]:
    """The metric and the Poisson field, as :func:`eval_field` gives them,
    from one run of the scene's compiled program: a subtree the two share
    is evaluated once, and a failure is the one evaluating the metric and
    then pi would meet first."""
    point = _checked(scene, point)
    n, lead = scene.dimension, point.shape[:-1]
    found = scene.program("fields").run(point, scene.params)
    upper = n * (n + 1) // 2
    return (_matrix_field(found[:upper], n, lead, False),
            _matrix_field(found[upper:], n, lead, True))


def _checked(scene: Scene, point) -> np.ndarray:
    point = np.asarray(point, dtype=float)
    if point.shape[-1:] != (scene.dimension,):
        raise ValueError(f"a point of the scene needs {scene.dimension} "
                         f"coordinates, got an array of shape {point.shape}")
    if point.ndim == 1 and scene.is_excluded(point):
        raise ValueError(f"point {point.tolist()} is excluded from the sample domain")
    return point


# -- derived quantities --------------------------------------------------------
#
# Every function below takes arrays with leading block axes (``...``) in
# front of the tensor indices.  Contractions are written as einsum calls
# over ``...``, each one elementwise in the block axes.  Results keep the
# block axes innermost in memory (einsum and ufuncs follow their inputs;
# the inverse and copies are told to), so a point's result is bitwise the
# same in any block of two or more points.


def contract(spec: str, x: PointEvaluation, y: PointEvaluation,
             order: int = 1) -> PointEvaluation:
    """``einsum(spec, x, y)`` with its partials up to ``order`` (1 or 2),
    by the product rule in one fixed term order:

        d1 = dx.y + x.dy,    d2 = d2x.y + c + c^T + x.d2y,   c = dx.dy.

    ``spec`` names the tensor indices only (``"ja,ab->jb"``); the block
    axes and the derivative indices ``y``, ``z``, which no spec may use,
    are added here.  ``order=2`` needs ``d2`` on both inputs.
    """
    a, b, out = spec.replace("->", ",").split(",")

    def term(p, q, dp="", dq=""):
        return np.einsum(f"...{a}{dp},...{b}{dq}->...{out}{dp}{dq}", p, q)

    value = term(x.components, y.components)
    d1 = term(x.d1, y.components, "y") + term(x.components, y.d1, "", "y")
    if order == 1:
        return PointEvaluation(value, d1, None)
    c = term(x.d1, y.d1, "y", "z")
    d2 = (term(x.d2, y.components, "yz") + c + c.swapaxes(-1, -2)
          + term(x.components, y.d2, "", "yz"))
    return PointEvaluation(value, d1, d2)


def inverse_with_partials(m: np.ndarray, d1: np.ndarray | None,
                          d2: np.ndarray | None, inv: np.ndarray | None = None):
    """Inverse of a matrix field from pointwise data.

    Returns ``(inv, d_inv, d2_inv)`` using d(M^-1) = -M^-1 dM M^-1 and its
    second-order analogue (:func:`inverse_second_partials`).  ``inv`` is
    ``np.linalg.inv(m)`` when the caller already has it.
    """
    found = np.linalg.inv(m) if inv is None else inv
    inv = np.empty_like(m)
    inv[...] = found
    if d1 is None:
        return inv, None, None
    left = np.einsum("...ia,...abk->...ibk", inv, d1)       # M^-1 d_k M
    dinv = -np.einsum("...ibk,...bj->...ijk", left, inv)
    if d2 is None:
        return inv, dinv, None
    return inv, dinv, inverse_second_partials(inv, dinv, d1, d2, left)


def inverse_second_partials(inv: np.ndarray, dinv: np.ndarray, d1: np.ndarray,
                            d2: np.ndarray, left: np.ndarray | None = None):
    """Second partials of M^-1 from M^-1, its first partials and the first
    and second partials of M; exact given exact second partials of M.
    ``left`` is M^-1 d_k M when the caller already has it."""
    if left is None:
        left = np.einsum("...ia,...abk->...ibk", inv, d1)
    # M^-1 d_l M M^-1 d_k M M^-1, symmetrized in (k, l)
    t1 = -np.einsum("...ibl,...bjk->...ijkl", left, dinv)
    second = np.einsum("...ia,...abkl->...ibkl", inv, d2)
    return (t1 + t1.swapaxes(-1, -2)
            - np.einsum("...ibkl,...bj->...ijkl", second, inv))


def metric_inverse(g_eval: PointEvaluation) -> PointEvaluation:
    """Contravariant metric g^ij with first and second partials.

    Raises ``numpy.linalg.LinAlgError`` on a singular metric.
    """
    inv, dinv, d2inv = inverse_with_partials(g_eval.components, g_eval.d1,
                                             g_eval.d2)
    return PointEvaluation(inv, dinv, d2inv)


def volume_density(g_eval: PointEvaluation) -> PointEvaluation:
    """sqrt|det g| with first partials (pseudo-Riemannian metrics use the
    absolute value of the determinant)."""
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
    g^-1 with its first partials when the caller already has it."""
    g, dg, d2g = g_eval.components, g_eval.d1, g_eval.d2
    inverse = inverse or PointEvaluation(*inverse_with_partials(g, dg, None))
    # S[a, j, k] = d_j g_ak + d_k g_aj - d_a g_jk
    s = (np.einsum("...akj->...ajk", dg) + dg
         - np.einsum("...jka->...ajk", dg))
    ds = (np.einsum("...akjl->...ajkl", d2g) + d2g
          - np.einsum("...jkal->...ajkl", d2g))
    twice = contract("ia,ajk->ijk", inverse, PointEvaluation(s, ds, None))
    return Christoffels(0.5 * twice.components, 0.5 * twice.d1)


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
    nabla = dt.copy(order="K")
    dnabla = d2t.copy(order="K") if d2t is not None else None
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
