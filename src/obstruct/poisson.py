"""Poisson-structure operations and the integration obstruction.

The bivector field pi of a :class:`~obstruct.geometry.Scene` determines
the Jacobi (Schouten) defect, the sharp map from 1-forms to vectors, the
Koszul bracket on 1-forms, the pointwise symplectic rank, and the
divergence defect: a deformation of integration into a trace forces
``nabla_j pi^{ij} = 0`` for any torsion-free volume-preserving connection,
equivalently ``d(pi ⌟ eps) = 0`` for the volume form eps.  The Levi-Civita
route is the primary computation; :func:`divergence_oracle` implements the
interior-contraction route by central finite differences as an independent
cross-check, using the normalization
``(pi ⌟ eps)_{ij...} = (1/2) pi^{ab} eps_{ab ij...}``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import exprlang, geometry
from .exprlang import Expr
from .geometry import PointEvaluation, Scene

__all__ = [
    "OneFormField", "DegeneratePoissonError",
    "jacobi_defect", "sharp", "koszul_bracket", "divergence_defect",
    "divergence_oracle", "symplectic_inverse", "pi_rank",
]


class DegeneratePoissonError(ValueError):
    """The Poisson bivector is not invertible where inversion is required."""


@dataclass(frozen=True)
class OneFormField:
    """A 1-form given by one component expression per coordinate.

    Differentials of scalar expressions are normalized to component form
    through exact symbolic differentiation, so every field carries full
    second-order jet data.
    """

    components: tuple[Expr, ...]

    @classmethod
    def from_components(cls, components) -> "OneFormField":
        return cls(tuple(components))

    @classmethod
    def differential(cls, f: Expr, dimension: int) -> "OneFormField":
        """The exact differential df as a component field."""
        return cls(tuple(exprlang.differentiate(f, k) for k in range(dimension)))

    def evaluate(self, scene: Scene, point) -> PointEvaluation:
        if len(self.components) != scene.dimension:
            raise ValueError(
                f"1-form has {len(self.components)} components on an "
                f"n={scene.dimension} scene")
        return geometry.eval_field(scene, list(self.components), point)


# -- array-level kernels (shared with the connection frame) -------------------


def jacobi_from(pi: np.ndarray, dpi: np.ndarray) -> np.ndarray:
    """Cyclic Schouten defect J^{ijk} = pi^{ia} d_a pi^{jk} + cyclic.

    Connection-independent, so plain partials suffice; vanishes iff pi is
    a genuine Poisson structure.
    """
    t = np.einsum("...ia,...jka->...ijk", pi, dpi)
    return t + np.einsum("...kij->...ijk", t) + np.einsum("...jki->...ijk", t)


def divergence_from(nabla_pi: np.ndarray) -> np.ndarray:
    """Trace nabla_j pi^{ij} of the covariant derivative of pi."""
    return np.einsum("...ijj->...i", nabla_pi)


def sharp_from(pi: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """(#sigma)^j = pi^{ij} sigma_i."""
    return np.einsum("ij,i->j", pi, sigma)


def koszul_from(pi: np.ndarray, dpi: np.ndarray,
                sigma: PointEvaluation, rho: PointEvaluation) -> np.ndarray:
    """Koszul bracket by the closed Cartan-type formula

        [sigma, rho]_pi = L_{#sigma} rho - L_{#rho} sigma - d(pi(sigma, rho)).
    """
    sv, dsv = sigma.components, sigma.d1
    rv, drv = rho.components, rho.d1
    xs = sharp_from(pi, sv)          # (#sigma)^a
    xr = sharp_from(pi, rv)
    dxs = np.einsum("iam,i->am", dpi, sv) + np.einsum("ia,im->am", pi, dsv)
    dxr = np.einsum("iam,i->am", dpi, rv) + np.einsum("ia,im->am", pi, drv)
    lie_sr = np.einsum("a,ka->k", xs, drv) + np.einsum("a,ak->k", rv, dxs)
    lie_rs = np.einsum("a,ka->k", xr, dsv) + np.einsum("a,ak->k", sv, dxr)
    d_pair = (np.einsum("abk,a,b->k", dpi, sv, rv)
              + np.einsum("ab,ak,b->k", pi, dsv, rv)
              + np.einsum("ab,a,bk->k", pi, sv, drv))
    return lie_sr - lie_rs - d_pair


# -- per-point operations ------------------------------------------------------


def jacobi_defect(scene: Scene, point) -> np.ndarray:
    """Totally antisymmetric J^{ijk} at a point (zero for a Poisson pi)."""
    pi = geometry.eval_field(scene, "poisson", point)
    return jacobi_from(pi.components, pi.d1)


def sharp(scene: Scene, sigma: OneFormField, point) -> np.ndarray:
    """Image vector of a 1-form under the bundle map # induced by pi."""
    pi = geometry.eval_field(scene, "poisson", point)
    sv = sigma.evaluate(scene, point)
    return sharp_from(pi.components, sv.components)


def koszul_bracket(scene: Scene, sigma: OneFormField, rho: OneFormField,
                   point) -> np.ndarray:
    """Components of [sigma, rho]_pi at a point."""
    pi = geometry.eval_field(scene, "poisson", point)
    return koszul_from(pi.components, pi.d1,
                       sigma.evaluate(scene, point),
                       rho.evaluate(scene, point))


def divergence_defect(scene: Scene, point) -> np.ndarray:
    """nabla_j pi^{ij} with the Levi-Civita connection of the scene metric;
    must vanish for integration to deform into a trace."""
    g = geometry.eval_field(scene, "metric", point)
    ch = geometry.christoffels(g)
    pi = geometry.eval_field(scene, "poisson", point)
    nabla_pi = geometry.covariant_derivative(pi, ch, "uu")
    return divergence_from(nabla_pi.components)


def symplectic_inverse(scene: Scene, point, tol: float = 1e-9) -> np.ndarray:
    """The 2-form omega with pi^{ai} omega_{aj} = delta^i_j, i.e. the
    matrix inverse of pi up to index placement; antisymmetric.

    Raises :class:`DegeneratePoissonError` when pi has rank < n.
    """
    pi = geometry.eval_field(scene, "poisson", point)
    p = pi.components
    if pi_rank_from(p, tol) < scene.dimension:
        raise DegeneratePoissonError(
            f"poisson structure degenerate at {list(point)}")
    # pi^{ai} omega_{aj} = delta  <=>  omega = -pi^{-1} as matrices
    return -np.linalg.inv(p)


def pi_rank_from(pi: np.ndarray, tol: float = 1e-9):
    """Even rank of pi (or of each matrix in a block): singular values
    above ``tol`` relative to the largest one."""
    sv = np.linalg.svd(pi, compute_uv=False)
    rank = np.count_nonzero(sv > tol * sv[..., :1], axis=-1)
    # singular values of an antisymmetric matrix pair up
    return rank - rank % 2


def pi_rank(scene: Scene, point, tol: float = 1e-9) -> int:
    """Pointwise (even) rank of pi: singular values above ``tol`` relative
    to the largest one.  The image of # spans the symplectic foliation."""
    pi = geometry.eval_field(scene, "poisson", point)
    return pi_rank_from(pi.components, tol)


# -- interior-contraction divergence oracle ------------------------------------


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _pi_hook_eps(scene: Scene, point) -> np.ndarray:
    """(pi ⌟ eps) at a point by plain evaluation: an (n-2)-form stored as a
    full antisymmetric array."""
    n = scene.dimension
    params = scene.params
    g = np.array([[exprlang.eval_real(e, point, params) for e in row]
                  for row in scene.metric])
    pi = np.array([[exprlang.eval_real(e, point, params) for e in row]
                   for row in scene.poisson])
    scale = scene.orientation * np.sqrt(abs(np.linalg.det(g)))
    out = np.zeros((n,) * (n - 2))
    for perm in itertools.permutations(range(n)):
        out[perm[2:]] += 0.5 * pi[perm[0], perm[1]] * _perm_sign(perm) * scale
    return out


def divergence_oracle(scene: Scene, point, step: float = 1e-5) -> np.ndarray:
    """Divergence vector extracted from d(pi ⌟ eps) by central differences.

    Independent of the Levi-Civita route: it sees only plain values of pi
    and the volume density.  Agreement to ~1e-6 is the expected accuracy
    at the default step.
    """
    n = scene.dimension
    point = np.asarray(point, dtype=float)
    partials = np.empty((n,) + (n,) * (n - 2))
    for k in range(n):
        shift = np.zeros(n)
        shift[k] = step
        partials[k] = (_pi_hook_eps(scene, point + shift)
                       - _pi_hook_eps(scene, point - shift)) / (2.0 * step)
    # exterior derivative: (dF)_{a0..ap} = sum_m (-1)^m d_{a_m} F_{a0..âm..ap}
    p = n - 2
    df = np.zeros((n,) * (n - 1))
    for idx in np.ndindex(*(n,) * (n - 1)):
        total = 0.0
        for m in range(p + 1):
            rest = idx[:m] + idx[m + 1:]
            total += (-1) ** m * partials[(idx[m],) + rest]
        df[idx] = total
    # dF_{i2..in} = V^a eps_{a i2..in}; invert the contraction
    params = scene.params
    g = np.array([[exprlang.eval_real(e, point, params) for e in row]
                  for row in scene.metric])
    det = np.linalg.det(g)
    v = np.zeros(n)
    for perm in itertools.permutations(range(n)):
        v[perm[0]] += _perm_sign(perm) * df[perm[1:]]
    v *= scene.orientation / (math.factorial(n - 1) * np.sqrt(abs(det)))
    return v
