"""Finite-dimensional Lie-algebraic specializations.

The dual of a Lie algebra carries the linear Poisson structure
``pi^{ij} = C^{ij}_k x^k`` (indices moved with the invariant metric B);
:func:`linear_poisson_scene` turns a presentation into a chart scene so
the generic machinery applies, while :func:`dual_curvature_closed_form`
gives the closed-form answer -(1/4) [[alpha, beta], gamma] for constant
co-frames, the cross-module oracle for the chart-level curvature.

For group deformations with bivector r_R - r_L, the surviving algebraic
conditions are the divergence -(1/2) r^{jk} C^i_{jk} and the classical
Yang-Baxter defect [r, r]; the curvature of the induced connection on
left-invariant 1-forms is the coadjoint action of [r, r](alpha, beta),
so it vanishes for all inputs exactly when [r, r] = 0.

Coadjoint convention: ``(ad*_X gamma)_l = -C^c_{al} X^a gamma_c``, the
negative transpose of ``ad``, which makes ad* a Lie-algebra representation
and reproduces the commutator curvature of ``D_alpha beta = ad*_{r alpha}
beta`` (covered by tests).
"""

from __future__ import annotations

import itertools

import numpy as np

from . import exprlang
from .geometry import Scene
from .poisson import _perm_sign
from .record import Record

__all__ = [
    "LieAlgebraPresentation", "RMatrix", "ValidationReport",
    "su2", "sl2", "validate", "linear_poisson_scene",
    "dual_curvature_closed_form", "cybe_defect", "qg_divergence",
    "qg_curvature", "koszul_left_invariant", "coadjoint",
]


class LieAlgebraPresentation(Record):
    """Structure constants ``c[i, j, k] = C^i_{jk}`` (antisymmetric in
    ``j, k``), an ad-invariant nondegenerate metric ``b[i, j]``, and basis
    names."""

    dim: int
    structure_constants: np.ndarray
    metric: np.ndarray
    basis: tuple[str, ...]

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """[x, y]^i = C^i_{jk} x^j y^k for coefficient vectors."""
        return np.einsum("ijk,j,k->i", self.structure_constants, x, y)


class RMatrix(Record):
    """An antisymmetric ``r[i, j]`` in the second exterior power of the
    algebra."""

    components: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.components, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("r-matrix must be square")
        if np.max(np.abs(r + r.T)) != 0.0:
            raise ValueError("r-matrix must be exactly antisymmetric")
        object.__setattr__(self, "components", r)


class ValidationReport(Record):
    max_jacobi_defect: float
    max_invariance_defect: float
    max_antisymmetry_defect: float

    @property
    def ok(self) -> bool:
        return (self.max_jacobi_defect <= 1e-12
                and self.max_invariance_defect <= 1e-12
                and self.max_antisymmetry_defect == 0.0)


def su2() -> LieAlgebraPresentation:
    """su(2): C^i_{jk} = eps_{ijk}, B the identity."""
    c = np.zeros((3, 3, 3))
    for i, j, k in itertools.permutations(range(3)):
        c[i, j, k] = _perm_sign((i, j, k))
    return LieAlgebraPresentation(3, c, np.eye(3), ("e1", "e2", "e3"))


def sl2() -> LieAlgebraPresentation:
    """sl(2) in the (H, E, F) basis: [H,E] = 2E, [H,F] = -2F, [E,F] = H;
    B is the Killing form divided by 4."""
    c = np.zeros((3, 3, 3))
    c[1, 0, 1], c[1, 1, 0] = 2.0, -2.0
    c[2, 0, 2], c[2, 2, 0] = -2.0, 2.0
    c[0, 1, 2], c[0, 2, 1] = 1.0, -1.0
    b = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    return LieAlgebraPresentation(3, c, b, ("H", "E", "F"))


def validate(pres: LieAlgebraPresentation) -> ValidationReport:
    """Diagnostics: max Jacobi defect of C, max ad-invariance defect of B,
    and the antisymmetry defect of C in its lower indices."""
    c, b = pres.structure_constants, pres.metric
    jac = (np.einsum("ajk,ial->ijkl", c, c)
           + np.einsum("akl,iaj->ijkl", c, c)
           + np.einsum("alj,iak->ijkl", c, c))
    # B([X,Y],Z) + B(Y,[X,Z]) in the basis
    inv = (np.einsum("aij,ak->ijk", c, b)
           + np.einsum("aik,ja->ijk", c, b))
    anti = c + c.swapaxes(1, 2)
    return ValidationReport(float(np.max(np.abs(jac))),
                            float(np.max(np.abs(inv))),
                            float(np.max(np.abs(anti))))


def linear_poisson_scene(pres: LieAlgebraPresentation, box,
                         exclude=None) -> Scene:
    """The dual chart: coordinates x1..xn, constant metric B, and the
    linear bivector pi^{ij} = C^{ij}_k x^k (indices moved with B)."""
    n = pres.dim
    coords = tuple(f"x{k + 1}" for k in range(n))
    binv = np.linalg.inv(pres.metric)
    c_upup = np.einsum("ia,jb,kc,cab->ijk", binv, binv, pres.metric,
                       pres.structure_constants)
    xs = [exprlang.Coord(name, k) for k, name in enumerate(coords)]
    metric = tuple(tuple(exprlang.Num(float(pres.metric[i, j]))
                         for j in range(n)) for i in range(n))
    poisson = tuple(tuple(exprlang.linear(c_upup[i, j], xs) for j in range(n))
                    for i in range(n))
    return Scene(coords=coords, params={}, metric=metric, poisson=poisson,
                 box=tuple((float(lo), float(hi)) for lo, hi in box),
                 exclude=exclude, name=f"dual-of-{'-'.join(pres.basis)}")


def _identify(pres: LieAlgebraPresentation, covector: np.ndarray) -> np.ndarray:
    """Raise a constant 1-form to an algebra element with B."""
    return np.linalg.inv(pres.metric) @ np.asarray(covector, dtype=float)


def dual_curvature_closed_form(pres: LieAlgebraPresentation, alpha, beta,
                               gamma) -> np.ndarray:
    """K(alpha, beta) gamma = -(1/4) [[alpha, beta], gamma] for constant
    co-frames on the dual chart, returned as a covector (lowered with B)."""
    a, b, g = (_identify(pres, v) for v in (alpha, beta, gamma))
    vec = -0.25 * pres.bracket(pres.bracket(a, b), g)
    return pres.metric @ vec


def cybe_defect(pres: LieAlgebraPresentation, r: RMatrix) -> np.ndarray:
    """The algebraic Schouten square

        [r, r]^{ijk} = C^i_{ab} r^{aj} r^{bk} + C^j_{ab} r^{ak} r^{bi}
                       + C^k_{ab} r^{ai} r^{bj},

    returned exactly totally antisymmetric (values for i < j < k are
    computed once and propagated by permutation sign).  Zero iff r solves
    the classical Yang-Baxter equation.
    """
    c, rm = pres.structure_constants, r.components
    t = np.einsum("iab,aj,bk->ijk", c, rm, rm)
    cyc = t + t.transpose(1, 2, 0) + t.transpose(2, 0, 1)
    i, j, k = np.ogrid[:pres.dim, :pres.dim, :pres.dim]
    upper = np.where((i < j) & (j < k), cyc, 0.0)
    # each entry gets its one nonzero term, so the signs are exact
    return sum(_perm_sign(p) * upper.transpose(p)
               for p in itertools.permutations(range(3)))


def qg_divergence(pres: LieAlgebraPresentation, r: RMatrix) -> np.ndarray:
    """-(1/2) r^{jk} C^i_{jk}: the left-invariant part of the bivector
    divergence on the group; must vanish for integration to deform."""
    return -0.5 * np.einsum("jk,ijk->i", r.components, pres.structure_constants)


def coadjoint(pres: LieAlgebraPresentation, x: np.ndarray,
              covector: np.ndarray) -> np.ndarray:
    """(ad*_x gamma)_l = -C^c_{al} x^a gamma_c."""
    return -np.einsum("cal,a,c->l", pres.structure_constants, x, covector)


def qg_curvature(pres: LieAlgebraPresentation, r: RMatrix, alpha, beta,
                 gamma) -> np.ndarray:
    """Curvature of the connection on left-invariant 1-forms: the
    coadjoint action of [r, r](alpha, beta) on gamma."""
    s = cybe_defect(pres, r)
    x = np.einsum("ijk,i,j->k", s, np.asarray(alpha, float),
                  np.asarray(beta, float))
    return coadjoint(pres, x, np.asarray(gamma, float))


def koszul_left_invariant(pres: LieAlgebraPresentation, r: RMatrix, alpha,
                          beta) -> np.ndarray:
    """[alpha, beta]_pi = ad*_{r alpha} beta - ad*_{r beta} alpha on
    left-invariant 1-forms."""
    alpha = np.asarray(alpha, float)
    beta = np.asarray(beta, float)
    ra = np.einsum("ij,i->j", r.components, alpha)
    rb = np.einsum("ij,i->j", r.components, beta)
    return coadjoint(pres, ra, beta) - coadjoint(pres, rb, alpha)
