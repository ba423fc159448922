"""The metric contravariant connection and its obstruction tensors.

A contravariant connection differentiates along 1-forms (through the sharp
map) instead of vectors.  Given a metric and a Poisson bivector there is a
unique torsion-free metric-compatible one, built from the Levi-Civita
connection by a correction tensor

    A^{ij}_k = (1/2) (nabla_k pi^{ij}
                      - g_{ka} g^{ib} nabla_b pi^{ja}
                      - g_{ka} g^{jb} nabla_b pi^{ia}),

acting on 1-forms as  D^i sigma_k = pi^{ij} nabla_j sigma_k + A^{ij}_k sigma_j.
Its curvature K is the obstruction to deforming the metric structure; it
is computed along two independent routes (a closed formula in pi, A, and
the Riemann tensor, and the definitional commutator on the coordinate
co-frame) that must agree.  In the symplectic case flatness of K forces
flatness of the companion metric g'_{jk} = omega_{ja} omega_{kb} g^{ab}.

All raising and lowering uses the scene metric; omega is fixed by
``pi^{ai} omega_{aj} = delta^i_j``.  Everything here is a pure function of
(scene, point); a :class:`Frame` keeps the shared arrays, at one point or
at a block of points, so a batch of checks evaluates each field only once.
The defect tensors accept a frame of either kind; the oracles, the
perturbations and :func:`curvature_definitional` take one point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import exprlang, geometry, poisson
from .exprlang import Expr
from .geometry import Christoffels, PointEvaluation, Scene
from .poisson import DegeneratePoissonError, OneFormField

__all__ = [
    "ATensor", "CurvatureK", "Frame",
    "a_tensor", "apply_connection", "koszul_oracle_connection",
    "torsion_defect", "metric_compat_defect",
    "curvature_explicit", "curvature_definitional",
    "gprime", "gprime_riemann",
    "perturbation_from_oneform", "linearized_defect", "alpha_defect",
    "lie_perturbation_field",
]


@dataclass(frozen=True)
class ATensor:
    """Correction tensor A^{ij}_k and its covariant derivative
    ``derivative[i, j, k, a] = nabla_a A^{ij}_k``."""

    components: np.ndarray
    derivative: np.ndarray


@dataclass(frozen=True)
class CurvatureK:
    """Curvature K^{ijk}_l of the metric contravariant connection: the
    first two indices are the 1-form slots, the last two the action on
    co-vectors, ``(K(sigma, rho) v)_l = K^{ijk}_l sigma_i rho_j v_k``."""

    components: np.ndarray


# layers in the order Frame.at builds them, which fixes which error a
# point that fails in several layers reports
_LAYERS = ("metric_eval", "pi_eval", "inverse", "christoffels", "riemann",
           "nabla_pi_eval", "a_eval", "nabla_a")


class Frame:
    """Everything the obstruction tensors need at one chart point, or at a
    block of points: ``point`` has shape ``(..., n)`` and every array
    carries the same leading axes.

    Each layer is computed on first use and kept.  :meth:`at` builds all
    of them; the grid sweep constructs a frame directly, so a block builds
    only the layers its checks need.
    """

    def __init__(self, scene: Scene, point):
        self.scene = scene
        self.point = np.asarray(point, dtype=float)

    @classmethod
    def at(cls, scene: Scene, point) -> "Frame":
        frame = cls(scene, point)
        for layer in _LAYERS:
            getattr(frame, layer)
        return frame

    @cached_property
    def metric_eval(self) -> PointEvaluation:
        return geometry.eval_field(self.scene, "metric", self.point)

    @cached_property
    def pi_eval(self) -> PointEvaluation:
        return geometry.eval_field(self.scene, "poisson", self.point)

    @cached_property
    def inverse(self) -> tuple[np.ndarray, np.ndarray]:
        return geometry.inverse_with_partials(self.g, self.dg, None)[:2]

    @cached_property
    def christoffels(self) -> Christoffels:
        return geometry.christoffels(self.metric_eval, self.inverse)

    @cached_property
    def riemann(self) -> np.ndarray:
        return geometry.riemann_from_christoffels(self.christoffels)

    @cached_property
    def nabla_pi_eval(self) -> PointEvaluation:
        """N[i, j, k] = nabla_k pi^{ij} with d_l N as ``d1``."""
        return geometry.covariant_derivative(self.pi_eval, self.christoffels, "uu")

    @cached_property
    def a_eval(self) -> PointEvaluation:
        """A[i, j, k] = A^{ij}_k with d_l A as ``d1``."""
        return PointEvaluation(*_a_with_partials(
            self.g, self.dg, self.ginv, self.dginv, self.nabla_pi, self.dnabla_pi))

    @cached_property
    def nabla_a(self) -> np.ndarray:
        """nabla_a A^{ij}_k as [i, j, k, a]."""
        return geometry.covariant_derivative(self.a_eval, self.christoffels,
                                             "uud").components

    g = property(lambda self: self.metric_eval.components)
    dg = property(lambda self: self.metric_eval.d1)
    d2g = property(lambda self: self.metric_eval.d2)
    pi = property(lambda self: self.pi_eval.components)
    dpi = property(lambda self: self.pi_eval.d1)
    d2pi = property(lambda self: self.pi_eval.d2)
    ginv = property(lambda self: self.inverse[0])
    dginv = property(lambda self: self.inverse[1])
    nabla_pi = property(lambda self: self.nabla_pi_eval.components)
    dnabla_pi = property(lambda self: self.nabla_pi_eval.d1)
    a = property(lambda self: self.a_eval.components)
    da = property(lambda self: self.a_eval.d1)

    # co-frame image W[i, j, k] = (D^i dx^j)_k, shared by torsion and the
    # definitional curvature route
    def coframe_connection(self) -> np.ndarray:
        return (-np.einsum("...ia,...jak->...ijk", self.pi, self.christoffels.gamma)
                + self.a)


def _a_with_partials(g, dg, ginv, dginv, n_arr, dn_arr):
    # P[i, j, a] = g^{ib} nabla_b pi^{ja}; the two g-g^-1 terms of A are
    # g_{ka} P[i, j, a] and the same with i and j exchanged
    p = np.einsum("...ib,...jab->...ija", ginv, n_arr)
    dp = (np.einsum("...ibl,...jab->...ijal", dginv, n_arr)
          + np.einsum("...ib,...jabl->...ijal", ginv, dn_arr))
    t = np.einsum("...ka,...ija->...ijk", g, p)
    dt = (np.einsum("...kal,...ija->...ijkl", dg, p)
          + np.einsum("...ka,...ijal->...ijkl", g, dp))
    a = 0.5 * (n_arr - t - t.swapaxes(-3, -2))
    da = 0.5 * (dn_arr - dt - dt.swapaxes(-4, -3))
    return a, da


def _frame(scene: Scene, point, frame: Frame | None) -> Frame:
    return frame if frame is not None else Frame.at(scene, point)


# -- connection --------------------------------------------------------------


def a_tensor(scene: Scene, point, frame: Frame | None = None) -> ATensor:
    """The correction turning nabla_# into the metric contravariant
    connection, with its covariant derivative (needed by the curvature)."""
    f = _frame(scene, point, frame)
    return ATensor(f.a, f.nabla_a)


def apply_connection(scene: Scene, sigma: OneFormField, point,
                     frame: Frame | None = None) -> np.ndarray:
    """(D^i sigma)_k as an (n, n) matrix indexed [i, k]."""
    f = _frame(scene, point, frame)
    sv = sigma.evaluate(scene, f.point)
    return _apply_to_form(f, sv.components, sv.d1)


def _apply_to_form(f: Frame, sv, dsv) -> np.ndarray:
    nabla_sigma = dsv.swapaxes(0, 1) - np.einsum("cak,c->ak", f.christoffels.gamma, sv)
    return (np.einsum("ia,ak->ik", f.pi, nabla_sigma)
            + np.einsum("ijk,j->ik", f.a, sv))


def koszul_oracle_connection(scene: Scene, alpha: OneFormField,
                             beta: OneFormField, gamma_form: OneFormField,
                             point, frame: Frame | None = None) -> float:
    """<D_alpha beta, gamma> by the six-term analogue of the Koszul
    formula, evaluated literally: three directional derivatives of metric
    pairings by sharped forms and three Koszul brackets.  Independent
    route used to pin down :func:`apply_connection`."""
    f = _frame(scene, point, frame)
    ev = {name: form.evaluate(scene, f.point)
          for name, form in (("a", alpha), ("b", beta), ("c", gamma_form))}

    def pairing_derivative(x: PointEvaluation, y: PointEvaluation) -> np.ndarray:
        # d_m <x, y> for the contravariant metric pairing
        return (np.einsum("ijm,i,j->m", f.dginv, x.components, y.components)
                + np.einsum("ij,im,j->m", f.ginv, x.d1, y.components)
                + np.einsum("ij,i,jm->m", f.ginv, x.components, y.d1))

    def sharp_deriv(x: PointEvaluation, y: PointEvaluation, z: PointEvaluation) -> float:
        # (#x) <y, z>
        xs = poisson.sharp_from(f.pi, x.components)
        return float(xs @ pairing_derivative(y, z))

    def pairing(vec: np.ndarray, y: PointEvaluation) -> float:
        return float(np.einsum("ij,i,j->", f.ginv, vec, y.components))

    ka = poisson.koszul_from(f.pi, f.dpi, ev["c"], ev["a"])   # [gamma, alpha]
    kb = poisson.koszul_from(f.pi, f.dpi, ev["b"], ev["c"])   # [beta, gamma]
    kc = poisson.koszul_from(f.pi, f.dpi, ev["a"], ev["b"])   # [alpha, beta]
    return 0.5 * (
        sharp_deriv(ev["a"], ev["b"], ev["c"])
        - sharp_deriv(ev["c"], ev["a"], ev["b"])
        + sharp_deriv(ev["b"], ev["c"], ev["a"])
        + pairing(ka, ev["b"])
        - pairing(kb, ev["a"])
        + pairing(kc, ev["c"])
    )


# -- defect tensors ----------------------------------------------------------


def torsion_defect(scene: Scene, point, frame: Frame | None = None,
                   a: np.ndarray | None = None) -> np.ndarray:
    """T^{ij}_k on the coordinate co-frame; zero for the metric
    contravariant connection.  Pass ``a=0`` arrays to probe the plain
    sharp-composed connection instead (its torsion is -nabla pi)."""
    f = _frame(scene, point, frame)
    a = f.a if a is None else a
    w = (-np.einsum("...ia,...jak->...ijk", f.pi, f.christoffels.gamma) + a)
    return w - w.swapaxes(-3, -2) - f.dpi


def metric_compat_defect(scene: Scene, point, frame: Frame | None = None,
                         a: np.ndarray | None = None) -> np.ndarray:
    """(D^i g)^{jk}: the contravariant derivative of the inverse metric
    under the induced connection on 2-tensors; zero when compatible."""
    f = _frame(scene, point, frame)
    a = f.a if a is None else a
    gamma = f.christoffels.gamma
    nabla_ginv = (f.dginv
                  + np.einsum("...jab,...bk->...jka", gamma, f.ginv)
                  + np.einsum("...kab,...jb->...jka", gamma, f.ginv))
    return (np.einsum("...ia,...jka->...ijk", f.pi, nabla_ginv)
            - np.einsum("...ijb,...bk->...ijk", a, f.ginv)
            - np.einsum("...ikb,...jb->...ijk", a, f.ginv))


def curvature_explicit(scene: Scene, point, frame: Frame | None = None) -> CurvatureK:
    """K^{ijk}_l from the closed formula in pi, A, nabla A, and the
    Riemann tensor.

    Every term is antisymmetric in (i, j), so the only free convention is
    the orientation of those slots; it is fixed here so the contraction
    (K(sigma, rho) v)_l = K^{ijk}_l sigma_i rho_j v_k agrees with the
    definitional commutator route (and hence with the closed-form
    -(1/4)[[alpha, beta], gamma] on linear-bivector charts).
    """
    f = _frame(scene, point, frame)
    k = (np.einsum("...ja,...ib,...klab->...ijkl", f.pi, f.pi, f.riemann)
         - np.einsum("...ja,...ikla->...ijkl", f.pi, f.nabla_a)
         + np.einsum("...ia,...jkla->...ijkl", f.pi, f.nabla_a)
         - np.einsum("...jal,...ika->...ijkl", f.a, f.a)
         + np.einsum("...ial,...jka->...ijkl", f.a, f.a)
         + np.einsum("...jia,...akl->...ijkl", f.nabla_pi, f.a))
    return CurvatureK(k)


def curvature_definitional(scene: Scene, point, frame: Frame | None = None) -> CurvatureK:
    """K^{ijk}_l from the definitional commutator
    D_sigma D_rho - D_rho D_sigma - D_{[sigma,rho]_pi} on the coordinate
    co-frame, with the outer application differentiating the inner
    connection output as a field.  Independent oracle for
    :func:`curvature_explicit`."""
    f = _frame(scene, point, frame)
    gamma, dgamma = f.christoffels.gamma, f.christoffels.d1
    w = f.coframe_connection()
    dw = (-np.einsum("iaq,jak->ijkq", f.dpi, gamma)
          - np.einsum("ia,jakq->ijkq", f.pi, dgamma)
          + f.da)
    # outer application of D^i to the 1-form field w[j, k, :]
    t1 = (np.einsum("ib,jklb->ijkl", f.pi, dw)
          - np.einsum("ib,cbl,jkc->ijkl", f.pi, gamma, w)
          + np.einsum("ibl,jkb->ijkl", f.a, w))
    third = np.einsum("ijm,mkl->ijkl", f.dpi, w)
    return CurvatureK(t1 - t1.swapaxes(0, 1) - third)


# -- symplectic companion metric ----------------------------------------------


def _omega_with_partials(f: Frame, tol: float = 1e-9):
    if np.any(poisson.pi_rank_from(f.pi, tol) < f.scene.dimension):
        raise DegeneratePoissonError(
            f"poisson structure degenerate at {f.point.tolist()}")
    inv, dinv, d2inv = geometry.inverse_with_partials(f.pi, f.dpi, f.d2pi)
    return -inv, -dinv, -d2inv


def gprime(scene: Scene, point, frame: Frame | None = None) -> np.ndarray:
    """The flat-candidate metric g'_{jk} = omega_{ja} omega_{kb} g^{ab};
    symmetric, with the same signature as g.  Requires invertible pi."""
    return gprime_eval(_frame(scene, point, frame)).components


def gprime_eval(f: Frame) -> PointEvaluation:
    """g' with first and second partials, ready for curvature."""
    o, do, d2o = _omega_with_partials(f)
    ginv, dginv = f.ginv, f.dginv
    d2ginv = geometry.inverse_with_partials(f.g, f.dg, f.d2g)[2]
    # g' = U o^T with U[j, b] = omega_{ja} g^{ab}; product rule on both
    u = np.einsum("...ja,...ab->...jb", o, ginv)
    du = (np.einsum("...jal,...ab->...jbl", do, ginv)
          + np.einsum("...ja,...abl->...jbl", o, dginv))
    cross = np.einsum("...jal,...abm->...jblm", do, dginv)
    d2u = (np.einsum("...jalm,...ab->...jblm", d2o, ginv)
           + cross + cross.swapaxes(-1, -2)
           + np.einsum("...ja,...ablm->...jblm", o, d2ginv))
    g_pr = np.einsum("...jb,...kb->...jk", u, o)
    d1 = (np.einsum("...jbl,...kb->...jkl", du, o)
          + np.einsum("...jb,...kbl->...jkl", u, do))
    cross = np.einsum("...jbl,...kbm->...jklm", du, do)
    d2 = (np.einsum("...jblm,...kb->...jklm", d2u, o)
          + cross + cross.swapaxes(-1, -2)
          + np.einsum("...jb,...kblm->...jklm", u, d2o))
    return PointEvaluation(g_pr, d1, d2)


def gprime_riemann(scene: Scene, point, frame: Frame | None = None) -> np.ndarray:
    """Riemann tensor of g'; must vanish wherever K does (symplectic case)."""
    return geometry.riemann(gprime_eval(_frame(scene, point, frame)))


# -- perturbations ------------------------------------------------------------


def perturbation_from_oneform(scene: Scene, alpha: OneFormField, point,
                              frame: Frame | None = None) -> np.ndarray:
    """Symmetrized contravariant derivative h^{ij} = D^i a^j + D^j a^i of
    the metrically raised 1-form: the flatness-preserving perturbations
    generated by 1-forms."""
    f = _frame(scene, point, frame)
    sv = alpha.evaluate(scene, f.point)
    raised = np.einsum("ja,a->j", f.ginv, sv.components)
    draised = (np.einsum("jam,a->jm", f.dginv, sv.components)
               + np.einsum("ja,am->jm", f.ginv, sv.d1))
    gamma = f.christoffels.gamma
    nabla_v = draised + np.einsum("jbc,c->jb", gamma, raised)
    dv = (np.einsum("ib,jb->ij", f.pi, nabla_v)
          - np.einsum("ijc,c->ij", f.a, raised))
    return dv + dv.T


def linearized_defect(scene: Scene, h, point, frame: Frame | None = None,
                      flat_tol: float = 1e-6) -> np.ndarray:
    """Residual of the linearized flatness equation

        D^j D^l h^{ik} + D^i D^k h^{jl} - D^k D^l h^{ij} - D^i D^j h^{kl}

    for a symmetric contravariant 2-tensor field ``h`` of expressions.
    The base connection is assumed flat (D-order then being immaterial);
    if it is not, a warning is emitted and the residual still computed.
    """
    f = _frame(scene, point, frame)
    k_max = float(np.max(np.abs(curvature_explicit(scene, point, frame=f).components)))
    if k_max > flat_tol:
        warnings.warn(
            f"base connection is not flat at {f.point.tolist()} "
            f"(|K| = {k_max:.3g}); linearized defect is heuristic there",
            stacklevel=2)
    h_eval = geometry.eval_field(scene, h, f.point)
    hv, dhv = h_eval.components, h_eval.d1
    nh = geometry.covariant_derivative(h_eval, f.christoffels, "uu")
    nabla_h, dnabla_h = nh.components, nh.d1
    u = (np.einsum("la,ika->lik", f.pi, nabla_h)
         - np.einsum("lib,bk->lik", f.a, hv)
         - np.einsum("lkb,ib->lik", f.a, hv))
    du = (np.einsum("lam,ika->likm", f.dpi, nabla_h)
          + np.einsum("la,ikam->likm", f.pi, dnabla_h)
          - np.einsum("libm,bk->likm", f.da, hv)
          - np.einsum("lib,bkm->likm", f.a, dhv)
          - np.einsum("lkbm,ib->likm", f.da, hv)
          - np.einsum("lkb,ibm->likm", f.a, dhv))
    gamma = f.christoffels.gamma
    nabla_u = (du
               + np.einsum("lab,bik->lika", gamma, u)
               + np.einsum("iab,lbk->lika", gamma, u)
               + np.einsum("kab,lib->lika", gamma, u))
    v2 = (np.einsum("ja,lika->jlik", f.pi, nabla_u)
          - np.einsum("jlb,bik->jlik", f.a, u)
          - np.einsum("jib,lbk->jlik", f.a, u)
          - np.einsum("jkb,lib->jlik", f.a, u))
    return (np.transpose(v2, (2, 0, 3, 1)) + np.transpose(v2, (0, 2, 1, 3))
            - np.transpose(v2, (2, 3, 0, 1)) - v2)


def alpha_defect(scene: Scene, alpha: OneFormField, point,
                 frame: Frame | None = None) -> np.ndarray:
    """The vector #d(D^k a_k): zero iff the scalar D^k a_k is constant
    along the symplectic leaves, the admissibility condition for the
    perturbation generated by ``alpha``."""
    f = _frame(scene, point, frame)
    sv = alpha.evaluate(scene, f.point)
    s, ds, d2s = sv.components, sv.d1, sv.d2
    gamma, dgamma = f.christoffels.gamma, f.christoffels.d1
    ns = ds - np.einsum("cjk,c->kj", gamma, s)
    dns = (d2s
           - np.einsum("cjkm,c->kjm", dgamma, s)
           - np.einsum("cjk,cm->kjm", gamma, ds))
    trace_a = np.einsum("kjk->j", f.a)
    dtrace_a = np.einsum("kjkm->jm", f.da)
    grad = (np.einsum("kjm,kj->m", f.dpi, ns)
            + np.einsum("kj,kjm->m", f.pi, dns)
            + np.einsum("jm,j->m", dtrace_a, s)
            + np.einsum("j,jm->m", trace_a, ds))
    return np.einsum("ij,i->j", f.pi, grad)


# -- expression-level perturbation builder -------------------------------------


def _expr_is_constant(e: Expr) -> bool:
    if isinstance(e, (exprlang.Num, exprlang.Param)):
        return True
    if isinstance(e, exprlang.Coord):
        return False
    if isinstance(e, exprlang.Neg):
        return _expr_is_constant(e.operand)
    if isinstance(e, exprlang.BinOp):
        return _expr_is_constant(e.left) and _expr_is_constant(e.right)
    if isinstance(e, exprlang.Call):
        return _expr_is_constant(e.arg)
    raise TypeError(f"not an expression node: {e!r}")


def lie_perturbation_field(scene: Scene, alpha: OneFormField):
    """The perturbation h^{ij} = D^i a^j + D^j a^i as an expression field.

    Only valid on scenes with constant metric and Poisson coefficients
    (flat chart, A = 0, D^i = pi^{ia} d_a), where the connection applies
    to component expressions by exact symbolic differentiation.  The
    result can be fed to :func:`linearized_defect` and agrees pointwise
    with :func:`perturbation_from_oneform`.
    """
    n = scene.dimension
    for row in list(scene.metric) + list(scene.poisson):
        for e in row:
            if not _expr_is_constant(e):
                raise ValueError(
                    "lie_perturbation_field needs constant metric and "
                    "poisson coefficients")
    center = np.array([(lo + hi) / 2.0 for lo, hi in scene.box])
    g = geometry.eval_field(scene, "metric", center).components
    ginv = np.linalg.inv(g)
    pi = geometry.eval_field(scene, "poisson", center).components
    raised = []
    for j in range(n):
        term = exprlang.Num(0.0)
        for a_idx in range(n):
            c = ginv[j, a_idx]
            if c != 0.0:
                term = exprlang.BinOp(
                    "+", term,
                    exprlang.BinOp("*", exprlang.Num(float(c)),
                                   alpha.components[a_idx]))
        raised.append(term)
    d_raised = [[exprlang.differentiate(raised[j], a_idx) for a_idx in range(n)]
                for j in range(n)]

    def d_term(i: int, j: int) -> Expr:
        term = exprlang.Num(0.0)
        for a_idx in range(n):
            c = pi[i, a_idx]
            if c != 0.0:
                term = exprlang.BinOp(
                    "+", term,
                    exprlang.BinOp("*", exprlang.Num(float(c)),
                                   d_raised[j][a_idx]))
        return term

    return tuple(tuple(exprlang.BinOp("+", d_term(i, j), d_term(j, i))
                       for j in range(n)) for i in range(n))
