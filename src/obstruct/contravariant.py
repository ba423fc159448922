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
A lone point's layers and defect tensors are rows of the padded block
``[p, p]``, which einsum rounds like any larger block and unlike a bare
point (see README, "Determinism and parallelism").
"""

from __future__ import annotations

import warnings
from functools import cached_property

import numpy as np

from . import exprlang, geometry, poisson
from .geometry import Christoffels, PointEvaluation, Scene
from .poisson import DegeneratePoissonError, OneFormField
from .record import Record

__all__ = [
    "ATensor", "CurvatureK", "Frame",
    "a_tensor", "apply_connection", "koszul_oracle_connection",
    "torsion_defect", "metric_compat_defect",
    "curvature_explicit", "curvature_definitional",
    "gprime", "gprime_riemann",
    "perturbation_from_oneform", "linearized_defect", "alpha_defect",
    "lie_perturbation_field",
]


class ATensor(Record):
    """Correction tensor A^{ij}_k and its covariant derivative
    ``derivative[i, j, k, a] = nabla_a A^{ij}_k``."""

    components: np.ndarray
    derivative: np.ndarray


class CurvatureK(Record):
    """Curvature K^{ijk}_l of the metric contravariant connection: the
    first two indices are the 1-form slots, the last two the action on
    co-vectors, ``(K(sigma, rho) v)_l = K^{ijk}_l sigma_i rho_j v_k``."""

    components: np.ndarray


# the layers that can fail, in the order Frame.at builds them, which fixes
# which error a point that fails in several layers reports
_LAYERS = ("metric_eval", "pi_eval", "inverse")

FLAT_TOL = 1e-6  # the |K| above which linearized_defect warns


def _rows(x, key):
    """Rows ``key`` of a block's array, or of each in a tuple or record."""
    if x is None or isinstance(x, np.ndarray):
        return x if x is None else x[key]
    if isinstance(x, tuple):
        return tuple(_rows(v, key) for v in x)
    return type(x)(*(_rows(v, key) for v in vars(x).values()))


class _layer(cached_property):
    """A frame layer, computed on first use and kept; a lone point's frame
    keeps its rows of the same layer of its padded block."""

    def __get__(self, frame, owner=None):
        if frame is not None and frame._pair is not None:
            frame.__dict__[self.attrname] = frame.rows(
                getattr(frame.block, self.attrname))
        return super().__get__(frame, owner)


class Frame:
    """Everything the obstruction tensors need at one chart point, or at a
    block of points: ``point`` has shape ``(..., n)`` and every array
    carries the same leading axes.

    Each layer is computed on first use and kept, on :attr:`block`: the
    frame itself for a block, the padded block ``[p, p]`` for a lone point
    (1-D or a 1-row block), whose frame keeps its rows.  :meth:`at` builds
    the layers that can fail (both fields and the metric inverse), so a
    frame from it fails wherever one of its points fails alone; the rest
    are built for the checks that need them.  The metric layer takes pi
    from the same run of the scene's compiled program; pi asked for first
    evaluates pi alone.
    """

    def __init__(self, scene: Scene, point):
        self.scene = scene
        self.point = geometry._checked(scene, point)
        self._pair = None
        if self.point.shape[:-1] in ((), (1,)):
            self._key = 0 if self.point.ndim == 1 else slice(0, 1)
            row = self.point.reshape(1, -1)
            self._pair = Frame(scene, np.concatenate([row, row]))

    @property
    def block(self) -> "Frame":
        # a property, not an attribute: a block frame referring to itself
        # would be a reference cycle that only the cyclic GC frees
        return self if self._pair is None else self._pair

    def rows(self, x):
        """``x``, computed on :attr:`block`, cut to this frame's rows."""
        return x if self._pair is None else _rows(x, self._key)

    @classmethod
    def at(cls, scene: Scene, point) -> "Frame":
        frame = cls(scene, point)
        for layer in _LAYERS:
            getattr(frame.block, layer)
        return frame

    @_layer
    def metric_eval(self) -> PointEvaluation:
        metric, pi = geometry.eval_fields(self.scene, self.point)
        self.__dict__.setdefault("pi_eval", pi)
        return metric

    @_layer
    def pi_eval(self) -> PointEvaluation:
        return geometry.eval_field(self.scene, "poisson", self.point)

    @_layer
    def inverse(self) -> PointEvaluation:
        return PointEvaluation(*geometry.inverse_with_partials(self.g, self.dg, None))

    @_layer
    def d2ginv(self) -> np.ndarray:
        """Second partials of g^-1, from the inverse already built."""
        return geometry.inverse_second_partials(self.ginv, self.dginv,
                                                self.dg, self.d2g)

    @_layer
    def christoffels(self) -> Christoffels:
        return geometry.christoffels(self.metric_eval, self.inverse)

    @_layer
    def riemann(self) -> np.ndarray:
        return geometry.riemann_from_christoffels(self.christoffels)

    @_layer
    def nabla_pi_eval(self) -> PointEvaluation:
        """N[i, j, k] = nabla_k pi^{ij} with d_l N as ``d1``."""
        return geometry.covariant_derivative(self.pi_eval, self.christoffels, "uu")

    @_layer
    def a_eval(self) -> PointEvaluation:
        """A[i, j, k] = A^{ij}_k with d_l A as ``d1``."""
        return _a_with_partials(self.metric_eval, self.inverse, self.nabla_pi_eval)

    @_layer
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
    ginv = property(lambda self: self.inverse.components)
    dginv = property(lambda self: self.inverse.d1)
    nabla_pi = property(lambda self: self.nabla_pi_eval.components)
    dnabla_pi = property(lambda self: self.nabla_pi_eval.d1)
    a = property(lambda self: self.a_eval.components)
    da = property(lambda self: self.a_eval.d1)

    # co-frame image W[i, j, k] = (D^i dx^j)_k, shared by torsion and the
    # definitional curvature route; ``a`` replaces A
    def coframe_connection(self, a: np.ndarray | None = None) -> np.ndarray:
        return (-np.einsum("...ia,...jak->...ijk", self.pi, self.christoffels.gamma)
                + (self.a if a is None else a))


def _a_with_partials(g_eval, ginv_eval, n_eval) -> PointEvaluation:
    # P[i, j, a] = g^{ib} nabla_b pi^{ja}; the two g-g^-1 terms of A are
    # g_{ka} P[i, j, a] and the same with i and j exchanged
    p = geometry.contract("ib,jab->ija", ginv_eval, n_eval)
    t = geometry.contract("ka,ija->ijk", g_eval, p)
    return PointEvaluation(
        0.5 * (n_eval.components - t.components - t.components.swapaxes(-3, -2)),
        0.5 * (n_eval.d1 - t.d1 - t.d1.swapaxes(-4, -3)), None)


def _frame(scene: Scene, point, frame: Frame | None) -> Frame:
    return frame if frame is not None else Frame.at(scene, point)


def _block(scene: Scene, point, frame: Frame | None):
    """The block frame a defect tensor is computed on, and how to read the
    frame's rows off the result."""
    f = _frame(scene, point, frame)
    return f.block, f.rows


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
    nabla_sigma = geometry.covariant_derivative(sv, f.christoffels, "d").components
    return (np.einsum("ia,ka->ik", f.pi, nabla_sigma)
            + np.einsum("ijk,j->ik", f.a, sv.components))


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
    f, row = _block(scene, point, frame)
    w = f.coframe_connection(a)
    return row(w - w.swapaxes(-3, -2) - f.dpi)


def metric_compat_defect(scene: Scene, point, frame: Frame | None = None,
                         a: np.ndarray | None = None) -> np.ndarray:
    """(D^i g)^{jk}: the contravariant derivative of the inverse metric
    under the induced connection on 2-tensors; zero when compatible."""
    f, row = _block(scene, point, frame)
    a = f.a if a is None else a
    gamma = f.christoffels.gamma
    nabla_ginv = (f.dginv
                  + np.einsum("...jab,...bk->...jka", gamma, f.ginv)
                  + np.einsum("...kab,...jb->...jka", gamma, f.ginv))
    return row(np.einsum("...ia,...jka->...ijk", f.pi, nabla_ginv)
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
    f, row = _block(scene, point, frame)
    k = (np.einsum("...ja,...ib,...klab->...ijkl", f.pi, f.pi, f.riemann)
         - np.einsum("...ja,...ikla->...ijkl", f.pi, f.nabla_a)
         + np.einsum("...ia,...jkla->...ijkl", f.pi, f.nabla_a)
         - np.einsum("...jal,...ika->...ijkl", f.a, f.a)
         + np.einsum("...ial,...jka->...ijkl", f.a, f.a)
         + np.einsum("...jia,...akl->...ijkl", f.nabla_pi, f.a))
    return CurvatureK(row(k))


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


def omega_with_partials(f: Frame):
    """omega = -pi^-1 with first and second partials; raises
    :class:`DegeneratePoissonError` where pi has rank < n (decided by
    :func:`~obstruct.poisson.pi_full_rank`, as the SVD would)."""
    full, inv = poisson.pi_full_rank(f.pi)
    if not full.all():
        raise DegeneratePoissonError(
            f"poisson structure degenerate at {f.point[~full][0].tolist()}", full)
    inv, dinv, d2inv = geometry.inverse_with_partials(f.pi, f.dpi, f.d2pi, inv)
    return PointEvaluation(-inv, -dinv, -d2inv)


def gprime(scene: Scene, point, frame: Frame | None = None) -> np.ndarray:
    """The flat-candidate metric g'_{jk} = omega_{ja} omega_{kb} g^{ab};
    symmetric, with the same signature as g.  Requires invertible pi."""
    f, row = _block(scene, point, frame)
    return row(gprime_eval(f).components)


def gprime_eval(f: Frame) -> PointEvaluation:
    """g' with first and second partials, ready for curvature."""
    o = omega_with_partials(f)
    ginv = PointEvaluation(f.ginv, f.dginv, f.d2ginv)
    # g' = U o^T with U[j, b] = omega_{ja} g^{ab}
    u = geometry.contract("ja,ab->jb", o, ginv, order=2)
    return geometry.contract("jb,kb->jk", u, o, order=2)


def gprime_riemann(scene: Scene, point, frame: Frame | None = None) -> np.ndarray:
    """Riemann tensor of g'; must vanish wherever K does (symplectic case)."""
    f, row = _block(scene, point, frame)
    return row(geometry.riemann(gprime_eval(f)))


# -- perturbations ------------------------------------------------------------


def perturbation_from_oneform(scene: Scene, alpha: OneFormField, point,
                              frame: Frame | None = None) -> np.ndarray:
    """Symmetrized contravariant derivative h^{ij} = D^i a^j + D^j a^i of
    the metrically raised 1-form: the flatness-preserving perturbations
    generated by 1-forms."""
    f = _frame(scene, point, frame)
    sv = alpha.evaluate(scene, f.point)
    raised = geometry.contract("ja,a->j", f.inverse, sv)
    nabla_v = geometry.covariant_derivative(raised, f.christoffels, "u").components
    dv = (np.einsum("ib,jb->ij", f.pi, nabla_v)
          - np.einsum("ijc,c->ij", f.a, raised.components))
    return dv + dv.T


def linearized_defect(scene: Scene, h, point, frame: Frame | None = None) -> np.ndarray:
    """Residual of the linearized flatness equation

        D^j D^l h^{ik} + D^i D^k h^{jl} - D^k D^l h^{ij} - D^i D^j h^{kl}

    for a symmetric contravariant 2-tensor field ``h`` of expressions.
    The base connection is assumed flat (D-order then being immaterial);
    if |K| > FLAT_TOL, a warning is emitted and the residual still computed.
    """
    f = _frame(scene, point, frame)
    k_max = float(np.max(np.abs(curvature_explicit(scene, point, frame=f).components)))
    if k_max > FLAT_TOL:
        warnings.warn(
            f"base connection is not flat at {f.point.tolist()} "
            f"(|K| = {k_max:.3g}); linearized defect is heuristic there",
            stacklevel=2)
    h_eval = geometry.eval_field(scene, h, f.point)
    nh = geometry.covariant_derivative(h_eval, f.christoffels, "uu")
    # U^{lik} = D^l h^{ik} with its partials
    pn = geometry.contract("la,ika->lik", f.pi_eval, nh)
    ah = geometry.contract("lib,bk->lik", f.a_eval, h_eval)
    ha = geometry.contract("lkb,ib->lik", f.a_eval, h_eval)
    u_eval = PointEvaluation(pn.components - ah.components - ha.components,
                             pn.d1 - ah.d1 - ha.d1)
    u = u_eval.components
    nabla_u = geometry.covariant_derivative(u_eval, f.christoffels, "uuu").components
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
    # D^k a_k = pi^{kj} nabla_j a_k + A^{kj}_k a_j; grad is its gradient
    ns = geometry.covariant_derivative(sv, f.christoffels, "d")
    trace_a = PointEvaluation(np.einsum("kjk->j", f.a), np.einsum("kjkm->jm", f.da))
    grad = (geometry.contract("kj,kj->", f.pi_eval, ns).d1
            + geometry.contract("j,j->", trace_a, sv).d1)
    return np.einsum("ij,i->j", f.pi, grad)


# -- expression-level perturbation builder -------------------------------------


def lie_perturbation_field(scene: Scene, alpha: OneFormField):
    """The perturbation h^{ij} = D^i a^j + D^j a^i as an expression field.

    Only valid on scenes with constant metric and Poisson coefficients
    (flat chart, A = 0, D^i = pi^{ia} d_a), where the connection applies
    to component expressions by exact symbolic differentiation.  The
    result can be fed to :func:`linearized_defect` and agrees pointwise
    with :func:`perturbation_from_oneform`.
    """
    n = scene.dimension
    entries = scene.program("entries")
    if not all(entries.constant[k] for k in entries.outputs):
        raise ValueError(
            "lie_perturbation_field needs constant metric and "
            "poisson coefficients")
    center = np.array([(lo + hi) / 2.0 for lo, hi in scene.box])
    g, pi = scene.entry_values(center)
    ginv = np.linalg.inv(g)
    raised = [exprlang.linear(ginv[j], alpha.components) for j in range(n)]
    d_raised = [[exprlang.differentiate(raised[j], a_idx) for a_idx in range(n)]
                for j in range(n)]
    d = [[exprlang.linear(pi[i], d_raised[j]) for j in range(n)] for i in range(n)]
    return tuple(tuple(exprlang.BinOp("+", d[i][j], d[j][i]) for j in range(n))
                 for i in range(n))
