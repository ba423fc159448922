import dataclasses

import numpy as np
import pytest

from conftest import flat_scene, make_scene, maxabs, random_form, random_smooth_expr
from obstruct import catalog, contravariant, exprlang, geometry, liealg
from obstruct.contravariant import (Frame, a_tensor, alpha_defect,
                                    apply_connection, curvature_definitional,
                                    curvature_explicit, gprime, gprime_riemann,
                                    koszul_oracle_connection,
                                    lie_perturbation_field, linearized_defect,
                                    metric_compat_defect,
                                    perturbation_from_oneform, torsion_defect)
from obstruct.poisson import DegeneratePoissonError, OneFormField

CATALOG_SCENES = ("flat-torus", "podles-sphere", "fuzzy-sphere", "su2-dual")


def const_form(values, scene):
    return OneFormField.from_components(
        [exprlang.parse(repr(float(v)), scene.coords, list(scene.params))
         for v in values])


def su2_scene():
    return catalog.load_example("su2-dual").scene()


def eps3():
    e = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        e[i, j, k], e[j, i, k] = 1.0, -1.0
    return e


class TestATensor:
    def test_flat_scene_vanishes(self):
        at = a_tensor(flat_scene(2), [0.3, 0.4])
        assert maxabs(at.components) == 0.0
        assert maxabs(at.derivative) == 0.0

    def test_su2_dual_closed_form(self):
        # A^{ij}_k = (1/2)(C^{ij}_k - C^{jk}_i - C^{ik}_j) with indices
        # moved by the identity metric; for eps constants this is eps/2
        at = a_tensor(su2_scene(), [0.5, -0.3, 0.7])
        eps = eps3()
        oracle = 0.5 * (eps - np.einsum("jki->ijk", eps) - np.einsum("ikj->ijk", eps))
        assert maxabs(oracle - 0.5 * eps) == 0.0  # index bookkeeping collapses
        assert maxabs(at.components - 0.5 * eps) <= 1e-15

    def test_derivative_matches_finite_differences(self):
        s = catalog.load_example("fuzzy-sphere").scene()
        point = np.array([0.6, -0.8])
        at = a_tensor(s, point)
        gamma = geometry.christoffels(geometry.eval_field(s, "metric", point))
        step = 1e-5
        fd = np.zeros_like(at.derivative)
        for m, e in enumerate(np.eye(2)):
            plus = a_tensor(s, point + step * e).components
            minus = a_tensor(s, point - step * e).components
            fd[:, :, :, m] = (plus - minus) / (2 * step)
        # covariantize the plain finite-difference derivative
        a = at.components
        fd += (np.einsum("ima,ajk->ijkm", gamma.gamma, a)
               + np.einsum("jma,iak->ijkm", gamma.gamma, a)
               - np.einsum("amk,ija->ijkm", gamma.gamma, a))
        assert maxabs(at.derivative - fd) <= 1e-7


class TestApplyConnection:
    def test_constant_form_flat_torus(self):
        s = catalog.load_example("flat-torus").scene()
        out = apply_connection(s, const_form([1.0, 2.0], s), [0.1, 0.2])
        assert maxabs(out) == 0.0

    def test_su2_dual_halved_bracket(self):
        s = su2_scene()
        pres = liealg.su2()
        point = [0.2, 0.4, -0.6]
        basis = np.eye(3)
        for i in range(3):
            for j in range(3):
                out = apply_connection(s, const_form(basis[j], s), point)
                got = np.einsum("ik,i->k", out, basis[i])
                want = 0.5 * pres.bracket(basis[i], basis[j])
                assert maxabs(got - want) <= 1e-15

    def test_leibniz_rule(self):
        rng = np.random.default_rng(41)
        for name in CATALOG_SCENES:
            s = catalog.load_example(name).scene()
            sigma = random_form(rng, s)
            fexpr = random_smooth_expr(rng, s.coords, 2, params=list(s.params))
            fsigma = OneFormField.from_components(
                [exprlang.BinOp("*", fexpr, c) for c in sigma.components])
            for point in s.sample_points(rng, 3):
                f = Frame.at(s, point)
                fval = exprlang.eval_real(fexpr, point, s.params)
                df = geometry.eval_field(s, [fexpr], point).d1[0]
                # the direction slot of D^i is the co-frame dx^i, so the
                # derivative coefficient is (#dx^i)(f) = pi^{ij} d_j f
                sharp_rows_f = np.einsum("ij,j->i", f.pi, df)
                sv = sigma.evaluate(s, point).components
                lhs = apply_connection(s, fsigma, point, frame=f)
                rhs = (fval * apply_connection(s, sigma, point, frame=f)
                       + np.einsum("i,k->ik", sharp_rows_f, sv))
                assert maxabs(lhs - rhs) <= 1e-9 * max(1.0, maxabs(rhs))


class TestKoszulOracle:
    def test_flat_torus_constant_forms(self):
        s = catalog.load_example("flat-torus").scene()
        val = koszul_oracle_connection(s, const_form([1, 0], s),
                                       const_form([0, 1], s),
                                       const_form([1, 1], s), [0.4, 0.5])
        assert val == 0.0

    def test_su2_dual_invariant_pairing(self):
        s = su2_scene()
        pres = liealg.su2()
        point = [0.1, -0.2, 0.3]
        basis = np.eye(3)
        for i, j, k in ((0, 1, 2), (1, 2, 0), (0, 2, 1), (1, 1, 0)):
            got = koszul_oracle_connection(s, const_form(basis[i], s),
                                           const_form(basis[j], s),
                                           const_form(basis[k], s), point)
            want = 0.5 * float(pres.bracket(basis[i], basis[j]) @ basis[k])
            assert got == pytest.approx(want, abs=1e-14)

    def test_cross_route_agreement(self):
        rng = np.random.default_rng(42)
        for name in CATALOG_SCENES:
            s = catalog.load_example(name).scene()
            alpha, beta, gamma = (random_form(rng, s) for _ in range(3))
            for point in s.sample_points(rng, 3):
                f = Frame.at(s, point)
                lhs = koszul_oracle_connection(s, alpha, beta, gamma, point,
                                               frame=f)
                d = apply_connection(s, beta, point, frame=f)
                av = alpha.evaluate(s, point).components
                gv = gamma.evaluate(s, point).components
                rhs = float(np.einsum("i,ik,km,m->", av, d, f.ginv, gv))
                assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


class TestTorsionAndCompatibility:
    @pytest.mark.parametrize("name", CATALOG_SCENES)
    def test_metric_connection_is_torsion_free(self, name):
        rng = np.random.default_rng(43)
        s = catalog.load_example(name).scene()
        for point in s.sample_points(rng, 5):
            assert maxabs(torsion_defect(s, point)) <= 1e-9

    @pytest.mark.parametrize("name", CATALOG_SCENES)
    def test_metric_connection_is_compatible(self, name):
        rng = np.random.default_rng(44)
        s = catalog.load_example(name).scene()
        for point in s.sample_points(rng, 5):
            assert maxabs(metric_compat_defect(s, point)) <= 1e-9

    def test_sharp_connection_torsion_is_minus_nabla_pi(self):
        s = su2_scene()
        point = [0.5, 0.1, -0.4]
        f = Frame.at(s, point)
        t = torsion_defect(s, point, frame=f, a=np.zeros_like(f.a))
        assert maxabs(t + f.nabla_pi) <= 1e-15
        assert maxabs(t + eps3()) <= 1e-15

    def test_sharp_connection_still_compatible(self):
        s = su2_scene()  # nabla pi != 0 here
        point = [0.5, 0.1, -0.4]
        f = Frame.at(s, point)
        assert maxabs(metric_compat_defect(s, point, frame=f,
                                           a=np.zeros_like(f.a))) <= 1e-14

    def test_zero_bivector(self):
        s = make_scene(["x", "y"], [["1", "0"], ["0", "1"]],
                       [["0", "0"], ["0", "0"]], [(-1, 1), (-1, 1)])
        assert maxabs(torsion_defect(s, [0.1, 0.2])) == 0.0
        assert maxabs(metric_compat_defect(s, [0.1, 0.2])) == 0.0


class TestCurvature:
    def test_flat_torus_flat(self):
        s = catalog.load_example("flat-torus").scene()
        assert maxabs(curvature_explicit(s, [1.0, 2.0]).components) == 0.0
        assert maxabs(curvature_definitional(s, [1.0, 2.0]).components) == 0.0

    def test_fuzzy_sphere_obstructed(self):
        s = catalog.load_example("fuzzy-sphere").scene()
        assert maxabs(curvature_explicit(s, [0.5, 0.5]).components) > 0.01

    def test_podles_sphere_flat(self):
        rng = np.random.default_rng(45)
        s = catalog.load_example("podles-sphere").scene()
        for point in s.sample_points(rng, 5):
            assert maxabs(curvature_explicit(s, point).components) <= 1e-7

    def test_su2_dual_definitional_closed_form(self):
        s = su2_scene()
        pres = liealg.su2()
        k = curvature_definitional(s, [0.3, 0.6, -0.1]).components
        basis = np.eye(3)
        for i in range(3):
            for j in range(3):
                for m in range(3):
                    got = np.einsum("ijkl,i,j,k->l", k, basis[i], basis[j], basis[m])
                    want = liealg.dual_curvature_closed_form(
                        pres, basis[i], basis[j], basis[m])
                    assert maxabs(got - want) <= 1e-14

    @pytest.mark.parametrize("name", CATALOG_SCENES)
    def test_route_equivalence(self, name):
        rng = np.random.default_rng(46)
        s = catalog.load_example(name).scene()
        for point in s.sample_points(rng, 10):
            f = Frame.at(s, point)
            ke = curvature_explicit(s, point, frame=f).components
            kd = curvature_definitional(s, point, frame=f).components
            assert maxabs(ke - kd) <= 1e-7

    @pytest.mark.parametrize("name", CATALOG_SCENES)
    def test_riemann_type_symmetries(self, name):
        rng = np.random.default_rng(47)
        s = catalog.load_example(name).scene()
        for point in s.sample_points(rng, 5):
            f = Frame.at(s, point)
            k4 = np.einsum("ijkl,lm->ijkm",
                           curvature_explicit(s, point, frame=f).components,
                           f.ginv)
            assert maxabs(k4 + k4.transpose(1, 0, 2, 3)) <= 1e-9
            assert maxabs(k4 + k4.transpose(0, 1, 3, 2)) <= 1e-9
            assert maxabs(k4 - k4.transpose(2, 3, 0, 1)) <= 1e-9
            bianchi = (k4 + np.einsum("ikmj->ijkm", k4)
                       + np.einsum("imjk->ijkm", k4))
            assert maxabs(bianchi) <= 1e-9

    def test_quadratic_homogeneity_in_pi(self):
        rng = np.random.default_rng(48)
        for name in ("fuzzy-sphere", "su2-dual"):
            s = catalog.load_example(name).scene()
            scaled = s.scaled_poisson(2.0)
            for point in s.sample_points(rng, 3):
                k1 = curvature_explicit(s, point).components
                k2 = curvature_explicit(scaled, point).components
                assert maxabs(k2 - 4.0 * k1) <= 1e-10


class TestGPrime:
    def test_flat_torus_scaling(self):
        s = flat_scene(2, theta=2.0)
        gp = gprime(s, [0.0, 0.0])
        assert np.allclose(gp, np.eye(2) / 4.0, atol=1e-15)

    def test_podles_conformal_relation(self):
        s = catalog.load_example("podles-sphere").scene()
        point = np.array([0.8, -0.5])
        gp = gprime(s, point)
        g = geometry.eval_field(s, "metric", point).components
        h = 4.0 / (1.0 + point @ point)  # 2c/(1+u^2+v^2), c = 2
        assert maxabs(gp - g / h**2) <= 1e-14
        assert maxabs(gp - np.eye(2) / 4.0) <= 1e-14

    def test_degenerate_raises(self):
        with pytest.raises(DegeneratePoissonError):
            gprime(su2_scene(), [0.5, 0.5, 0.5])

    def test_same_signature_as_g(self):
        s = make_scene(["t", "x"], [["-1", "0"], ["0", "1"]],
                       [["0", "1 + t*t"], ["-(1 + t*t)", "0"]],
                       [(-1, 1), (-1, 1)])
        gp = gprime(s, [0.3, 0.4])
        signs = np.sign(np.linalg.eigvalsh(gp))
        assert sorted(signs.tolist()) == [-1.0, 1.0]

    def test_flat_when_curvature_vanishes(self):
        rng = np.random.default_rng(49)
        s = catalog.load_example("podles-sphere").scene()
        for point in s.sample_points(rng, 4):
            assert maxabs(gprime_riemann(s, point)) <= 1e-7

    def test_obstructed_for_fuzzy_sphere(self):
        s = catalog.load_example("fuzzy-sphere").scene()
        assert maxabs(gprime_riemann(s, [0.5, -0.5])) > 0.01


class TestPerturbations:
    def test_zero_form(self):
        s = catalog.load_example("flat-torus").scene()
        h = perturbation_from_oneform(s, const_form([0, 0], s), [1.0, 1.0])
        assert maxabs(h) == 0.0

    def test_flat_torus_exact_form_oracle(self):
        s = catalog.load_example("flat-torus").scene()
        f = exprlang.parse("sin(x1) * x2 + x1*x1", s.coords, ["theta"])
        alpha = OneFormField.differential(f, 2)
        point = np.array([0.7, 1.9])
        h = perturbation_from_oneform(s, alpha, point)
        # on the flat chart h^{ij} = pi^{ia} d_a d_j f + pi^{ja} d_a d_i f
        hess = geometry.eval_field(s, [f], point).d2[0]
        pi = geometry.eval_field(s, "poisson", point).components
        want = np.einsum("ia,aj->ij", pi, hess) + np.einsum("ja,ai->ij", pi, hess)
        assert maxabs(h - want) <= 1e-13

    def test_zero_bivector_annihilates(self):
        s = make_scene(["x", "y"], [["1", "0"], ["0", "1"]],
                       [["0", "0"], ["0", "0"]], [(-1, 1), (-1, 1)])
        alpha = OneFormField.from_components(
            [exprlang.parse("x*y", s.coords), exprlang.parse("sin(x)", s.coords)])
        assert maxabs(perturbation_from_oneform(s, alpha, [0.3, 0.4])) == 0.0

    def test_symmetric_output(self):
        rng = np.random.default_rng(50)
        s = catalog.load_example("podles-sphere").scene()
        alpha = random_form(rng, s)
        h = perturbation_from_oneform(s, alpha, s.sample_points(rng, 1)[0])
        assert maxabs(h - h.T) == 0.0


class TestLinearized:
    def test_zero_perturbation(self):
        s = catalog.load_example("flat-torus").scene()
        zero = [["0", "0"], ["0", "0"]]
        h = [[exprlang.parse(e, s.coords, ["theta"]) for e in row] for row in zero]
        assert maxabs(linearized_defect(s, h, [1.0, 2.0])) == 0.0

    def test_oneform_perturbations_preserve_flatness(self):
        rng = np.random.default_rng(51)
        s = catalog.load_example("flat-torus").scene()
        for _ in range(5):
            alpha = random_form(rng, s)
            h = lie_perturbation_field(s, alpha)
            for point in s.sample_points(rng, 3):
                assert maxabs(linearized_defect(s, h, point)) <= 1e-7

    def test_perturbation_field_matches_pointwise(self):
        rng = np.random.default_rng(52)
        s = catalog.load_example("flat-torus").scene()
        alpha = random_form(rng, s)
        h = lie_perturbation_field(s, alpha)
        for point in s.sample_points(rng, 4):
            hp = perturbation_from_oneform(s, alpha, point)
            hf = geometry.eval_field(s, h, point).components
            assert maxabs(hp - hf) <= 1e-12

    def test_zero_bivector_accepts_any_perturbation(self):
        s = make_scene(["x", "y"], [["1", "0"], ["0", "1"]],
                       [["0", "0"], ["0", "0"]], [(-1, 1), (-1, 1)])
        h = [[exprlang.parse(e, s.coords) for e in row]
             for row in (["exp(sin(x))", "x*y"], ["x*y", "cos(y)"])]
        assert maxabs(linearized_defect(s, h, [0.4, -0.7])) == 0.0

    def test_warns_on_non_flat_base(self):
        s = catalog.load_example("fuzzy-sphere").scene()
        zero = [["0", "0"], ["0", "0"]]
        h = [[exprlang.parse(e, s.coords, ["h0"]) for e in row] for row in zero]
        with pytest.warns(UserWarning, match="not flat"):
            linearized_defect(s, h, [0.5, 0.5])

    def test_field_builder_ignores_an_excluded_box_centre(self):
        rng = np.random.default_rng(53)
        s = catalog.load_example("flat-torus").scene()
        ball = exprlang.parse("0.25 - (x1 - 3.141592653589793)^2 "
                              "- (x2 - 3.141592653589793)^2", s.coords, list(s.params))
        holed = dataclasses.replace(s, exclude=ball)
        alpha = random_form(rng, s)
        h = lie_perturbation_field(holed, alpha)
        assert h == lie_perturbation_field(s, alpha)

    def test_field_builder_rejects_varying_scenes(self):
        s = catalog.load_example("podles-sphere").scene()
        with pytest.raises(ValueError):
            lie_perturbation_field(s, const_form([1.0, 0.0], s))


class TestAlphaDefect:
    def test_zero_form(self):
        s = catalog.load_example("flat-torus").scene()
        assert maxabs(alpha_defect(s, const_form([0, 0], s), [1.0, 1.0])) == 0.0

    def test_constant_components(self):
        s = catalog.load_example("flat-torus").scene()
        assert maxabs(alpha_defect(s, const_form([2.0, -1.0], s),
                                   [0.5, 0.5])) == 0.0

    def test_quadratic_form_frozen_value(self):
        # alpha = (x1)^2 dx2: D^k alpha_k = -2 theta x1, so the defect is
        # the constant vector (0, -2 theta^2); cross-checked by finite
        # differences of the connection trace below
        s = catalog.load_example("flat-torus").scene()
        alpha = OneFormField.from_components(
            [exprlang.parse("0", s.coords, ["theta"]),
             exprlang.parse("x1*x1", s.coords, ["theta"])])
        point = np.array([1.3, 2.1])
        got = alpha_defect(s, alpha, point)
        assert np.allclose(got, [0.0, -2.0], atol=1e-13)
        assert maxabs(got - _alpha_defect_fd(s, alpha, point)) <= 1e-6

    def test_quadratic_form_in_kernel_direction(self):
        # alpha = (x1)^2 dx1 pairs the derivative against pi^{11} = 0, so
        # the connection trace vanishes identically
        s = catalog.load_example("flat-torus").scene()
        alpha = OneFormField.from_components(
            [exprlang.parse("x1*x1", s.coords, ["theta"]),
             exprlang.parse("0", s.coords, ["theta"])])
        assert maxabs(alpha_defect(s, alpha, [1.3, 2.1])) == 0.0

    def test_matches_finite_difference_oracle_on_curved_scene(self):
        rng = np.random.default_rng(53)
        s = catalog.load_example("podles-sphere").scene()
        alpha = random_form(rng, s)
        for point in s.sample_points(rng, 3):
            got = alpha_defect(s, alpha, point)
            assert maxabs(got - _alpha_defect_fd(s, alpha, point)) <= 1e-5


def _alpha_defect_fd(scene, alpha, point, step=1e-5):
    """#d of the connection trace, with the gradient by central differences."""
    def trace(p):
        f = Frame.at(scene, p)
        d = apply_connection(scene, alpha, p, frame=f)
        return float(np.trace(d))

    n = scene.dimension
    grad = np.empty(n)
    for k, e in enumerate(np.eye(n)):
        grad[k] = (trace(point + step * e) - trace(point - step * e)) / (2 * step)
    pi = geometry.eval_field(scene, "poisson", point).components
    return np.einsum("ij,i->j", pi, grad)
