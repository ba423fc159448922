import dataclasses
import functools

import numpy as np
import pytest

from conftest import flat_scene, make_scene, maxabs, random_smooth_expr
from obstruct import catalog, exprlang, geometry, poisson
from obstruct.contravariant import Frame
from obstruct.geometry import (PointEvaluation, SceneValidationError,
                               christoffels, covariant_derivative, eval_field,
                               metric_inverse, riemann, volume_density)

ROUND_SPHERE = ["4 / (u*u + v*v + 1)^2", "0"], ["0", "4 / (u*u + v*v + 1)^2"]


def sphere_scene(poisson=(("0", "1"), ("-1", "0"))):
    return make_scene(["u", "v"], ROUND_SPHERE, poisson, [(-2, 2), (-2, 2)])


class TestEvalField:
    def test_flat_metric_has_no_partials(self):
        s = flat_scene(2)
        ev = eval_field(s, "metric", [0.3, -0.7])
        assert ev.components.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert maxabs(ev.d1) == 0.0 and maxabs(ev.d2) == 0.0

    def test_su2_dual_poisson(self):
        s = catalog.load_example("su2-dual").scene()
        ev = eval_field(s, "poisson", [1.0, 0.0, 0.0])
        assert ev.components[1, 2] == 1.0
        assert ev.components[2, 0] == 0.0 and ev.components[0, 1] == 0.0
        # first partials are the (constant) structure constants
        eps = np.zeros((3, 3, 3))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            eps[i, j, k] = 1.0
            eps[j, i, k] = -1.0
        assert maxabs(ev.d1 - eps) == 0.0

    def test_podles_poisson_at_origin(self):
        s = catalog.load_example("podles-sphere").scene()
        ev = eval_field(s, "poisson", [0.0, 0.0])
        assert ev.components[0, 1] == 1.0  # (c/2)(u^2+v^2+1), c = 2

    def test_antisymmetry_is_bitwise(self):
        s = catalog.load_example("fuzzy-sphere").scene()
        ev = eval_field(s, "poisson", [0.37, -1.12])
        assert maxabs(ev.components + ev.components.T) == 0.0
        assert maxabs(ev.d1 + ev.d1.transpose(1, 0, 2)) == 0.0

    def test_metric_symmetry_is_bitwise(self):
        s = sphere_scene()
        ev = eval_field(s, "metric", [0.9, 0.4])
        assert maxabs(ev.components - ev.components.T) == 0.0
        assert maxabs(ev.d2 - ev.d2.swapaxes(2, 3)) == 0.0

    def test_excluded_point_rejected(self):
        s = catalog.load_example("su2-dual").scene()
        with pytest.raises(ValueError):
            eval_field(s, "metric", [0.0, 0.0, 0.0])

    def test_custom_tensor(self):
        s = flat_scene(2)
        ev = eval_field(s, [s.metric[0][0], s.poisson[0][1]], [0.0, 0.0])
        assert ev.components.tolist() == [1.0, 1.0]


class TestMetricInverse:
    def test_identity(self):
        s = flat_scene(2)
        inv = metric_inverse(eval_field(s, "metric", [0.1, 0.2]))
        assert inv.components.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert maxabs(inv.d1) == 0.0 and maxabs(inv.d2) == 0.0

    def test_diagonal(self):
        s = make_scene(["x"], [["4"]], [["0"]], [(-1, 1)])
        g = PointEvaluation(np.array([[4.0, 0.0], [0.0, 9.0]]),
                            np.zeros((2, 2, 2)), np.zeros((2, 2, 2, 2)))
        inv = metric_inverse(g)
        assert inv.components.tolist() == [[0.25, 0.0], [0.0, 1.0 / 9.0]]

    def test_podles_at_origin(self):
        s = sphere_scene()
        inv = metric_inverse(eval_field(s, "metric", [0.0, 0.0]))
        assert np.allclose(inv.components, np.eye(2) / 4.0, atol=1e-15)

    def test_contraction_is_identity(self):
        s = sphere_scene()
        ev = eval_field(s, "metric", [0.8, -0.3])
        inv = metric_inverse(ev)
        assert np.allclose(inv.components @ ev.components, np.eye(2), atol=1e-14)

    def test_inverse_partials_match_finite_differences(self):
        s = sphere_scene()
        step = 1e-5
        inv = metric_inverse(eval_field(s, "metric", [0.8, -0.3]))
        for k, e in enumerate(np.eye(2)):
            plus = metric_inverse(eval_field(s, "metric", [0.8, -0.3] + step * e))
            minus = metric_inverse(eval_field(s, "metric", [0.8, -0.3] - step * e))
            fd = (plus.components - minus.components) / (2 * step)
            assert maxabs(inv.d1[:, :, k] - fd) < 1e-9
            fd1 = (plus.d1 - minus.d1) / (2 * step)
            assert maxabs(inv.d2[:, :, :, k] - fd1) < 1e-8


class TestVolumeDensity:
    def test_identity(self):
        s = flat_scene(2)
        vol = volume_density(eval_field(s, "metric", [0.0, 0.0]))
        assert float(vol.components) == 1.0

    def test_podles_at_origin(self):
        vol = volume_density(eval_field(sphere_scene(), "metric", [0.0, 0.0]))
        assert float(vol.components) == pytest.approx(4.0, rel=1e-14)

    def test_minkowski_uses_absolute_determinant(self):
        g = PointEvaluation(np.diag([-1.0, 1.0, 1.0, 1.0]),
                            np.zeros((4, 4, 4)), np.zeros((4, 4, 4, 4)))
        assert float(volume_density(g).components) == 1.0

    def test_first_partials(self):
        s = sphere_scene()
        point = np.array([0.6, 0.2])
        vol = volume_density(eval_field(s, "metric", point))
        step = 1e-6
        for k, e in enumerate(np.eye(2)):
            fd = (float(volume_density(eval_field(s, "metric", point + step * e)).components)
                  - float(volume_density(eval_field(s, "metric", point - step * e)).components)) / (2 * step)
            assert vol.d1[k] == pytest.approx(fd, abs=1e-7)


class TestChristoffels:
    def test_constant_metric(self):
        s = flat_scene(3)
        ch = christoffels(eval_field(s, "metric", [0.1, 0.2, 0.3]))
        assert maxabs(ch.gamma) == 0.0 and maxabs(ch.d1) == 0.0

    def test_conformal_factor_critical_point(self):
        # the round-sphere conformal factor has zero gradient at the origin
        ch = christoffels(eval_field(sphere_scene(), "metric", [0.0, 0.0]))
        assert maxabs(ch.gamma) == 0.0

    def test_one_dimensional_exponential_metric(self):
        s = make_scene(["x"], [["exp(2*x)"]], [["0"]], [(-1, 1)])
        ch = christoffels(eval_field(s, "metric", [0.4]))
        assert ch.gamma[0, 0, 0] == pytest.approx(1.0, rel=1e-14)

    def test_symmetric_in_lower_indices(self):
        ch = christoffels(eval_field(sphere_scene(), "metric", [0.7, -1.4]))
        assert maxabs(ch.gamma - ch.gamma.swapaxes(1, 2)) == 0.0

    def test_partials_match_finite_differences(self):
        s = sphere_scene()
        point = np.array([0.5, -0.9])
        ch = christoffels(eval_field(s, "metric", point))
        step = 1e-5
        for k, e in enumerate(np.eye(2)):
            plus = christoffels(eval_field(s, "metric", point + step * e)).gamma
            minus = christoffels(eval_field(s, "metric", point - step * e)).gamma
            assert maxabs(ch.d1[:, :, :, k] - (plus - minus) / (2 * step)) < 1e-8


class TestRiemann:
    def test_flat(self):
        s = flat_scene(3)
        assert maxabs(riemann(eval_field(s, "metric", [0.0, 0.1, 0.2]))) == 0.0

    def test_round_sphere_gaussian_curvature(self):
        s = sphere_scene()
        for point in ([0.0, 0.0], [0.8, -0.6], [1.5, 1.5]):
            g = eval_field(s, "metric", point)
            r = riemann(g)
            r_low = np.einsum("ij,jklm->iklm", g.components, r)
            gauss = r_low[0, 1, 0, 1] / np.linalg.det(g.components)
            assert gauss == pytest.approx(1.0, abs=1e-12)

    def test_companion_metric_of_podles_scene_is_flat(self):
        from obstruct import contravariant
        s = catalog.load_example("podles-sphere").scene()
        f = contravariant.Frame.at(s, [0.9, -1.3])
        g_pr = contravariant.gprime_eval(f)
        assert maxabs(riemann(g_pr)) < 1e-7

    def test_antisymmetry_and_pair_symmetry(self):
        s = sphere_scene()
        g = eval_field(s, "metric", [1.1, 0.3])
        r = riemann(g)
        assert maxabs(r + r.transpose(0, 1, 3, 2)) <= 1e-9
        r_low = np.einsum("ij,jklm->iklm", g.components, r)
        assert maxabs(r_low + r_low.transpose(1, 0, 2, 3)) <= 1e-9
        assert maxabs(r_low - r_low.transpose(2, 3, 0, 1)) <= 1e-9


class TestCovariantDerivative:
    def test_metricity(self):
        for name in ("flat-torus", "podles-sphere", "fuzzy-sphere", "su2-dual"):
            s = catalog.load_example(name).scene()
            point = s.sample_points(np.random.default_rng(1), 1)[0]
            g = eval_field(s, "metric", point)
            ch = christoffels(g)
            nabla_g = covariant_derivative(g, ch, "dd")
            assert maxabs(nabla_g.components) <= 1e-10

    def test_constant_vector_in_flat_chart(self):
        s = flat_scene(2)
        v = eval_field(s, [s.metric[0][0], s.metric[0][0]], [0.0, 0.0])
        ch = christoffels(eval_field(s, "metric", [0.0, 0.0]))
        assert maxabs(covariant_derivative(v, ch, "u").components) == 0.0

    def test_su2_dual_poisson_derivative_is_structure_constants(self):
        s = catalog.load_example("su2-dual").scene()
        point = [0.4, -0.2, 0.8]
        pi = eval_field(s, "poisson", point)
        ch = christoffels(eval_field(s, "metric", point))
        nabla_pi = covariant_derivative(pi, ch, "uu")
        assert maxabs(nabla_pi.components - pi.d1) == 0.0
        assert nabla_pi.components[0, 1, 2] == 1.0

    def test_rank_mismatch(self):
        s = flat_scene(2)
        g = eval_field(s, "metric", [0.0, 0.0])
        ch = christoffels(g)
        with pytest.raises(ValueError):
            covariant_derivative(g, ch, "d")


class TestSceneValidation:
    def test_catalog_scenes_validate(self):
        for name in ("flat-torus", "fuzzy-sphere", "podles-sphere", "su2-dual"):
            catalog.load_example(name).scene().validate()

    def test_asymmetric_metric_rejected(self):
        s = make_scene(["x", "y"], [["1", "x"], ["0", "1"]],
                       [["0", "1"], ["-1", "0"]], [(-1, 1), (-1, 1)])
        with pytest.raises(SceneValidationError):
            s.validate()

    def test_non_antisymmetric_poisson_rejected(self):
        s = make_scene(["x", "y"], [["1", "0"], ["0", "1"]],
                       [["0", "1"], ["1", "0"]], [(-1, 1), (-1, 1)])
        with pytest.raises(SceneValidationError):
            s.validate()

    def test_degenerate_metric_rejected(self):
        s = make_scene(["x", "y"], [["x", "0"], ["0", "1"]],
                       [["0", "1"], ["-1", "0"]], [(0.0, 1.0), (-1, 1)])
        with pytest.raises(SceneValidationError):
            s.validate()

    def test_grid_respects_exclusion(self):
        s = catalog.load_example("su2-dual").scene()
        pts = s.grid([3, 3, 3])
        assert len(pts) == 26  # center of the 3^3 grid sits in the excluded ball
        assert all(not s.is_excluded(p) for p in pts)

    def test_grid_is_lexicographic(self):
        s = flat_scene(2)
        pts = np.array(s.grid([2, 3]))
        assert pts.tolist() == sorted(pts.tolist())


def test_excluded_point_is_worded_as_plain_floats():
    scene = catalog.load_example("su2-dual").scene()
    message = "point [0.0, 0.0, 0.0] is excluded from the sample domain"
    with pytest.raises(ValueError) as found:
        eval_field(scene, "metric", np.zeros(3))
    assert str(found.value) == message
    with pytest.raises(ValueError) as found:
        Frame.at(scene, np.zeros(3))
    assert str(found.value) == message


def test_sample_points_gives_up_when_exclude_covers_the_box():
    scene = dataclasses.replace(catalog.load_example("flat-torus").scene(),
                                exclude=exprlang.Num(1.0))
    with pytest.raises(SceneValidationError, match="exclude drops 1000 random"):
        scene.sample_points(np.random.default_rng(0), 1)


@pytest.mark.parametrize("shape", [(3,), (1,), (1, 3)])
def test_point_of_the_wrong_dimension_is_rejected(shape):
    scene = catalog.load_example("podles-sphere").scene()
    point = np.full(shape, 0.25)
    for call in (lambda: poisson.jacobi_defect(scene, point),
                 lambda: eval_field(scene, "metric", point),
                 lambda: Frame.at(scene, point)):
        with pytest.raises(ValueError, match="needs 2 coordinates"):
            call()


class TestContract:
    """The product rule of :func:`geometry.contract` on X_ia Y_ab."""

    def fields(self):
        rng = np.random.default_rng(21)
        scene = flat_scene(3)
        x, y = ([[random_smooth_expr(rng, scene.coords, 2) for _ in range(3)]
                 for _ in range(3)] for _ in range(2))
        points = rng.uniform(-1, 1, (7, 3))
        return scene, x, y, points

    def test_matches_the_hand_expanded_chain_bitwise(self):
        scene, x, y, points = self.fields()
        xe, ye = eval_field(scene, x, points), eval_field(scene, y, points)
        e = np.einsum
        value = e("...ia,...ab->...ib", xe.components, ye.components)
        d1 = (e("...ial,...ab->...ibl", xe.d1, ye.components)
              + e("...ia,...abl->...ibl", xe.components, ye.d1))
        cross = e("...ial,...abm->...iblm", xe.d1, ye.d1)
        d2 = (e("...ialm,...ab->...iblm", xe.d2, ye.components)
              + cross + cross.swapaxes(-1, -2)
              + e("...ia,...ablm->...iblm", xe.components, ye.d2))
        first = geometry.contract("ia,ab->ib", xe, ye)
        second = geometry.contract("ia,ab->ib", xe, ye, order=2)
        assert first.d2 is None
        for got, want in ((first.components, value), (first.d1, d1),
                          (second.components, value), (second.d1, d1),
                          (second.d2, d2)):
            assert np.array_equal(got, want)

    def test_matches_the_jets_of_the_contracted_expression(self):
        scene, x, y, points = self.fields()

        def entry(i, b):
            terms = [exprlang.BinOp("*", x[i][a], y[a][b]) for a in range(3)]
            return functools.reduce(lambda s, t: exprlang.BinOp("+", s, t), terms)

        product = [[entry(i, b) for b in range(3)] for i in range(3)]
        exact = eval_field(scene, product, points)
        got = geometry.contract("ia,ab->ib", eval_field(scene, x, points),
                                eval_field(scene, y, points), order=2)
        for have, want in ((got.components, exact.components),
                           (got.d1, exact.d1), (got.d2, exact.d2)):
            assert maxabs(have - want) <= 1e-12 * max(maxabs(want), 1.0)
