import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import maxabs, random_smooth_expr
from obstruct import exprlang, jets
from obstruct.jets import Jet2, JetDomainError


class TestLift:
    def test_constant(self):
        j = jets.constant(5.0, 2)
        assert j.value == 5.0
        assert maxabs(j.gradient) == 0.0
        assert maxabs(j.hessian) == 0.0

    def test_coordinate(self):
        j = jets.coordinate(3.0, 0, 2)
        assert j.value == 3.0
        assert j.gradient.tolist() == [1.0, 0.0]
        assert maxabs(j.hessian) == 0.0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            jets.coordinate(1.0, 2, 2)


class TestApply:
    def test_square_of_coordinate(self):
        x = jets.coordinate(3.0, 0, 1)
        j = jets.OPERATIONS["*"](x, x)
        assert j.value == 9.0
        assert j.gradient.tolist() == [6.0]
        assert j.hessian.tolist() == [[2.0]]

    def test_sin_at_zero(self):
        j = jets.OPERATIONS["sin"](jets.coordinate(0.0, 0, 1))
        assert j.value == 0.0
        assert j.gradient.tolist() == [1.0]
        assert j.hessian.tolist() == [[0.0]]

    def test_product_rule_bilinear(self):
        x = jets.coordinate(2.0, 0, 2)
        y = jets.coordinate(5.0, 1, 2)
        j = x * y
        assert j.value == 10.0
        assert j.gradient.tolist() == [5.0, 2.0]
        assert j.hessian[0, 1] == 1.0 and j.hessian[1, 0] == 1.0

    def test_division_by_zero(self):
        with pytest.raises(JetDomainError):
            jets.OPERATIONS["/"](jets.constant(1.0, 1),
                                 jets.coordinate(0.0, 0, 1))

    def test_log_domain(self):
        with pytest.raises(JetDomainError):
            jets.OPERATIONS["log"](jets.constant(-1.0, 1))

    def test_sqrt_domain(self):
        with pytest.raises(JetDomainError):
            jets.OPERATIONS["sqrt"](jets.constant(0.0, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            jets.constant(1.0, 1) + jets.constant(1.0, 2)

    def test_integer_power_of_negative_base(self):
        x = jets.coordinate(-2.0, 0, 1)
        j = x ** 3
        assert j.value == -8.0
        assert j.gradient.tolist() == [12.0]
        assert j.hessian.tolist() == [[-12.0]]

    def test_fractional_power_needs_positive_base(self):
        with pytest.raises(JetDomainError):
            jets.coordinate(-2.0, 0, 1) ** 0.5

    def test_jet_exponent(self):
        # x^y at (2, 3) via exp(y log x)
        x = jets.coordinate(2.0, 0, 2)
        y = jets.coordinate(3.0, 1, 2)
        j = x ** y
        assert j.value == pytest.approx(8.0, rel=1e-14)
        assert j.gradient[0] == pytest.approx(3 * 4.0, rel=1e-13)      # y x^(y-1)
        assert j.gradient[1] == pytest.approx(8 * math.log(2), rel=1e-13)


def _finite_difference(fn, point, step=1e-4):
    n = len(point)
    grad = np.empty(n)
    hess = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        grad[i] = (fn(point + e) - fn(point - e)) / (2 * step)
        hess[i, i] = (fn(point + e) - 2 * fn(point) + fn(point - e)) / step**2
        for j in range(i):
            f = np.zeros(n)
            f[j] = step
            hess[i, j] = hess[j, i] = (
                fn(point + e + f) - fn(point + e - f)
                - fn(point - e + f) + fn(point - e - f)) / (4 * step**2)
    return grad, hess


def test_jets_match_finite_differences():
    """Gradient and Hessian of random compositions agree with central
    differences to relative error 1e-6 (step 1e-4)."""
    rng = np.random.default_rng(2024)
    coords = ["x", "y", "z"]
    for _ in range(60):
        expr = random_smooth_expr(rng, coords, depth=3)
        point = rng.uniform(-1, 1, 3)
        fn = lambda p: exprlang.eval_real(expr, p)
        jet = exprlang.eval_jet(expr, point)
        grad, hess = _finite_difference(fn, point)
        scale = max(1.0, maxabs(jet.gradient), maxabs(jet.hessian))
        assert maxabs(jet.gradient - grad) / scale <= 1e-6
        assert maxabs(jet.hessian - hess) / scale <= 1e-6


def test_hessian_exactly_symmetric():
    rng = np.random.default_rng(5)
    coords = ["x", "y"]
    for _ in range(40):
        expr = random_smooth_expr(rng, coords, depth=4)
        jet = exprlang.eval_jet(expr, rng.uniform(-1, 1, 2))
        assert maxabs(jet.hessian - jet.hessian.T) == 0.0
        assert jet.dimension == 2


_small = st.floats(min_value=-10, max_value=10, allow_nan=False,
                   allow_infinity=False)


def _jet_close(a: Jet2, b: Jet2, tol=1e-12) -> bool:
    return (abs(a.value - b.value) <= tol
            and maxabs(a.gradient - b.gradient) <= tol
            and maxabs(a.hessian - b.hessian) <= tol)


@given(_small, _small, _small)
@settings(max_examples=200)
def test_addition_associative_commutative(a, b, c):
    ja = jets.coordinate(a, 0, 2)
    jb = jets.coordinate(b, 1, 2)
    jc = jets.constant(c, 2)
    assert _jet_close(ja + jb, jb + ja)
    assert _jet_close((ja + jb) + jc, ja + (jb + jc))


@given(_small, _small, _small)
@settings(max_examples=200)
def test_multiplication_matches_real_arithmetic(a, b, c):
    ja = jets.coordinate(a, 0, 2)
    jb = jets.coordinate(b, 1, 2)
    jc = jets.constant(c, 2)
    assert _jet_close(ja * jb, jb * ja)
    lhs = (ja * jb) * jc
    rhs = ja * (jb * jc)
    tol = 1e-12 * max(1.0, abs(a * b * c))
    assert _jet_close(lhs, rhs, tol=tol)
    assert (ja * (jb + jc)).value == pytest.approx(a * (b + c), abs=1e-12)
