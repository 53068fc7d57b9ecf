"""Rational-function arithmetic, expansions, transforms, factorization."""

import math

import numpy as np
import pytest

from conftest import random_blaschke, random_schur_fn, unimodular
from schurkit.errors import (
    BoundaryPole,
    DegenerateLFT,
    NonConstantDeterminant,
    NotGeneralizedSchur,
    PoleAtExpansionPoint,
    PoleAtOne,
    ZeroDenominator,
)
from schurkit.rational import (
    INF,
    BlaschkeProduct,
    Mat2RF,
    Poly,
    RationalFn,
    cayley,
    cayley_fn,
    krein_langer_factor,
    unit_circle_samples,
    vanishing_order,
)


def fn(num, den=(1.0,)):
    return RationalFn(Poly(num), Poly(den))


class TestPoly:
    def test_difference_of_squares(self):
        p = Poly([1, 1]) * Poly([1, -1])
        assert p.allclose(Poly([1, 0, -1]), 1e-15)

    def test_additive_identity(self):
        p = Poly([2, 0, 1j])
        assert (p + Poly.zero()).allclose(p, 0.0)

    def test_binomial_fourth_power(self):
        # (1-z)^2 (1-z)^2 expanded by the binomial theorem
        sq = Poly([1, -1]) ** 2
        assert (sq * sq).allclose(Poly([1, -4, 6, -4, 1]), 1e-14)

    def test_zero_polynomial_degree(self):
        assert Poly.zero().degree == -1
        assert Poly([0.0, 0.0]).is_zero

    def test_trim_relative_to_scale(self):
        p = Poly([1e6, 1e-8])
        assert p.degree == 0

    def test_shift_reconstructs_values(self):
        p = Poly([2, -1, 3, 0.5j])
        b = p.shifted(0.7 - 0.2j)
        z = 0.3 + 0.1j
        direct = p(z)
        shifted = sum(b[j] * (z - (0.7 - 0.2j)) ** j for j in range(len(b)))
        assert abs(direct - shifted) < 1e-13


class TestTaylor:
    def test_linear_function(self):
        assert np.allclose(fn([0, 1]).taylor(1.0, 2), [1, 1, 0])

    def test_reciprocal_geometric_series(self):
        # 1/z = 1/(1 + (z-1)) = sum (-1)^j (z-1)^j
        assert np.allclose(fn([1], [0, 1]).taylor(1.0, 3), [1, -1, 1, -1])

    def test_quartic_perturbation_coefficients(self):
        s = RationalFn(Poly([0.5, 0.5]) + Poly([1, -1]) ** 4 * (1 / 20), Poly.one())
        assert np.allclose(s.taylor(1.0, 4), [1, 0.5, 0, 0, 0.05], atol=1e-13)

    def test_pole_at_expansion_point(self):
        with pytest.raises(PoleAtExpansionPoint):
            fn([1], [0, 1]).taylor(0.0, 2)

    def test_truncation_error_order(self, rng):
        # summed truncated series must reproduce f with error O((z-z1)^(m+1))
        f = random_schur_fn(rng, 3)
        m = 3
        c = f.taylor(1.0, m)
        ts = np.array([1.0 - 0.2 * 0.5**j for j in range(8)])
        resid = np.array(
            [abs(f(t) - sum(c[j] * (t - 1.0) ** j for j in range(m + 1))) for t in ts]
        )
        keep = resid > 1e-14
        if np.count_nonzero(keep) >= 4:
            slope = np.polyfit(np.log(1.0 - ts[keep]), np.log(resid[keep]), 1)[0]
            assert slope > m + 1 - 0.35


class TestVanishingOrder:
    def test_zero_function(self):
        assert fn([0]).vanishing_order(1.0) == INF

    def test_explicit_square(self):
        assert RationalFn(Poly([1, -1]) ** 2, Poly.one()).vanishing_order(1.0) == 2

    def test_quartic_gap(self):
        s = RationalFn(Poly([0.5, 0.5]) + Poly([1, -1]) ** 4 * (1 / 20), Poly.one())
        assert (s - fn([0.5, 0.5])).vanishing_order(1.0) == 4

    def test_pole_reports_negative_order(self):
        assert fn([1], [0, 0, 1]).vanishing_order(0.0) == -2
        assert vanishing_order(fn([1, 1], [0, 1]), 0.0) == -1


class TestReduction:
    def test_idempotent(self, rng):
        for _ in range(25):
            f = random_schur_fn(rng, 3)
            g = RationalFn(f.num, f.den)
            assert g.allclose(f, 1e-13)

    def test_shared_multiple_root_cancels(self):
        num = Poly([1, -1]) ** 4 * 0.1
        den = Poly([1, -1]) ** 2 * 0.5 + Poly([1, 1]) * Poly([1, -1]) ** 4 * (1 / 20)
        r = RationalFn(num, den)
        assert r.allclose(RationalFn(Poly([2, -4, 2]), Poly([11, -1, -1, 1])), 1e-9)

    def test_near_pair_preserved(self):
        # Blaschke factor: zero at 0.99, pole at its reflection 1/0.99
        f = fn([-0.99, 1], [1, -0.99])
        assert f.num.degree == 1 and f.den.degree == 1
        assert abs(f(0.5) - (0.5 - 0.99) / (1 - 0.99 * 0.5)) < 1e-12

    def test_full_ratio_collapses(self):
        d = Poly([-1, 1]) ** 3 * Poly([2, 1j])
        r = RationalFn(d, d)
        assert r.num.allclose(Poly.one(), 1e-10) and r.den.allclose(Poly.one(), 1e-10)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominator):
            RationalFn(Poly([1]), Poly.zero())

    def test_monic_denominator(self, rng):
        for _ in range(10):
            f = random_schur_fn(rng, 3)
            if f.den.degree >= 0:
                assert abs(f.den.coeffs[-1] - 1.0) < 1e-14


class TestLFT:
    def test_identity(self):
        s = fn([0.3, 0.5], [1, 0.2])
        assert Mat2RF.identity().apply(s).allclose(s, 1e-12)

    def test_reciprocal_swap(self):
        out = Mat2RF(0, 1, 1, 0).apply(RationalFn.x())
        assert out.allclose(fn([1], [0, 1]), 1e-14)

    def test_degenerate(self):
        with pytest.raises(DegenerateLFT):
            Mat2RF(1, 0, 0, 0).apply(RationalFn.x())

    def test_inverse_identity(self):
        inv = Mat2RF.identity().inverse()
        s = fn([0.1, 1])
        assert inv.apply(s).allclose(s, 1e-12)

    def test_round_trip(self, rng):
        for _ in range(20):
            m = np.eye(2) + 0.5 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            if abs(np.linalg.det(m)) < 0.2:
                continue
            M = Mat2RF.from_matrix(m)
            s = random_schur_fn(rng, 2)
            try:
                image = M.apply(s)
            except DegenerateLFT:
                continue
            back = M.inverse().apply(image)
            assert back.allclose(s, 1e-8)

    def test_nonconstant_determinant_rejected(self):
        M = Mat2RF(RationalFn.x(), 0, 0, 1)
        with pytest.raises(NonConstantDeterminant):
            M.inverse()


class TestBlaschke:
    def test_unimodular_on_circle(self, rng):
        for _ in range(5):
            b = random_blaschke(rng, 4, min_degree=1)
            w = unit_circle_samples(64)
            assert np.max(np.abs(np.abs(b(w)) - 1.0)) < 1e-12

    def test_rational_form_matches_product(self, rng):
        b = random_blaschke(rng, 3, min_degree=1)
        r = b.as_rational()
        for z in (0.2, -0.4 + 0.3j, 0.8j):
            assert abs(r(z) - b(z)) < 1e-12

    def test_zero_near_circle_rejected(self):
        with pytest.raises(BoundaryPole):
            BlaschkeProduct([0.9999999])


class TestKreinLanger:
    def test_reciprocal(self):
        s0, b = krein_langer_factor(fn([1], [0, 1]))
        assert s0.allclose(RationalFn.constant(1.0), 1e-12)
        assert b.order == 1 and abs(b.zeros[0]) < 1e-12

    def test_schur_function_untouched(self):
        s = fn([0, 0.5])
        s0, b = krein_langer_factor(s)
        assert b.order == 0
        assert s0.allclose(s, 1e-12)

    def test_single_disk_pole(self):
        s = fn([-0.5, 1], [0, 1, -0.5])  # (z - 1/2) / ((1 - z/2) z)
        s0, b = krein_langer_factor(s)
        assert b.order == 1
        assert s0.allclose(fn([-0.5, 1], [1, -0.5]), 1e-10)

    def test_rejects_large_analytic_part(self):
        with pytest.raises(NotGeneralizedSchur):
            krein_langer_factor(fn([2], [0, 1]))

    def test_boundary_pole(self):
        with pytest.raises(BoundaryPole):
            krein_langer_factor(fn([1], [-1.0000000001, 1]))

    def test_inner_function_factors_exactly(self):
        zeros = [0.18 + 0.81j, -0.52 + 0.49j, -0.33 + 0.59j, 0.39 + 0.16j]
        zeros += [-0.7 + 0.47j, -0.74 + 0.25j, -0.15 + 0.63j, -0.27 + 0.24j]
        s = BlaschkeProduct(zeros).as_rational() / BlaschkeProduct([-0.37 + 0.36j]).as_rational()
        s0, b = krein_langer_factor(s)
        assert b.order == 1
        w = unit_circle_samples(512)
        assert np.max(np.abs(s0(w) - s(w) * b(w))) <= 1e-9

    def test_reflected_poles_cancel(self):
        s = 1 / BlaschkeProduct([0.3 + 0.4j] * 3).as_rational()
        s0, b = krein_langer_factor(s)
        assert b.order == 3
        assert (s0.num.degree, s0.den.degree) == (0, 0)

    def test_unreduced_zero_has_no_negative_squares(self):
        s = RationalFn(Poly.zero(), Poly([-0.5, 1]), reduce=False)
        s0, b = krein_langer_factor(s)
        assert s0.is_zero and b.order == 0

    def test_product_reconstructs(self, rng):
        for _ in range(10):
            b = random_blaschke(rng, 2, min_degree=1, radius=0.7)
            s0 = random_schur_fn(rng, 2)
            s = s0 / b.as_rational()
            got0, gotb = krein_langer_factor(s)
            assert gotb.order == b.order
            assert (got0 / gotb.as_rational()).allclose(s, 1e-8)


class TestCayley:
    def test_point_values(self):
        assert cayley(0) == 1
        assert cayley(-1) == 0
        assert abs(cayley(1j) - 1j) < 1e-15

    def test_pole_at_one(self):
        with pytest.raises(PoleAtOne):
            cayley(1.0)

    def test_functional_form_is_lft(self):
        s = fn([0, 0.5])
        f = cayley_fn(s)
        g = Mat2RF(1, 1, -1, 1).apply(s)
        assert f.allclose(g, 1e-12)
        with pytest.raises(DegenerateLFT):
            cayley_fn(RationalFn.constant(1.0))


def test_degree_cap():
    import schurkit.tolerances as tol

    big = Poly([0.0] * (tol.MAX_DEGREE + 1) + [1.0])
    with pytest.raises(Exception):
        RationalFn(big * big, Poly.one())
