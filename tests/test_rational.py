"""Rational-function arithmetic, expansions, transforms, factorization."""

import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    _deflate,
    _majorant,
    cayley,
    cayley_fn,
    krein_langer_factor,
    unit_circle_samples,
    vanishing_order,
)
from schurkit.tolerances import ROOT_TOL, TRIM_REL


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

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0.5, float("nan"))])
    def test_non_finite_zero_rejected(self, bad):
        with pytest.raises(BoundaryPole):
            BlaschkeProduct([0.5, bad])

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(1.0, float("nan"))])
    def test_non_finite_constant_rejected(self, bad):
        with pytest.raises(ValueError, match="unimodular"):
            BlaschkeProduct([0.5], const=bad)


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


# Reference implementations of the scalar kernels as numpy.polynomial and
# numpy scalars compute them; the core in rational.py must match them bit
# for bit.


def ref_poly_coeffs(a, trim=True):
    a = np.atleast_1d(np.asarray(a, dtype=complex)).ravel()
    if a.size and not np.all(np.isfinite(a.view(float))):
        raise ValueError("non-finite coefficient")
    if not trim or a.size == 0:
        return a
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return a[:0]
    k = a.size
    while k > 0 and abs(a[k - 1]) <= TRIM_REL * scale:
        k -= 1
    return a[:k].copy()


def ref_call(a, z):
    return npoly.polyval(z, a) if a.size else 0j


def ref_deflate(a, c):
    n = a.size - 1
    q = np.zeros(n, dtype=complex)
    b = a[n]
    for j in range(n - 1, -1, -1):
        q[j] = b
        b = a[j] + c * b
    return q, b


def ref_shifted(a, center):
    n = a.size
    b = a.astype(complex).copy()
    c = complex(center)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            b[j] = b[j] + c * b[j + 1]
    return b


def ref_taylor(num, den, center, order):
    return ref_series(ref_shifted(num, center), ref_shifted(den, center), order)


def ref_series(a, b, order):
    """Power-series division of a by b, as taylor divides shifted arrays."""
    n = order + 1
    A = np.zeros(n, complex)
    B = np.zeros(n, complex)
    A[: min(n, a.size)] = a[: min(n, a.size)]
    B[: min(n, b.size)] = b[: min(n, b.size)]
    c = np.zeros(n, complex)
    for m in range(n):
        acc = A[m]
        for i in range(1, m + 1):
            acc -= B[i] * c[m - i]
        c[m] = acc / B[0]
    return c


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


_reals = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
_complex = st.builds(complex, _reals, _reals)
_coeffs = st.lists(_complex, min_size=1, max_size=25)  # degrees 0..24
_unimodular = st.floats(0.0, 2.0 * math.pi).map(lambda t: complex(math.cos(t), math.sin(t)))
_centres = st.one_of(_complex.map(lambda z: z / 1e3), _unimodular)
_scalars = st.one_of(
    _complex,
    _reals,
    _complex.map(np.complex128),
    _reals.map(np.float64),
    st.integers(-5, 5),
)
_bitwise = settings(max_examples=100, deadline=None, derandomize=True)


class TestScalarCoreBitwise:
    @_bitwise
    @given(_coeffs, st.booleans())
    def test_construction(self, c, trim):
        assert same_bits(Poly(c, trim=trim).coeffs, ref_poly_coeffs(c, trim))

    @_bitwise
    @given(_coeffs, st.one_of(_scalars, _centres))
    def test_scalar_call(self, c, z):
        p = Poly(c, trim=False)
        got = p(z)
        assert same_bits(got, ref_call(p.coeffs, z))
        assert type(got) is (np.complex128 if p.coeffs.size else complex)

    @_bitwise
    @given(_coeffs, _centres)
    def test_deflate(self, c, centre):
        a = np.array(c, dtype=complex)
        q, r = _deflate(a, centre)
        q0, r0 = ref_deflate(a, centre)
        assert same_bits(q, q0) and same_bits(r, r0) and type(r) is np.complex128

    @_bitwise
    @given(_coeffs, _centres)
    def test_shifted(self, c, centre):
        p = Poly(c, trim=False)
        assert same_bits(p.shifted(centre), ref_shifted(p.coeffs, centre))

    @_bitwise
    @given(_coeffs, _coeffs, _centres, st.integers(0, 16))
    def test_taylor(self, num, den, centre, order):
        if Poly(num).is_zero or Poly(den).is_zero:
            return
        f = RationalFn(Poly(num), Poly(den), reduce=False)
        b = ref_shifted(f.den.coeffs, centre)
        if abs(b[0]) <= ROOT_TOL * float(np.max(np.abs(b))):
            return  # a pole at the centre: taylor raises
        ref = ref_taylor(f.num.coeffs, f.den.coeffs, centre, order)
        assert same_bits(f.taylor(centre, order), ref)

    @_bitwise
    @given(_coeffs, _coeffs, st.booleans(), st.booleans())
    # An exact trailing zero of an untrimmed operand: numpy.polynomial drops
    # it, which keeps the sign of a zero in the sum and, by changing which
    # operand is longer, the order of the convolution's sums.
    @example([1, 0j], [2, complex(-0.0, -0.0), 3], False, True)
    @example([1, 1 - 1j, -1], [-1e-300, 1, -1 - 1j, 0j], True, False)
    def test_add_and_mul(self, c1, c2, trim1, trim2):
        p, q = Poly(c1, trim=trim1), Poly(c2, trim=trim2)
        if p.is_zero or q.is_zero:
            return
        assert same_bits((p + q).coeffs, ref_poly_coeffs(npoly.polyadd(p.coeffs, q.coeffs)))
        assert same_bits((p * q).coeffs, ref_poly_coeffs(npoly.polymul(p.coeffs, q.coeffs)))

    @_bitwise
    @given(_coeffs, _scalars)
    def test_majorant(self, c, x):
        a = np.array(c, dtype=complex)
        ref = float(npoly.polyval(abs(x), np.abs(a)))
        assert same_bits(_majorant(a, x), ref)

    @_bitwise
    @given(st.lists(_complex.map(lambda z: z / 1e3), max_size=8), _complex)
    def test_from_roots(self, roots, leading):
        p = np.array([complex(leading)])
        for r in roots:
            p = npoly.polymul(p, np.array([-complex(r), 1.0]))
        assert same_bits(Poly.from_roots(roots, leading).coeffs, ref_poly_coeffs(p))

    @_bitwise
    @given(st.lists(_coeffs, min_size=5, max_size=5), _scalars)
    # A subnormal leading denominator coefficient: 2j over it overflows.
    @example([[2j], [0j], [0j], [0j], [1.1125369292536007e-308j]], 0j)
    def test_shared_denominator_eval(self, c, z):
        den = Poly(c[4])
        if den.is_zero:
            return
        # Construction refuses exactly when making den monic leaves a
        # coefficient that is not finite (or whose modulus overflows).
        lead = den.coeffs[-1]
        with np.errstate(all="ignore"):
            monic = [Poly(n).coeffs / lead for n in c[:4]] + [den.coeffs[:-1] / lead]
        if not all(np.isfinite(np.abs(a)).all() for a in monic):
            with np.errstate(all="ignore"), pytest.raises(ValueError, match="leading denominator"):
                [RationalFn(Poly(n), den, reduce=False) for n in c[:4]]
            return
        m = Mat2RF(*(RationalFn(Poly(n), den, reduce=False) for n in c[:4]))
        with np.errstate(all="ignore"):  # z may be a root of den
            entries = [[m.a(z), m.b(z)], [m.c(z), m.d(z)]]
            assert same_bits(m.eval(z), np.array(entries, dtype=complex))


def expansion_cache_fn():
    """A fresh object: (1 + 0.3z - 0.2i z^3) / ((1 - 0.5z)(1 + 0.25i z))."""
    return RationalFn(Poly([1, 0.3, 0, -0.2j]), Poly([1, -0.5]) * Poly([1, 0.25j]), reduce=False)


class TestExpansionCache:
    """taylor and vanishing_order keep the last centre's shift and the
    longest series on the object; every answer equals a fresh object's bit
    for bit."""

    CENTRES = (1.0, complex(math.cos(0.7), math.sin(0.7)))

    @staticmethod
    def fresh_taylor(centre, order):
        return expansion_cache_fn().taylor(centre, order)

    @pytest.mark.parametrize("orders", [(3, 11), (11, 3), (0, 5, 2, 16, 7)])
    def test_orders_in_turn(self, orders):
        f = expansion_cache_fn()
        for order in orders:
            assert same_bits(f.taylor(1.0, order), self.fresh_taylor(1.0, order))

    def test_two_centres_in_turn(self):
        f = expansion_cache_fn()
        for centre, order in zip(self.CENTRES * 2, (4, 9, 12, 2)):
            assert same_bits(f.taylor(centre, order), self.fresh_taylor(centre, order))

    def test_signed_zeros_are_distinct_centres(self):
        # Centres 1 + 0i and 1 - 0i compare equal but expand this function
        # to coefficients whose zeros differ in sign.
        def make():
            num = [-2 + 1j, complex(1, -0.0), complex(2, -0.0), complex(1, -0.0)]
            return RationalFn(Poly(num), Poly.one(), reduce=False)

        plus, minus = complex(1.0, 0.0), complex(1.0, -0.0)
        assert not same_bits(make().taylor(plus, 4), make().taylor(minus, 4))
        f = make()
        for centre in (plus, minus, plus):
            assert same_bits(f.taylor(centre, 4), make().taylor(centre, 4))

    def test_vanishing_order_after_taylor(self):
        g = expansion_cache_fn() - expansion_cache_fn().taylor(1.0, 0)[0]
        order = RationalFn(g.num, g.den, reduce=False).vanishing_order(1.0)
        assert order == 1
        g.taylor(1.0, 8)
        assert g.vanishing_order(1.0) == order
        g.taylor(self.CENTRES[1], 3)
        assert g.vanishing_order(1.0) == order

    def test_taylor_after_vanishing_order(self):
        f = expansion_cache_fn()
        assert f.vanishing_order(1.0) == 0
        assert same_bits(f.taylor(1.0, 10), self.fresh_taylor(1.0, 10))

    def test_returned_array_is_the_callers(self):
        f = expansion_cache_fn()
        first = f.taylor(1.0, 8)
        reference = first.copy()
        first[:] = 99.0
        assert same_bits(f.taylor(1.0, 8), reference)
        assert same_bits(f.taylor(1.0, 4), reference[:5])

    def test_pole_raises_on_every_call(self):
        f = fn([1], [-0.5, 1])
        for order in (3, 3, 0):
            with pytest.raises(PoleAtExpansionPoint):
                f.taylor(0.5, order)
        assert f.vanishing_order(0.5) == -1

    @_bitwise
    @given(
        _coeffs,
        _coeffs,
        st.lists(st.tuples(st.booleans(), st.integers(0, 16)), min_size=2, max_size=5),
        _centres,
        _centres,
    )
    def test_call_sequences(self, num, den, calls, c0, c1):
        if Poly(num).is_zero or Poly(den).is_zero:
            return

        def make():
            return RationalFn(Poly(num), Poly(den), reduce=False)

        def outcome(f, centre, order):
            try:
                return f.taylor(centre, order)
            except PoleAtExpansionPoint:
                return "pole"

        f = make()
        for second, order in calls:
            centre = c1 if second else c0
            got, ref = outcome(f, centre, order), outcome(make(), centre, order)
            if isinstance(ref, str):
                assert isinstance(got, str)
            else:
                assert same_bits(got, ref)
            assert f.vanishing_order(centre) == make().vanishing_order(centre)


class TestNodeConstructor:
    """RationalFn._at(center, num, den) is the function num / den for arrays
    in powers of (z - center). The arrays, divided by den's last
    coefficient, are its expansion at `center`: its Taylor series there is
    their series, bit for bit, whatever was asked of it before, and its
    num / den are them shifted to powers of z."""

    _moderate = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)
    )
    _arrays = st.lists(st.builds(complex, _moderate, _moderate), min_size=1, max_size=25)

    @_bitwise
    @given(_arrays, _arrays, _centres, _centres, st.integers(0, 16))
    def test_expansion_is_the_given_arrays(self, num, den, centre, other, order):
        num, den = Poly(num).coeffs, Poly(den).coeffs
        if num.size == 0 or den.size == 0:
            return
        lead = den[-1]
        a, b = num / lead, den / lead
        b[-1] = 1.0
        if abs(b[0]) <= ROOT_TOL * float(np.max(np.abs(b))):
            return  # a pole at the centre: taylor raises
        ref = ref_series(a, b, order)
        assert same_bits(RationalFn._at(centre, num, den).taylor(centre, order), ref)
        f = RationalFn._at(centre, num, den)
        try:
            f.taylor(other, order)
        except PoleAtExpansionPoint:
            pass
        f.vanishing_order(other)
        assert same_bits(f.taylor(centre, order), ref)
        assert np.array_equal(f.num.coeffs, ref_shifted(a, -centre))
        assert np.array_equal(f.den.coeffs, ref_shifted(b, -centre))

    def test_monic_arrays_are_kept_as_given(self):
        num, den = np.array([1.0, 2j, -0.5]), np.array([0.5 - 0.25j, 1.0])
        f = RationalFn._at(1j, num, den)
        assert same_bits(f.taylor(1j, 6), ref_series(num, den, 6))
        assert f.vanishing_order(1j) == 0 and f.den.coeffs[-1] == 1.0


class TestScalarCoreContract:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflow_raises_value_error(self):
        for trim in (True, False):
            with pytest.raises(ValueError, match="non-finite"):
                Poly([1e200], trim=trim) * Poly([1e200], trim=trim)
            with pytest.raises(ValueError, match="non-finite"):
                Poly([1e308], trim=trim) + Poly([1e308], trim=trim)

    def test_overflowing_modulus_raises(self):
        # Finite parts whose modulus overflows: no trim cut can be formed.
        for trim in (True, False):
            with pytest.raises(ValueError, match="non-finite"):
                Poly([1.0, 1.5e308 + 1.5e308j], trim=trim)

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, complex(0, math.nan), complex(1, math.inf)]
    )
    def test_non_finite_coefficient_raises(self, bad):
        for trim in (True, False):
            with pytest.raises(ValueError, match="non-finite"):
                Poly([1.0, bad, 2.0], trim=trim)
            with pytest.raises(ValueError, match="non-finite"):
                Poly([bad], trim=trim)

    def test_pole_value_is_inf_or_nan(self):
        cases = (([1], [0, 1], 0.0), ([1], [-0.5, 1], 0.5 + 0j), ([0, 1], [0, 1], np.float64(0.0)))
        with np.errstate(all="ignore"):
            for num, den, z in cases:
                value = RationalFn(Poly(num), Poly(den), reduce=False)(z)
                assert type(value) is np.complex128 and not np.isfinite(value)

    def test_sequences_and_arrays_evaluate_pointwise(self):
        p = Poly([1, 2])
        for z in ([0.1, 0.2], (0.1, 0.2), np.array([0.1, 0.2])):
            assert same_bits(p(z), npoly.polyval(np.asarray(z), p.coeffs))
        assert same_bits(p(np.array(0.3)), npoly.polyval(np.array(0.3), p.coeffs))

    def test_zero_polynomial_values(self):
        zero = Poly.zero()
        assert zero(0.5) == 0j and type(zero(0.5)) is complex
        for z in ([1, 2], (1, 2), np.array([1.0, 2.0])):
            assert same_bits(zero(z), np.zeros(2, dtype=complex))
        assert same_bits(zero(np.ones((2, 3))), np.zeros((2, 3), dtype=complex))
