"""Kernel evaluation, Gram inertia, and the negative-squares count."""

import math
import warnings
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_blaschke
from schurkit import kernels
from schurkit.errors import (
    BoundaryPole,
    DiagonalSingularity,
    NoAnalyticPoints,
    NotGeneralizedSchur,
    NotHermitian,
    PoleProximity,
    SchurkitError,
)
from schurkit.kernels import (
    HermitianSample,
    Inertia,
    SamplePlan,
    estimate_negative_squares,
    gram_matrix,
    hermitian_eigenvalues,
    inertia,
    schur_kernel,
)
from schurkit.rational import BlaschkeProduct, Poly, RationalFn, as_rational
from schurkit.tolerances import CIRCLE_TOL, DIAG_TOL, HERM_TOL, POLE_CLEARANCE

Z = RationalFn.x()
RECIP = RationalFn([1], [0, 1])

FAST = SamplePlan(max_points=64, initial_points=8, seed=11)


class TestKernelEval:
    def test_unimodular_constant_annihilates(self):
        s = RationalFn.constant(np.exp(0.7j))
        for z, w in ((0.1, 0.5j), (-0.3 + 0.2j, 0.6)):
            assert abs(schur_kernel(s, z, w)) < 1e-14

    def test_identity_function_gives_one(self):
        for z, w in ((0.1, 0.5j), (-0.3 + 0.2j, 0.6)):
            assert abs(schur_kernel(Z, z, w) - 1.0) < 1e-14

    def test_reciprocal_closed_form(self):
        # for s = 1/z the kernel is -1/(z conj(w))
        assert abs(schur_kernel(RECIP, 0.5, 0.5) - (-4.0)) < 1e-12
        z, w = 0.3 + 0.1j, -0.2 + 0.4j
        assert abs(schur_kernel(RECIP, z, w) + 1.0 / (z * np.conj(w))) < 1e-12

    def test_hermitian_symmetry(self, rng):
        for _ in range(20):
            s = random_blaschke(rng, 3).as_rational() * 0.9
            z = 0.7 * (rng.normal() + 1j * rng.normal()) / 2
            w = 0.7 * (rng.normal() + 1j * rng.normal()) / 2
            assert abs(schur_kernel(s, z, w) - np.conj(schur_kernel(s, w, z))) < 1e-12

    def test_diagonal_singularity(self):
        with pytest.raises(DiagonalSingularity):
            schur_kernel(Z, 1.0, 1.0)

    def test_pole_proximity(self):
        with pytest.raises(PoleProximity):
            schur_kernel(RECIP, 1e-12, 0.5)


class TestGram:
    def test_identity_function_all_ones(self):
        g = gram_matrix(Z, [0.1, -0.2j, 0.3 + 0.3j])
        assert np.max(np.abs(g.entries - 1.0)) < 1e-14

    def test_constant_one_zero_matrix(self):
        g = gram_matrix(RationalFn.constant(1.0), [0.1, 0.4j])
        assert np.max(np.abs(g.entries)) < 1e-14

    def test_reciprocal_two_points(self):
        g = gram_matrix(RECIP, [0.5, 1 / 3])
        assert np.allclose(g.entries, [[-4, -6], [-6, -9]], atol=1e-12)

    def test_asymmetry_reported(self):
        g = gram_matrix(RECIP, [0.5, 0.25j])
        assert g.asymmetry < 1e-13


class TestGramOverflow:
    """Samples whose entries could overflow a double raise NotHermitian
    naming the overflow, before an entry is formed; below that edge every
    entry is finite and no numpy warning fires. The count reads scaled
    coefficients, so the same function is refused as |s| > 1, not overflow."""

    def test_overflowing_samples_raise(self):
        big = RationalFn(Poly([1e200, 1e200]), Poly.one(), reduce=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitian, match="overflow"):
                gram_matrix(big, [0.1, 0.4j])
            with pytest.raises(NotGeneralizedSchur, match="exceeds 1"):
                estimate_negative_squares(big, FAST)

    def test_threshold_is_the_first_overflowing_square(self):
        # An entry is at most (1 + |s|^2) / dmin and M + M* twice that; the
        # edge keeps twice the sum finite, dmin the least |1 - z conj(w)|.
        points = [0.1, 0.4j]
        pts = np.array(points, dtype=complex)
        dmin = float(np.abs(1.0 - np.outer(pts, pts.conj())).min())
        edge = math.sqrt(np.finfo(float).max * dmin) / 2
        above = math.nextafter(edge, math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c in (edge, -edge):
                sample = gram_matrix(RationalFn.constant(c), points)
                assert np.isfinite(sample.entries).all()
                assert math.isfinite(sample.noise) and math.isfinite(sample.asymmetry)
            # below the square root of the largest double, yet its entries
            # and their sum overflow
            for c in (above, 0.95 * math.sqrt(np.finfo(float).max)):
                with pytest.raises(NotHermitian, match="overflow"):
                    gram_matrix(RationalFn.constant(c), points)


class TestInertia:
    def test_signature(self):
        res = inertia(np.diag([1.0, -1.0]))
        assert (res.n_pos, res.n_neg, res.n_zero) == (1, 1, 0)

    def test_zero_matrix(self):
        res = inertia(np.zeros((3, 3)))
        assert (res.n_pos, res.n_neg, res.n_zero) == (0, 0, 3)

    def test_skew_phase_pair(self):
        res = inertia(np.array([[0, -1j], [1j, 0]]))
        assert (res.n_pos, res.n_neg, res.n_zero) == (1, 1, 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotHermitian):
            inertia(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_hermitian_eigenvalues_match_lapack(self, rng):
        for n in (2, 5, 9, 16):
            b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = b + b.conj().T
            ours = hermitian_eigenvalues(h)
            ref = np.linalg.eigvalsh(h)
            assert np.max(np.abs(ours - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref)))

    def test_hermitian_eigenvalues_read_the_lower_triangle(self, rng):
        # The matrix is not symmetrized: only its lower triangle is read.
        b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        lower = np.tril(b) + np.tril(b, -1).conj().T
        assert same_bits(hermitian_eigenvalues(b), np.linalg.eigvalsh(lower))

    def test_counts_match_lapack_on_gram(self, rng):
        for _ in range(10):
            pts = 0.8 * np.sqrt(rng.uniform(size=7)) * np.exp(2j * np.pi * rng.uniform(size=7))
            g = gram_matrix(RECIP, pts)
            res = inertia(g)
            assert res.n_neg == 1
            assert_counts_sound(res, g)

    @pytest.mark.parametrize(
        "bad",
        [
            [[math.nan, 0.0], [0.0, 1.0]],
            [[math.inf, 0.0], [0.0, -1.0]],
            [[1.0, complex(0.0, math.inf)], [0.0, 1.0]],
        ],
    )
    def test_rejects_non_finite_array(self, bad):
        # counted as Inertia(0, 0, 2) before, with numpy RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitian, match="NaN or infinite"):
                inertia(np.array(bad))

    def test_rejects_nan_asymmetry(self):
        sample = HermitianSample(
            points=np.zeros(2, complex), entries=np.eye(2, dtype=complex), asymmetry=math.nan,
            noise=0.0,
        )
        with pytest.raises(NotHermitian):
            inertia(sample)

    def test_rejects_vector(self):
        with pytest.raises(NotHermitian, match="square"):
            inertia(np.ones(3))

    def test_rejects_rectangular_array(self):
        with pytest.raises(NotHermitian, match="square"):
            inertia(np.ones((2, 3)))

    def test_rejects_scalar(self):
        with pytest.raises(NotHermitian, match="square"):
            inertia(5.0)

    def test_no_overcount_at_noise_zero(self):
        # B B* of rank r, made exactly Hermitian: noise 0, so only the
        # eigensolver's rounding separates its n - r zeros from the rest
        for j in range(60):
            rng = np.random.default_rng([1602, j])
            n = int(rng.integers(1, 65))
            r = int(rng.integers(0, n + 1))
            b = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r)) * (j % 2)
            a = b @ b.conj().T
            a = 0.5 * (a + a.conj().T)
            assert inertia(a) == Inertia(n_pos=r, n_neg=0, n_zero=n - r)

    def test_empty_gram_sample(self):
        g = gram_matrix(RECIP, [])
        assert g.entries.shape == (0, 0)
        assert inertia(g) == Inertia(0, 0, 0) == inertia(np.zeros((0, 0)))


def _disk_draws(rng, n):
    """n points of modulus in [0.05, 0.85] and uniform argument."""
    return rng.uniform(0.05, 0.85, n) * np.exp(2j * np.pi * rng.uniform(size=n))


class TestEstimator:
    def test_schur_gives_zero(self):
        assert estimate_negative_squares(Z, FAST) == 0

    def test_reciprocal_gives_one(self):
        assert estimate_negative_squares(RECIP, FAST) == 1

    def test_double_pole_gives_two(self):
        assert estimate_negative_squares(RationalFn([1], [0, 0, 1]), FAST) == 2

    def test_schur_positivity_sweep(self, rng):
        # Gram matrices of Schur functions are positive semidefinite
        for _ in range(8):
            s = random_blaschke(rng, 4).as_rational()
            n = int(rng.integers(3, 21))
            pts = 0.85 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
            assert inertia(gram_matrix(s, pts)).n_neg == 0

    def test_rank_one_negativity(self, rng):
        # kernel of 1/z is -v v*: every Gram matrix has exactly one negative
        for n in (2, 5, 12):
            pts = 0.8 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
            assert inertia(gram_matrix(RECIP, pts)).n_neg == 1

    def test_monotone_under_nesting(self, rng):
        pts = list(0.8 * np.sqrt(rng.uniform(size=24)) * np.exp(2j * np.pi * rng.uniform(size=24)))
        s = RationalFn([1], [0, 0, 1])
        prev = 0
        for n in (2, 4, 8, 16, 24):
            count = inertia(gram_matrix(s, pts[:n])).n_neg
            assert count >= prev
            prev = count

    def test_matches_blaschke_order(self, rng):
        from schurkit.rational import krein_langer_factor

        for _ in range(6):
            b = random_blaschke(rng, 2, min_degree=1, radius=0.6)
            s0 = random_blaschke(rng, 2).as_rational() * 0.8
            s = s0 / b.as_rational()
            _, bb = krein_langer_factor(s)
            assert estimate_negative_squares(s, FAST) == bb.order

    def test_counts_the_construction(self):
        # c B(zeros) / B(poles) with kappa disk poles has exactly kappa
        # negative squares; degree up to 16, inner (|c| = 1) and not
        for i in range(180):
            rng = np.random.default_rng([1600, i])
            kappa, inner = i % 9, i // 9 % 2 == 1
            zeros = _disk_draws(rng, int(rng.integers(0, 17 - kappa)))
            bz = BlaschkeProduct(zeros, polar(1.0, rng.uniform(0.0, 2.0 * math.pi))).as_rational()
            bp = BlaschkeProduct(_disk_draws(rng, kappa)).as_rational()
            scale = 1.0 if inner else rng.uniform(0.3, 0.95)
            s = RationalFn(bz.num * bp.den * scale, bz.den * bp.num)
            assert estimate_negative_squares(s) == kappa, (i, kappa)

    def test_deterministic_for_fixed_seed(self):
        a = estimate_negative_squares(RECIP, SamplePlan(seed=5))
        b = estimate_negative_squares(RECIP, SamplePlan(seed=5))
        assert a == b

    def test_pole_near_circle_still_counted(self):
        # a pole close to the unit circle, far outside the plan radius
        pole = 0.96 * np.exp(0.4j)
        s = RationalFn([1], [-pole, 1]) * 0.02
        assert estimate_negative_squares(s, FAST) == 1

    def test_no_analytic_points(self):
        # a plan whose disk holds no analytic point is not read: 0.5/z,
        # which is not unimodular, is counted on its Schur-Cohn matrix
        assert estimate_negative_squares(RECIP * 0.5, SamplePlan(radius=1e-3)) == 1


class TestSamplePlan:
    @pytest.mark.parametrize(
        "fields",
        [
            {"initial_points": 8.5},
            {"seed": 1.5},
            {"max_points": 40.5},
            {"initial_points": True},
            {"seed": False},
            {"max_points": np.float64(64.0)},
        ],
        ids=["fractional-initial", "fractional-seed", "fractional-max", "bool-initial",
             "bool-seed", "float-max"],
    )
    def test_refuses_non_integer_fields(self, fields):
        with pytest.raises(ValueError, match="must be an integer"):
            SamplePlan(**fields)

    def test_accepts_numpy_integers(self):
        plan = SamplePlan(max_points=np.int64(32), seed=np.uint32(7), initial_points=np.int8(8))
        assert estimate_negative_squares(RECIP, plan) == 1


# A seeded sampler (probes near each disk pole, then random draws clear of
# the poles) that builds Gram samples for the tests, and a reference copy of
# the allocating Gram build, which gram_matrix must match bit for bit.


def ref_pole_probes(poles, clearance):
    probes = []
    for occurrence, p in enumerate(p for p in poles if abs(p) < 1.0):
        spin = 1.0 + 0.37 * occurrence
        if abs(p) <= clearance:
            for angle in (0.2, 2.3, 4.1):
                probes.append(p + clearance * np.exp(1j * spin * angle))
        else:
            phi = clearance / abs(p)
            probes.append(p * np.exp(1j * spin * phi))
            probes.append(p * np.exp(-1j * spin * phi))
            probes.append(p * (1.0 - phi))
    return [
        z
        for z in probes
        if abs(z) < 1.0 and (poles.size == 0 or np.min(np.abs(z - poles)) >= 0.99 * clearance)
    ]


def ref_draw_points(rng, count, radius, clearance, poles, existing):
    out = list(existing)
    attempts = 0
    limit = 2000 * count
    while len(out) < count:
        attempts += 1
        if attempts > limit:
            raise NoAnalyticPoints(
                "pole clearance leaves too little of the sampling disk"
            )
        z = radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if poles.size and np.min(np.abs(z - poles)) <= clearance:
            continue
        out.append(z)
    return out


def ref_pole_distance(s, pts):
    poles = s.poles()
    if poles.size == 0:
        return np.full(np.shape(pts), np.inf)
    return np.min(np.abs(np.asarray(pts)[..., None] - poles[None, :]), axis=-1)


def ref_gram_matrix(s, points):
    s = as_rational(s)
    pts = np.asarray(points, dtype=complex).ravel()
    if np.any(ref_pole_distance(s, pts) <= POLE_CLEARANCE):
        raise PoleProximity("sample point too close to a pole")
    denom = 1.0 - np.outer(pts, np.conj(pts))
    if np.min(np.abs(denom)) <= DIAG_TOL * (1.0 + np.max(np.abs(pts)) ** 2):
        raise DiagonalSingularity("points z, w with z*conj(w) = 1 in the sample")
    sv = s(pts)
    raw = (1.0 - np.outer(sv, np.conj(sv))) / denom
    herm = 0.5 * (raw + raw.conj().T)
    scale = float(np.max(np.abs(raw), initial=0.0))
    noise = 256.0 * np.finfo(float).eps * (1.0 + float(np.max(np.abs(sv))) ** 2)
    noise /= float(np.min(np.abs(denom)))
    asym = float(np.max(np.abs(raw - raw.conj().T), initial=0.0))
    asym = 0.0 if scale <= noise else asym / scale
    return HermitianSample(points=pts, entries=herm, asymmetry=asym, noise=noise)


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def outcome(f, *args):
    try:
        return f(*args)
    except (NoAnalyticPoints, PoleProximity, DiagonalSingularity) as exc:
        return exc


def same_outcome(got, ref, compare):
    if isinstance(ref, Exception) or isinstance(got, Exception):
        return type(got) is type(ref) and str(got) == str(ref)
    return compare(got, ref)


def polar(r, t):
    return complex(r * math.cos(t), r * math.sin(t))


_angles = st.floats(0.0, 2.0 * math.pi)
# Pole moduli: inside the disk, on and near the plan radius 0.9 and the unit
# circle, and outside it (|p| >= 1 poles take part in the clearance test but
# get no probes).
_moduli = st.one_of(
    st.sampled_from([0.0, 0.5, 0.9, 0.95, 1.0, 1.2]),
    st.floats(0.0, 1.5),
    st.floats(0.85, 0.95),
)
_poles = st.lists(st.builds(polar, _moduli, _angles), max_size=8).map(
    lambda ps: np.array(ps, dtype=complex)
)
_clearances = st.one_of(st.sampled_from([0.05, 0.5]), st.floats(0.01, 0.6))
_radii = st.one_of(st.sampled_from([0.9]), st.floats(0.05, 0.99))
_seeds = st.integers(0, 2**32 - 1)
_bitwise = settings(max_examples=100, deadline=None, derandomize=True)


def _rational(num, den):
    num, den = Poly(num), Poly(den)
    if num.is_zero or den.is_zero:
        return RationalFn.constant(1.0)
    return RationalFn(num, den, reduce=False)


_reals = st.floats(-3.0, 3.0)
_coeffs = st.lists(st.builds(complex, _reals, _reals), min_size=1, max_size=6)
_functions = st.one_of(
    st.builds(_rational, _coeffs, _coeffs),
    _angles.map(lambda t: RationalFn.constant(polar(1.0, t))),  # kernel is noise
    st.just(RationalFn([1], [0, 1])),
)
_points = st.lists(st.builds(polar, st.floats(0.0, 0.99), _angles), min_size=1, max_size=48)


class TestGramBitwise:
    @_bitwise
    @given(_functions, _points, st.booleans(), st.booleans())
    def test_gram_matrix(self, s, points, near_pole, on_circle):
        if near_pole and s.poles().size:
            points = points + [complex(s.poles()[0]) + 1e-10]
        if on_circle:  # 1 - z conj(z) vanishes at a point of modulus 1
            points = points + [polar(1.0, 0.3)]
        got = outcome(gram_matrix, s, points)
        ref = outcome(ref_gram_matrix, s, points)

        def same(a, b):
            return (
                same_bits(a.points, b.points)
                and same_bits(a.entries, b.entries)
                and same_bits(a.asymmetry, b.asymmetry)
                and same_bits(a.noise, b.noise)
            )

        assert same_outcome(got, ref, same)

    @_bitwise
    @given(st.integers(2, 128), _seeds)
    def test_sampled_gram_matrix(self, count, seed):
        # a sample of pole probes plus seeded draws
        s = RationalFn([1, 0.3], [0.25, 0, 1])
        poles = s.poles()
        probes = ref_pole_probes(poles, 0.05)
        pts = ref_draw_points(np.random.default_rng(seed), count, 0.9, 0.05, poles, probes)
        got, ref = gram_matrix(s, pts), ref_gram_matrix(s, pts)
        assert same_bits(got.entries, ref.entries) and same_bits(got.noise, ref.noise)
        assert same_bits(got.asymmetry, ref.asymmetry)


# Reference copy of the eigensolver that symmetrized its input again, after
# inertia's checks: the eigenvalues LAPACK sees must not change now that the
# matrix goes to LAPACK as inertia leaves it. The counts are checked against
# 40-digit eigenvalues of that matrix instead (`assert_counts_sound`).


def ref_hermitian_eigenvalues(matrix):
    A = np.asarray(matrix, dtype=complex)
    return np.linalg.eigvalsh(0.5 * (A + A.conj().T))


def ref_eigenvalues(sample):
    """The eigenvalues as the symmetrizing eigensolver gave them."""
    if isinstance(sample, HermitianSample):
        if sample.asymmetry > HERM_TOL:
            raise NotHermitian(f"asymmetry {sample.asymmetry:.3g} exceeds {HERM_TOL:.3g}")
        H = sample.entries
    else:
        H = np.asarray(sample, dtype=complex)
        scale = float(np.max(np.abs(H), initial=0.0))
        if scale > 0 and np.max(np.abs(H - H.conj().T)) > HERM_TOL * scale:
            raise NotHermitian("matrix asymmetry exceeds tolerance")
        H = 0.5 * (H + H.conj().T)
    return ref_hermitian_eigenvalues(H)


def exact_eigenvalues(matrix):
    """Ascending eigenvalues of a Hermitian matrix of doubles, to 40 digits."""
    with mp.workdps(40):
        return sorted(mp.eighe(mp.matrix(matrix.tolist()), eigvals_only=True))


def assert_counts_sound(result, sample):
    """No eigenvalue of the matrix inertia counts is counted with the wrong
    sign, and every one beyond twice inertia's zero band is counted."""
    if isinstance(sample, HermitianSample):
        H, noise = sample.entries, sample.noise
    else:
        A = np.asarray(sample, dtype=complex)
        H, noise = 0.5 * (A + A.conj().T), float(np.max(np.abs(A - A.conj().T)))
    n = H.shape[0]
    band = n * (noise + 8 * np.finfo(float).eps * np.max(np.abs(H)))
    ev = exact_eigenvalues(H)
    assert result.n_pos + result.n_neg + result.n_zero == n
    assert all(e < 0 for e in ev[: result.n_neg])
    assert all(e > 0 for e in ev[n - result.n_pos :])
    assert sum(e < -2 * band for e in ev) <= result.n_neg
    assert sum(e > 2 * band for e in ev) <= result.n_pos


def inertia_and_eigenvalues(sample):
    """(inertia(sample), the eigenvalues it computed)."""
    seen = []

    def record(matrix):
        seen.append(hermitian_eigenvalues(matrix))
        return seen[-1]

    with mock.patch.object(kernels, "hermitian_eigenvalues", record):
        result = inertia(sample)
    assert len(seen) == 1
    return result, seen[0]


def same_eigenvalues(got, ref):
    return same_outcome(got, ref, lambda a, b: same_bits(a[1], b))


def check_inertia(sample):
    """inertia(sample) sees the reference eigenvalues bit for bit, and its
    counts are sound where the 40-digit oracle is cheap: it takes about
    0.03 s at n = 12, 0.1 s at n = 16 and 0.5 s at n = 32."""
    got = inertia_outcome(inertia_and_eigenvalues, sample)
    assert same_eigenvalues(got, inertia_outcome(ref_eigenvalues, sample))
    if not isinstance(got, Exception) and got[1].size <= 12:
        assert_counts_sound(got[0], sample)


def inertia_outcome(f, sample):
    try:
        return f(sample)
    except NotHermitian as exc:
        return exc


def _disk_rational(zeros, poles, c):
    return RationalFn(Poly.from_roots(zeros) * c, Poly.from_roots(poles), reduce=False)


_disk_points = st.lists(st.builds(polar, st.floats(0.0, 0.9), _angles), max_size=5)


def _near_hermitian(seed, n, skew, real):
    """A random n x n matrix, Hermitian up to a skew part of `skew` HERM_TOL
    relative to its scale (rejected by inertia above 1)."""
    rng = np.random.default_rng(seed)
    if real:
        b, e = rng.normal(size=(n, n)), rng.normal(size=(n, n))
    else:
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        e = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = b + b.conj().T
    return h + 0.5 * skew * HERM_TOL * np.max(np.abs(h)) * e / np.max(np.abs(e))


class TestInertiaBitwise:
    @_bitwise
    @given(_disk_points, _disk_points, _angles, st.integers(8, 128), _seeds)
    def test_gram_sample(self, zeros, poles, phase, count, seed):
        # a sample of pole probes plus seeded draws
        s = _disk_rational(zeros, poles, polar(1.0, phase))
        disk_poles = s.poles()
        probes = ref_pole_probes(disk_poles, 0.05)
        pts = outcome(ref_draw_points, np.random.default_rng(seed), count, 0.9, 0.05, disk_poles, probes)
        sample = outcome(gram_matrix, s, [] if isinstance(pts, Exception) else pts)
        if isinstance(sample, Exception) or sample.entries.size == 0:
            return
        assert np.array_equal(sample.entries, sample.entries.conj().T)
        check_inertia(sample)

    @_bitwise
    @given(_seeds, st.integers(1, 48), st.floats(0.0, 1.5), st.booleans())
    @example(1, 1, 0.0, True)
    @example(2, 16, 1.0, False)
    def test_raw_array(self, seed, n, skew, real):
        check_inertia(_near_hermitian(seed, n, skew, real))


# The kernel core: a function's negative squares are those of one d x d
# coefficient matrix G (its own, or its denominator's Schur-Cohn matrix).


def _unimodular_rational(zeros, poles, c):
    """c B(zeros) / B(poles), |c| = 1: unimodular of degree len(zeros) + len(poles)."""
    bz = BlaschkeProduct(zeros, c).as_rational()
    bp = BlaschkeProduct(poles).as_rational()
    return RationalFn(bz.num * bp.den, bz.den * bp.num, reduce=False)


def _seeded_sample(s, count, seed):
    poles = s.poles()
    pts = ref_draw_points(np.random.default_rng(seed), count, 0.9, 0.05, poles, ref_pole_probes(poles, 0.05))
    return gram_matrix(s, pts)


def _scaled_pair(s):
    """N and D of s padded to d + 1 coefficients, over their largest modulus."""
    top = max(np.abs(s.num.coeffs).max(initial=0.0), np.abs(s.den.coeffs).max())
    pad = [np.pad(p.coeffs, (0, s.degree + 1 - p.coeffs.size)) / top for p in (s.num, s.den)]
    return pad[0].astype(complex), pad[1].astype(complex)


def _generalized_schur(rng, d, kappa, inner):
    """Untrimmed c B(zeros) / B(poles) of degree d with kappa disk poles,
    built from coefficient arrays, so no trim or reduction changes it."""
    zeros, poles = _disk_draws(rng, d - kappa), _disk_draws(rng, kappa)
    num = np.array([rng.uniform(0.3, 0.95) if not inner else 1.0], dtype=complex)
    den = np.ones(1, dtype=complex)
    for a in zeros:
        num, den = np.convolve(num, [-a, 1]), np.convolve(den, [1, -np.conj(a)])
    for p in poles:
        num, den = np.convolve(num, [1, -np.conj(p)]), np.convolve(den, [-p, 1])
    return RationalFn(Poly(num, trim=False), Poly(den, trim=False), reduce=False)


_core_points = st.lists(st.builds(polar, st.floats(0.0, 0.9), _angles), max_size=8)


class TestKernelCore:
    @pytest.mark.parametrize("d", [0, 1, 2, 5, 9, 16])
    def test_remainder_identity(self, d):
        # row d and column d of Q are the coefficients of D D# - N N#
        rng = np.random.default_rng([2000, d])
        for _ in range(10):
            num = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            den = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            s = RationalFn(Poly(num), Poly(den), reduce=False)
            n, m = _scaled_pair(s)
            Q = kernels._kernel_core(n, m)
            rem = np.convolve(m, m[::-1].conj()) - np.convolve(n, n[::-1].conj())
            tol = 8 * (d + 1) * np.finfo(float).eps
            assert Q.shape == (d + 1, d + 1)
            assert np.abs(Q[:, d] - rem[: d + 1]).max() <= tol
            assert np.abs(Q[d, ::-1] - rem[d:]).max() <= tol

    @_bitwise
    @given(_core_points, _core_points, _angles, st.integers(0, 64), _seeds)
    @example([polar(0.3, k) for k in range(8)], [polar(0.8, k + 0.5) for k in range(8)], 1.0, 0, 7)
    def test_counts_the_poles(self, zeros, poles, phase, extra, seed):
        # c B(zeros) / B(poles) with no zero near a pole has len(poles)
        # negative squares, and no sample of its kernel sees more
        assume(all(abs(a - b) >= 0.01 for a in zeros for b in poles))
        s = _unimodular_rational(zeros, poles, polar(1.0, phase))
        with mock.patch.object(kernels, "gram_matrix", wraps=gram_matrix) as spy:
            assert estimate_negative_squares(s) == len(poles)
        spy.assert_not_called()
        sample = outcome(_seeded_sample, s, s.degree + extra, seed)
        if not isinstance(sample, Exception):
            assert inertia(sample).n_neg <= len(poles)

    def test_shared_factor_is_cancelled_first(self):
        # 1/z with the factor z - 0.3 left in: the public constructor cancels
        # it, as the count's precondition (a reduced s) requires
        s = RationalFn(Poly([-0.3, 1]), Poly([0, 1]) * Poly([-0.3, 1]))
        assert s.degree == 1
        with mock.patch.object(kernels, "gram_matrix", wraps=gram_matrix) as spy:
            assert estimate_negative_squares(s, FAST) == 1
        spy.assert_not_called()

    def test_not_unimodular_is_never_answered(self):
        # by its own core: each function below is counted on the Schur-Cohn
        # matrix of its denominator, the core of D# / D, and no point is drawn
        s = _unimodular_rational([0.3, -0.5j], [0.4j], 1j)
        plan = SamplePlan(initial_points=128, max_points=128, seed=5)
        for f, kappa in ((s * 0.8, 1), (RECIP * 0.5, 1), (RationalFn.constant(0.5), 0)):
            n, m = _scaled_pair(f)
            rem = np.convolve(m, m[::-1].conj()) - np.convolve(n, n[::-1].conj())
            assert np.abs(rem).max() > CIRCLE_TOL * np.vdot(m, m).real
            with mock.patch.object(kernels, "_kernel_core", wraps=kernels._kernel_core) as core, \
                    mock.patch.object(kernels, "gram_matrix", wraps=gram_matrix) as spy:
                assert estimate_negative_squares(f, plan) == kappa
            spy.assert_not_called()
            (N, D), _ = core.call_args
            assert core.call_count == 1
            assert np.array_equal(D, m) and np.array_equal(N, m[::-1].conj())

    def test_plan_is_not_read(self):
        # a plan whose disk holds no analytic point still counts 1/z exactly
        assert estimate_negative_squares(RECIP, SamplePlan(radius=1e-3)) == 1
        assert estimate_negative_squares(RationalFn.constant(np.exp(0.7j)), SamplePlan(radius=1e-3)) == 0


class TestCount:
    """The count is exact or refused: never a finite number for |s| > 1, and
    a certified winding number where the matrix has a zero-band eigenvalue."""

    @pytest.mark.parametrize("d", [17, 24, 32, 48, 64])
    @pytest.mark.parametrize("inner", [True, False], ids=["inner", "scaled"])
    def test_degree_sweep(self, d, inner):
        for i in range(3):
            rng = np.random.default_rng([2200, d, i, inner])
            kappa = int(rng.integers(0, 9))
            s = _generalized_schur(rng, d, kappa, inner)
            try:
                assert estimate_negative_squares(s) == kappa, (i, kappa)
            except SchurkitError:
                assert d > 24, i  # refusals were measured only from d = 32 up

    @pytest.mark.parametrize(
        "f",
        [
            RationalFn.constant(2.0),
            _unimodular_rational([0.3, -0.5j], [0.4j], 1j) * (1 + 1e-6),
            Z * Z * 1.5,
        ],
        ids=["two", "unimodular-times-1+1e-6", "1.5z^2"],
    )
    def test_modulus_above_one_is_refused(self, f):
        with pytest.raises(NotGeneralizedSchur, match="infinitely many"):
            estimate_negative_squares(f)

    def test_zero_band_falls_back_to_the_winding_number(self):
        # D = (z - 0.5)(z - 2) has D# = D, so its Schur-Cohn matrix is 0
        D = Poly([-0.5, 1]) * Poly([-2, 1])
        s = RationalFn(Poly([0.25]), D)
        n, m = _scaled_pair(s)
        assert np.array_equal(m[::-1].conj(), m)
        with mock.patch.object(kernels, "_winding", wraps=kernels._winding) as winding:
            assert estimate_negative_squares(s) == 1
        winding.assert_called_once()

    def test_zero_on_the_circle_is_refused(self):
        # unreduced D# / D with D(1) = 0: the matrix is singular and the
        # winding number of D is not certified near z = 1
        D = Poly([-1, 1]) * Poly([-0.5, 1])
        s = RationalFn(Poly(D.coeffs[::-1].conj()), D, reduce=False)
        with pytest.raises(BoundaryPole, match="zero band"):
            estimate_negative_squares(s)
