"""Kernel evaluation, Gram inertia, and the negative-squares estimator."""

import math
import warnings
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_blaschke
from schurkit import kernels
from schurkit.errors import (
    DiagonalSingularity,
    NoAnalyticPoints,
    NotHermitian,
    PoleProximity,
)
from schurkit.kernels import (
    HermitianSample,
    Inertia,
    SamplePlan,
    _draw_points,
    _pole_probes,
    estimate_negative_squares,
    gram_matrix,
    hermitian_eigenvalues,
    inertia,
    schur_kernel,
)
from schurkit.rational import BlaschkeProduct, Poly, RationalFn, as_rational
from schurkit.tolerances import DIAG_TOL, HERM_TOL, POLE_CLEARANCE

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
    """Samples whose squared modulus overflows a double raise NotHermitian
    naming the overflow; one at the largest modulus that squares finitely
    still samples."""

    ROOT_MAX = math.sqrt(np.finfo(float).max)

    def test_overflowing_samples_raise(self):
        big = RationalFn(Poly([1e200, 1e200]), Poly.one(), reduce=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitian, match="overflow"):
                gram_matrix(big, [0.1, 0.4j])
            with pytest.raises(NotHermitian, match="overflow"):
                estimate_negative_squares(big, FAST)

    def test_threshold_is_the_first_overflowing_square(self):
        points = [0.1, 0.4j]
        edge = gram_matrix(RationalFn.constant(self.ROOT_MAX), points)
        assert edge.noise < np.inf
        above = math.nextafter(self.ROOT_MAX, math.inf)
        with pytest.raises(OverflowError):
            above**2
        with pytest.raises(NotHermitian, match="overflow"):
            gram_matrix(RationalFn.constant(above), points)


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
        # a pole close to the unit circle is reached by the probe points
        # even when the random draws stay inside the plan radius
        pole = 0.96 * np.exp(0.4j)
        s = RationalFn([1], [-pole, 1]) * 0.02
        assert estimate_negative_squares(s, FAST) == 1

    def test_no_analytic_points(self):
        from schurkit.errors import NoAnalyticPoints

        with pytest.raises(NoAnalyticPoints):
            estimate_negative_squares(RECIP, SamplePlan(radius=1e-3))


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


# Reference copies of the one-point-at-a-time sampler and the allocating Gram
# build; the array versions in kernels.py must match them bit for bit and
# consume the seeded stream exactly as they do.


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


class TestSamplerBitwise:
    @_bitwise
    @given(_poles, _clearances)
    def test_pole_probes(self, poles, clearance):
        got = _pole_probes(poles, clearance)
        assert same_bits(np.array(got, dtype=complex), np.array(ref_pole_probes(poles, clearance), dtype=complex))

    @_bitwise
    @given(_poles, st.integers(2, 128), _radii, _clearances, _seeds)
    def test_draw_points(self, poles, count, radius, clearance, seed):
        existing = ref_pole_probes(poles, clearance)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = outcome(_draw_points, rng, count, radius, clearance, poles, existing)
        ref = outcome(ref_draw_points, ref_rng, count, radius, clearance, poles, existing)
        assert same_outcome(got, ref, lambda a, b: same_bits(np.array(a, complex), np.array(b, complex)))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(2, 4), st.floats(0.0, 4e-3), _seeds)
    # a pole at the centre whose clearance covers the whole disk
    @example(2, 0.0, 1)
    def test_exhausted_disk(self, count, free, seed):
        # A pole at 0 leaves only the annulus of area fraction `free` free, so
        # the 2000 * count candidates may run out before `count` points land.
        radius = 0.9
        poles = np.array([0.0, 0.7j], dtype=complex)
        clearance = radius * math.sqrt(1.0 - free)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = outcome(_draw_points, rng, count, radius, clearance, poles, [])
        ref = outcome(ref_draw_points, ref_rng, count, radius, clearance, poles, [])
        assert same_outcome(got, ref, lambda a, b: same_bits(np.array(a, complex), np.array(b, complex)))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if free == 0.0:
            assert isinstance(got, NoAnalyticPoints)


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
        # the estimator's own sample: pole probes plus seeded draws
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
        # the estimator's own sample: pole probes plus seeded draws
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


# The range path: a unimodular function's Gram sample counted on its
# d-dimensional range must give inertia's counts whenever it answers.


def _unimodular_rational(zeros, poles, c):
    """c B(zeros) / B(poles), |c| = 1: unimodular of degree len(zeros) + len(poles)."""
    bz = BlaschkeProduct(zeros, c).as_rational()
    bp = BlaschkeProduct(poles).as_rational()
    return RationalFn(bz.num * bp.den, bz.den * bp.num, reduce=False)


def _estimator_sample(s, count, seed):
    poles = s.poles()
    pts = _draw_points(np.random.default_rng(seed), count, 0.9, 0.05, poles, _pole_probes(poles, 0.05))
    return gram_matrix(s, pts)


_range_points = st.lists(st.builds(polar, st.floats(0.0, 0.9), _angles), max_size=8)


class TestRangeInertia:
    @_bitwise
    @given(_range_points, _range_points, _angles, st.integers(64, 128), _seeds)
    def test_agrees_with_inertia(self, zeros, poles, phase, count, seed):
        s = _unimodular_rational(zeros, poles, polar(1.0, phase))
        assert kernels._is_unimodular(s)
        sample = outcome(_estimator_sample, s, count, seed)
        if isinstance(sample, Exception):
            return
        got = inertia_outcome(lambda x: kernels._range_inertia(x, s.den, s.degree), sample)
        ref = inertia_outcome(inertia, sample)
        if got is not None:
            assert same_outcome(got, ref, lambda a, b: a == b)

    def test_answers_on_the_estimator_sample(self):
        s = _unimodular_rational([0.3, -0.5j, 0.7 + 0.1j], [0.4j, -0.6], 1j)
        sample = _estimator_sample(s, 128, 1)
        got = kernels._range_inertia(sample, s.den, s.degree)
        assert got == inertia(sample) == Inertia(n_pos=3, n_neg=2, n_zero=123)

    def test_inflated_entries_fall_back(self):
        s = _unimodular_rational([0.3, -0.5j], [0.4j], 1j)
        sample = _estimator_sample(s, 96, 2)
        assert kernels._range_inertia(sample, s.den, s.degree) is not None
        # a full-rank Hermitian bump far above the zero band leaves the range
        bump = _near_hermitian(3, 96, 0.0, False)
        bump *= 1e-6 * np.max(np.abs(sample.entries)) / np.max(np.abs(bump))
        inflated = HermitianSample(sample.points, sample.entries + bump, sample.asymmetry, sample.noise)
        assert kernels._range_inertia(inflated, s.den, s.degree) is None

    def test_band_below_the_solver_error_falls_back(self):
        # with no evaluation error the band is 8 n eps max|entry|, below the
        # 8 n eps max|mu| the certificate allows the dense solver
        s = _unimodular_rational([0.3, -0.5j], [0.4j], 1j)
        sample = _estimator_sample(s, 96, 2)
        exact = HermitianSample(sample.points, sample.entries, sample.asymmetry, 0.0)
        assert kernels._range_inertia(exact, s.den, s.degree) is None

    def test_asymmetry_raises_first(self):
        s = _unimodular_rational([0.3], [0.4j], 1.0)
        sample = _estimator_sample(s, 64, 4)
        skewed = HermitianSample(sample.points, sample.entries, 2 * HERM_TOL, sample.noise)
        with pytest.raises(NotHermitian):
            kernels._range_inertia(skewed, s.den, s.degree)

    def test_not_unimodular_is_never_tried(self):
        s = _unimodular_rational([0.3, -0.5j], [0.4j], 1j) * 0.8
        plan = SamplePlan(initial_points=128, max_points=128, seed=5)
        assert not kernels._is_unimodular(s)
        with mock.patch.object(kernels, "_range_inertia", wraps=kernels._range_inertia) as spy:
            assert estimate_negative_squares(s, plan) == 1
            spy.assert_not_called()
            assert estimate_negative_squares(s / 0.8, plan) == 1
            spy.assert_called_once()

    def test_kappa_six_samples_grow(self):
        # 18 pole probes outnumber the 8 and 16 points of the first rounds:
        # the round that adds no points is not sampled again
        s = _unimodular_rational([0.2j, -0.4], [0.5 * np.exp(1j * t) for t in range(6)], 1.0)
        sizes = []
        draws = []

        def record_gram(s, pts):
            sizes.append(len(pts))
            return gram_matrix(s, pts)

        def record_draw(*args):
            draws.append(args[1])
            return _draw_points(*args)

        with mock.patch.object(kernels, "gram_matrix", record_gram), \
                mock.patch.object(kernels, "_draw_points", record_draw):
            assert estimate_negative_squares(s) == 6
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        assert len(sizes) < len(draws)
