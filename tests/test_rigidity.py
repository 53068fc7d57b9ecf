"""Paths, order estimation, Julia quotients, rigidity verdicts, horocycles."""

import dataclasses
import functools
from collections import Counter

import mpmath as mp
import numpy as np
import pytest

from conftest import (
    random_admissible_parameter,
    random_blaschke,
    random_interp_data,
    unimodular,
)
from schurkit import rigidity
from schurkit.errors import (
    HypothesisNotMet,
    InvalidContactPoint,
    ModulusAtLeastOne,
    NotSchur,
)
from schurkit.interpolation import InterpData, coeff_matrix, recover_parameter, solve
from schurkit.rational import INF, Poly, RationalFn
from schurkit.rigidity import (
    PathSpec,
    affine_equivalences,
    affine_lft_bound,
    cayley_decomposition,
    contact_order_probe,
    estimate_order_on_path,
    horocycle_check,
    julia_quotient,
    nontangential_path,
    quartic_perturbation,
    rigidity_check,
    schur_circle_check,
)
from schurkit.tolerances import CIRCLE_TOL

D4 = InterpData(z1=1.0, k=1, tau0=1.0, tau=(1.0,), z0=-1.0)
D5 = InterpData(z1=1.0, k=1, tau0=1.0, tau=(-1.0,), z0=-1.0)

FIT_PATH = PathSpec(ratio=0.6, count=10)

NON_FINITE = [complex("nan"), complex("inf"), complex(1.0, float("nan"))]


def affine(alpha):
    return RationalFn(Poly([1 - alpha, alpha]), Poly.one(), reduce=False)


def quartic_half():
    return quartic_perturbation(0.5, 1 / 20)


class TestPaths:
    def test_radial_path_values(self):
        pts = nontangential_path(PathSpec(z1=1.0, angle=0.0, r0=0.5, ratio=0.5, count=3))
        assert np.allclose(pts, [0.5, 0.75, 0.875])

    def test_path_toward_minus_one(self):
        pts = nontangential_path(PathSpec(z1=-1.0, angle=0.0, r0=0.5, ratio=0.5, count=3))
        assert np.allclose(pts, [-0.5, -0.75, -0.875])
        assert np.allclose(pts.imag, 0.0)

    def test_angled_path_obeys_stolz_bound(self):
        spec = PathSpec(z1=1.0, angle=np.pi / 4, r0=0.5, ratio=0.5, count=12)
        pts = nontangential_path(spec)
        for z in pts:
            assert abs(z) < 1.0
            assert abs(z - 1.0) < 2.0 * (1.0 - abs(z))

    def test_derived_constant_covers_path(self, rng):
        for _ in range(20):
            spec = PathSpec(
                z1=unimodular(rng),
                angle=rng.uniform(-1.2, 1.2),
                r0=rng.uniform(0.05, 0.5),
                ratio=rng.uniform(0.3, 0.8),
                count=10,
            )
            K = spec.stolz_constant
            for z in nontangential_path(spec):
                assert abs(z - spec.z1) < K * (1.0 - abs(z)) + 1e-12

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            PathSpec(angle=np.pi / 2)
        with pytest.raises(ValueError):
            PathSpec(ratio=1.0)
        with pytest.raises(ValueError, match="count"):
            PathSpec(count=1)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_endpoint(self, bad):
        with pytest.raises(ValueError, match="unimodular"):
            PathSpec(z1=bad)


class TestOrderEstimate:
    def test_cubic_power(self):
        f = RationalFn(Poly([1, -1]) ** 3, Poly.one())
        slope = estimate_order_on_path(f, nontangential_path(FIT_PATH), 1.0)
        assert abs(slope - 3.0) < 0.05

    def test_solution_minus_model(self):
        s = solve(D4, RationalFn([0, -1]))
        diff = s - RationalFn.x()
        slope = estimate_order_on_path(diff, nontangential_path(FIT_PATH), 1.0)
        assert abs(slope - 3.0) < 0.2
        assert diff.vanishing_order(1.0) == 3

    def test_quartic_gap(self):
        diff = quartic_half() - affine(0.5)
        slope = estimate_order_on_path(diff, nontangential_path(FIT_PATH), 1.0)
        assert abs(slope - 4.0) < 0.2

    def test_zero_function_reports_inf(self):
        assert estimate_order_on_path(lambda z: 0.0, nontangential_path(FIT_PATH), 1.0) == INF

    def test_one_usable_value_is_refused(self):
        path = nontangential_path(FIT_PATH)
        with pytest.raises(ValueError, match="two"):
            estimate_order_on_path(RationalFn.constant(1.0), path[:1], 1.0)
        with pytest.raises(ValueError, match="two"):
            estimate_order_on_path(lambda z: float(z == path[0]), path, 1.0)

    def test_agrees_with_exact_orders(self, rng):
        for m in (1, 2, 3, 4):
            f = RationalFn(Poly([1, -1]) ** m * Poly([2, 0.3]), Poly([3, 0, 1]))
            slope = estimate_order_on_path(f, nontangential_path(FIT_PATH), 1.0)
            assert abs(slope - f.vanishing_order(1.0)) < 0.2


class TestJuliaQuotient:
    def test_identity_map_value(self):
        assert abs(julia_quotient(RationalFn.x(), 0.5, 1.0) - 1.0 / 3.0) < 1e-14

    def test_zero_function_is_one(self):
        for z in (0.2, -0.5j, 0.3 + 0.3j):
            assert abs(julia_quotient(RationalFn.constant(0.0), z, 1.0) - 1.0) < 1e-14

    def test_decays_along_radius_for_identity(self):
        vals = [julia_quotient(RationalFn.x(), 1 - 1 / n, 1.0) for n in (4, 16, 64, 256)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-2

    def test_rejects_modulus_one(self):
        with pytest.raises(ModulusAtLeastOne):
            julia_quotient(RationalFn.constant(1.0), 0.3, 1.0)


class TestContactProbe:
    def test_constant_is_identical(self):
        rep = contact_order_probe(RationalFn.constant(1j), 1j)
        assert rep.identical and rep.order == INF

    def test_identity_map_order_one(self):
        rep = contact_order_probe(RationalFn.x(), 1.0)
        assert not rep.identical and rep.order == 1

    def test_blaschke_sweep_order_exactly_one(self, rng):
        for _ in range(100):
            b = random_blaschke(rng, 3, min_degree=1).as_rational()
            x = b(1.0)
            rep = contact_order_probe(b, x)
            assert rep.order == 1

    def test_rejects_non_schur(self):
        with pytest.raises(NotSchur):
            contact_order_probe(RationalFn.constant(2.0), 1.0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_value(self, bad):
        with pytest.raises(ValueError, match="unimodular"):
            contact_order_probe(RationalFn.x(), bad)


class TestRigidityCheck:
    def test_forced_identity_burns_krantz(self):
        v = rigidity_check(D4, -1.0, RationalFn.x())
        assert v.forced_identity and v.observed_order == INF and v.required_order == 4

    @pytest.mark.parametrize("k", range(1, 9))
    def test_forced_identity_at_every_order(self, k):
        # T(x) with numerator and denominator scaled is made monic again, so
        # its coefficients differ from T(x)'s in the last bits: the
        # difference is dust against its products, and the identity is
        # forced. The seeded solution deviates from x at order 0.
        data, s = seeded_solution(k)
        x = -data.tau0
        b = solve(data, x)
        for c in (3.0, 0.7j, 1.0 / 3.0):
            v = rigidity_check(data, x, RationalFn(b.num * c, b.den * c, reduce=False))
            assert v.forced_identity and v.observed_order == INF and v.required_order == 2 * k + 2
        v = rigidity_check(data, x, s)
        assert not v.forced_identity and v.observed_order == 2 * k

    def test_not_forced_at_order_three(self):
        s = solve(D4, RationalFn([0, -1]))
        v = rigidity_check(D4, -1.0, s)
        assert not v.forced_identity and v.observed_order == 3

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_contact_point(self, bad):
        with pytest.raises(InvalidContactPoint, match="unimodular"):
            rigidity_check(D4, bad, RationalFn.x())

    def test_forced_identity_reciprocal(self):
        v = rigidity_check(D5, -1.0, RationalFn([1], [0, 1]))
        assert v.forced_identity and v.observed_order == INF

    def test_not_forced_reciprocal_family(self):
        s = solve(D5, RationalFn([0, -1]))
        v = rigidity_check(D5, -1.0, s)
        assert not v.forced_identity and v.observed_order == 3

    def test_rejects_contact_at_tau0(self):
        with pytest.raises(InvalidContactPoint):
            rigidity_check(D4, 1.0, RationalFn.x())

    def test_rejects_contact_within_admis_tol_of_tau0(self):
        # T(x) for x this close to tau0 is an inadmissible parameter: the
        # refusal names the contact point, not the inner solve's parameter.
        data = InterpData(z1=1, k=1, tau0=1, tau=(0.5,), z0=-1)
        s = solve(data, -1.0)
        with pytest.raises(InvalidContactPoint, match=r"\|x - tau0\| = 1e-09 <= ADMIS_TOL = 1e-06"):
            rigidity_check(data, np.exp(1e-9j), s)

    def test_rejects_non_solution(self):
        with pytest.raises(HypothesisNotMet):
            rigidity_check(D5, -1.0, RationalFn.x())

    def test_dichotomy_on_random_parameters(self, rng):
        for data in (D4, D5):
            for _ in range(10):
                s1 = random_admissible_parameter(rng, data)
                s = solve(data, s1)
                v = rigidity_check(data, -1.0, s)
                identical = (s1 - (-1.0)).is_zero
                assert v.forced_identity == identical

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_verdict_independent_of_an_earlier_recovery(self, k):
        # Two equal solutions: one recovered first, one not. The verdict,
        # residual report included, must not depend on the kept parameter.
        rng = np.random.default_rng(7300 + k)
        data = random_interp_data(rng, k)
        cm = coeff_matrix(data)
        x = -data.tau0
        for s1 in (random_admissible_parameter(rng, data), RationalFn.constant(x)):
            plain, recovered = solve(data, s1, theta=cm), solve(data, s1, theta=cm)
            recover_parameter(recovered, data, theta=cm)
            v_plain, v_recovered = rigidity_check(data, x, plain), rigidity_check(data, x, recovered)
            assert v_plain == v_recovered
            assert "deviates from x" in v_plain.residual_report or v_plain.forced_identity

    @pytest.mark.parametrize(
        "s1, order",
        [
            (RationalFn([0, -1]), 1),
            (RationalFn([0.5, -0.5]), 0),
            (RationalFn([1], [-1, 1]), 0),
        ],
    )
    def test_deviation_order_is_observed_minus_2k(self, s1, order):
        # s - T(x) = (s1 - x) (z - z1)^(2k) times a unit at z1: -z deviates
        # from x = -1 at order 1 and (1 - z) / 2 at order 0; a parameter
        # with a pole at z1 gives contact 2k, read as order 0.
        v = rigidity_check(D4, -1.0, solve(D4, s1))
        assert v.observed_order == 2 + order
        assert f"recovered parameter deviates from x at order {order};" in v.residual_report

    def test_contact_below_2k_is_reported(self, monkeypatch):
        # s and T(x) each within the expansion tolerance of the datum at c_k,
        # on opposite sides of it: they agree only to order k < 2k, which the
        # report names instead of a negative deviation order.
        data = InterpData(z1=1.0, k=2, tau0=1.0, tau=(1j, -1j), z0=-1.0)
        b = solve(data, -1.0)
        bump = Poly([-1.0, 1.0]) ** 2 * (0.9e-7 * b.den)  # 0.9 ORDER_TOL (z - 1)^2

        def moved(sign):
            return RationalFn(b.num + bump * sign, b.den, reduce=False)

        monkeypatch.setattr(rigidity, "solve", lambda *args, **kwargs: moved(1.0))
        v = rigidity_check(data, -1.0, moved(-1.0))
        assert not v.forced_identity and v.observed_order == 2
        assert "s and T(x) pass the expansion check but differ at c2;" in v.residual_report
        assert "deviates" not in v.residual_report

    def test_contact_order_of_an_ill_conditioned_solution(self):
        # A k = 4 solution for a parameter other than x, so its contact with
        # T(x) at z1 is exactly 2k = 8. The valuation of the unreduced
        # difference s - T(x), cut at 1e-7 of its largest coefficient, reads
        # 3 here; the Taylor coefficients match through index 7 and differ
        # at index 8 at the expansion tolerance.
        def c(re, im):
            return complex(float.fromhex(re), float.fromhex(im))

        data = InterpData(
            z1=c("-0x1.1c1c6ed1bfcf3p-3", "0x1.fb0ca30b895e9p-1"),
            k=4,
            tau0=c("-0x1.f606b3426b403p-1", "0x1.92449c1b945f6p-3"),
            tau=(
                c("0x1.b45c5f304fafbp-2", "0x1.d0488a5afb42bp-2"),
                c("-0x1.2d981332ba064p+2", "-0x1.189bc81f4d474p+1"),
                c("0x1.ee272936bef10p+1", "-0x1.8c6485b209638p+3"),
                c("0x1.e19a77f292464p+0", "-0x1.6d14f42d210ddp+2"),
            ),
            z0=c("-0x1.e2025746aec64p-1", "-0x1.59517d2c23f2ap-2"),
        )
        num = [
            c("-0x1.ea20f387c5635p-1", "-0x1.2817f051a3ccap-2"),
            c("-0x1.8c4f62f658c38p-6", "-0x1.dc01a5c445f82p+1"),
            c("0x1.52d79acbcd0abp+2", "-0x1.4fff5b0083826p+1"),
            c("0x1.420227cd2e1cap+2", "0x1.8dc0ea4239e85p+1"),
            c("-0x1.7e56b83ecbf38p-2", "0x1.da46c706934c8p+1"),
            c("-0x1.f69bde8cd7774p-1", "0x1.94ca67af809d0p-3"),
        ]
        den = [
            c("0x1.c3e086a9e3a47p-1", "0x1.e4697dc88d033p-2"),
            c("-0x1.6d8d62e781efcp-1", "0x1.d3d602aa0a7b1p+1"),
            c("-0x1.6dc25175edf00p+2", "0x1.8515d861961e7p+0"),
            c("-0x1.13ca50375c446p+2", "-0x1.02ccbf8b2bdb4p+2"),
            c("0x1.1934bb41c9e20p+0", "-0x1.c6c705bb69946p+1"),
            c("0x1.0000000000000p+0", "0x0.0p+0"),
        ]
        s = RationalFn(Poly(num), Poly(den), reduce=False)
        v = rigidity_check(data, -data.tau0, s)
        assert not v.forced_identity and v.observed_order == 8 and v.required_order == 10


def seeded_solution(k):
    """A solution of a seeded datum with contact order k, and its datum."""
    rng = np.random.default_rng([7900, k, 0])
    data = random_interp_data(rng, k, min_ratio=0.3 if k < 6 else 1e-3)
    return data, solve(data, random_admissible_parameter(rng, data))


def oracle_disk_poles(s):
    """Zeros of s.den in the open disk, from 30-digit roots of its double
    coefficients, and the least distance of a zero from the circle."""
    with mp.workdps(30):
        coeffs = [mp.mpc(c.real, c.imag) for c in s.den.coeffs[::-1].tolist()]
        moduli = [abs(r) for r in mp.polyroots(coeffs, maxsteps=200, extraprec=100)]
        return sum(m < 1 for m in moduli), float(min(abs(m - 1) for m in moduli))


class TestClassNote:
    """The class note counts disk poles on the Schur-Cohn matrix of s.den."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_count_matches_the_oracle(self, k):
        data, s = seeded_solution(k)
        count, margin = oracle_disk_poles(s)
        assert margin > 1e-7  # the oracle decides every zero
        v = rigidity_check(data, -data.tau0, s)
        ev = coeff_matrix(data)._pick_inertia.n_neg
        note = f"; disk pole count {count} vs negative Pick eigenvalues {ev}"
        assert v.residual_report.endswith(note)

    @pytest.mark.parametrize(
        "den, band",
        [
            ((1.0, 1.0), (0, 1)),  # a pole at -1: D# = D
            ((1.0, -2.5, 1.0), (0, 2)),  # (z - 0.5)(z - 2): D# = D, one pole in the disk
        ],
    )
    def test_zero_band_gives_a_range(self, den, band):
        s = RationalFn(Poly.one(), Poly(den), reduce=False)
        assert rigidity._disk_poles(s) == band
        low, high = band[0], band[0] + band[1]
        for ev in range(high + 2):
            note = rigidity._class_note(s, ev)
            expected = f"disk pole count {low} to {high} vs negative Pick eigenvalues {ev}"
            assert note.startswith(expected)
            assert ("class mismatch" in note) == (ev > high)

    def test_k8_verdict_takes_no_roots(self, monkeypatch):
        data, s = seeded_solution(8)
        expected = rigidity_check(data, -data.tau0, s)

        def refuse(self):
            raise AssertionError("Poly.roots called")

        monkeypatch.setattr(Poly, "roots", refuse)
        fresh = RationalFn(s.num, s.den, reduce=False)  # no cached poles
        assert rigidity_check(data, -data.tau0, fresh) == expected


# A pole 1e-12 inside the circle, halfway between two circle samples.
NEAR_CIRCLE = (1.0 - 1e-12) * np.exp(1j * (0.31 + np.pi / 512))


class TestSchurChecksTakeNoRoots:
    """Every Schur check decides "a pole in the closed disk" on the Schur-Cohn
    matrix of the denominator, with Poly.roots refusing to run. Each case
    has |s| <= 0.2 on the circle samples, so only the pole rule refuses it."""

    @pytest.fixture(autouse=True)
    def no_roots(self, monkeypatch):
        def refuse(self):
            raise AssertionError("Poly.roots called")

        monkeypatch.setattr(Poly, "roots", refuse)

    @pytest.mark.parametrize(
        "den",
        [(-0.5, 1.0), (1.0, -2.5, 1.0), (-NEAR_CIRCLE, 1.0)],
        ids=["pole-at-half", "all-zero-band", "pole-1e-12-inside"],
    )
    def test_disk_pole_is_refused(self, den):
        s = RationalFn(Poly.constant(1e-3), Poly(den), reduce=False)
        count, margin = oracle_disk_poles(s)
        assert count >= 1 and margin >= 1e-13
        for check in (schur_circle_check, lambda f: contact_order_probe(f, 1.0),
                      lambda f: horocycle_check(f, 0.5), lambda f: affine_lft_bound(f, 0.5)):
            with pytest.raises(NotSchur, match="pole in the closed disk"):
                check(s)

    def test_pole_outside_passes(self):
        s = RationalFn(Poly.constant(0.1), Poly((-1.5, 1.0)), reduce=False)
        assert oracle_disk_poles(s)[0] == 0
        assert schur_circle_check(s) == pytest.approx(0.2, rel=1e-4)
        assert contact_order_probe(s, 1.0).order == 0
        # s(1) = -0.2 lies outside the horocycle and breaks |parameter| <= 0
        assert not horocycle_check(s, 0.5)[0] and not affine_lft_bound(s, 0.5)[0]

    def test_equivalences_and_quartic(self):
        assert affine_equivalences(affine(0.3), 0.3).parameter_bound
        rep = affine_equivalences(quartic_half(), 0.5)
        assert rep.consistent and not rep.parameter_bound
        with pytest.raises(NotSchur, match="circle modulus"):
            quartic_perturbation(0.5, 10.0)


class TestHorocycle:
    def test_affine_map_contained(self):
        holds, witness = horocycle_check(affine(0.5), 0.5)
        assert holds and witness is None

    def test_quartic_violates(self):
        holds, witness = horocycle_check(quartic_half(), 0.5)
        assert not holds and witness is not None

    def test_identity_map_violates_near_minus_one(self):
        holds, _ = horocycle_check(RationalFn.x(), 0.5)
        assert not holds
        # the quotient for s = z at z = -r is (1+r)/(1-r), unbounded
        assert julia_quotient(RationalFn.x(), -0.99, 1.0) > 100.0

    def test_affine_contained_across_alpha(self):
        for alpha in (0.2, 0.5, 0.8):
            holds, _ = horocycle_check(affine(alpha), alpha)
            assert holds


def quartic(alpha):
    """The demo's quartic: beta halved from 1/20 until it is Schur."""
    beta = 1.0 / 20.0
    while True:
        try:
            return quartic_perturbation(alpha, beta)
        except NotSchur:
            beta *= 0.5


SEEDED_ALPHAS = tuple(np.random.default_rng(1701).uniform(0.1, 0.9, 200))
NEAR_ONE = (0.9876, 0.99, 0.995, 0.999)
C0 = complex(rigidity._CIRCLE[0])
FAMILIES = {"affine": affine, "quartic": quartic, "z": lambda alpha: RationalFn.x()}


def _horner(coeffs, z):
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = c + acc * z
    return acc


def _abs2(w):
    return w.real * w.real + w.imag * w.imag


@functools.lru_cache(maxsize=1)
def _oracle_circle(n=2048):
    with mp.workdps(30):
        return [mp.expjpi(mp.mpf(2 * j) / n) for j in range(n)]


def oracle_least_ratio(s, alpha):
    """Least L / terms of horocycle_check on a 2048-point circle, in 30 digits."""
    with mp.workdps(30):
        num = [mp.mpc(complex(c)) for c in s.num.coeffs]
        den = [mp.mpc(complex(c)) for c in s.den.coeffs]
        c = (1 - mp.mpf(alpha)) / mp.mpf(alpha)
        least = mp.inf
        for z in _oracle_circle():
            n, d = _horner(num, z), _horner(den, z)
            nn, dd, gap = _abs2(n), _abs2(d), c * _abs2(d - n)
            least = min(least, (dd - nn - gap) / (dd + nn + gap))
        return float(least)


class TestBoundaryVerdictsMatchOracle:
    """horocycle_check and affine_lft_bound read the 512 circle samples; the
    oracle reads four times as many points in 30 digits."""

    @pytest.mark.parametrize("alpha", SEEDED_ALPHAS[:3] + NEAR_ONE)
    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_verdicts(self, kind, alpha):
        s = FAMILIES[kind](alpha)
        least = oracle_least_ratio(s, alpha)
        # every case is far from the tolerance, so the verdict is not a coin toss
        assert least > -1e-12 or least < -1e-5
        holds = least >= -CIRCLE_TOL
        assert holds == (kind == "affine")
        assert horocycle_check(s, alpha)[0] == holds
        # For these three families the LFT bound holds exactly when the
        # horocycle does (the fixed-derivative equivalence for affine and
        # quartic; |parameter| = 1 on the circle for z).
        assert affine_lft_bound(s, alpha)[0] == holds

    @pytest.mark.parametrize("kind", ["quartic", "z"])
    def test_witness_quotient_exceeds_the_bound(self, kind):
        for alpha in SEEDED_ALPHAS + NEAR_ONE:
            s = FAMILIES[kind](alpha)
            holds, witness = horocycle_check(s, alpha)
            assert not holds and abs(abs(witness) - (1.0 - 1e-6)) < 1e-15
            assert julia_quotient(s, witness, 1.0) >= alpha / (1.0 - alpha)

    def test_holding_verdict_holds_on_the_disk(self):
        # The circle decides the disk: where the check holds, the Julia
        # quotient stays below the bound on a polar grid inside (40 radii up
        # to 0.995 by 40 angles).
        radii = np.linspace(0.995 / 40, 0.995, 40)
        grid = np.outer(radii, np.exp(2j * np.pi * np.arange(40) / 40)).ravel()
        for alpha in SEEDED_ALPHAS[:3]:
            assert horocycle_check(affine(alpha), alpha) == (True, None)
            bound = alpha / (1.0 - alpha)
            assert all(julia_quotient(affine(alpha), z, 1.0) < bound for z in grid)

    @pytest.mark.parametrize(
        "s",
        [
            RationalFn(Poly([0.0, 3.0]), Poly.one()),
            # 0.5 everywhere, left unreduced with a removable pole in the disk
            RationalFn(Poly([-0.25, 0.5]), Poly([-0.5, 1.0]), reduce=False),
            # 3z, left unreduced with a removable pole at a circle sample (0/0)
            RationalFn(Poly([0.0, 3.0]) * Poly([-C0, 1.0]), Poly([-C0, 1.0]), reduce=False),
        ],
        ids=["3z", "removable-pole", "nan-at-a-sample"],
    )
    def test_non_schur_input_is_refused(self, s):
        with np.errstate(invalid="ignore"):
            with pytest.raises(NotSchur):
                schur_circle_check(s)
            with pytest.raises(NotSchur):
                horocycle_check(s, 0.5)
            with pytest.raises(NotSchur):
                affine_lft_bound(s, 0.5)


class TestEquivalences:
    def test_affine_all_true(self):
        rep = affine_equivalences(affine(0.3), 0.3)
        assert rep.consistent
        assert rep.identity and rep.parameter_const and rep.parameter_bound
        assert rep.lft_bound and rep.horocycle

    def test_quartic_all_false(self):
        rep = affine_equivalences(quartic_half(), 0.5)
        assert rep.consistent
        assert not (rep.identity or rep.parameter_const or rep.parameter_bound)
        assert not (rep.lft_bound or rep.horocycle)
        # the parameter vanishes to second order at 1 yet is not zero
        assert rep.parameter.taylor(1.0, 1) == pytest.approx([0.0, 0.0], abs=1e-9)
        assert not rep.parameter.is_zero

    def test_family_consistency(self, rng):
        data = InterpData(z1=1.0, k=1, tau0=1.0, tau=(0.5,), z0=-1.0)
        cases = [affine(0.5), quartic_half(), quartic_perturbation(0.5, 1 / 40)]
        for _ in range(5):
            s1 = random_admissible_parameter(rng, data)
            vo = (solve(data, s1) - affine(0.5)).vanishing_order(1.0)
            if vo >= 4:
                cases.append(solve(data, s1))
        for s in cases:
            rep = affine_equivalences(s, 0.5)
            assert rep.consistent

    def test_hypothesis_gate(self):
        with pytest.raises(HypothesisNotMet):
            affine_equivalences(RationalFn.x(), 0.5)
        s = affine(0.3) + RationalFn(Poly([1, -1]) ** 3, Poly.one()) * 1e-3
        with pytest.raises(HypothesisNotMet):
            affine_equivalences(s, 0.3)

    def test_alpha_range_rejected(self):
        with pytest.raises(ValueError):
            affine_equivalences(affine(0.5), 0.0)
        with pytest.raises(ValueError):
            affine_equivalences(affine(0.5), 1.0)

    def test_non_schur_candidate_is_refused(self):
        # matches the affine map to order 4 at 1, but reaches modulus 161
        s = affine(0.5) + RationalFn(Poly([1, -1]) ** 4, Poly.one()) * 10.0
        with pytest.raises(HypothesisNotMet, match="not Schur"):
            affine_equivalences(s, 0.5)

    def test_consistent_reads_all_five_flags(self):
        rep = affine_equivalences(affine(0.3), 0.3)
        assert rep.consistent
        assert not dataclasses.replace(rep, lft_bound=False).consistent

    def test_lft_bound_matches_parameter_bound(self):
        ok_affine, _ = affine_lft_bound(affine(0.4), 0.4)
        ok_quartic, _ = affine_lft_bound(quartic_half(), 0.5)
        assert ok_affine and not ok_quartic


class TestSharedCircleSamples:
    """affine_equivalences evaluates s once on the circle samples and reads
    the Schur test, the LFT bound and the horocycle from those values."""

    @pytest.fixture
    def circle_calls(self, monkeypatch):
        """Evaluations at the circle samples, by id of the polynomial."""
        count = Counter()
        call = Poly.__call__

        def counted(self, z):
            if z is rigidity._CIRCLE:
                count[id(self)] += 1
            return call(self, z)

        monkeypatch.setattr(Poly, "__call__", counted)
        return count

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("kind", ["affine", "quartic"])
    def test_matches_the_public_checks(self, circle_calls, kind, alpha):
        s = FAMILIES[kind](alpha)
        circle_calls.clear()  # quartic_perturbation runs schur_circle_check
        rep = affine_equivalences(s, alpha)
        assert circle_calls[id(s.num)] == 1 and circle_calls[id(s.den)] == 1
        assert rep.lft_bound == affine_lft_bound(s, alpha)[0]
        assert (rep.horocycle, rep.witness) == horocycle_check(s, alpha)
        assert rep.horocycle == (kind == "affine")


class TestCayleyDecomposition:
    def test_affine_remainder_vanishes(self):
        _, _, r = cayley_decomposition(affine(0.5), 0.5)
        assert r.is_zero

    def test_quartic_remainder_second_order(self):
        f, f1, r = cayley_decomposition(quartic_half(), 0.5)
        assert not r.is_zero
        assert r.vanishing_order(1.0) >= 2
        # horocycle holds for the affine map, so Re r >= 0 on disk samples
        _, _, r_affine = cayley_decomposition(affine(0.5), 0.5)
        assert r_affine.is_zero

    def test_real_part_nonnegative_when_contained(self):
        # beta small enough that the horocycle condition still fails but the
        # remainder keeps nonnegative real part where s is inside the disk
        f, f1, r = cayley_decomposition(affine(0.35), 0.35)
        radii = np.linspace(0.09, 0.9, 10)
        angles = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        for z in (radii[:, None] * np.exp(1j * angles[None, :])).ravel():
            assert r(z).real >= -1e-12

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            cayley_decomposition(RationalFn.x(), 1.0)


class TestQuarticPerturbation:
    def test_reference_case_is_schur(self):
        s = quartic_half()
        assert verify_expansion_ok(s)

    def test_beta_zero_is_affine(self):
        s = quartic_perturbation(0.4, 0.0)
        assert s.allclose(affine(0.4), 1e-14)

    def test_large_beta_rejected(self):
        with pytest.raises(NotSchur):
            quartic_perturbation(0.5, 10.0)


def verify_expansion_ok(s):
    from schurkit.interpolation import verify_expansion

    return verify_expansion(s, InterpData(z1=1.0, k=1, tau0=1.0, tau=(0.5,), z0=-1.0)).passed


class TestJuliaWolffBound:
    def test_angular_derivative_bound_on_paths(self, rng):
        # Schur h with h(1) = 1 and h'(1) = alpha satisfies
        # |1-h(z)|^2/(1-|h(z)|^2) <= alpha |1-z|^2/(1-|z|^2) nontangentially
        for _ in range(10):
            alpha = rng.uniform(0.2, 0.9)
            data = InterpData(z1=1.0, k=1, tau0=1.0, tau=(alpha,), z0=-1.0)
            s1 = random_admissible_parameter(rng, data)
            h = solve(data, s1)
            for z in nontangential_path(PathSpec(ratio=0.5, count=8)):
                lhs = julia_quotient(h, z, 1.0)
                rhs = alpha * abs(1 - z) ** 2 / (1 - abs(z) ** 2)
                assert lhs <= rhs * (1.0 + 1e-6)
