"""Structured matrices, the coefficient matrix function, solve/recover."""

from dataclasses import replace

import mpmath as mp
import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from conftest import random_admissible_parameter, random_interp_data, unimodular
from schurkit import interpolation, kernels, rational, rigidity
from schurkit.errors import (
    InadmissibleParameter,
    InvalidProblemData,
    NonHermitianPick,
    PoleAtExpansionPoint,
    SchurkitError,
    SingularPick,
    VerificationError,
)
from schurkit.interpolation import (
    J,
    InterpData,
    admissible_parameter,
    binomial_matrix,
    coeff_matrix,
    denominator_closed_form,
    mobius,
    pick_matrix,
    pick_polynomial,
    recover_parameter,
    renormalize,
    solution_negative_squares,
    solve,
    toeplitz_matrix,
    verify_expansion,
)
from schurkit.kernels import Inertia, SamplePlan, inertia
from schurkit.rational import Mat2RF, Poly, RationalFn, unit_circle_samples
from schurkit.rigidity import rigidity_check
from schurkit.tolerances import CIRCLE_TOL

D4 = InterpData(z1=1.0, k=1, tau0=1.0, tau=(1.0,), z0=-1.0)
D5 = InterpData(z1=1.0, k=1, tau0=1.0, tau=(-1.0,), z0=-1.0)
DK2 = InterpData(z1=1.0, k=2, tau0=1.0, tau=(1j, -1j), z0=-1.0)

PLAN = SamplePlan(max_points=64, initial_points=8, seed=3)


def affine_data(alpha):
    return InterpData(z1=1.0, k=1, tau0=1.0, tau=(alpha,), z0=-1.0)


class TestDataValidation:
    def test_defaults_z0_to_antipode(self):
        d = InterpData(z1=1j, k=1, tau0=1.0, tau=(1.0,))
        assert d.z0 == -1j

    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            (dict(z1=0.9, k=1, tau0=1.0, tau=(1.0,)), "z1 not unimodular"),
            (dict(z1=1.0, k=1, tau0=0.5, tau=(1.0,)), "tau0 not unimodular"),
            (dict(z1=1.0, k=2, tau0=1.0, tau=(1.0,)), "exactly k"),
            (dict(z1=1.0, k=1, tau0=1.0, tau=(0.0,)), "tau_k"),
            (dict(z1=1.0, k=1, tau0=1.0, tau=(1.0,), z0=1.0), "differ"),
            (dict(z1=1.0, k=9, tau0=1.0, tau=(1.0,) * 9), "cap"),
        ],
    )
    def test_rejects_bad_data(self, kwargs, msg):
        with pytest.raises(InvalidProblemData, match=msg):
            InterpData(**kwargs)

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(1.0, float("nan"))])
    @pytest.mark.parametrize(
        "field,msg",
        [("z1", "z1 not unimodular"), ("tau0", "tau0 not unimodular"), ("z0", "z0 not unimodular")],
    )
    def test_rejects_non_finite_point(self, field, msg, bad):
        kwargs = dict(z1=1.0, k=1, tau0=1.0, tau=(0.5,), z0=-1.0)
        kwargs[field] = bad
        with pytest.raises(InvalidProblemData, match=msg):
            InterpData(**kwargs)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.5, float("nan"))])
    @pytest.mark.parametrize("at", [0, 1])
    def test_rejects_non_finite_tau(self, bad, at):
        tau = [0.5, 0.25]
        tau[at] = bad
        with pytest.raises(InvalidProblemData, match="finite"):
            InterpData(z1=1.0, k=2, tau0=1.0, tau=tuple(tau))

    def test_accepts_numpy_integer_k(self):
        d = InterpData(z1=1.0, k=np.int64(2), tau0=1.0, tau=(1j, -1j), z0=-1.0)
        assert type(d.k) is int and d.k == 2
        assert np.array_equal(pick_matrix(d), pick_matrix(DK2))

    def test_rejects_boolean_k(self):
        with pytest.raises(InvalidProblemData, match="integer"):
            InterpData(z1=1.0, k=True, tau0=1.0, tau=(1.0,))


class TestStructuredMatrices:
    def test_toeplitz_k1(self):
        assert np.allclose(toeplitz_matrix(D4), [[1.0]])

    def test_toeplitz_k2_identity_pattern(self):
        d = InterpData(z1=1.0, k=2, tau0=1.0, tau=(1.0, 0.0), z0=-1.0)
        assert np.allclose(toeplitz_matrix(d), np.eye(2))

    def test_toeplitz_k2_general(self):
        assert np.allclose(toeplitz_matrix(DK2), [[1j, 0], [-1j, 1j]])

    def test_binomial_k1(self):
        assert np.allclose(binomial_matrix(D4), [[1.0]])
        d = InterpData(z1=1j, k=1, tau0=1.0, tau=(1.0,))
        assert np.allclose(binomial_matrix(d), [[1j]])

    def test_binomial_k2(self):
        d = InterpData(z1=1.0, k=2, tau0=1.0, tau=(1.0, 0.0), z0=-1.0)
        assert np.allclose(binomial_matrix(d), [[0, -1], [1, -1]])

    def test_pick_scalar_cases(self):
        assert np.allclose(pick_matrix(D4), [[1.0]])
        assert np.allclose(pick_matrix(D5), [[-1.0]])
        assert np.allclose(pick_matrix(affine_data(0.3)), [[0.3]])

    def test_pick_k2_hand_product(self):
        P = pick_matrix(DK2)
        assert np.allclose(P, [[0, -1j], [1j, 0]], atol=1e-14)
        res = inertia(P)
        assert (res.n_pos, res.n_neg) == (1, 1)

    def test_pick_rejects_non_hermitian(self):
        d = InterpData(z1=1.0, k=2, tau0=1.0, tau=(1.0, 1.0), z0=-1.0)
        with pytest.raises(NonHermitianPick):
            pick_matrix(d)

    def test_ill_conditioned_pick_counts_as_its_exact_eigenvalues(self):
        # condition number 1.6e13; its smallest eigenvalue, -2.44e-10, is
        # outside the zero band (9.3e-11: n times the skew part 5.1e-12 plus
        # 8 eps max|entry|), so the count is determined and is the count of
        # the 40-digit eigenvalues; a wider band made it (4, 3, 1)
        d = InterpData(
            z1=-0.08783615732469804 - 0.996134935370922j,
            k=8,
            tau0=0.7614194227458544 - 0.6482595642683336j,
            tau=(
                0.003025223372320543 + 1.7790657060120028j,
                3.1194865716534848 + 46.53218163613347j,
                203.9184165076377 + 37.935646463995894j,
                167.89951460895864 - 380.845080687027j,
                -282.21177270778287 - 280.11533262151204j,
                -160.52316500668206 - 87.38096278701279j,
                153.99734896417823 + 85.75915407493801j,
                -121.62492479825214 - 109.51464061397468j,
            ),
            z0=-0.7765256346823004 + 0.6300856597965475j,
        )
        P = pick_matrix(d)
        with mp.workdps(40):
            exact = mp.eighe(mp.matrix((0.5 * (P + P.conj().T)).tolist()), eigvals_only=True)
        assert inertia(P) == Inertia(n_pos=4, n_neg=4, n_zero=0)
        assert sum(e < 0 for e in exact) == 4 and min(abs(e) for e in exact) > 2e-10

    def test_returned_pick_has_no_zero_eigenvalue(self):
        for j in range(50):
            rng = np.random.default_rng([1603, j])
            k = int(rng.integers(4, 9))
            d = random_interp_data(rng, k, max_cond=1e15, min_ratio=1e-4)
            assert inertia(pick_matrix(d)).n_zero == 0, (j, k)


class TestPolynomial:
    def test_scalar_cases(self):
        assert pick_polynomial(D4).allclose(Poly([0.5]), 1e-13)
        assert pick_polynomial(D5).allclose(Poly([-0.5]), 1e-13)
        for alpha in (0.25, 0.5, 0.75):
            assert pick_polynomial(affine_data(alpha)).allclose(Poly([0.5 / alpha]), 1e-13)

    def test_k2_derived(self):
        # hand derivation: P^{-1} = P, weights (i/4, i/2), p = (i/4)(1 + z)
        assert pick_polynomial(DK2).allclose(Poly([0.25j, 0.25j]), 1e-13)

    def test_degree_bound_and_node_value(self, rng):
        for k in (1, 2, 3, 4):
            data = random_interp_data(rng, k)
            p = pick_polynomial(data)
            assert p.degree <= k - 1
            assert abs(p(data.z1)) > 1e-10

    def test_vanishing_node_value_names_z1(self):
        # tau_k (1 - conj(z0) z1) = 2e-8j is below ROOT_TOL of the series
        # denominator's scale: the error names z1 and that quantity, not the
        # series variable t = 0.
        data = InterpData(z1=1, k=2, tau0=1, tau=(1e-8j, 1 - 1e-8j), z0=-1)
        with pytest.raises(PoleAtExpansionPoint) as err:
            pick_polynomial(data)
        assert str(err.value) == "tau_k (1 - conj(z0) z1) = 0+2e-08j vanishes at z1 = (1+0j)"

    @staticmethod
    def pick_inverse_polynomial(data):
        """Reference: p = sum_j w_j z^j (1 - conj(z1) z)^(k-1-j), with w the
        solution of P w = conj(r) and r_j = z0^j / (1 - conj(z1) z0)^(j+1)."""
        k = data.k
        base = 1.0 - data.z0 * np.conj(data.z1)
        row = np.array([data.z0**j / base ** (j + 1) for j in range(k)], dtype=complex)
        weights = np.linalg.solve(pick_matrix(data), np.conj(row))
        node = Poly((1.0, -np.conj(data.z1)))
        p = Poly.zero()
        for j in range(k):
            p = p + Poly([0.0] * j + [1.0]) * node ** (k - 1 - j) * weights[j]
        return p

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_pick_inverse(self, k):
        rng = np.random.default_rng(61300 + k)
        for _ in range(20):
            data = random_interp_data(rng, k)
            mine, ref = pick_polynomial(data).coeffs, self.pick_inverse_polynomial(data).coeffs
            n = max(mine.size, ref.size)
            gap = np.abs(np.pad(mine, (0, n - mine.size)) - np.pad(ref, (0, n - ref.size)))
            assert np.max(gap) <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_contact_identity(self, k):
        # (1 - conj(z0) z) p tau + tau0 (-conj(z1))^k = O(t^k), t = z - z1,
        # with tau = sum tau_{k+i} t^i.
        rng = np.random.default_rng(61400 + k)
        for _ in range(20):
            data = random_interp_data(rng, k)
            w = (Poly((1.0, -np.conj(data.z0))) * pick_polynomial(data)).shifted(data.z1)
            const = data.tau0 * (-np.conj(data.z1)) ** k
            lhs = np.convolve(w, np.asarray(data.tau))[:k]
            lhs[0] += const
            scale = max(abs(const), np.max(np.abs(w)) * np.max(np.abs(data.tau)))
            assert np.max(np.abs(lhs)) <= 1e-12 * scale


class TestCoeffMatrix:
    def test_golden_burns_krantz(self):
        cm = coeff_matrix(D4)
        den = Poly([2, -2])
        golden = {
            "a": RationalFn(Poly([1, -3]), den),
            "b": RationalFn(Poly([1, 1]), den),
            "c": RationalFn(Poly([-1, -1]), den),
            "d": RationalFn(Poly([3, -1]), den),
        }
        for name, expected in golden.items():
            assert getattr(cm.mat, name).allclose(expected, 1e-12)

    def test_golden_indefinite(self):
        cm = coeff_matrix(D5)
        den = Poly([2, -2])
        golden = {
            "a": RationalFn(Poly([3, -1]), den),
            "b": RationalFn(Poly([-1, -1]), den),
            "c": RationalFn(Poly([1, 1]), den),
            "d": RationalFn(Poly([1, -3]), den),
        }
        for name, expected in golden.items():
            assert getattr(cm.mat, name).allclose(expected, 1e-12)

    def test_golden_alpha(self):
        for alpha in (0.25, 0.5, 0.75):
            cm = coeff_matrix(affine_data(alpha))
            den = Poly([2 * alpha, -2 * alpha])
            golden = {
                "a": RationalFn(Poly([2 * alpha - 1, -(2 * alpha + 1)]), den),
                "b": RationalFn(Poly([1, 1]), den),
                "c": RationalFn(Poly([-1, -1]), den),
                "d": RationalFn(Poly([2 * alpha + 1, -(2 * alpha - 1)]), den),
            }
            for name, expected in golden.items():
                assert getattr(cm.mat, name).allclose(expected, 1e-12)

    def test_det_is_one_reduced(self, rng):
        for k in (1, 2, 3, 4):
            cm = coeff_matrix(random_interp_data(rng, k))
            det = cm.mat.det()
            assert det.is_constant()
            assert abs(det.constant_value() - 1.0) < 1e-9

    def test_apply_tau0_is_reduced_constant(self, rng):
        # the transform of tau0 is tau0 D / D with D = (1 - conj(z1) z)^k
        for k in (1, 2, 3):
            data = random_interp_data(rng, k)
            s = coeff_matrix(data).apply(data.tau0)
            assert s.degree == 0
            assert abs(s.constant_value() - data.tau0) < 1e-12

    def test_j_unitary_on_circle(self, rng):
        data = random_interp_data(rng, 2)
        cm = coeff_matrix(data)
        for w in unit_circle_samples(32):
            if abs(w - data.z1) < 0.15:
                continue
            m = cm.eval(w)
            resid = np.max(np.abs(m @ J @ m.conj().T - J))
            assert resid <= 1e-9 * (1.0 + np.max(np.abs(m)) ** 2)


def identity_residual(cm):
    """(max|w + (-conj z1)^k w#|, max|w|) for w = (1 - conj(z0) z) p padded
    to length k + 1 and w# its conjugate reversed."""
    d = cm.data
    w = np.zeros(d.k + 1, dtype=complex)
    coeffs = np.convolve([1.0, -np.conj(d.z0)], cm.poly.coeffs)
    w[: coeffs.size] = coeffs
    return np.max(np.abs(w + (-np.conj(d.z1)) ** d.k * np.conj(w[::-1]))), np.max(np.abs(w))


# Interp benchmark datum (seed 2, cycle 2, op 16). Sampling the matrix at 16
# circle points read a J-residual 8.6 times CIRCLE_TOL (1 + max|m|^2) from
# evaluation rounding; the coefficient identity holds to 5e-14 of max|w|.
K8_DATUM = InterpData(
    z1=(0.991291156671128 + 0.13168843041671208j),
    k=8,
    tau0=(0.946780355992037 - 0.32188034656932935j),
    tau=(
        (-1.1830982511872679 - 0.2232483223060296j),
        (5.009545537989388 - 3.4227165756526667j),
        (-6.654785542169569 + 17.173773547405805j),
        (-1.8557608426210195 - 26.56177672346861j),
        (6.329141170693306 - 9.900720592169824j),
        (12.791536293097483 + 62.38464649997672j),
        (47.943417224726325 + 77.12520323228848j),
        (107.34509948173898 + 13.484721566686066j),
    ),
    z0=(0.881904507629133 + 0.471428085102507j),
)


class TestSelfCheckIdentity:
    """coeff_matrix checks J-unitarity on the circle as the coefficient
    identity w + (-conj z1)^k w# = 0 within CIRCLE_TOL max|w|."""

    @pytest.mark.parametrize(
        "k,factor",
        [(k, 1.0 + 1e-6j) for k in range(1, 9)] + [(k, 1.0 + 1e-6) for k in range(2, 9)],
    )
    def test_perturbed_polynomial_raises(self, monkeypatch, k, factor):
        # In terms of p the identity reads p_j = gamma conj(p_{k-1-j}) with
        # |gamma| = 1, so a real rescale of a coefficient that is its own
        # mirror (the middle one at odd k) keeps the matrix J-unitary; the
        # constant coefficient mirrors p_{k-1}, which is another one for k > 1.
        data = random_interp_data(np.random.default_rng([7, k]), k, max_cond=1e8, min_ratio=1e-3)
        coeffs = pick_polynomial(data).coeffs.copy()
        coeffs[0] *= factor
        monkeypatch.setattr(interpolation, "pick_polynomial", lambda d: Poly(coeffs))
        with pytest.raises(VerificationError, match="not J-unitary on the circle"):
            coeff_matrix(data)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_sweep(self, k):
        rng = np.random.default_rng([11, k])
        for _ in range(8):
            cm = coeff_matrix(random_interp_data(rng, k, max_cond=1e8, min_ratio=1e-3))
            resid, scale = identity_residual(cm)
            assert resid <= CIRCLE_TOL * scale
            if k > 4:
                continue
            for w in unit_circle_samples(32):
                if abs(w - cm.data.z1) < 0.15:
                    continue
                m = cm.eval(w)
                j_resid = np.max(np.abs(m @ J @ m.conj().T - J))
                assert j_resid <= 1e-9 * (1.0 + np.max(np.abs(m)) ** 2)

    def test_k8_datum_builds(self):
        cm = coeff_matrix(K8_DATUM)
        resid, scale = identity_residual(cm)
        assert resid <= 1e-4 * CIRCLE_TOL * scale


class TestOneBuildPerDatum:
    """coeff_matrix keeps its first successful build on the InterpData
    instance; every later call on that instance returns it."""

    @staticmethod
    def fresh():
        return InterpData(z1=1.0, k=1, tau0=1.0, tau=(1.0,), z0=-1.0)

    @pytest.fixture
    def builds(self, monkeypatch):
        count = [0]
        build = interpolation.pick_polynomial

        def counted(*args, **kwargs):
            count[0] += 1
            return build(*args, **kwargs)

        monkeypatch.setattr(interpolation, "pick_polynomial", counted)
        return count

    def test_request_builds_once(self, builds):
        d = self.fresh()
        coeff_matrix(d)
        s = solve(d, RationalFn.constant(0.5))
        recover_parameter(s, d)
        rigidity_check(d, -1.0, s)
        denominator_closed_form(RationalFn.constant(0.5), d)
        solution_negative_squares(d, RationalFn.constant(0.5), PLAN)
        assert builds[0] == 1

    def test_same_object(self):
        d = self.fresh()
        assert coeff_matrix(d) is coeff_matrix(d)

    def test_replace_builds_its_own(self, builds):
        d = self.fresh()
        cm = coeff_matrix(d)
        other = replace(d, z0=1j)
        cm_other = coeff_matrix(other)
        assert cm_other is not cm and cm_other.data is other
        assert builds[0] == 2
        assert coeff_matrix(d) is cm

    def test_identity_of_the_datum_unchanged(self):
        d, copy = self.fresh(), self.fresh()
        before = (hash(d), repr(d))
        coeff_matrix(d)
        assert d == copy and copy == d
        assert (hash(d), repr(d)) == before == (hash(copy), repr(copy))

    @pytest.mark.parametrize(
        "tau,error",
        [((1.0, 1.0), NonHermitianPick), ((1e-8j, 1.0 - 1e-8j), SingularPick)],
    )
    def test_failed_build_is_not_kept(self, monkeypatch, tau, error):
        calls = []
        build = interpolation._pick_counted
        monkeypatch.setattr(interpolation, "_pick_counted", lambda d: calls.append(d) or build(d))
        d = InterpData(z1=1.0, k=2, tau0=1.0, tau=tau, z0=-1.0)
        for _ in range(2):
            with pytest.raises(error):
                coeff_matrix(d)
        assert len(calls) == 2

    @pytest.mark.parametrize("k", range(1, 9))
    def test_kept_pick_count_is_inertia_of_pick(self, k):
        rng = np.random.default_rng([7910, k])
        data = random_interp_data(rng, k, min_ratio=0.3 if k < 6 else 1e-3)
        cm = coeff_matrix(data)
        assert cm._pick_inertia == inertia(cm.pick)
        assert "_pick_inertia" not in repr(cm)

    def test_one_pick_eigensolve_per_build(self, monkeypatch):
        # Every Hermitian eigensolve is recorded; those of the Pick matrix are
        # picked out by value (the others are Schur-Cohn and kernel cores).
        rng = np.random.default_rng(7920)
        data = random_interp_data(rng, 3)
        s1 = random_admissible_parameter(rng, data)
        seen = []
        eigvals = kernels.hermitian_eigenvalues
        monkeypatch.setattr(
            kernels, "hermitian_eigenvalues", lambda H: seen.append(H) or eigvals(H)
        )
        cm = coeff_matrix(data)
        s = solve(data, s1, theta=cm)
        rigidity_check(data, -data.tau0, s)
        solution_negative_squares(data, s1)
        pick = [H for H in seen if H.shape == cm.pick.shape and np.allclose(H, cm.pick, rtol=1e-12)]
        assert len(pick) == 1 and len(seen) > 1

    def test_shared_arrays_are_read_only(self):
        cm = coeff_matrix(self.fresh())
        for array in (cm.pick, cm.neutral):
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestBuildOnRead:
    """coeff_matrix builds no Mat2RF; `mat` is built on its first read and
    kept."""

    @pytest.fixture
    def mats(self, monkeypatch):
        made = []

        class Counted(Mat2RF):
            __slots__ = ()

            def __init__(self, *entries):
                made.append(self)
                super().__init__(*entries)

        monkeypatch.setattr(interpolation, "Mat2RF", Counted)
        return made

    def test_build_makes_no_entries(self, mats):
        d = replace(D4)
        cm = coeff_matrix(d)
        s = solve(d, RationalFn.constant(0.5), theta=cm)
        recover_parameter(s, d, theta=cm)
        rigidity_check(d, -1.0, s)
        assert mats == []
        assert cm.mat is cm.mat and mats == [cm.mat]

    def test_entries_are_the_rank_one_update(self):
        cm = coeff_matrix(replace(DK2))
        w, D, tau0 = cm.theta.num, cm.theta.den, DK2.tau0
        expected = (D - w, w * tau0, w * -tau0.conjugate(), D + w)
        for got, num in zip(cm.mat.entries(), expected):
            assert got.num.coeffs.tobytes() == num.coeffs.tobytes()
            assert got.den.coeffs.tobytes() == D.coeffs.tobytes()


class TestOneAdmissibilityTest:
    """solve tests its parameter once; the public apply tests its own."""

    @pytest.fixture
    def tests(self, monkeypatch):
        count = [0]
        test = interpolation.admissible_parameter

        def counted(*args):
            count[0] += 1
            return test(*args)

        monkeypatch.setattr(interpolation, "admissible_parameter", counted)
        return count

    @pytest.mark.parametrize("data", [D4, DK2])
    def test_solve_tests_once(self, tests, data):
        cm = coeff_matrix(data)
        s = solve(data, RationalFn.constant(0.5), theta=cm)
        assert tests[0] == 1
        assert s.num.coeffs.tobytes() == cm.apply(RationalFn.constant(0.5)).num.coeffs.tobytes()
        assert tests[0] == 2

    @pytest.mark.parametrize("data", [D4, DK2])
    def test_apply_divides_out_the_node_power_at_tau0(self, tests, data):
        s = coeff_matrix(data).apply(data.tau0)
        assert tests[0] == 1
        assert s.is_constant() and abs(s.constant_value() - data.tau0) <= 1e-12


class TestAdmissibility:
    def test_constant_away_from_tau0(self):
        ok, _ = admissible_parameter(RationalFn.constant(-1.0), D4)
        assert ok

    def test_constant_equal_tau0(self):
        ok, _ = admissible_parameter(RationalFn.constant(1.0), D4)
        assert not ok

    def test_function_reaching_tau0(self):
        ok, _ = admissible_parameter(RationalFn.x(), D4)
        assert not ok

    def test_pole_at_node_is_admissible(self):
        ok, diag = admissible_parameter(RationalFn([1], [-1, 1]), D4)
        assert ok and "pole" in diag


class TestSolve:
    def test_burns_krantz_choice(self):
        assert solve(D4, -1.0).allclose(RationalFn.x(), 1e-12)

    def test_indefinite_choice(self):
        assert solve(D5, -1.0).allclose(RationalFn([1], [0, 1]), 1e-12)

    def test_alpha_choice(self):
        for alpha in (0.25, 0.5, 0.75):
            s = solve(affine_data(alpha), 1 - 2 * alpha)
            assert s.allclose(RationalFn(Poly([1 - alpha, alpha]), Poly.one()), 1e-12)

    def test_k2_expansion(self):
        s = solve(DK2, -1.0)
        assert np.allclose(s.taylor(1.0, 3), [1, 0, 1j, -1j], atol=1e-10)
        assert len([p for p in s.poles() if abs(p) < 1]) == 1

    def test_rejects_inadmissible(self):
        with pytest.raises(InadmissibleParameter):
            solve(D4, RationalFn.x())

    def test_refuses_the_coefficient_matrix_of_another_datum(self):
        a = InterpData(z1=1, k=1, tau0=1, tau=(0.3,), z0=-1)
        b = InterpData(z1=1j, k=1, tau0=1, tau=(0.7j,), z0=-1j)
        with pytest.raises(InvalidProblemData, match="another datum"):
            solve(a, -0.2, theta=coeff_matrix(b), verify=False)
        s = solve(a, -0.2)
        with pytest.raises(InvalidProblemData, match="another datum"):
            recover_parameter(s, a, theta=coeff_matrix(b))
        # an equal datum's matrix is the same parametrization
        same = coeff_matrix(replace(a))
        assert solve(a, -0.2, theta=same, verify=False).allclose(s, 1e-14)
        assert recover_parameter(s, a, theta=same).allclose(RationalFn.constant(-0.2), 1e-12)

    def test_solutions_always_verify(self, rng):
        for k in (1, 2, 3):
            data = random_interp_data(rng, k)
            s1 = random_admissible_parameter(rng, data)
            s = solve(data, s1)
            assert verify_expansion(s, data).passed


class TestVerifyExpansion:
    def test_burns_krantz_passes(self):
        assert verify_expansion(RationalFn.x(), D4).passed

    def test_quartic_passes_half_derivative(self):
        s = RationalFn(Poly([0.5, 0.5]) + Poly([1, -1]) ** 4 * (1 / 20), Poly.one())
        assert verify_expansion(s, affine_data(0.5)).passed

    def test_mismatch_reports_residual(self):
        report = verify_expansion(RationalFn.x(), D5)
        assert not report.passed
        assert abs(report.residuals[1] - 2.0) < 1e-12


class TestRecover:
    def test_burns_krantz_inverse(self):
        s1 = recover_parameter(RationalFn.x(), D4)
        assert s1.allclose(RationalFn.constant(-1.0), 1e-10)

    def test_indefinite_inverse(self):
        s1 = recover_parameter(RationalFn([1], [0, 1]), D5)
        assert s1.allclose(RationalFn.constant(-1.0), 1e-10)

    def test_quartic_closed_form(self):
        s = RationalFn(Poly([0.5, 0.5]) + Poly([1, -1]) ** 4 * (1 / 20), Poly.one())
        s1 = recover_parameter(s, affine_data(0.5))
        assert s1.allclose(RationalFn(Poly([2, -4, 2]), Poly([11, -1, -1, 1])), 1e-9)

    def test_bijection_on_random_parameters(self, rng):
        for k in (1, 2, 3):
            data = random_interp_data(rng, k)
            s1 = random_admissible_parameter(rng, data)
            s = solve(data, s1)
            back = recover_parameter(s, data)
            assert back.allclose(s1, 1e-9)


    @pytest.mark.parametrize(
        "s, num, den",
        [
            (RationalFn([0.3]), [1 / 27, 13 / 27], [-13 / 27, 1]),
            (RationalFn([0.1, 0.5]), [-1.4, 0.8, -1], [2.2, -4.8, 1]),
            (RationalFn([0, 0, 1]), [1, 2, -1], [-1, 2, 1]),
        ],
    )
    def test_non_solutions_round_trip(self, s, num, den):
        # s matches 0, 0 and 1 of the two datum coefficients of D4
        s1 = recover_parameter(s, D4)
        assert s1.allclose(RationalFn(Poly(num), Poly(den), reduce=False), 1e-12)
        assert coeff_matrix(D4).apply(s1).allclose(s, 1e-12)

    def test_bijection_at_k5(self):
        rng = np.random.default_rng(52101)
        for _ in range(30):
            data = random_interp_data(rng, 5)
            s1 = random_admissible_parameter(rng, data)
            cm = coeff_matrix(data)
            back = recover_parameter(solve(data, s1, theta=cm), data, theta=cm)
            for mine, ref in ((back.num, s1.num), (back.den, s1.den)):
                n = max(mine.coeffs.size, ref.coeffs.size)
                a = np.pad(mine.coeffs, (0, n - mine.coeffs.size))
                b = np.pad(ref.coeffs, (0, n - ref.coeffs.size))
                assert np.max(np.abs(a - b), initial=0.0) <= 1e-9


def _mp(z):
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def _mp_mul(a, b):
    out = [mp.mpc(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _mp_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def _mp_series(a, b, n):
    """First n Taylor coefficients of a / b at 0."""
    a, b, c = a + [mp.mpc(0)] * n, b + [mp.mpc(0)] * n, []
    for m in range(n):
        c.append((a[m] - sum(b[i] * c[m - i] for i in range(1, m + 1))) / b[0])
    return c


def _mp_shift(a, c):
    b = list(a)
    for i in range(len(b)):
        for j in range(len(b) - 2, i - 1, -1):
            b[j] = b[j] + c * b[j + 1]
    return b


def oracle_solution(data, s1, n):
    """The first n Taylor coefficients at z1 of the exact transform of the
    double parameter s1, in 50 digits and in powers of t = z - z1, and the
    distance from z1 to its nearest pole. p is the exact series of the
    contact condition, and the node factor is (-conj z1)^k t^k."""
    with mp.workdps(50):
        k, z1, z0, tau0 = data.k, _mp(data.z1), _mp(data.z0), _mp(data.tau0)
        node = [1 - mp.conj(z0) * z1, -mp.conj(z0)]
        p = _mp_series([-tau0 * (-mp.conj(z1)) ** k], _mp_mul([_mp(t) for t in data.tau], node), k)
        w = _mp_mul(node, p)
        num = _mp_shift([_mp(c) for c in s1.num.coeffs], z1)
        den = _mp_shift([_mp(c) for c in s1.den.coeffs], z1)
        D = [mp.mpc(0)] * k + [(-mp.conj(z1)) ** k]
        g = _mp_mul(w, _mp_add(num, [-tau0 * x for x in den]))
        top = _mp_add(_mp_mul(D, num), [-x for x in g])
        bot = _mp_add(_mp_mul(D, den), [-mp.conj(tau0) * x for x in g])
        coeffs = np.array([complex(c) for c in _mp_series(top, bot, n)])
        poles = npoly.polyroots(np.array([complex(c) for c in bot]))
    return coeffs, float(np.min(np.abs(poles)))


class TestSolveOracle:
    """solve's Taylor coefficients c_0..c_{2k+1} at z1 against the exact
    transform of the same double parameter (50-digit mpmath).

    The error, relative to max(1, max|c|), is held to 8 eps R^-(2k+1), with
    R = min(1, distance from z1 to the nearest pole of the solution): the
    forward error a coefficient of index 2k+1 can carry. On these 96 data
    the worst ratio to eps R^-(2k+1) is 1.5 (at k = 1); building the
    solution in powers of z and shifting it to z1, as before, read 28 at
    k = 7 and 52 at k = 8.
    """

    @pytest.mark.parametrize("k", range(1, 9))
    def test_coefficients_within_the_forward_bound(self, k):
        for i in range(12):
            rng = np.random.default_rng([8100, k, i])
            data = random_interp_data(rng, k, min_ratio=0.3 if k < 6 else 1e-3)
            s1 = random_admissible_parameter(rng, data)
            got = solve(data, s1, verify=False).taylor(data.z1, 2 * k + 1)
            ref, dist = oracle_solution(data, s1, 2 * k + 2)
            err = np.max(np.abs(got - ref)) / max(1.0, np.max(np.abs(ref)))
            bound = 8 * np.finfo(float).eps * min(dist, 1.0) ** -(2 * k + 1)
            assert err <= bound, (i, err, bound)


class TestRankOneForm:
    """apply, eval and recover_parameter act through the rank-one update
    I -+ theta u u* J; each agrees with the entries of `cm.mat`.

    The reference for apply is the matrix's pointwise action, mobius of
    cm.mat.eval(z) at s1(z): the generic cm.mat.apply reduces by SVD and, on
    these data, drifts from it by up to 1e-2 at k = 8. Recovery at k >= 6
    misses 1e-9 on some data (an open envelope item); the seeded data here
    are the suite's fixture seed per k.
    """

    POINTS = (0.19 + 0.11j, -0.37, 0.52j, 0.6 - 0.3j)

    @staticmethod
    def datum(k):
        rng = np.random.default_rng([20240817, k])
        data = random_interp_data(rng, k, min_ratio=0.3 if k < 6 else 1e-3)
        return data, random_admissible_parameter(rng, data)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_apply_is_the_matrix_action(self, k):
        data, s1 = self.datum(k)
        cm = coeff_matrix(data)
        s = cm.apply(s1)
        for z in self.POINTS:
            ref = mobius(cm.mat.eval(z), s1(z))
            assert abs(s(z) - ref) <= 1e-11 * (1.0 + abs(ref))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_inadmissible_parameter_tau0(self, k):
        # tau0 is sent to tau0: (D tau0) / D with (z - z1)^k divided out
        data, _ = self.datum(k)
        cm = coeff_matrix(data)
        s, ref = cm.apply(data.tau0), cm.mat.apply(data.tau0)
        assert s.is_constant() and s.degree == 0
        for z in self.POINTS:
            assert abs(s(z) - ref(z)) <= 1e-12

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("stretch", [1.0, 1.0 + 0.4 * CIRCLE_TOL])
    def test_eval_matches_entries(self, k, stretch):
        # off the circle, the (2, 2) entry is 1 + |tau0|^2 theta, not 1 + theta
        data, _ = self.datum(k)
        data = replace(data, tau0=data.tau0 * stretch)
        cm = coeff_matrix(data)
        for z in self.POINTS:
            ref = cm.mat.eval(z)
            bound = 2 * CIRCLE_TOL * (1.0 + np.max(np.abs(ref)))
            assert np.max(np.abs(cm.eval(z) - ref)) <= bound

    @pytest.mark.parametrize("k", range(1, 9))
    def test_recover_undoes_apply(self, k):
        data, s1 = self.datum(k)
        cm = coeff_matrix(data)
        back = recover_parameter(cm.apply(s1), data, theta=cm)
        for z in self.POINTS:
            assert abs(back(z) - s1(z)) <= 1e-9 * (1.0 + abs(s1(z)))


@pytest.fixture
def recoveries(monkeypatch):
    """Number of recover_parameter calls made during the test through the
    modules that import it."""
    count = [0]
    recover = interpolation.recover_parameter

    def counted(*args, **kwargs):
        count[0] += 1
        return recover(*args, **kwargs)

    for module in (interpolation, rigidity):
        monkeypatch.setattr(module, "recover_parameter", counted)
    return count


class TestRecoveryMemo:
    """recover_parameter keeps nothing on the solution: every call recovers
    afresh, so a recovery that fails raises on every call."""

    def test_round_trip_failure_raises_on_every_call(self):
        # Within ORDER_TOL of a solution, so j = 2k, but the coefficient of
        # (z - 1)^3 is 9e-8 off: dividing out (z - 1)^4 drops that remainder.
        s = solve(DK2, RationalFn.constant(0.0))
        s = RationalFn(s.num + Poly([-1, 1]) ** 3 * 9e-8 * s.den, s.den, reduce=False)
        assert verify_expansion(s, DK2).passed
        for _ in range(2):
            with pytest.raises(VerificationError, match="round trip"):
                recover_parameter(s, DK2)


class TestOneExpansionPerSolution:
    """One boundary op in the benchmark's order never shifts the solution to
    z1, because it is built there, shifts the parameter to z1 once and
    recovers the parameter once (rigidity_check recovers none).

    Each stage may raise a SchurkitError, as in the benchmark (at k >= 6
    some solutions fail the expansion check); the counts hold either way.
    """

    @staticmethod
    def stage(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SchurkitError as exc:
            return exc

    @pytest.mark.parametrize("k", range(1, 9))
    def test_work_count(self, monkeypatch, recoveries, k):
        rng = np.random.default_rng(6100 + k)
        data = random_interp_data(rng, k, min_ratio=0.3 if k < 6 else 1e-3)
        s1 = random_admissible_parameter(rng, data)
        s1 = RationalFn(s1.num, s1.den, reduce=False)  # not yet expanded anywhere
        shifts = []
        shifted = Poly.shifted

        def counted_shift(self, center):
            shifts.append((self, complex(center)))
            return shifted(self, center)

        monkeypatch.setattr(Poly, "shifted", counted_shift)
        cm = coeff_matrix(data)
        s = solve(data, s1, theta=cm, verify=False)
        self.stage(verify_expansion, s, data)
        self.stage(interpolation.recover_parameter, s, data, theta=cm)
        self.stage(rigidity_check, data, -data.tau0, s)
        for part in (s.num, s.den):
            assert not any(p is part for p, _ in shifts)
        for part in (s1.num, s1.den):
            assert sum(p is part and c == data.z1 for p, c in shifts) == 1
        assert recoveries[0] == 1


class TestClosedForm:
    def test_burns_krantz_constant_parameter(self):
        cf = denominator_closed_form(-1.0, D4)
        assert cf.allclose(RationalFn(Poly([2]), Poly([1, -1])), 1e-12)

    def test_parameter_at_tau0_gives_one(self):
        cf = denominator_closed_form(RationalFn.constant(1.0), D4)
        assert cf.allclose(RationalFn.constant(1.0), 1e-12)

    def test_alpha_agrees_with_the_matrix_action(self):
        # checked inside against c(z) s1(z) + d(z), c and d from CoeffMatrix.eval
        denominator_closed_form(1 - 2 * 0.3, affine_data(0.3))

    @staticmethod
    def seeded(k):
        """Three seeded data of contact order k with admissible parameters."""
        for i in range(3):
            rng = np.random.default_rng([9100, k, i])
            data = random_interp_data(rng, k, min_ratio=0.3 if k < 6 else 1e-3)
            yield data, random_admissible_parameter(rng, data)

    def test_random_agreement(self):
        for k in range(1, 9):
            for data, s1 in self.seeded(k):
                closed = denominator_closed_form(s1, data)
                cm = coeff_matrix(data)
                for z in TestRankOneForm.POINTS:
                    c, d = cm.eval(z)[1]
                    ref = c * s1(z) + d
                    assert abs(closed(z) - ref) <= 1e-9 * (1.0 + abs(ref)), (k, z)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_takes_no_fraction_reduction(self, k, monkeypatch):
        def refuse(num, den):
            raise AssertionError("_reduce_fraction called")

        data, s1 = next(self.seeded(k))
        expected = denominator_closed_form(s1, data)
        monkeypatch.setattr(rational, "_reduce_fraction", refuse)
        got = denominator_closed_form(s1, replace(data))  # a fresh build, patched too
        assert np.array_equal(got.num.coeffs, expected.num.coeffs)
        assert np.array_equal(got.den.coeffs, expected.den.coeffs)


class TestRenormalize:
    def test_same_point_is_identity(self):
        _, U = renormalize(D4, -1.0)
        assert np.max(np.abs(U - np.eye(2))) < 1e-12

    def test_composition_identity(self):
        cm = coeff_matrix(D4)
        cm_new, U = renormalize(D4, 1j)
        for z in (0.3 + 0.2j, -0.4, 0.1 - 0.5j):
            lhs = mobius(cm.eval(z), -1.0)
            rhs = mobius(cm_new.eval(z), mobius(U, -1.0))
            assert abs(lhs - rhs) < 1e-10

    def test_u_is_j_unitary(self):
        _, U = renormalize(D5, 1j)
        assert np.max(np.abs(U @ J @ U.conj().T - J)) < 1e-10

    def test_random_renormalizations(self, rng):
        for k in (1, 2):
            data = random_interp_data(rng, k)
            new_z0 = unimodular(rng)
            while min(abs(new_z0 - data.z1), abs(new_z0 - data.z0)) < 0.3:
                new_z0 = unimodular(rng)
            cm = coeff_matrix(data)
            cm_new, U = renormalize(data, new_z0)
            x = unimodular(rng)
            while abs(x - data.tau0) < 0.3:
                x = unimodular(rng)
            for z in (0.25 + 0.3j, -0.5j):
                lhs = mobius(cm.eval(z), x)
                rhs = mobius(cm_new.eval(z), mobius(U, x))
                assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


class TestNegativeSquares:
    def test_burns_krantz(self):
        assert solution_negative_squares(D4, -1.0, PLAN) == (0, 0)

    def test_indefinite(self):
        assert solution_negative_squares(D5, -1.0, PLAN) == (1, 1)

    def test_indefinite_with_schur_parameter(self):
        assert solution_negative_squares(D5, RationalFn([0, 0.5]), PLAN) == (1, 1)
