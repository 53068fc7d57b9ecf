"""Structured matrices, the coefficient matrix function, solve/recover."""

import numpy as np
import pytest

from conftest import random_admissible_parameter, random_interp_data, unimodular
from schurkit.errors import (
    InadmissibleParameter,
    InvalidProblemData,
    NonHermitianPick,
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
from schurkit.kernels import SamplePlan, inertia
from schurkit.rational import INF, Poly, RationalFn, unit_circle_samples

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


class TestClosedForm:
    def test_burns_krantz_constant_parameter(self):
        cf = denominator_closed_form(-1.0, D4)
        assert cf.allclose(RationalFn(Poly([2]), Poly([1, -1])), 1e-12)

    def test_parameter_at_tau0_gives_one(self):
        cf = denominator_closed_form(RationalFn.constant(1.0), D4)
        assert cf.allclose(RationalFn.constant(1.0), 1e-12)

    def test_alpha_agrees_with_direct(self):
        # agreement with c*s1 + d is asserted inside
        denominator_closed_form(1 - 2 * 0.3, affine_data(0.3))

    def test_random_agreement(self, rng):
        for k in (1, 2):
            data = random_interp_data(rng, k)
            s1 = random_admissible_parameter(rng, data)
            denominator_closed_form(s1, data)


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
