"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import time

import numpy as np
import pytest

from conftest import (
    random_admissible_parameter,
    random_blaschke,
    random_interp_data,
    unimodular,
)
from schurkit.interpolation import (
    J,
    InterpData,
    admissible_parameter,
    coeff_matrix,
    mobius,
    pick_polynomial,
    recover_parameter,
    renormalize,
    solution_negative_squares,
    solve,
    verify_expansion,
)
from schurkit.kernels import SamplePlan, estimate_negative_squares, inertia
from schurkit.rational import (
    INF,
    BlaschkeProduct,
    Poly,
    RationalFn,
    krein_langer_factor,
    unit_circle_samples,
)
from schurkit.rigidity import (
    contact_order_probe,
    horocycle_check,
    quartic_perturbation,
    rigidity_check,
    schur_circle_check,
)

D4 = InterpData(z1=1.0, k=1, tau0=1.0, tau=(1.0,), z0=-1.0)
D5 = InterpData(z1=1.0, k=1, tau0=1.0, tau=(-1.0,), z0=-1.0)
DISK_POINTS = 0.5 * unit_circle_samples(8)


def _line(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def _max_coeff_err(f, expected):
    err = 0.0
    for mine, ref in ((f.num, expected.num), (f.den, expected.den)):
        n = max(mine.coeffs.size, ref.coeffs.size)
        a = np.zeros(n, complex)
        b = np.zeros(n, complex)
        a[: mine.coeffs.size] = mine.coeffs
        b[: ref.coeffs.size] = ref.coeffs
        if n:
            err = max(err, float(np.max(np.abs(a - b))))
    return err


def test_criterion_1_golden_coefficient_matrix():
    start = time.perf_counter()
    cm = coeff_matrix(D4)
    den = Poly([2, -2])
    golden = {
        "a": RationalFn(Poly([1, -3]), den),
        "b": RationalFn(Poly([1, 1]), den),
        "c": RationalFn(Poly([-1, -1]), den),
        "d": RationalFn(Poly([3, -1]), den),
    }
    err = max(_max_coeff_err(getattr(cm.mat, k), golden[k]) for k in golden)
    elapsed = time.perf_counter() - start
    _line(1, "golden coefficient matrix", err <= 1e-12 and elapsed < 1.0)


def test_criterion_2_indefinite_golden():
    cm = coeff_matrix(D5)
    ok = abs(cm.pick[0, 0] + 1.0) <= 1e-12
    s = solve(D5, -1.0, theta=cm)
    ok = ok and _max_coeff_err(s, RationalFn([1], [0, 1])) <= 1e-12
    ok = ok and solution_negative_squares(D5, -1.0) == (1, 1)
    _line(2, "indefinite golden solution", ok)


def test_criterion_3_alpha_family():
    ok = True
    for alpha in (0.25, 0.5, 0.75):
        data = InterpData(z1=1.0, k=1, tau0=1.0, tau=(alpha,), z0=-1.0)
        p = pick_polynomial(data)
        ok = ok and p.degree == 0 and abs(p.coeffs[0] - 0.5 / alpha) <= 1e-12
        s = solve(data, 1 - 2 * alpha)
        affine = RationalFn(Poly([1 - alpha, alpha]), Poly.one())
        ok = ok and _max_coeff_err(s, affine) <= 1e-12
    q = quartic_perturbation(0.5, 1 / 20)  # raises NotSchur if the check fails
    ok = ok and schur_circle_check(q) <= 1.0 + 1e-9
    affine_half = RationalFn(Poly([0.5, 0.5]), Poly.one())
    ok = ok and (q - affine_half).vanishing_order(1.0) == 4
    data_half = InterpData(z1=1.0, k=1, tau0=1.0, tau=(0.5,), z0=-1.0)
    ok = ok and verify_expansion(q, data_half).passed
    s1 = recover_parameter(q, data_half)
    explicit = RationalFn(Poly([2, -4, 2]), Poly([11, -1, -1, 1]))
    ok = ok and _max_coeff_err(s1, explicit) <= 1e-9
    holds, witness = horocycle_check(q, 0.5)
    ok = ok and not holds and witness is not None
    _line(3, "alpha family and quartic counterexample", ok)


def test_criterion_4_rigidity_dichotomy():
    ok = True
    v = rigidity_check(D4, -1.0, RationalFn.x())
    ok = ok and v.forced_identity and v.observed_order == INF
    v = rigidity_check(D4, -1.0, solve(D4, RationalFn([0, -1])))
    ok = ok and not v.forced_identity and v.observed_order == 3 and v.required_order == 4
    v = rigidity_check(D5, -1.0, RationalFn([1], [0, 1]))
    ok = ok and v.forced_identity and v.observed_order == INF
    v = rigidity_check(D5, -1.0, solve(D5, RationalFn([0, -1])))
    ok = ok and not v.forced_identity and v.observed_order == 3
    _line(4, "rigidity dichotomy", ok)


def test_criterion_5_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(52100)
    cases = 100

    # determinant 1 at interior points
    for i in range(cases):
        cm = coeff_matrix(random_interp_data(rng, 1 + i % 4))
        for z in DISK_POINTS:
            assert abs(np.linalg.det(cm.eval(z)) - 1.0) <= 1e-9

    # J-unitarity residual on 32 circle points
    circle = unit_circle_samples(32)
    for i in range(cases):
        data = random_interp_data(rng, 1 + i % 4)
        cm = coeff_matrix(data)
        for w in circle:
            if abs(w - data.z1) < 0.15:
                continue
            m = cm.eval(w)
            resid = np.max(np.abs(m @ J @ m.conj().T - J))
            assert resid <= 1e-9 * (1.0 + np.max(np.abs(m)) ** 2)

    # recover(solve) identity on admissible rational parameters
    for i in range(cases):
        data = random_interp_data(rng, 1 + i % 3)
        s1 = random_admissible_parameter(rng, data)
        cm = coeff_matrix(data)
        back = recover_parameter(solve(data, s1, theta=cm), data, theta=cm)
        assert _max_coeff_err(back, s1) <= 1e-9

    # renormalization: T(old)(x) == T(new)(T(U)(x))
    for i in range(cases):
        data = random_interp_data(rng, 1 + i % 2)
        new_z0 = unimodular(rng)
        while min(abs(new_z0 - data.z1), abs(new_z0 - data.z0)) < 0.3:
            new_z0 = unimodular(rng)
        cm_old = coeff_matrix(data)
        cm_new, U = renormalize(data, new_z0)
        x = unimodular(rng)
        while abs(x - data.tau0) < 0.3:
            x = unimodular(rng)
        for z in (0.23 + 0.31j, -0.47j):
            lhs = mobius(cm_old.eval(z), x)
            rhs = mobius(cm_new.eval(z), mobius(U, x))
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))

    # boundary contact of a non-constant Blaschke product is exactly 1
    for _ in range(cases):
        sigma = random_blaschke(rng, 3, min_degree=1).as_rational()
        rep = contact_order_probe(sigma, sigma(1.0))
        assert rep.order == 1

    # negative-squares bookkeeping: predicted == observed
    plan = SamplePlan(max_points=32, initial_points=8, seed=1905)
    for i in range(cases):
        data = random_interp_data(rng, 1 + i % 2)
        s1 = random_admissible_parameter(rng, data, max_degree=2)
        if i % 3 == 0:
            pivot = 0.3 * unimodular(rng)
            s1 = s1 * 0.9 / BlaschkeProduct([pivot]).as_rational()
            ok, _ = admissible_parameter(s1, data)
            if not ok:
                s1 = random_admissible_parameter(rng, data, max_degree=2)
        predicted, observed = solution_negative_squares(data, s1, plan)
        assert predicted == observed

    elapsed = time.perf_counter() - start
    print(f"property suite elapsed: {elapsed:.1f}s")
    _line(5, "seeded property suite", elapsed < 60.0)


def test_criterion_6_kernel_oracle_equivalence():
    start = time.perf_counter()
    plan = SamplePlan(max_points=64, initial_points=8, seed=60023)
    b1 = BlaschkeProduct([0.4]).as_rational()
    family = [
        RationalFn.x(),
        RationalFn([1], [0, 1]),
        RationalFn([1], [0, 0, 1]),
        b1 / RationalFn([0, 1]),
    ]
    ok = True
    for s in family:
        _, b = krein_langer_factor(s)
        ok = ok and estimate_negative_squares(s, plan) == b.order
    elapsed = time.perf_counter() - start
    _line(6, "kernel oracle equivalence", ok and elapsed < 10.0)


def test_criterion_7_desk_scale_documentation():
    # No scaled-down substitutions: every golden value above is closed-form.
    # The negative-squares count draws no sample; where it is defined, its
    # docstring must say that the count is exact or refused.
    doc = estimate_negative_squares.__doc__ or ""
    ok = "exact" in doc and "refused" in doc
    _line(7, "desk-scale reproduction, count exact or refused", ok)
