"""Boundary interpolation at a unimodular node.

Given prescribed Taylor data tau_0, tau_k, ..., tau_{2k-1} at a boundary point
z1, the solutions of

    s(z) = tau_0 + sum_{i=k}^{2k-1} tau_i (z - z1)^i + O((z - z1)^{2k})

are parametrized by a linear-fractional transform whose 2x2 coefficient
matrix is J-unitary on the circle with determinant identically 1. The
structured Pick matrix of the data controls how many negative squares every
solution acquires.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateLFT,
    InadmissibleParameter,
    InvalidProblemData,
    NonHermitianPick,
    PoleAtExpansionPoint,
    PolynomialVanishesAtNode,
    SingularPick,
    VerificationError,
)
from .kernels import SamplePlan, estimate_negative_squares, inertia
from .rational import Mat2RF, Poly, RationalFn, _deflate, as_rational, unit_circle_samples
from .tolerances import (
    ADMIS_TOL,
    CIRCLE_TOL,
    HERM_TOL,
    MAX_CONTACT_ORDER,
    ORDER_TOL,
    PICK_COND_WARN,
    ROOT_TOL,
)

__all__ = [
    "J",
    "InterpData",
    "ExpansionReport",
    "CoeffMatrix",
    "toeplitz_matrix",
    "binomial_matrix",
    "pick_matrix",
    "pick_polynomial",
    "coeff_matrix",
    "admissible_parameter",
    "solve",
    "verify_expansion",
    "recover_parameter",
    "denominator_closed_form",
    "renormalize",
    "solution_negative_squares",
    "mobius",
]

# Signature matrix of the indefinite inner product the coefficient matrix
# preserves on the unit circle.
J = np.diag([1.0 + 0j, -1.0 + 0j])


def mobius(m, x):
    """Apply the linear-fractional transform of a constant 2x2 matrix."""
    m = np.asarray(m, dtype=complex)
    return (m[0, 0] * x + m[0, 1]) / (m[1, 0] * x + m[1, 1])


@dataclass(frozen=True)
class InterpData:
    """Boundary interpolation datum.

    z1: unimodular node; k: contact order (>= 1); tau0: unimodular target
    value; tau: the k prescribed coefficients (tau_k, ..., tau_{2k-1}) with
    tau_k nonzero; z0: unimodular normalization point distinct from z1
    (defaults to -z1).
    """

    z1: complex
    k: int
    tau0: complex
    tau: tuple
    z0: complex = None  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "z1", complex(self.z1))
        object.__setattr__(self, "tau0", complex(self.tau0))
        object.__setattr__(self, "tau", tuple(complex(t) for t in self.tau))
        if abs(abs(self.z1) - 1.0) > CIRCLE_TOL:
            raise InvalidProblemData("z1 not unimodular")
        if abs(abs(self.tau0) - 1.0) > CIRCLE_TOL:
            raise InvalidProblemData("tau0 not unimodular")
        if not isinstance(self.k, int) or self.k < 1:
            raise InvalidProblemData("k must be an integer >= 1")
        if self.k > MAX_CONTACT_ORDER:
            raise InvalidProblemData(f"k exceeds cap {MAX_CONTACT_ORDER}")
        if len(self.tau) != self.k:
            raise InvalidProblemData("tau must list exactly k coefficients")
        if abs(self.tau[0]) <= 1e-12:
            raise InvalidProblemData("tau_k must be nonzero")
        z0 = -self.z1 if self.z0 is None else complex(self.z0)
        object.__setattr__(self, "z0", z0)
        if abs(abs(z0) - 1.0) > CIRCLE_TOL:
            raise InvalidProblemData("z0 not unimodular")
        if abs(z0 - self.z1) <= 1e-12:
            raise InvalidProblemData("z0 must differ from z1")

    def expected_coefficients(self):
        """Target Taylor coefficients c_0 .. c_{2k-1} at z1."""
        out = [self.tau0] + [0j] * (self.k - 1) + list(self.tau)
        return np.asarray(out, dtype=complex)


def toeplitz_matrix(data):
    """Lower-triangular Toeplitz matrix with first column tau_k..tau_{2k-1}."""
    k = data.k
    T = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(i + 1):
            T[i, j] = data.tau[i - j]
    return T

def binomial_matrix(data):
    """Right-lower-triangular matrix of signed binomials times powers of z1.

    Column j carries sign (-1)^j and binomial(j, m) against z1^(2j+1-m),
    where m = i + j - k + 1 indexes the nonzero depth; it is invertible
    because z1 != 0.
    """
    k = data.k
    z1 = data.z1
    B = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            m = i + j - k + 1
            if m < 0:
                continue
            B[i, j] = (-1) ** j * math.comb(j, m) * z1 ** (2 * j + 1 - m)
    return B


def pick_matrix(data, *, herm_tol=HERM_TOL, cond_warn=PICK_COND_WARN):
    """Structured Pick matrix conj(tau0) * T * B of the datum.

    Raises NonHermitianPick when the data are incompatible with a Hermitian
    matrix (the parametrization covers only the Hermitian case) and
    SingularPick when numerically singular. A warning is emitted when the
    condition number exceeds cond_warn, since the matrix is inverted.
    """
    P = np.conj(data.tau0) * toeplitz_matrix(data) @ binomial_matrix(data)
    scale = float(np.max(np.abs(P)))
    if np.max(np.abs(P - P.conj().T)) > herm_tol * scale:
        raise NonHermitianPick("Pick matrix of the data is not Hermitian")
    cond = float(np.linalg.cond(P))
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularPick("Pick matrix is numerically singular")
    if cond > cond_warn:
        warnings.warn(f"Pick matrix condition number {cond:.3g}", stacklevel=2)
    return P


def _node_factor(data, power):
    """(1 - conj(z1) z)^power as an exact polynomial."""
    return Poly((1.0, -np.conj(data.z1))) ** power


def _row_values(data, z):
    """Row vector (1/(1-z conj(z1)), ..., z^{k-1}/(1-z conj(z1))^k) at z."""
    base = 1.0 - z * np.conj(data.z1)
    return np.array([z**j / base ** (j + 1) for j in range(data.k)], dtype=complex)


def pick_polynomial(data, *, pick=None, root_tol=ROOT_TOL):
    """Polynomial p of degree <= k-1 with p(z1) != 0 that generates the
    coefficient matrix.

    Each row entry is cleared of its denominator exactly, as the polynomial
    z^{j-1} (1 - z conj(z1))^{k-j}, before the inverse Pick matrix and the
    row at z0 are applied; no rational intermediate can cancel at z1.
    """
    P = pick_matrix(data) if pick is None else pick
    k = data.k
    rhs = np.conj(_row_values(data, data.z0))
    weights = np.linalg.solve(P, rhs)
    p = Poly.zero()
    for j in range(k):
        entry = Poly([0.0] * j + [1.0]) * _node_factor(data, k - 1 - j)
        p = p + entry * weights[j]
    pz1 = p(data.z1)
    scale = float(np.max(np.abs(p.coeffs), initial=0.0))
    if abs(pz1) <= root_tol * max(scale, 1e-300):
        raise PolynomialVanishesAtNode("interpolation polynomial vanishes at z1")
    return p


@dataclass(frozen=True)
class CoeffMatrix:
    """Coefficient matrix function of the parametrization.

    mat is [[1-theta, tau0*theta], [-conj(tau0)*theta, 1+theta]] where
    theta(z) = (1 - z conj(z0)) p(z) / (1 - z conj(z1))^k; det(mat) == 1 and
    mat is J-unitary on the circle. `neutral` is the direction vector
    (1, conj(tau0)), which is J-neutral.

    The entries share the denominator D = (1 - z conj(z1))^k, so the matrix
    of entry numerators has determinant D^2: a transform's numerator and
    denominator can only share powers of (z - z1), which are divided out
    exactly instead of by a generic reduction.
    """

    data: InterpData
    theta: RationalFn
    poly: Poly
    pick: np.ndarray
    mat: Mat2RF
    neutral: np.ndarray = field(repr=False)

    def apply(self, s):
        """Transform (a s + b) / (c s + d) of a parameter.

        For an admissible parameter the polynomial pair is already coprime.
        Otherwise the shared power of (z - z1) is the number of leading
        Taylor coefficients the parameter shares with -d/c, the parameter
        sent to infinity.
        """
        s = as_rational(s)
        m = self.mat
        top = m.a.num * s.num + m.b.num * s.den
        bot = m.c.num * s.num + m.d.num * s.den
        if bot.is_zero:
            raise DegenerateLFT("transform denominator is identically zero")
        j = 0
        if not admissible_parameter(s, self.data)[0]:
            pole = RationalFn(-m.d.num, m.c.num, reduce=False)
            j = _node_contact(s, self.data.z1, pole.taylor(self.data.z1, 2 * self.data.k - 1))
        return _divide_node(top, bot, self.data.z1, j)

    def eval(self, z):
        return self.mat.eval(z)


def coeff_matrix(data, *, check=True, circle_tol=CIRCLE_TOL):
    """Build the coefficient matrix function for the datum.

    With check=True the construction is validated: determinant 1 at interior
    samples and J-unitarity at circle samples away from z1.
    """
    P = pick_matrix(data)
    p = pick_polynomial(data, pick=P)
    # Coprime: p(z1) != 0 (checked) and z0 != z1.
    weight = Poly((1.0, -np.conj(data.z0))) * p
    theta = RationalFn(weight, _node_factor(data, data.k), reduce=False)
    # Entries 1 -+ theta and +-tau0 theta, all over the denominator of theta.
    a = RationalFn(theta.den - theta.num, theta.den, reduce=False)
    b = RationalFn(theta.num * data.tau0, theta.den, reduce=False)
    c = RationalFn(theta.num * (-np.conj(data.tau0)), theta.den, reduce=False)
    d = RationalFn(theta.den + theta.num, theta.den, reduce=False)
    mat = Mat2RF(a, b, c, d)
    u = np.array([1.0, np.conj(data.tau0)], dtype=complex)
    out = CoeffMatrix(data=data, theta=theta, poly=p, pick=P, mat=mat, neutral=u)
    if check:
        for z in (0.0, 0.31 + 0.17j, -0.42j, -0.55 + 0.2j):
            m = mat.eval(z)
            if abs(np.linalg.det(m) - 1.0) > 1e-8 * (1.0 + np.max(np.abs(m)) ** 2):
                raise VerificationError("determinant of the coefficient matrix is not 1")
        for w in unit_circle_samples(16):
            if abs(w - data.z1) < 0.2:
                continue
            m = mat.eval(w)
            resid = np.max(np.abs(m @ J @ m.conj().T - J))
            if resid > circle_tol * (1.0 + np.max(np.abs(m)) ** 2):
                raise VerificationError("coefficient matrix is not J-unitary on the circle")
    return out


def admissible_parameter(s1, data, *, admis_tol=ADMIS_TOL):
    """Whether the parameter stays away from tau0 at z1.

    For a rational parameter the nontangential limit at z1 exists (a finite
    value or a pole); the parameter is admissible when it has a pole at z1
    or its value there differs from tau0 by more than admis_tol. Returns
    (admissible, diagnostic string).
    """
    s1 = as_rational(s1)
    order = s1.vanishing_order(data.z1)
    if order < 0:
        return True, f"parameter has a pole of order {-order} at z1"
    value = s1(data.z1)
    gap = abs(value - data.tau0)
    if gap > admis_tol:
        return True, f"|s1(z1) - tau0| = {gap:.3g}"
    return False, f"|s1(z1) - tau0| = {gap:.3g} <= {admis_tol:.3g}"


@dataclass(frozen=True)
class ExpansionReport:
    """Residuals of the prescribed Taylor coefficients at z1."""

    passed: bool
    residuals: np.ndarray
    coefficients: np.ndarray
    expected: np.ndarray
    tolerance: float

    def __str__(self):
        rows = ", ".join(f"c{i}:{r:.2e}" for i, r in enumerate(self.residuals))
        return f"ExpansionReport(passed={self.passed}, {rows})"


def _node_contact(f, z1, expected, order_tol=ORDER_TOL):
    """Number of leading Taylor coefficients of f at z1 that match
    `expected`, within verify_expansion's tolerance (0 at a pole)."""
    tol = order_tol * max(1.0, float(np.max(np.abs(expected))))
    try:
        coeff = f.taylor(z1, expected.size - 1)
    except PoleAtExpansionPoint:
        return 0
    miss = np.abs(coeff - expected) > tol
    return int(np.argmax(miss)) if miss.any() else expected.size


def _divide_node(top, bot, z1, j):
    """top / bot with (z - z1)^j divided out of both by synthetic division."""
    t, b = top.coeffs, bot.coeffs
    for _ in range(min(j, bot.degree, top.degree if t.size else j)):
        b = _deflate(b, z1)[0]
        if t.size:
            t = _deflate(t, z1)[0]
    return RationalFn(Poly(t), Poly(b), reduce=False)


def verify_expansion(s, data, *, order_tol=ORDER_TOL):
    """Check the Taylor coefficients of s at z1 against the datum.

    Requires s analytic at z1; compares c_0 = tau0, c_1..c_{k-1} = 0 and
    c_i = tau_i for k <= i <= 2k-1, each within order_tol scaled by the data
    size.
    """
    s = as_rational(s)
    coeff = s.taylor(data.z1, 2 * data.k - 1)
    expected = data.expected_coefficients()
    residuals = np.abs(coeff - expected)
    tol = order_tol * max(1.0, float(np.max(np.abs(expected))))
    return ExpansionReport(
        passed=bool(np.all(residuals <= tol)),
        residuals=residuals,
        coefficients=coeff,
        expected=expected,
        tolerance=tol,
    )


def solve(data, s1, *, theta=None, verify=True, order_tol=ORDER_TOL):
    """Solution of the interpolation problem for an admissible parameter.

    Applies the linear-fractional transform of the coefficient matrix and
    post-checks the expansion at z1.
    """
    s1 = as_rational(s1)
    ok, diag = admissible_parameter(s1, data)
    if not ok:
        raise InadmissibleParameter(diag)
    cm = coeff_matrix(data) if theta is None else theta
    s = cm.apply(s1)
    if verify:
        report = verify_expansion(s, data, order_tol=order_tol)
        if not report.passed:
            raise VerificationError(f"solution fails the expansion check: {report}")
    return s


def recover_parameter(s, data, *, theta=None, roundtrip_tol=1e-7):
    """Invert the parametrization: the parameter whose transform is s.

    The inverse transform uses the adjugate (determinant is identically 1).
    Its numerator and denominator share (z - z1)^j, where j is the number of
    leading datum coefficients s matches (2k for a solution); that factor is
    divided out exactly. The result is round-trip checked by evaluation.
    """
    s = as_rational(s)
    cm = coeff_matrix(data) if theta is None else theta
    m = cm.mat
    top = m.d.num * s.num - m.b.num * s.den
    bot = m.a.num * s.den - m.c.num * s.num
    if bot.is_zero:
        raise DegenerateLFT("s is the transform of the parameter infinity")
    j = _node_contact(s, data.z1, data.expected_coefficients())
    s1 = _divide_node(top, bot, data.z1, j)
    back = cm.apply(s1)
    for x in (0.19 + 0.11j, -0.37, 0.52j):
        ref, got = s(x), back(x)
        if abs(ref - got) > roundtrip_tol * (1.0 + abs(ref)):
            raise VerificationError("parameter recovery failed the round trip")
    return s1


def denominator_closed_form(s1, data, *, theta=None, match_tol=1e-8):
    """Closed form of c*s1 + d:

        ((1-z conj(z1))^k - conj(tau0) (1-z conj(z0)) p(z) (s1 - tau0))
        / (1-z conj(z1))^k

    Asserts agreement with the direct c*s1 + d and, for admissible s1, that
    the numerator does not vanish at z1.
    """
    s1 = as_rational(s1)
    cm = coeff_matrix(data) if theta is None else theta
    node = RationalFn(_node_factor(data, data.k), Poly.one(), reduce=False)
    weight = RationalFn(Poly((1.0, -np.conj(data.z0))) * cm.poly, Poly.one(), reduce=False)
    numerator = node - weight * (s1 - data.tau0) * np.conj(data.tau0)
    closed = numerator / node
    direct = cm.mat.c * s1 + cm.mat.d
    if not closed.allclose(direct, match_tol * max(1.0, _coeff_scale(direct))):
        raise VerificationError("closed form disagrees with direct c*s1 + d")
    ok, _ = admissible_parameter(s1, data)
    if ok and numerator.vanishing_order(data.z1) > 0:
        raise VerificationError("transform denominator degenerates at z1")
    return closed


def _coeff_scale(f):
    s = 0.0
    if f.num.coeffs.size:
        s = max(s, float(np.max(np.abs(f.num.coeffs))))
    if f.den.coeffs.size:
        s = max(s, float(np.max(np.abs(f.den.coeffs))))
    return s


def renormalize(data, new_z0, *, sample_tol=1e-8):
    """Coefficient matrix for a different normalization point.

    Returns (new coefficient matrix, U) where U is the constant J-unitary
    matrix with old_mat(z) = new_mat(z) @ U; the parametrized solution set is
    unchanged because the transform of U reshuffles parameters only.
    """
    new_data = replace(data, z0=complex(new_z0))
    cm_new = coeff_matrix(new_data)
    shift = complex(cm_new.theta(data.z0))
    u = cm_new.neutral.reshape(2, 1)
    U = np.eye(2, dtype=complex) + shift * (u @ u.conj().T @ J)
    if np.max(np.abs(U @ J @ U.conj().T - J)) > sample_tol * (1.0 + np.max(np.abs(U)) ** 2):
        raise VerificationError("renormalization matrix is not J-unitary")
    cm_old = coeff_matrix(data)
    for z in (0.23 + 0.4j, -0.51, 0.08 - 0.61j):
        lhs = cm_old.eval(z)
        rhs = cm_new.eval(z) @ U
        if np.max(np.abs(lhs - rhs)) > sample_tol * (1.0 + np.max(np.abs(lhs))):
            raise VerificationError("renormalization identity failed at a sample point")
    return cm_new, U


def solution_negative_squares(data, s1, plan=None, *, inertia_tol=1e-10):
    """Predicted and observed negative squares of the solution.

    predicted = sq_-(parameter) + (negative eigenvalues of the Pick matrix);
    observed samples the kernel of the solved function directly.
    """
    plan = plan or SamplePlan()
    s1 = as_rational(s1)
    cm = coeff_matrix(data)
    ev_neg = inertia(cm.pick, tol=inertia_tol).n_neg
    predicted = estimate_negative_squares(s1, plan) + ev_neg
    s = solve(data, s1, theta=cm)
    observed = estimate_negative_squares(s, plan)
    return predicted, observed
