"""Boundary interpolation at a unimodular node.

Given prescribed Taylor data tau_0, tau_k, ..., tau_{2k-1} at a boundary point
z1, the solutions of

    s(z) = tau_0 + sum_{i=k}^{2k-1} tau_i (z - z1)^i + O((z - z1)^{2k})

are parametrized by a linear-fractional transform whose 2x2 coefficient
matrix is J-unitary on the circle with determinant identically 1. The
structured Pick matrix of the data controls how many negative squares every
solution acquires.
At the node all work is in powers of t = z - z1, where Taylor data are
leading coefficients and the node factor (1 - conj(z1) z)^k is a multiple of
t^k; a solution or parameter is built from its coefficients in t.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateLFT,
    InadmissibleParameter,
    InvalidProblemData,
    NonHermitianPick,
    NotHermitian,
    PoleAtExpansionPoint,
    SingularPick,
    VerificationError,
)
from .kernels import Inertia, estimate_negative_squares, inertia
from .rational import Mat2RF, Poly, RationalFn, _trim, _valuation, as_rational
from .tolerances import (
    ADMIS_TOL,
    CIRCLE_TOL,
    MAX_CONTACT_ORDER,
    ORDER_TOL,
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
        if not abs(abs(self.z1) - 1.0) <= CIRCLE_TOL:
            raise InvalidProblemData("z1 not unimodular")
        if not abs(abs(self.tau0) - 1.0) <= CIRCLE_TOL:
            raise InvalidProblemData("tau0 not unimodular")
        if not isinstance(self.k, numbers.Integral) or isinstance(self.k, bool) or self.k < 1:
            raise InvalidProblemData("k must be an integer >= 1")
        object.__setattr__(self, "k", int(self.k))
        if self.k > MAX_CONTACT_ORDER:
            raise InvalidProblemData(f"k exceeds cap {MAX_CONTACT_ORDER}")
        if len(self.tau) != self.k:
            raise InvalidProblemData("tau must list exactly k coefficients")
        if not np.all(np.isfinite(self.tau)):
            raise InvalidProblemData("tau coefficients must be finite")
        if abs(self.tau[0]) <= 1e-12:
            raise InvalidProblemData("tau_k must be nonzero")
        z0 = -self.z1 if self.z0 is None else complex(self.z0)
        object.__setattr__(self, "z0", z0)
        if not abs(abs(z0) - 1.0) <= CIRCLE_TOL:
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


def pick_matrix(data):
    """Structured Pick matrix conj(tau0) * T * B of the datum.

    The matrix is not inverted: its inertia counts the negative squares the
    parametrization adds, so it is checked by that same `inertia` count.
    Raises NonHermitianPick where `inertia` refuses it as not Hermitian (the
    parametrization covers only the Hermitian case), and SingularPick
    exactly when an eigenvalue lies in inertia's zero band, where the count
    of negative eigenvalues is undetermined.
    """
    return _pick_counted(data)[0]


def _pick_counted(data):
    """(P, inertia(P)) for pick_matrix's P, with its refusals."""
    P = np.conj(data.tau0) * toeplitz_matrix(data) @ binomial_matrix(data)
    try:
        counts = inertia(P)
    except NotHermitian:
        raise NonHermitianPick("Pick matrix of the data is not Hermitian") from None
    if counts.n_zero:
        raise SingularPick("Pick matrix is numerically singular")
    return P, counts


def pick_polynomial(data):
    """Polynomial p of degree <= k-1 with p(z1) != 0 that generates the
    coefficient matrix.

    The contact condition fixes (1 - conj(z0) z) p modulo (z - z1)^k as
    -tau0 (-conj(z1))^k / tau, where tau = sum tau_{k+i} (z - z1)^i. So p is
    that constant over tau (1 - conj(z0) z), expanded to k terms in powers
    of t = z - z1 and shifted once to powers of z. Its value at z1, the first
    term, is nonzero because tau_k is and z0 != z1. The Pick matrix is not
    used; coeff_matrix checks it first. Raises PoleAtExpansionPoint when
    |tau_k (1 - conj(z0) z1)| is at most ROOT_TOL times the largest
    coefficient of tau (1 - conj(z0) z) in powers of t.
    """
    k, c0 = data.k, data.z0.conjugate()
    node = Poly((1.0 - c0 * data.z1, -c0))  # 1 - conj(z0) z in powers of t
    const = Poly.constant(-data.tau0 * (-data.z1.conjugate()) ** k)
    try:
        series = RationalFn(const, Poly(data.tau) * node, reduce=False).taylor(0.0, k - 1)
    except PoleAtExpansionPoint:
        lead = data.tau[0] * (1.0 - c0 * data.z1)
        raise PoleAtExpansionPoint(
            f"tau_k (1 - conj(z0) z1) = {lead:.3g} vanishes at z1 = {data.z1}"
        ) from None
    return Poly(Poly(series).shifted(-data.z1))


@dataclass(frozen=True)
class CoeffMatrix:
    """Coefficient matrix function of the parametrization.

    mat is [[1-theta, tau0*theta], [-conj(tau0)*theta, 1+theta]] = I - theta u u* J
    where theta(z) = (1 - z conj(z0)) p(z) / (1 - z conj(z1))^k and `neutral` is
    the J-neutral u = (1, conj(tau0)). So det(mat) = 1 + (|tau0|^2 - 1) theta^2 = 1,
    the inverse is I + theta u u* J, and mat J mat* = J - 2 Re(theta) u u*,
    which is J where Re(theta) = 0.

    The matrix acts only as that rank-one update (`_transform`), in powers of
    t = z - z1: for theta = w / D, the monic D being t^k, it sends n / d to
    (D n - g) / (D d - conj(tau0) g) with g = w (n - tau0 d). As a map of
    (n, d) it has determinant D^2, so the pair can share only powers of t,
    which are dropped leading coefficients instead of a generic reduction.

    `_pick_inertia` is `inertia(pick)`, counted once by the build; the
    rigidity verdict, `solution_negative_squares` and the CLI read it
    instead of taking the Pick matrix's eigenvalues again.

    `mat`, the four entries as a Mat2RF, is built on its first read and kept;
    only the CLI report's `theta` and the demo rows read it. Its `apply` and
    `det` are the generic fraction algebra with SVD reductions, not the
    parametrization: at k = 8 `mat.apply` can differ from `apply` by 1e-2.
    """

    data: InterpData
    theta: RationalFn
    poly: Poly
    pick: np.ndarray
    neutral: np.ndarray = field(repr=False)
    _pick_inertia: Inertia = field(repr=False)

    @cached_property
    def mat(self):
        """Entries 1 -+ theta and +-tau0 theta, all over the denominator of theta."""
        theta, tau0 = self.theta, self.data.tau0
        a = RationalFn(theta.den - theta.num, theta.den, reduce=False)
        b = RationalFn(theta.num * tau0, theta.den, reduce=False)
        c = RationalFn(theta.num * (-np.conj(tau0)), theta.den, reduce=False)
        d = RationalFn(theta.den + theta.num, theta.den, reduce=False)
        return Mat2RF(a, b, c, d)

    def _transform(self, n, d, sign):
        """D (I + sign theta u u* J) (n, d) = (D n + sign g, D d + sign conj(tau0) g)
        with g = w (n - tau0 d), trimmed, for arrays n, d in powers of t (w is
        theta's kept numerator there). Sign +1 inverts it: |tau0| = 1 within CIRCLE_TOL."""
        k, tau0 = self.data.k, self.data.tau0
        g = np.convolve(self.theta._shifted(self.data.z1)[0], _sum(n, d * -tau0))
        if sign < 0:
            g = -g
        top = _sum(np.concatenate((np.zeros(k), n)), g)
        bot = _sum(np.concatenate((np.zeros(k), d)), g * tau0.conjugate())
        return _trim(top), _trim(bot)

    def apply(self, s):
        """The solution (D n - g) / (D d - conj(tau0) g) of a parameter n / d.

        For an admissible parameter the pair is already coprime. Otherwise
        the shared power of t is the number of leading Taylor coefficients
        the parameter shares with the parameter sent to infinity, the
        inverse transform (D + w) / (conj(tau0) w) of 1 / 0.
        """
        s = as_rational(s)
        j = 0
        if not admissible_parameter(s, self.data)[0]:
            pole = RationalFn._at(self.data.z1, *self._transform(np.ones(1), np.zeros(0), +1))
            j = _node_contact(s, self.data.z1, pole.taylor(self.data.z1, 2 * self.data.k - 1))
        return self._apply(s, j)

    def _apply(self, s, j):
        """The transform of the rational s with t^j divided out; `solve`
        passes j = 0 for a parameter it has already found admissible."""
        top, bot = self._transform(*s._shifted(self.data.z1)[:2], -1)
        if bot.size == 0:
            raise DegenerateLFT("transform denominator is identically zero")
        return _node_quotient(self.data.z1, top, bot, j)

    def eval(self, z):
        """I - theta(z) u u* J at a point."""
        u = self.neutral.reshape(2, 1)
        return np.eye(2) - self.theta(z) * (u @ u.conj().T @ J)


def coeff_matrix(data):
    """Build the coefficient matrix function for the datum.

    J-unitarity on the circle, Re(theta) = 0 there (see CoeffMatrix), is the
    identity w + (-conj(z1))^k w# = 0 for w = (1 - conj(z0) z) p and w# its
    conjugate reversed at length k + 1; it is checked within CIRCLE_TOL max|w|.
    The determinant is not: InterpData holds |tau0| within CIRCLE_TOL of 1.

    The matrix is built once per InterpData instance: a build that passes
    the checks is kept on the instance, and every later call on it returns
    the same object, so its `pick` and `neutral` arrays are read-only. A
    build that raises is not kept; `dataclasses.replace` makes a new
    instance, which gets its own build.
    """
    cm = getattr(data, "_coeff_matrix", None)
    if cm is not None:
        return cm
    P, counts = _pick_counted(data)
    p = pick_polynomial(data)
    # Coprime: p(z1) != 0 and z0 != z1.
    weight = Poly((1.0, -np.conj(data.z0))) * p
    theta = RationalFn(weight, Poly((1.0, -np.conj(data.z1))) ** data.k, reduce=False)
    u = np.array([1.0, np.conj(data.tau0)], dtype=complex)
    w = np.zeros(data.k + 1, dtype=complex)
    w[: weight.coeffs.size] = weight.coeffs
    resid = np.max(np.abs(w + (-data.z1.conjugate()) ** data.k * w[::-1].conj()))
    if not resid <= CIRCLE_TOL * np.max(np.abs(w)):
        raise VerificationError("coefficient matrix is not J-unitary on the circle")
    P.setflags(write=False)
    u.setflags(write=False)
    cm = CoeffMatrix(data=data, theta=theta, poly=p, pick=P, neutral=u, _pick_inertia=counts)
    object.__setattr__(data, "_coeff_matrix", cm)
    return cm


def admissible_parameter(s1, data):
    """Whether the parameter stays away from tau0 at z1.

    For a rational parameter the nontangential limit at z1 exists (a finite
    value or a pole); the parameter is admissible when it has a pole at z1
    or its value there differs from tau0 by more than ADMIS_TOL. Returns
    (admissible, diagnostic string).
    """
    s1 = as_rational(s1)
    order = s1.vanishing_order(data.z1)
    if order < 0:
        return True, f"parameter has a pole of order {-order} at z1"
    value = s1(data.z1)
    gap = abs(value - data.tau0)
    if gap > ADMIS_TOL:
        return True, f"|s1(z1) - tau0| = {gap:.3g}"
    return False, f"|s1(z1) - tau0| = {gap:.3g} <= {ADMIS_TOL:.3g}"


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


def _node_contact(f, z1, expected):
    """Number of leading Taylor coefficients of f at z1 that match
    `expected`, within verify_expansion's default tolerance (0 at a pole)."""
    tol = ORDER_TOL * max(1.0, float(np.max(np.abs(expected))))
    try:
        coeff = f.taylor(z1, expected.size - 1)
    except PoleAtExpansionPoint:
        return 0
    miss = np.abs(coeff - expected) > tol
    return int(np.argmax(miss)) if miss.any() else expected.size


def _sum(a, b):
    """Sum of two coefficient arrays of any lengths."""
    out = np.zeros(max(a.size, b.size), dtype=complex)
    out[: a.size] += a
    out[: b.size] += b
    return out


def _node_quotient(z1, top, bot, j):
    """top / bot (trimmed, in powers of t = z - z1) with t^j divided out: the
    first j coefficients are dropped, but never the last one of either."""
    m = min(j, bot.size - 1, top.size - 1 if top.size else j)
    return RationalFn._at(z1, top[m:], bot[m:])


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


def _coeff_matrix_for(data, theta):
    """The coefficient matrix of `data`: `theta` if given, once it is
    checked to be built for a datum equal to `data`."""
    if theta is None:
        return coeff_matrix(data)
    if theta.data != data:
        raise InvalidProblemData("coefficient matrix was built for another datum")
    return theta


def solve(data, s1, *, theta=None, verify=True):
    """Solution of the interpolation problem for an admissible parameter.

    Applies the linear-fractional transform of the coefficient matrix and
    post-checks the expansion at z1. A coefficient matrix passed as `theta`
    must be built for an equal datum, else InvalidProblemData.
    """
    s1 = as_rational(s1)
    ok, diag = admissible_parameter(s1, data)
    if not ok:
        raise InadmissibleParameter(diag)
    cm = _coeff_matrix_for(data, theta)
    s = cm._apply(s1, 0)
    if verify:
        report = verify_expansion(s, data)
        if not report.passed:
            raise VerificationError(f"solution fails the expansion check: {report}")
    return s


def recover_parameter(s, data, *, theta=None):
    """Invert the parametrization: the parameter whose transform is s.

    The inverse transform is the rank-one update I + theta u u* J, the
    adjugate, applied to s in powers of t = z - z1. Its numerator and
    denominator share t^j, j the number of leading datum coefficients s
    matches (2k for a solution); their first j coefficients are dropped.
    The result is round-trip checked by evaluating its forward pair. A
    coefficient matrix passed as `theta` must be built for an equal datum,
    else InvalidProblemData.
    """
    s = as_rational(s)
    cm = _coeff_matrix_for(data, theta)
    top, bot = cm._transform(*s._shifted(data.z1)[:2], +1)
    if bot.size == 0:
        raise DegenerateLFT("s is the transform of the parameter infinity")
    j = _node_contact(s, data.z1, data.expected_coefficients())
    s1 = _node_quotient(data.z1, top, bot, j)
    top, bot = (Poly(a, trim=False) for a in cm._transform(*s1._shifted(data.z1)[:2], -1))
    for x in (0.19 + 0.11j, -0.37, 0.52j):
        t = x - data.z1
        ref, got = s(x), top(t) / bot(t)
        if abs(ref - got) > 1e-7 * (1.0 + abs(ref)):
            raise VerificationError("parameter recovery failed the round trip")
    return s1


def denominator_closed_form(s1, data):
    """Closed form of c*s1 + d:

        ((1-z conj(z1))^k - conj(tau0) (1-z conj(z0)) p(z) (s1 - tau0))
        / (1-z conj(z1))^k

    Its numerator times the denominator of s1 is the denominator of
    CoeffMatrix.apply; in powers of t = z - z1 it shares t^j with t^k, j <= k
    the number of leading Taylor coefficients s1 shares with the constant
    tau0, which are dropped. Checked against c(z) s1(z) + d(z) from
    CoeffMatrix.eval at three interior points, within 1e-8 (1 + |c s1 + d|),
    and, for admissible s1, the numerator must not vanish at z1.
    """
    s1 = as_rational(s1)
    cm = coeff_matrix(data)
    n, d, _ = s1._shifted(data.z1)
    _, numerator = cm._transform(n, d, -1)
    j = _node_contact(s1, data.z1, data.expected_coefficients()[: data.k])
    closed = _node_quotient(data.z1, numerator, np.concatenate((np.zeros(data.k), d)), j)
    for z in (0.23 + 0.4j, -0.51, 0.08 - 0.61j):
        c, dz = cm.eval(z)[1]
        ref = c * s1(z) + dz
        if abs(closed(z) - ref) > 1e-8 * (1.0 + abs(ref)):
            raise VerificationError("closed form disagrees with c*s1 + d at a sample point")
    if admissible_parameter(s1, data)[0] and _valuation(numerator) > 0:
        raise VerificationError("transform denominator degenerates at z1")
    return closed


def renormalize(data, new_z0):
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
    if np.max(np.abs(U @ J @ U.conj().T - J)) > 1e-8 * (1.0 + np.max(np.abs(U)) ** 2):
        raise VerificationError("renormalization matrix is not J-unitary")
    cm_old = coeff_matrix(data)
    for z in (0.23 + 0.4j, -0.51, 0.08 - 0.61j):
        lhs = cm_old.eval(z)
        rhs = cm_new.eval(z) @ U
        if np.max(np.abs(lhs - rhs)) > 1e-8 * (1.0 + np.max(np.abs(lhs))):
            raise VerificationError("renormalization identity failed at a sample point")
    return cm_new, U


def solution_negative_squares(data, s1, plan=None):
    """Predicted and observed negative squares of the solution.

    predicted = sq_-(parameter) + (negative eigenvalues of the Pick matrix);
    observed counts the kernel of the solved function itself. Both counts
    are `estimate_negative_squares`, exact or refused, and do not read the
    plan; it is handed to them as given.
    """
    s1 = as_rational(s1)
    cm = coeff_matrix(data)
    predicted = estimate_negative_squares(s1, plan) + cm._pick_inertia.n_neg
    s = solve(data, s1, theta=cm)
    observed = estimate_negative_squares(s, plan)
    return predicted, observed
