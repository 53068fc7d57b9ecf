"""Boundary rigidity diagnostics.

A solution of the boundary problem that agrees with the distinguished
solution b = T(x) (x a unimodular constant other than tau0) to order 2k+2 at
the node must coincide with b. The checks here compute exact vanishing
orders for rational functions, slope-fit orders along nontangential paths for
black-box functions, Julia quotients, horocycle containment, and the
equivalence circle for the fixed-derivative problem s(1) = 1, s'(1) = alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    HypothesisNotMet,
    InvalidContactPoint,
    ModulusAtLeastOne,
    NotSchur,
    VerificationError,
)
from .interpolation import (
    InterpData,
    coeff_matrix,
    recover_parameter,
    solve,
    verify_expansion,
)
from .kernels import inertia
from .rational import (
    INF,
    Poly,
    RationalFn,
    as_rational,
    cayley_fn,
    unit_circle_samples,
)
from .tolerances import CIRCLE_TOL, ORDER_TOL

__all__ = [
    "PathSpec",
    "RigidityVerdict",
    "ContactReport",
    "EquivalenceReport",
    "nontangential_path",
    "estimate_order_on_path",
    "julia_quotient",
    "contact_order_probe",
    "rigidity_check",
    "polar_grid",
    "horocycle_check",
    "affine_lft_bound",
    "affine_equivalences",
    "cayley_decomposition",
    "quartic_perturbation",
    "schur_circle_check",
]


def _difference(f, g, *, rel=1e-10):
    """f - g as f.num g.den - g.num f.den over f.den g.den, unreduced.

    A difference of two representations of the same function leaves
    rounding dust that survives relative trimming (it is its own scale), so
    the numerator counts as zero when it is below `rel` times the scale of
    the products it came from.
    """
    g = as_rational(g)
    num = f.num * g.den - g.num * f.den
    scale = 1.0
    for p, q in ((f.num, g.den), (g.num, f.den)):
        if not p.is_zero:
            scale = max(scale, float(np.max(np.abs(p.coeffs)) * np.max(np.abs(q.coeffs))))
    if not num.is_zero and float(np.max(np.abs(num.coeffs))) <= rel * scale:
        num = Poly.zero()
    return RationalFn(num, f.den * g.den, reduce=False)


@dataclass(frozen=True)
class PathSpec:
    """Geometric approach path z_j = z1 (1 - r0 ratio^j e^{i phi}).

    The points stay in a Stolz region |z - z1| < K (1 - |z|); with
    r0 < 2 cos(phi) every point lies in the open disk and the constant
    K = 2 / (2 cos(phi) - r0) works for the whole path.
    """

    z1: complex = 1.0
    angle: float = 0.0
    r0: float = 0.25
    ratio: float = 0.5
    count: int = 12

    def __post_init__(self):
        object.__setattr__(self, "z1", complex(self.z1))
        if abs(abs(self.z1) - 1.0) > CIRCLE_TOL:
            raise ValueError("path endpoint must be unimodular")
        if not abs(self.angle) < math.pi / 2:
            raise ValueError("approach angle must satisfy |angle| < pi/2")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie in (0, 1)")
        if not 0.0 < self.r0 < 2.0 * math.cos(self.angle):
            raise ValueError("need 0 < r0 < 2 cos(angle) to stay inside the disk")
        if self.count < 1:
            raise ValueError("count must be >= 1")

    @property
    def stolz_constant(self):
        return 2.0 / (2.0 * math.cos(self.angle) - self.r0)


def nontangential_path(path_spec):
    """Points of the path, from the farthest to the closest to z1."""
    j = np.arange(path_spec.count)
    t = path_spec.r0 * path_spec.ratio**j
    return path_spec.z1 * (1.0 - t * np.exp(1j * path_spec.angle))


def estimate_order_on_path(f, path, z1):
    """Least-squares slope of log|f| against log|z - z1| along a path.

    A heuristic order estimate for black-box functions; for a rational f the
    exact Taylor valuation is preferred and this estimate agrees with it to
    within a fraction of a unit. Values below 1e-300 count as evidence that
    f vanishes identically; if all are, the slope is INF.
    """
    path = np.asarray(path, dtype=complex)
    vals = np.array([abs(complex(f(z))) for z in path])
    keep = vals > 1e-300
    if not np.any(keep):
        return INF
    x = np.log(np.abs(path[keep] - complex(z1)))
    y = np.log(vals[keep])
    if x.size < 2:
        return INF
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def julia_quotient(s, z, x, *, modulus_tol=1e-12):
    """|s(z) - x|^2 / (1 - |s(z)|^2); requires |s(z)| < 1.

    Accepts a rational function, a scalar, or a plain callable.
    """
    if isinstance(s, RationalFn) or not callable(s):
        value = complex(as_rational(s)(z))
    else:
        value = complex(s(z))
    m = abs(value)
    if m >= 1.0 - modulus_tol:
        raise ModulusAtLeastOne(f"|s({z})| = {m:.12g}")
    return abs(value - complex(x)) ** 2 / (1.0 - m * m)


def schur_circle_check(s, *, samples=512, circle_tol=CIRCLE_TOL):
    """Largest modulus of a rational function on circle samples.

    By the maximum principle this decides the Schur property for functions
    analytic on the closed disk. Raises NotSchur beyond tolerance.
    """
    s = as_rational(s)
    for p in s.poles():
        if abs(p) < 1.0 + 1e-9 and abs(abs(p) - 1.0) > 1e-9:
            raise NotSchur(f"pole at {p} inside the disk")
    sup = float(np.max(np.abs(s(unit_circle_samples(samples)))))
    if sup > 1.0 + max(circle_tol, 1e-9):
        raise NotSchur(f"circle modulus reaches {sup:.6g}")
    return sup


@dataclass(frozen=True)
class ContactReport:
    """Vanishing order of sigma - x at the node for a Schur sigma."""

    order: float
    identical: bool
    message: str


def contact_order_probe(sigma, x, path=PathSpec()):
    """Order of contact of a Schur function with a unimodular constant.

    A Schur function that agrees with a unimodular constant to second order
    at a boundary point is that constant; so for sigma not identically x the
    order is at most 1, and an order >= 2 forces sigma - x == 0. A finite
    order >= 2 is therefore reported as a verification failure.
    """
    x = complex(x)
    if abs(abs(x) - 1.0) > CIRCLE_TOL:
        raise ValueError("contact value must be unimodular")
    sigma = as_rational(sigma)
    schur_circle_check(sigma)
    order = _difference(sigma, x).vanishing_order(path.z1)
    if order == INF:
        return ContactReport(order=INF, identical=True, message="sigma is identically x")
    if order >= 2:
        raise VerificationError(
            f"Schur function has contact order {order} >= 2 with {x} but is not constant"
        )
    return ContactReport(order=float(order), identical=False, message=f"contact order {order}")


@dataclass(frozen=True)
class RigidityVerdict:
    required_order: int
    observed_order: float
    forced_identity: bool
    residual_report: str


def rigidity_check(data, x, s):
    """Compare a verified solution against the distinguished solution T(x).

    forced_identity holds when s - T(x) vanishes at z1 to order at least
    2k+2, in which case s must equal T(x) identically (checked). Otherwise
    the verdict reports the recovered parameter's deviation order from x.
    """
    x = complex(x)
    if abs(abs(x) - 1.0) > CIRCLE_TOL:
        raise InvalidContactPoint("contact point must be unimodular")
    if abs(x - data.tau0) <= 1e-12:
        raise InvalidContactPoint("contact point must differ from tau0")
    s = as_rational(s)
    report = verify_expansion(s, data)
    if not report.passed:
        raise HypothesisNotMet(f"candidate is not a solution: {report}")
    cm = coeff_matrix(data)
    b = solve(data, x, theta=cm)
    required = 2 * data.k + 2
    observed = _difference(s, b).vanishing_order(data.z1)
    forced = observed >= required
    notes = []
    if forced:
        if observed != INF:
            raise VerificationError(
                f"difference vanishes to order {observed} >= {required} but is not zero"
            )
        notes.append("s coincides with the distinguished solution")
    else:
        s1 = recover_parameter(s, data, theta=cm)
        dev = _difference(s1, x).vanishing_order(data.z1)
        notes.append(f"observed order {observed} < required {required}")
        notes.append(f"recovered parameter deviates from x at order {dev}")
    kappa_pole = int(sum(1 for p in s.poles() if abs(p) < 1.0))
    ev_neg = inertia(cm.pick).n_neg
    notes.append(
        f"disk pole count {kappa_pole} vs negative Pick eigenvalues {ev_neg}"
        + ("" if kappa_pole == ev_neg else " (class mismatch: theorem hypotheses not met)")
    )
    return RigidityVerdict(
        required_order=required,
        observed_order=observed if observed == INF else float(observed),
        forced_identity=bool(forced),
        residual_report="; ".join(notes),
    )


def polar_grid(n_radii=40, n_angles=40, r_max=0.995):
    """Default polar grid for disk-wide inequality checks."""
    radii = np.linspace(r_max / n_radii, r_max, n_radii)
    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    return (radii[:, None] * np.exp(1j * angles[None, :])).ravel()


def horocycle_check(s, alpha, grid=None, *, margin=0.0):
    """Whether s maps the disk into the horocycle at 1 of size alpha/(1-alpha).

    Checks |1 - s(z)|^2 / (1 - |s(z)|^2) < alpha/(1-alpha) on the grid;
    returns (holds, witness) with the first violating point, if any. The
    horocycle is the disk of radius alpha centered at 1-alpha, internally
    tangent to the unit circle at 1.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    s = as_rational(s)
    pts = polar_grid() if grid is None else np.asarray(grid, dtype=complex).ravel()
    bound = alpha / (1.0 - alpha)
    for z in pts:
        if julia_quotient(s, z, 1.0) >= bound - margin:
            return False, complex(z)
    return True, None


def _affine_data(alpha):
    return InterpData(z1=1.0, k=1, tau0=1.0, tau=(alpha,), z0=-1.0)


def affine_lft_bound(s, alpha, grid=None):
    """Pointwise inequality equivalent to |parameter| <= |1 - 2 alpha|.

    Pulls the parameter bound through the inverse transform of the
    fixed-derivative problem: with the linear expressions
    top = (2a+1 - z(2a-1)) s(z) - (1+z) and bot = (2a-1 - z(2a+1)) + (1+z) s(z),
    the bound reads |top| <= |1-2a| |bot| for every z in the disk. (The
    inequality is stated here directly from the inverse transform; it is the
    algebraic form of the parameter bound.)
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    s = as_rational(s)
    pts = polar_grid() if grid is None else np.asarray(grid, dtype=complex).ravel()
    a = alpha
    sv = s(pts)
    top = (2 * a + 1 - pts * (2 * a - 1)) * sv - (1 + pts)
    bot = (2 * a - 1 - pts * (2 * a + 1)) + (1 + pts) * sv
    slack = np.abs(top) - abs(1 - 2 * a) * np.abs(bot)
    tol = 1e-9 * (1.0 + float(np.max(np.abs(top))))
    bad = np.nonzero(slack > tol)[0]
    if bad.size:
        return False, complex(pts[bad[0]])
    return True, None


@dataclass(frozen=True)
class EquivalenceReport:
    """Joint verdict of the equivalent rigidity conditions at derivative alpha.

    identity:        s equals the affine solution alpha z + 1 - alpha;
    parameter_const: the recovered parameter is the constant 1 - 2 alpha;
    parameter_bound: |parameter| <= |1 - 2 alpha| on the closed disk;
    lft_bound:       the same bound pulled through the inverse transform;
    horocycle:       s maps the disk into the horocycle of size a/(1-a).
    """

    alpha: float
    identity: bool
    parameter_const: bool
    parameter_bound: bool
    lft_bound: bool
    horocycle: bool
    witness: complex | None
    parameter: RationalFn

    @property
    def consistent(self):
        flags = (self.identity, self.parameter_const, self.parameter_bound, self.horocycle)
        return all(flags) or not any(flags)

    @property
    def all_hold(self):
        return self.identity


def affine_equivalences(s, alpha, *, grid=None, bound_tol=1e-9):
    """Evaluate the equivalent characterizations of s = alpha z + 1 - alpha.

    Requires a Schur candidate matching the affine map to fourth order at 1
    (HypothesisNotMet otherwise). The five conditions must agree; the report
    carries each verdict, a horocycle witness when one exists, and the
    recovered parameter. For alpha outside (0, 1) the problem degenerates
    (at alpha = 0 a second-order contact alone forces s == 1) and is
    rejected.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    s = as_rational(s)
    data = _affine_data(alpha)
    report = verify_expansion(s, data)
    if not report.passed:
        raise HypothesisNotMet(f"candidate does not match the first-order data: {report}")
    affine = RationalFn(Poly((1.0 - alpha, alpha)), Poly.one(), reduce=False)
    deviation = _difference(s, affine).vanishing_order(1.0)
    if deviation < 4:
        raise HypothesisNotMet(
            f"candidate only matches the affine map to order {deviation} < 4 at 1"
        )
    identity = deviation == INF
    s1 = recover_parameter(s, data)
    target = 1.0 - 2.0 * alpha
    param_const = _difference(s1, target).is_zero
    if any(abs(p) <= 1.0 for p in s1.poles()):
        param_bound = False
    else:
        sup = float(np.max(np.abs(s1(unit_circle_samples(512)))))
        param_bound = sup <= abs(target) + bound_tol
    lft_ok, _ = affine_lft_bound(s, alpha, grid=grid)
    horo, witness = horocycle_check(s, alpha, grid=grid)
    return EquivalenceReport(
        alpha=alpha,
        identity=identity,
        parameter_const=param_const,
        parameter_bound=param_bound,
        lft_bound=lft_ok,
        horocycle=horo,
        witness=witness,
        parameter=s1,
    )


def cayley_decomposition(s, alpha, *, order_tol=ORDER_TOL):
    """Half-plane picture of a candidate at derivative alpha.

    Writes f = C(s) = (1+s)/(1-s) as

        f(z) = (1/alpha) (1+z)/(1-z) + (1-alpha)/alpha + r(z)

    and returns (f, f1, r) with f1 = f - (1-alpha)/alpha. For candidates
    matching the affine map to fourth order, r is analytic at 1 and vanishes
    there to order >= 2; r == 0 exactly for the affine map itself. When the
    horocycle condition holds, Re r >= 0 on the disk.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    s = as_rational(s)
    f = cayley_fn(s)
    shift = (1.0 - alpha) / alpha
    f1 = f - shift
    model = RationalFn(Poly((1.0, 1.0)), Poly((1.0, -1.0))) * (1.0 / alpha)
    r = _difference(f, model + shift)
    if not r.is_zero:
        r = RationalFn(r.num, r.den)
        order = r.vanishing_order(1.0, tol=order_tol)
        if order < 2:
            raise VerificationError(
                f"half-plane remainder vanishes only to order {order} at 1"
            )
    return f, f1, r


def quartic_perturbation(alpha, beta, *, samples=512):
    """The Schur function alpha z + 1 - alpha + beta (1 - z)^4.

    Matches the affine map to exactly fourth order at 1 whenever beta > 0,
    so it witnesses that fourth-order contact alone is not rigid for
    derivative alpha in (0, 1). Raises NotSchur when beta is too large.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if beta < 0.0:
        raise ValueError("beta must be >= 0")
    p = Poly((1.0 - alpha, alpha)) + Poly((1.0, -1.0)) ** 4 * beta
    s = RationalFn(p, Poly.one(), reduce=False)
    schur_circle_check(s, samples=samples)
    return s
