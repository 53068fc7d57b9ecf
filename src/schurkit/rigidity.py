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
    _node_contact,
    coeff_matrix,
    recover_parameter,
    solve,
    verify_expansion,
)
# inertia is not called here but stays bound: bench/tracing.py wraps rigidity.inertia.
from .kernels import _core_inertia, inertia  # noqa: F401
from .rational import (
    _CIRCLE,
    INF,
    Poly,
    RationalFn,
    as_rational,
    cayley_fn,
)
from .tolerances import ADMIS_TOL, CIRCLE_TOL, MODULUS_MARGIN

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


def _difference(f, g):
    """f - g as f.num g.den - g.num f.den over f.den g.den, unreduced.

    A difference of two representations of the same function leaves
    rounding dust that survives relative trimming (it is its own scale), so
    the numerator counts as zero when it is below 1e-10 times the scale of
    the products it came from.
    """
    g = as_rational(g)
    num = f.num * g.den - g.num * f.den
    scale = 1.0
    for p, q in ((f.num, g.den), (g.num, f.den)):
        if not p.is_zero:
            scale = max(scale, float(np.max(np.abs(p.coeffs)) * np.max(np.abs(q.coeffs))))
    if not num.is_zero and float(np.max(np.abs(num.coeffs))) <= 1e-10 * scale:
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
        if not abs(abs(self.z1) - 1.0) <= CIRCLE_TOL:
            raise ValueError("path endpoint must be unimodular")
        if not abs(self.angle) < math.pi / 2:
            raise ValueError("approach angle must satisfy |angle| < pi/2")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie in (0, 1)")
        if not 0.0 < self.r0 < 2.0 * math.cos(self.angle):
            raise ValueError("need 0 < r0 < 2 cos(angle) to stay inside the disk")
        if self.count < 2:
            raise ValueError("count must be >= 2 to fit a slope")

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
    f vanishes identically; if all are, the slope is INF. Fewer than two
    values above it, but not none, raise ValueError.
    """
    path = np.asarray(path, dtype=complex)
    vals = np.array([abs(complex(f(z))) for z in path])
    keep = vals > 1e-300
    if not np.any(keep):
        return INF
    if np.count_nonzero(keep) < 2:
        raise ValueError("a slope needs at least two nonvanishing values")
    x = np.log(np.abs(path[keep] - complex(z1)))
    y = np.log(vals[keep])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def julia_quotient(s, z, x):
    """|s(z) - x|^2 / (1 - |s(z)|^2); requires |s(z)| < 1.

    Accepts a rational function, a scalar, or a plain callable.
    """
    if isinstance(s, RationalFn) or not callable(s):
        value = complex(as_rational(s)(z))
    else:
        value = complex(s(z))
    m = abs(value)
    if m >= 1.0 - MODULUS_MARGIN:
        raise ModulusAtLeastOne(f"|s({z})| = {m:.12g}")
    return abs(value - complex(x)) ** 2 / (1.0 - m * m)


def schur_circle_check(s):
    """Largest modulus of a rational function on circle samples.

    By the maximum principle this decides the Schur property for functions
    analytic on the closed disk, which holds when the Schur-Cohn matrix of
    the denominator has no negative or zero-band eigenvalue. Raises NotSchur
    otherwise or beyond tolerance.
    """
    return _schur_on_circle(as_rational(s))[0]


def _schur_on_circle(s):
    """schur_circle_check of a RationalFn, also returning (sup, N, D): the
    values N, D of s.num and s.den at the circle samples."""
    low, band = _disk_poles(s)
    if low + band:
        raise NotSchur(f"pole in the closed disk: Schur-Cohn counts {low} negative, {band} zero")
    num, den = s.num(_CIRCLE), s.den(_CIRCLE)
    sup = float(np.max(np.abs(num / den)))
    if not sup <= 1.0 + CIRCLE_TOL:  # NaN too: 0/0 at a sample decides nothing
        raise NotSchur(f"circle modulus reaches {sup:.6g}")
    return sup, num, den


def _verdict(excess, tol):
    """(holds, witness) from per-sample excesses: the worst sample, moved into
    the disk to radius 1 - 1e-6, witnesses an excess above tol."""
    i = int(np.argmax(excess))
    if excess[i] > tol:
        return False, complex(_CIRCLE[i] * (1.0 - 1e-6))
    return True, None


@dataclass(frozen=True)
class ContactReport:
    """Vanishing order of sigma - x at the node for a Schur sigma."""

    order: float
    identical: bool
    message: str


def contact_order_probe(sigma, x):
    """Order of contact of a Schur function with a unimodular constant at 1.

    A Schur function that agrees with a unimodular constant to second order
    at a boundary point is that constant; so for sigma not identically x the
    order is at most 1, and an order >= 2 forces sigma - x == 0. A finite
    order >= 2 is therefore reported as a verification failure.
    """
    x = complex(x)
    if not abs(abs(x) - 1.0) <= CIRCLE_TOL:
        raise ValueError("contact value must be unimodular")
    sigma = as_rational(sigma)
    schur_circle_check(sigma)
    order = _difference(sigma, x).vanishing_order(1.0)
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

    The observed order is the number of leading Taylor coefficients of s at
    z1 that match those of T(x), within verify_expansion's tolerance.
    forced_identity holds when it reaches 2k+2, in which case s must equal
    T(x) identically (checked) and the order is INF. Otherwise the verdict
    reports the parameter's deviation order from x as observed - 2k, since
    s - T(x) is (s1 - x) (z - z1)^(2k) times a unit at z1.

    The report ends with the class note: the disk poles of s, counted as
    the negative eigenvalues of the Schur-Cohn matrix of s.den (no roots
    are taken), against the Pick matrix's negative eigenvalues. Where that
    matrix has eigenvalues in its zero band (poles on or within rounding of
    the circle, or pairs reflected in it) the pole count is the range
    n_neg to n_neg + n_zero, and a class mismatch is flagged only outside it.
    x within ADMIS_TOL of tau0 is refused: T(x) needs an admissible x.
    """
    x = complex(x)
    if not abs(abs(x) - 1.0) <= CIRCLE_TOL:
        raise InvalidContactPoint("contact point must be unimodular")
    gap = abs(x - data.tau0)
    if gap <= ADMIS_TOL:
        raise InvalidContactPoint(
            f"contact point must differ from tau0: |x - tau0| = {gap:.3g} <= "
            f"ADMIS_TOL = {ADMIS_TOL:.3g}"
        )
    s = as_rational(s)
    report = verify_expansion(s, data)
    if not report.passed:
        raise HypothesisNotMet(f"candidate is not a solution: {report}")
    cm = coeff_matrix(data)
    b = solve(data, x, theta=cm)
    required = 2 * data.k + 2
    observed = _node_contact(s, data.z1, b.taylor(data.z1, required - 1))
    forced = observed >= required
    notes = []
    if forced:
        if not _difference(s, b).is_zero:
            raise VerificationError(
                f"s matches T(x) to order {observed} >= {required} but is not T(x)"
            )
        observed = INF
        notes.append("s coincides with the distinguished solution")
    else:
        dev = observed - 2 * data.k
        notes.append(f"observed order {observed} < required {required}")
        if dev < 0:
            notes.append(f"s and T(x) pass the expansion check but differ at c{observed}")
        else:
            notes.append(f"recovered parameter deviates from x at order {dev}")
    notes.append(_class_note(s, cm._pick_inertia.n_neg))
    return RigidityVerdict(
        required_order=required,
        observed_order=observed if observed == INF else float(observed),
        forced_identity=bool(forced),
        residual_report="; ".join(notes),
    )


def _disk_poles(s):
    """(n_neg, n_zero) of the Schur-Cohn matrix of s.den: s has n_neg to
    n_neg + n_zero poles in the open disk, exactly n_neg when n_zero is 0."""
    den = s.den.coeffs
    counts = _core_inertia(den / np.abs(den).max())[2]
    return counts.n_neg, counts.n_zero


def _class_note(s, ev_neg):
    """The class hypothesis sq_-(s) = ev_-(P) of the rigidity theorem, with
    sq_-(s) the number of disk poles of s (Krein-Langer)."""
    low, band = _disk_poles(s)
    count = f"{low}" if band == 0 else f"{low} to {low + band}"
    mismatch = not low <= ev_neg <= low + band
    return (
        f"disk pole count {count} vs negative Pick eigenvalues {ev_neg}"
        + (" (class mismatch: theorem hypotheses not met)" if mismatch else "")
    )


def polar_grid():
    """Polar grid of 40 radii up to 0.995 by 40 angles in the disk."""
    radii = np.linspace(0.995 / 40, 0.995, 40)
    angles = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
    return (radii[:, None] * np.exp(1j * angles[None, :])).ravel()


def horocycle_check(s, alpha):
    """Whether s maps the disk into the horocycle at 1 of size alpha/(1-alpha).

    The horocycle is the disk of radius alpha centered at 1-alpha,
    internally tangent to the unit circle at 1. For Schur s = N / D (NotSchur
    otherwise) containment means Re((1+s)/(1-s)) >= (1-alpha)/alpha, which is
    harmonic, so it is decided on the circle samples: it holds when
    L = |D|^2 - |N|^2 - ((1-alpha)/alpha) |D-N|^2 >= -CIRCLE_TOL times the sum
    of the three terms at each. Returns (holds, witness of least L / terms).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    _, num, den = _schur_on_circle(as_rational(s))
    return _horocycle(num, den, alpha)


def _horocycle(num, den, alpha):
    """horocycle_check on the values of s.num and s.den at the samples."""
    nn, dd = np.abs(num) ** 2, np.abs(den) ** 2
    gap = (1.0 - alpha) / alpha * np.abs(den - num) ** 2
    return _verdict((nn + gap - dd) / (dd + nn + gap), CIRCLE_TOL)


def affine_lft_bound(s, alpha):
    """Pointwise inequality equivalent to |parameter| <= |1 - 2 alpha|.

    Pulls the parameter bound through the inverse transform of the
    fixed-derivative problem: with the linear expressions
    top = (2a+1 - z(2a-1)) s(z) - (1+z) and bot = (2a-1 - z(2a+1)) + (1+z) s(z),
    the bound reads |top| <= |1-2a| |bot|, within 1e-9 (1 + max|top|). For
    Schur s (NotSchur otherwise) the parameter has no disk pole, so the
    circle samples decide it. Returns (holds, witness of largest excess).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    _, num, den = _schur_on_circle(as_rational(s))
    return _lft_bound(num / den, alpha)


def _lft_bound(sv, alpha):
    """affine_lft_bound on the values sv of s at the circle samples."""
    z, a = _CIRCLE, alpha
    top = (2 * a + 1 - z * (2 * a - 1)) * sv - (1 + z)
    bot = (2 * a - 1 - z * (2 * a + 1)) + (1 + z) * sv
    slack = np.abs(top) - abs(1 - 2 * a) * np.abs(bot)
    return _verdict(slack, 1e-9 * (1.0 + float(np.max(np.abs(top)))))


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
        flags = (self.identity, self.parameter_const, self.parameter_bound)
        return len(set(flags + (self.lft_bound, self.horocycle))) == 1


def affine_equivalences(s, alpha):
    """Evaluate the equivalent characterizations of s = alpha z + 1 - alpha.

    Requires a Schur candidate matching the affine map to fourth order at 1
    (HypothesisNotMet otherwise), evaluated once on the circle samples. The
    five conditions must agree; the report carries each verdict, a horocycle
    witness when one exists, and the recovered parameter. For alpha outside
    (0, 1) the problem degenerates (at alpha = 0 a second-order contact alone
    forces s == 1) and is rejected.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    s = as_rational(s)
    data = InterpData(z1=1.0, k=1, tau0=1.0, tau=(alpha,), z0=-1.0)
    report = verify_expansion(s, data)
    if not report.passed:
        raise HypothesisNotMet(f"candidate does not match the first-order data: {report}")
    affine = RationalFn(Poly((1.0 - alpha, alpha)), Poly.one(), reduce=False)
    deviation = _difference(s, affine).vanishing_order(1.0)
    if deviation < 4:
        raise HypothesisNotMet(
            f"candidate only matches the affine map to order {deviation} < 4 at 1"
        )
    try:
        _, num, den = _schur_on_circle(s)
    except NotSchur as exc:
        raise HypothesisNotMet(f"candidate is not Schur: {exc}") from exc
    identity = deviation == INF
    s1 = recover_parameter(s, data)
    target = 1.0 - 2.0 * alpha
    param_const = _difference(s1, target).is_zero
    if sum(_disk_poles(s1)):
        param_bound = False
    else:
        sup = float(np.max(np.abs(s1(_CIRCLE))))
        param_bound = sup <= abs(target) + 1e-9
    lft_ok, _ = _lft_bound(num / den, alpha)
    horo, witness = _horocycle(num, den, alpha)
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


def cayley_decomposition(s, alpha):
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
        order = r.vanishing_order(1.0)
        if order < 2:
            raise VerificationError(
                f"half-plane remainder vanishes only to order {order} at 1"
            )
    return f, f1, r


def quartic_perturbation(alpha, beta):
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
    schur_circle_check(s)
    return s
