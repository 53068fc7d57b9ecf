"""Reproducing-kernel sampling for disk functions.

The kernel k_s(z, w) = (1 - s(z) conj(s(w))) / (1 - z conj(w)) is positive
exactly when s maps the disk into itself; for a meromorphic s it has a finite
number of negative squares, read off from sampled Gram matrices.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DiagonalSingularity,
    NoAnalyticPoints,
    NotHermitian,
    PoleProximity,
)
from .rational import RationalFn, as_rational
from .tolerances import (
    CIRCLE_TOL,
    DIAG_TOL,
    HERM_TOL,
    POLE_CLEARANCE,
    SAMPLE_CLEARANCE,
)

__all__ = [
    "HermitianSample",
    "Inertia",
    "SamplePlan",
    "schur_kernel",
    "gram_matrix",
    "hermitian_eigenvalues",
    "inertia",
    "estimate_negative_squares",
]


@dataclass(frozen=True)
class Inertia:
    """Signed eigenvalue counts of a Hermitian matrix."""

    n_pos: int
    n_neg: int
    n_zero: int


@dataclass(frozen=True)
class HermitianSample:
    """Gram matrix of the kernel at a finite point set.

    `entries` is (M + M*)/2 of the evaluated matrix M, so it is exactly
    Hermitian and goes to the eigensolver as it is; `asymmetry` records the
    norm of the discarded skew part relative to the matrix scale, and
    `noise` is an absolute bound on the evaluation rounding of each entry.
    `inertia` counts an eigenvalue as zero within n * noise plus the
    eigensolver's rounding, so `noise` has no default: 0 states exact entries.
    """

    points: np.ndarray
    entries: np.ndarray
    asymmetry: float
    noise: float


@dataclass(frozen=True)
class SamplePlan:
    """Controls the stabilized random sampling of Gram matrices."""

    max_points: int = 256
    radius: float = 0.9
    seed: int = 74010
    initial_points: int = 8

    def __post_init__(self):
        for name in ("max_points", "seed", "initial_points"):
            value = getattr(self, name)
            if type(value) is not int:
                if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                    raise ValueError(f"{name} must be an integer, not {value!r}")
                object.__setattr__(self, name, int(value))  # numpy integers wrap around
        if not 0.0 < self.radius < 1.0:
            raise ValueError("radius must lie in (0, 1)")
        if self.initial_points < 2 or self.max_points < self.initial_points:
            raise ValueError("need initial_points >= 2 and max_points >= initial_points")


# Largest modulus whose square is finite: beyond it |s|^2 overflows.
_SQRT_MAX = float(np.sqrt(np.finfo(float).max))


def _pole_distance(poles, pts):
    """Distance from each point of a 1-d array to its nearest pole (inf if none)."""
    if poles.size == 0:
        return np.full(pts.shape, np.inf)
    return np.abs(pts[:, None] - poles).min(axis=1)


def schur_kernel(s, z, w):
    """Evaluate (1 - s(z) conj(s(w))) / (1 - z conj(w)) at one pair of points."""
    s = as_rational(s)
    z = complex(z)
    w = complex(w)
    d = 1.0 - z * np.conj(w)
    if abs(d) <= DIAG_TOL * (1.0 + abs(z) * abs(w)):
        raise DiagonalSingularity(f"1 - z*conj(w) vanishes at z={z}, w={w}")
    if min(_pole_distance(s.poles(), np.array([z, w]))) <= POLE_CLEARANCE:
        raise PoleProximity("evaluation point too close to a pole")
    return (1.0 - s(z) * np.conj(s(w))) / d


def gram_matrix(s, points):
    """Sampled kernel Gram matrix, symmetrized, with the asymmetry reported.

    Raises NotHermitian when |s| on the sample exceeds the square root of the
    largest double, where its entries overflow. No points give a 0 x 0 sample.
    """
    s = as_rational(s)
    pts = np.asarray(points, dtype=complex).ravel()
    if np.any(_pole_distance(s.poles(), pts) <= POLE_CLEARANCE):
        raise PoleProximity("sample point too close to a pole")
    # Every n x n pass runs in place in denom, raw and one magnitude buffer;
    # herm is the only other n x n array, and it is returned.
    denom = np.outer(pts, pts.conj())
    np.subtract(1.0, denom, out=denom)
    mag = np.abs(denom)
    dmin = float(mag.min(initial=np.inf))
    if dmin <= DIAG_TOL * (1.0 + np.max(np.abs(pts), initial=0.0) ** 2):
        raise DiagonalSingularity("points z, w with z*conj(w) = 1 in the sample")
    sv = s(pts)
    peak = float(np.max(np.abs(sv), initial=0.0))
    if peak > _SQRT_MAX:
        raise NotHermitian(f"kernel samples overflow: |s| reaches {peak:.3g} on the sample")
    raw = np.outer(sv, sv.conj())
    np.subtract(1.0, raw, out=raw)
    raw /= denom
    adj = np.conjugate(raw.T, out=denom)  # raw* in denom's buffer
    herm = raw + adj
    herm *= 0.5
    scale = float(np.abs(raw, out=mag).max(initial=0.0))
    # A kernel that vanishes identically (s a unimodular constant) samples as
    # rounding noise; below the noise bound the matrix is numerically zero
    # and carries no asymmetry information.
    noise = 256.0 * np.finfo(float).eps * (1.0 + peak**2)
    noise /= dmin
    np.subtract(raw, adj, out=adj)
    asym = float(np.abs(adj, out=mag).max(initial=0.0))
    asym = 0.0 if scale <= noise else asym / scale
    return HermitianSample(points=pts, entries=herm, asymmetry=asym, noise=noise)


def hermitian_eigenvalues(matrix):
    """Ascending eigenvalues of a Hermitian matrix (LAPACK `eigvalsh`, which
    reads only the lower triangle; the matrix is not symmetrized here)."""
    return np.linalg.eigvalsh(np.asarray(matrix, dtype=complex))


def _hermitian(sample):
    """(H, noise): the Hermitian matrix `inertia` counts and the error its
    entries carry, after the checks that raise NotHermitian."""
    if isinstance(sample, HermitianSample):
        if not sample.asymmetry <= HERM_TOL:
            raise NotHermitian(f"asymmetry {sample.asymmetry:.3g} exceeds {HERM_TOL:.3g}")
        return sample.entries, sample.noise
    H = np.asarray(sample, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise NotHermitian(f"array of shape {H.shape} is not a square matrix")
    if not np.isfinite(H).all():
        raise NotHermitian("matrix has a NaN or infinite entry")
    noise = float(np.abs(H - H.conj().T).max(initial=0.0))
    if noise > HERM_TOL * float(np.abs(H).max(initial=0.0)):
        raise NotHermitian("matrix asymmetry exceeds tolerance")
    return 0.5 * (H + H.conj().T), noise


def _counted(eig, n, noise, scale):
    """(Inertia, band) of an n x n matrix with eigenvalues `eig` and
    n - len(eig) zeros, its entries of modulus at most `scale`: the zero
    band and the counts outside it, as `inertia` takes them."""
    # 8 eps per dimension: an exactly Hermitian B B* of rank r keeps its
    # n - r zeros from 0.5 eps up; counts of known kappa first drop at 256 eps.
    band = n * (noise + 8.0 * np.finfo(float).eps * scale)
    n_pos = int(np.count_nonzero(eig > band))
    n_neg = int(np.count_nonzero(eig < -band))
    return Inertia(n_pos=n_pos, n_neg=n_neg, n_zero=n - n_pos - n_neg), band


def inertia(sample):
    """Counts of eigenvalues above, below, and inside the zero band.

    The zero band has half-width n * (noise + 8 eps max|entry|): `noise` is
    the error the entries carry (a sample's evaluation bound; for a raw
    array, the largest entry of its skew part |H - H*|), and 8 eps max|entry|
    per dimension is the eigensolver's rounding. A sampled Gram matrix must
    be Hermitian within HERM_TOL, a raw array within HERM_TOL max|entry|. A
    raw array that is not square or has a NaN or infinite entry, or a sample
    with NaN asymmetry, raises NotHermitian: it has no countable eigenvalues.
    """
    H, noise = _hermitian(sample)
    eig = hermitian_eigenvalues(H)
    return _counted(eig, H.shape[0], noise, float(np.abs(H).max(initial=0.0)))[0]


# The range path's size rule: per round it beats the dense eigensolver from
# 64 points and loses at 32 (README, "Numerical conventions", has the
# timings).
_RANGE_MIN_POINTS = 64


def _is_unimodular(s):
    """Whether |s| = 1 on the unit circle: N N# = D D# coefficient-wise within
    CIRCLE_TOL of max|D D#|, where P#(z) = z^d conj(P(1/conj(z))) at the
    degree d of s = N / D."""
    d = s.degree

    def times_reflection(p):  # P P#
        c = np.zeros(d + 1, dtype=complex)
        c[: p.coeffs.size] = p.coeffs
        return np.convolve(c, c[::-1].conj())

    nn, dd = times_reflection(s.num), times_reflection(s.den)
    return float(np.abs(nn - dd).max()) <= CIRCLE_TOL * float(np.abs(dd).max())


def _range_inertia(sample, den, d):
    """`inertia(sample)` read on the sample's range, or None where that
    reading does not certify it; for the Gram sample of a unimodular
    function of degree d with denominator `den`.

    Such a kernel has rank d: every section is a polynomial of degree < d
    over `den`. With Q the orthonormal basis of F = [z_i^j / den(z_i)],
    j < d, the sample H is Q C Q* + E for C = Q* H Q, so its eigenvalues are
    those of C and n - d zeros, each moved by at most
    delta = ||E||_F + 4 (d + 2) eps ||H||_F + 8 n eps (max|mu| + ||E||_F):
    the residual, the rounding of Q and C, and the error of the eigenvalues
    `inertia` computes. LAPACK bounds that error by p(n) eps ||H||_2 with p
    unspecified; 8 n is the bound assumed here, checked against `inertia`
    by TestRangeInertia and the fingerprints. The counts are `inertia`'s
    when delta < band and no eigenvalue mu of C lies within delta of the
    band. Raises NotHermitian as `inertia` does.
    """
    H, noise = _hermitian(sample)
    n = H.shape[0]
    V = np.vander(sample.points, d + 1, increasing=True)
    Q = np.linalg.qr(V[:, :d] / (V[:, : den.coeffs.size] @ den.coeffs)[:, None])[0]
    Qh = Q.conj().T
    C = Qh @ (H @ Q)
    C = 0.5 * (C + C.conj().T)
    mu = hermitian_eigenvalues(C)
    result, band = _counted(mu, n, noise, float(np.abs(H).max(initial=0.0)))
    eps = np.finfo(float).eps
    delta = 4 * (d + 2) * eps * np.sqrt(np.vdot(H, H).real)
    delta += 8 * n * eps * float(np.abs(mu).max(initial=0.0))
    if delta >= band:  # fails without the residual: skip forming E
        return None
    E = (Q @ C) @ Qh
    np.subtract(H, E, out=E)
    residual = np.sqrt(np.vdot(E, E).real)  # Frobenius norm as one BLAS pass
    delta += (1 + 8 * n * eps) * residual
    if delta < band and not np.any(np.abs(np.abs(mu) - band) <= delta):
        return result
    return None


def _pole_probes(poles, clearance):
    """Deterministic sample points at clearance distance from each disk pole.

    The negative directions of the kernel concentrate near the poles; purely
    random draws can miss a pole sitting close to the unit circle, so each
    disk pole (with multiplicity) contributes a few probes placed inside the
    closed disk of its own modulus.
    """
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
    z = np.array(probes, dtype=complex)
    keep = (np.abs(z) < 1.0) & (_pole_distance(poles, z) >= 0.99 * clearance)
    return z[keep].tolist()


def _draw_points(rng, count, radius, clearance, poles, existing):
    """`existing` extended to `count` seeded points in the disk of `radius`,
    none within `clearance` of a pole.

    Each pass draws exactly the candidates still missing, as one array of
    radius and angle pairs, and drops those too close to a pole; so the
    seeded stream is used exactly as a loop drawing one point at a time would
    use it, and a seed gives the same points. Raises NoAnalyticPoints after
    2000 * count candidates.
    """
    out = list(existing)
    attempts = 0
    limit = 2000 * count
    while len(out) < count:
        m = min(count - len(out), limit - attempts)
        if m == 0:
            raise NoAnalyticPoints(
                "pole clearance leaves too little of the sampling disk"
            )
        attempts += m
        u = rng.uniform(size=2 * m)
        z = radius * np.sqrt(u[0::2]) * np.exp(2j * np.pi * u[1::2])
        out += z[_pole_distance(poles, z) > clearance].tolist()
    return out


def estimate_negative_squares(s, plan=SamplePlan()):
    """Estimated number of negative squares of the kernel of s.

    Seeds the point set with a few probes near each disk pole (where the
    negative directions of the kernel live), then draws seeded random points
    in a disk of the plan's radius (avoiding poles by SAMPLE_CLEARANCE),
    doubling the nested point set each round; returns the largest negative
    count once it has not changed for 3 consecutive rounds. A round whose
    point set did not grow (the probes outnumber its count) keeps the last
    count rather than sampling the same points again. A unimodular s is
    counted on the sample's range once the sample has at least 64 points
    (`_range_inertia`), elsewhere by `inertia`. This is a lower-bound
    estimator: sampling can only certify negative squares it has seen,
    never exclude larger ones; with the pole probes it is exact on
    the rank-structured rational functions targeted here.
    """
    s = as_rational(s)
    rng = np.random.default_rng(plan.seed)
    poles = s.poles()
    pts: list[complex] = _pole_probes(poles, SAMPLE_CLEARANCE)
    best = 0
    stable = 0
    n_neg = 0
    sampled = -1  # points in the last sample built
    unimodular = None  # decided at the first round of _RANGE_MIN_POINTS points
    count = plan.initial_points
    while True:
        pts = _draw_points(rng, count, plan.radius, SAMPLE_CLEARANCE, poles, pts)
        if len(pts) > sampled:
            sampled = len(pts)
            sample = gram_matrix(s, pts)
            result = None
            if sampled >= _RANGE_MIN_POINTS:
                if unimodular is None:
                    unimodular = _is_unimodular(s)
                if unimodular:
                    result = _range_inertia(sample, s.den, s.degree)
            if result is None:
                result = inertia(sample)
            n_neg = result.n_neg
        if n_neg > best:
            best = n_neg
            stable = 1
        else:
            stable += 1
        if stable >= 3:
            return best
        if count >= plan.max_points:
            return best
        count = min(2 * count, plan.max_points)
