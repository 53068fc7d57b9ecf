"""Reproducing-kernel sampling for disk functions.

The kernel k_s(z, w) = (1 - s(z) conj(s(w))) / (1 - z conj(w)) is positive
exactly when s maps the disk into itself. Its negative squares are counted on
a d x d matrix for a unimodular s of degree d, else on sampled Gram matrices.
"""

from __future__ import annotations

import math
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
        if self.initial_points < 2:
            raise ValueError(f"initial_points {self.initial_points} is below 2")
        if self.max_points < self.initial_points:
            raise ValueError(f"max_points {self.max_points} is below initial_points "
                             f"{self.initial_points}")


_MAX = float(np.finfo(float).max)


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

    Raises NotHermitian naming the overflow, before an entry is formed,
    when |s| on the sample exceeds sqrt(max double * dmin) / 2, dmin the
    least |1 - z conj(w)|: an entry of M is at most (1 + |s|^2) / dmin,
    M + M* twice that, and a further factor 2 covers their rounding. No
    points give a 0 x 0 sample.
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
    if peak > math.sqrt(_MAX * dmin) / 2:
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


def _counted(H, noise):
    """Inertia of a Hermitian matrix whose entries carry an error up to
    `noise`: its eigenvalue counts outside the zero band
    n * (noise + 8 eps max|entry|)."""
    n = H.shape[0]
    eig = hermitian_eigenvalues(H)
    scale = float(np.abs(H).max(initial=0.0))
    # 8 eps per dimension: an exactly Hermitian B B* of rank r keeps its
    # n - r zeros from 0.5 eps up; counts of known kappa first drop at 256 eps.
    band = n * (noise + 8.0 * np.finfo(float).eps * scale)
    n_pos = int(np.count_nonzero(eig > band))
    n_neg = int(np.count_nonzero(eig < -band))
    return Inertia(n_pos=n_pos, n_neg=n_neg, n_zero=n - n_pos - n_neg)


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
    if isinstance(sample, HermitianSample):
        if not sample.asymmetry <= HERM_TOL:
            raise NotHermitian(f"asymmetry {sample.asymmetry:.3g} exceeds {HERM_TOL:.3g}")
        return _counted(sample.entries, sample.noise)
    H = np.asarray(sample, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise NotHermitian(f"array of shape {H.shape} is not a square matrix")
    if not np.isfinite(H).all():
        raise NotHermitian("matrix has a NaN or infinite entry")
    noise = float(np.abs(H - H.conj().T).max(initial=0.0))
    if noise > HERM_TOL * float(np.abs(H).max(initial=0.0)):
        raise NotHermitian("matrix asymmetry exceeds tolerance")
    return _counted(0.5 * (H + H.conj().T), noise)


def _kernel_core(s):
    """(Q, dd) for s = N / D of degree d, N and D padded to d + 1
    coefficients and divided by their largest modulus (s is unchanged, its
    kernel scaled by a positive factor).

    Q is the (d + 1) x (d + 1) array q_ij = p_ij + q_(i-1)(j-1) of
    P = D D* - N N*: the coefficients of z^i conj(w)^j, i, j <= d, in
    (D(z) conj(D(w)) - N(z) conj(N(w))) / (1 - z conj(w)). Its row d and
    column d, the remainder, are the coefficients of D D# - N N#, with
    P#(z) = z^d conj(P(1/conj(z))); dd = ||D||^2 = max|D D#|. The remainder
    vanishes exactly when |s| = 1 on the circle; then k_s(z, w) =
    f(z) G f(w)* for G = Q[:d, :d] and f = [z^j / D(z)], j < d (the
    d-dimensional de Branges-Rovnyak space of s), so by Sylvester's law of
    inertia sq_-(s) = ev_-(G).
    """
    ND = np.zeros((2, s.degree + 1), dtype=complex)
    ND[0, : s.num.coeffs.size] = s.num.coeffs
    ND[1, : s.den.coeffs.size] = s.den.coeffs
    ND /= np.abs(ND).max()
    N, D = ND
    Q = np.outer(D, D.conj())
    Q -= np.outer(N, N.conj())
    for i in range(1, s.degree + 1):
        Q[i, 1:] += Q[i - 1, :-1]
    return Q, float(np.vdot(D, D).real)


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
    """Number of negative squares of the kernel of s.

    A unimodular s of degree d (the remainder of `_kernel_core` within
    CIRCLE_TOL of max|D D#|) is counted exactly, before any point is drawn
    and without reading the plan: the negative eigenvalues of its core G,
    outside `inertia`'s zero band with `noise` the largest modulus of the
    remainder. That assumes each entry of G is within that noise of the G
    of a unimodular function, as the remainder comes from the same sums
    and vanishes exactly at |s| = 1; by Weyl's inequality no eigenvalue
    then moves by more than d noise. Every sampled Gram matrix of s is
    F G F*, so the count is never below a sampled one.

    Otherwise (s not unimodular, or G with an eigenvalue in its zero band:
    an unreduced N / D, or an ill-conditioned G at high degree) the kernel
    is sampled: probes near each disk pole (where its negative directions
    live), then seeded random points in the plan's disk, clear of the poles
    by SAMPLE_CLEARANCE, the nested set doubling each round until
    `inertia`'s negative count has held for 3 rounds. A round whose point
    set did not grow keeps the last count. Sampling certifies only the
    negative squares it sees: it is a lower bound.
    """
    s = as_rational(s)
    Q, dd = _kernel_core(s)
    d = s.degree
    noise = float(np.abs(np.concatenate((Q[d], Q[:, d]))).max())
    if noise <= CIRCLE_TOL * dd:
        core = _counted(Q[:d, :d], noise)
        if core.n_zero == 0:
            return core.n_neg
    rng = np.random.default_rng(plan.seed)
    poles = s.poles()
    pts: list[complex] = _pole_probes(poles, SAMPLE_CLEARANCE)
    best = 0
    stable = 0
    n_neg = 0
    sampled = -1  # points in the last sample built
    count = plan.initial_points
    while True:
        pts = _draw_points(rng, count, plan.radius, SAMPLE_CLEARANCE, poles, pts)
        if len(pts) > sampled:
            sampled = len(pts)
            n_neg = inertia(gram_matrix(s, pts)).n_neg
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
