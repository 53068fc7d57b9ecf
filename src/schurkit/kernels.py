"""Reproducing kernels of disk functions and their negative squares.

The kernel k_s(z, w) = (1 - s(z) conj(s(w))) / (1 - z conj(w)) is positive
exactly when s maps the disk into itself. Its negative squares are counted
on one d x d Hermitian matrix for a function of degree d; Gram matrices of
the kernel at finite point sets are built and counted on request.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryPole, DiagonalSingularity, NotGeneralizedSchur
from .errors import NotHermitian, PoleProximity
from .rational import _CIRCLE, as_rational
from .tolerances import CIRCLE_TOL, DIAG_TOL, HERM_TOL, POLE_CLEARANCE

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
    """Sampling settings, validated but read by no count: the negative-squares
    count draws no point. The CLI builds one from `--samples`, `--radius` and
    `--seed`, which its reports echo."""

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
    denom = 1.0 - np.outer(pts, pts.conj())
    dmin = float(np.abs(denom).min(initial=np.inf))
    if dmin <= DIAG_TOL * (1.0 + np.max(np.abs(pts), initial=0.0) ** 2):
        raise DiagonalSingularity("points z, w with z*conj(w) = 1 in the sample")
    sv = s(pts)
    peak = float(np.max(np.abs(sv), initial=0.0))
    if peak > math.sqrt(_MAX * dmin) / 2:
        raise NotHermitian(f"kernel samples overflow: |s| reaches {peak:.3g} on the sample")
    raw = (1.0 - np.outer(sv, sv.conj())) / denom
    adj = raw.conj().T
    herm = (raw + adj) * 0.5
    scale = float(np.abs(raw).max(initial=0.0))
    # A kernel that vanishes identically (s a unimodular constant) samples as
    # rounding noise; below the noise bound the matrix is numerically zero
    # and carries no asymmetry information.
    noise = 256.0 * np.finfo(float).eps * (1.0 + peak**2) / dmin
    asym = float(np.abs(raw - adj).max(initial=0.0))
    asym = 0.0 if scale <= noise else asym / scale
    return HermitianSample(points=pts, entries=herm, asymmetry=asym, noise=noise)


def hermitian_eigenvalues(matrix):
    """Ascending eigenvalues of a Hermitian matrix (LAPACK `eigvalsh`, which
    reads only the lower triangle; the matrix is not symmetrized here)."""
    return np.linalg.eigvalsh(np.asarray(matrix, dtype=complex))


def _zero_band(H, noise):
    """Half-width n * (noise + 8 eps max|entry|) of the zero band of H."""
    # 8 eps per dimension: an exactly Hermitian B B* of rank r keeps its
    # n - r zeros from 0.5 eps up; counts of known kappa first drop at 256 eps.
    return H.shape[0] * (noise + 8.0 * np.finfo(float).eps * float(np.abs(H).max(initial=0.0)))


def _counted(H, noise):
    """Inertia of a Hermitian matrix whose entries carry an error up to
    `noise`: its eigenvalue counts outside the zero band."""
    n = H.shape[0]
    eig = hermitian_eigenvalues(H)
    band = _zero_band(H, noise)
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


def _kernel_core(N, D):
    """Q with q_ij = p_ij + q_(i-1)(j-1), P = D D* - N N* (N, D of length
    d + 1): the coefficients of z^i conj(w)^j, i, j <= d, in (D(z) conj(D(w))
    - N(z) conj(N(w))) / (1 - z conj(w)). Row and column d, the remainder,
    are the coefficients of D D# - N N#, P#(z) = z^d conj(P(1/conj(z))). It
    vanishes when |N / D| = 1 on the circle; then the kernel of u = N / D is
    f(z) G f(w)*, G = Q[:d, :d], f = [z^j / D(z)], j < d: sq_-(u) = ev_-(G).
    """
    Q = np.outer(D, D.conj())
    Q -= np.outer(N, N.conj())
    for i in range(1, D.size):
        Q[i, 1:] += Q[i - 1, :-1]
    return Q


def _core_inertia(D, N=None):
    """(G, noise, counts) of the kernel core of N / D (D, N of length d + 1):
    G = Q[:d, :d] of `_kernel_core(N, D)`, `noise` the remainder's largest
    modulus, and G's eigenvalue counts outside that band. N defaults to D#,
    making G the Schur-Cohn matrix of D: its ev_- counts the zeros of D in
    the disk, its ev_+ those outside, and its zero band holds the circle
    zeros and those shared with D# (Krein-Naimark)."""
    d = D.size - 1
    Q = _kernel_core(D[::-1].conj() if N is None else N, D)
    noise = float(np.abs(np.concatenate((Q[d], Q[:, d]))).max())
    G = Q[:d, :d]
    return G, noise, _counted(G, noise)


_WINDING_POINTS = 2**16


def _winding(D, G, noise):
    """Zeros of D (length d + 1) in the open disk, as the winding number of D
    on the circle certified arc by arc; else BoundaryPole names G's band.

    On the arc of angle h from a sample z_a, |z - z_a| <= h and the segment
    from z_a to z lies in the disk, where |D''| <= d(d-1) M (Bernstein twice
    and the maximum principle; M = max|D| on the circle, at most max|D| on
    the n samples / (1 - d pi / n) for d < n / pi). So D stays within
    h |D'(z_a)| + h^2 d(d-1) M / 2 of D(z_a); where that plus the rounding is
    below |D(z_a)|, or the same holds from the arc's other end, arg D moves by
    the principal angle of D(z_b) / D(z_a). Failed arcs are halved until
    _WINDING_POINTS points are spent or an arc can no longer be halved.
    """
    d, n = D.size - 1, _CIRCLE.size
    # .rational imports numpy.polynomial; importing it here, ahead of that,
    # raised the peak RSS of `import schurkit` by 0.4 MB.
    polyval = np.polynomial.polynomial.polyval
    C = np.stack((D, np.append(D[1:] * np.arange(1, d + 1), 0)), axis=1)  # D, D'
    h, ta = 2.0 * np.pi / n, np.angle(_CIRCLE)
    va = polyval(_CIRCLE, C)
    vb = np.roll(va, -1, axis=1)
    curve = 0.5 * d * (d - 1) * float(np.abs(va[0]).max()) / (1.0 - d * np.pi / n)
    # Horner rounding of D and h D' at |z| = 1, and that of the points
    allow = 4.0 * (d + 1) * (1.0 + h * d) * np.finfo(float).eps * float(np.abs(D).sum())
    total, points = 0.0, n
    while True:
        radius = curve * h * h + allow
        ok = np.abs(va[0]) > h * np.abs(va[1]) + radius
        ok |= np.abs(vb[0]) > h * np.abs(vb[1]) + radius
        total += float(np.angle(vb[0, ok] * va[0, ok].conj()).sum())
        if ok.all():
            return round(total / (2.0 * np.pi))
        ta, va, vb = ta[~ok], va[:, ~ok], vb[:, ~ok]
        h *= 0.5
        tm = ta + h
        points += tm.size
        if points > _WINDING_POINTS or np.any(tm == ta):
            least = float(np.abs(hermitian_eigenvalues(G)).min())
            raise BoundaryPole(
                f"kernel matrix eigenvalue of modulus {least:.3g} in the zero band "
                f"{_zero_band(G, noise):.3g}; the denominator's winding number is not "
                f"certified within {_WINDING_POINTS} circle points")
        vm = polyval(np.exp(1j * tm), C)
        ta = np.concatenate((ta, tm))
        va, vb = np.concatenate((va, vm), axis=1), np.concatenate((vm, vb), axis=1)


def estimate_negative_squares(s, plan=SamplePlan()):
    """Number of negative squares of the kernel of s = N / D: exact, or refused.

    s must be reduced, as a RationalFn is unless built with reduce=False.
    With |s| <= 1 on the circle the count is the number of zeros of D in the
    disk (Krein-Langer): ev_- of one d x d matrix G, d = deg s, counted as
    `inertia` counts a sample with `noise` the remainder of `_kernel_core`.
    For a unimodular s (remainder D D# - N N# within CIRCLE_TOL of ||D||^2)
    G is the core of s. Otherwise NotGeneralizedSchur is raised unless
    |N| <= (1 + CIRCLE_TOL) |D| on the CIRCLE_SAMPLES circle samples (else
    the kernel has infinitely many negative squares), and G is the core of
    the unimodular D# / D: the Schur-Cohn matrix of D (Krein-Naimark). If G
    has an eigenvalue in its zero band, the count is the certified winding
    number of D on the circle (`_winding`), or BoundaryPole. The plan is
    validated, not read: no point is drawn.
    """
    s = as_rational(s)
    d = s.degree
    ND = np.zeros((2, d + 1), dtype=complex)
    ND[0, : s.num.coeffs.size] = s.num.coeffs
    ND[1, : s.den.coeffs.size] = s.den.coeffs
    ND /= np.abs(ND).max()  # s is unchanged, its kernel scaled by a positive factor
    N, D = ND
    remainder = np.convolve(D, D[::-1].conj()) - np.convolve(N, N[::-1].conj())
    if np.abs(remainder).max() > CIRCLE_TOL * np.vdot(D, D).real:
        # N and D at the samples _CIRCLE[0] w^k, w = exp(2 pi i / n), times
        # 1 / n; compared, not divided, as D may vanish at one.
        mod = np.abs(np.fft.ifft(ND * _CIRCLE[0] ** np.arange(d + 1), _CIRCLE.size))
        if not np.all(mod[0] <= (1.0 + CIRCLE_TOL) * mod[1]):
            raise NotGeneralizedSchur(
                f"|s| exceeds 1 + {CIRCLE_TOL:g} on the circle: "
                "the kernel has infinitely many negative squares"
            )
        N = None  # the Schur-Cohn core of D
    G, noise, core = _core_inertia(D, N)
    return core.n_neg if core.n_zero == 0 else _winding(D, G, noise)
