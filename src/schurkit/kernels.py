"""Reproducing-kernel sampling for disk functions.

The kernel k_s(z, w) = (1 - s(z) conj(s(w))) / (1 - z conj(w)) is positive
exactly when s maps the disk into itself; for a meromorphic s it has a finite
number of negative squares, read off from sampled Gram matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DiagonalSingularity,
    NoAnalyticPoints,
    NotHermitian,
    PoleProximity,
)
from .rational import RationalFn, as_rational
from .tolerances import HERM_TOL, MAX_DEGREE

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

    @property
    def size(self):
        return self.n_pos + self.n_neg + self.n_zero


@dataclass(frozen=True)
class HermitianSample:
    """Gram matrix of the kernel at a finite point set.

    `entries` is symmetrized to (M + M*)/2 before use; `asymmetry` records
    the norm of the discarded skew part relative to the matrix scale, and
    `noise` is an absolute bound on the evaluation rounding of each entry
    (used to widen the zero band of inertia counts).
    """

    points: np.ndarray
    entries: np.ndarray
    asymmetry: float
    noise: float = 0.0


@dataclass(frozen=True)
class SamplePlan:
    """Controls the stabilized random sampling of Gram matrices."""

    max_points: int = 256
    radius: float = 0.9
    pole_clearance: float = 0.05
    seed: int = 74010
    stabilization_rounds: int = 3
    initial_points: int = 8

    def __post_init__(self):
        if not 0.0 < self.radius < 1.0:
            raise ValueError("radius must lie in (0, 1)")
        if self.pole_clearance <= 0.0:
            raise ValueError("pole clearance must be positive")
        if self.initial_points < 2 or self.max_points < self.initial_points:
            raise ValueError("need initial_points >= 2 and max_points >= initial_points")


def _pole_distance(s, pts):
    poles = s.poles()
    if poles.size == 0:
        return np.full(np.shape(pts), np.inf)
    return np.min(np.abs(np.asarray(pts)[..., None] - poles[None, :]), axis=-1)


def schur_kernel(s, z, w, *, pole_clearance=1e-9, diag_tol=1e-12):
    """Evaluate (1 - s(z) conj(s(w))) / (1 - z conj(w)) at one pair of points."""
    s = as_rational(s)
    z = complex(z)
    w = complex(w)
    d = 1.0 - z * np.conj(w)
    if abs(d) <= diag_tol * (1.0 + abs(z) * abs(w)):
        raise DiagonalSingularity(f"1 - z*conj(w) vanishes at z={z}, w={w}")
    if min(_pole_distance(s, np.array([z, w]))) <= pole_clearance:
        raise PoleProximity("evaluation point too close to a pole")
    return (1.0 - s(z) * np.conj(s(w))) / d


def gram_matrix(s, points, *, pole_clearance=1e-9, diag_tol=1e-12):
    """Sampled kernel Gram matrix, symmetrized, with the asymmetry reported."""
    s = as_rational(s)
    pts = np.asarray(points, dtype=complex).ravel()
    if np.any(_pole_distance(s, pts) <= pole_clearance):
        raise PoleProximity("sample point too close to a pole")
    denom = 1.0 - np.outer(pts, np.conj(pts))
    if np.min(np.abs(denom)) <= diag_tol * (1.0 + np.max(np.abs(pts)) ** 2):
        raise DiagonalSingularity("points z, w with z*conj(w) = 1 in the sample")
    sv = s(pts)
    raw = (1.0 - np.outer(sv, np.conj(sv))) / denom
    herm = 0.5 * (raw + raw.conj().T)
    scale = float(np.max(np.abs(raw), initial=0.0))
    # A kernel that vanishes identically (s a unimodular constant) samples as
    # rounding noise; below the noise bound the matrix is numerically zero
    # and carries no asymmetry information.
    noise = 256.0 * np.finfo(float).eps * (1.0 + float(np.max(np.abs(sv))) ** 2)
    noise /= float(np.min(np.abs(denom)))
    asym = float(np.max(np.abs(raw - raw.conj().T), initial=0.0))
    asym = 0.0 if scale <= noise else asym / scale
    return HermitianSample(points=pts, entries=herm, asymmetry=asym, noise=noise)


def hermitian_eigenvalues(matrix):
    """Ascending eigenvalues of the Hermitian part of a matrix (LAPACK)."""
    A = np.asarray(matrix, dtype=complex)
    return np.linalg.eigvalsh(0.5 * (A + A.conj().T))


def inertia(sample, tol=1e-10, *, herm_tol=HERM_TOL):
    """Counts of eigenvalues above, below, and inside the zero band.

    The zero band has half-width tol * n * max|entry| to absorb eigenvalue
    rounding; a sampled Gram matrix must be Hermitian within herm_tol.
    """
    noise = 0.0
    if isinstance(sample, HermitianSample):
        if sample.asymmetry > herm_tol:
            raise NotHermitian(f"asymmetry {sample.asymmetry:.3g} exceeds {herm_tol:.3g}")
        H = sample.entries
        noise = sample.noise
    else:
        H = np.asarray(sample, dtype=complex)
        scale = float(np.max(np.abs(H), initial=0.0))
        if scale > 0 and np.max(np.abs(H - H.conj().T)) > herm_tol * scale:
            raise NotHermitian("matrix asymmetry exceeds tolerance")
        H = 0.5 * (H + H.conj().T)
    n = H.shape[0]
    eig = hermitian_eigenvalues(H)
    scale = float(np.max(np.abs(H), initial=0.0))
    band = tol * max(n, 1) * scale + max(n, 1) * noise
    n_pos = int(np.sum(eig > band))
    n_neg = int(np.sum(eig < -band))
    return Inertia(n_pos=n_pos, n_neg=n_neg, n_zero=n - n_pos - n_neg)


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
    return [
        z
        for z in probes
        if abs(z) < 1.0 and (poles.size == 0 or np.min(np.abs(z - poles)) >= 0.99 * clearance)
    ]


def _draw_points(rng, count, radius, clearance, poles, existing):
    out = list(existing)
    attempts = 0
    limit = 2000 * count
    while len(out) < count:
        attempts += 1
        if attempts > limit:
            raise NoAnalyticPoints(
                "pole clearance leaves too little of the sampling disk"
            )
        z = radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if poles.size and np.min(np.abs(z - poles)) <= clearance:
            continue
        out.append(z)
    return out


def estimate_negative_squares(s, plan=SamplePlan(), *, inertia_tol=1e-10):
    """Estimated number of negative squares of the kernel of s.

    Seeds the point set with a few probes near each disk pole (where the
    negative directions of the kernel live), then draws seeded random points
    in a disk of the plan's radius (avoiding poles by the plan's clearance),
    doubling the nested point set each round; returns the largest negative
    count once it has not changed for `stabilization_rounds` consecutive
    rounds. This is a lower-bound estimator: sampling can only certify
    negative squares it has seen, never exclude larger ones; with the pole
    probes it is exact on the rank-structured rational functions targeted
    here.
    """
    s = as_rational(s)
    if s.degree > MAX_DEGREE:
        raise ValueError(f"degree {s.degree} exceeds cap {MAX_DEGREE}")
    rng = np.random.default_rng(plan.seed)
    poles = s.poles()
    pts: list[complex] = _pole_probes(poles, plan.pole_clearance)
    best = 0
    stable = 0
    count = plan.initial_points
    while True:
        pts = _draw_points(rng, count, plan.radius, plan.pole_clearance, poles, pts)
        result = inertia(gram_matrix(s, pts), tol=inertia_tol)
        if result.n_neg > best:
            best = result.n_neg
            stable = 1
        else:
            stable += 1
        if stable >= plan.stabilization_rounds:
            return best
        if count >= plan.max_points:
            return best
        count = min(2 * count, plan.max_points)
