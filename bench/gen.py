"""Seeded inputs for the benchmark workloads.

Built with numpy alone, so the library under test sees only finished inputs
(coefficient arrays and complex numbers) and none of the benchmark's own
reference computations depend on it.
"""

from __future__ import annotations

import math

import numpy as np

P = np.polynomial.polynomial


def unimodular(rng):
    return complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


def disk_points(rng, n, lo=0.05, hi=0.85):
    """n points with modulus in [lo, hi] and uniform argument."""
    return [rng.uniform(lo, hi) * unimodular(rng) for _ in range(n)]


def blaschke(zeros):
    """Ascending (num, den) of prod (z - a) / (1 - conj(a) z)."""
    num = np.array([1.0 + 0j])
    den = np.array([1.0 + 0j])
    for a in zeros:
        num = P.polymul(num, [-a, 1.0])
        den = P.polymul(den, [1.0, -np.conj(a)])
    return num, den


def monic(num, den):
    """Divide by the leading denominator coefficient, as RationalFn stores it."""
    lead = den[-1]
    return np.asarray(num) / lead, np.asarray(den) / lead


def pick_matrix(z1, tau0, tau):
    """conj(tau0) T B: T lower-triangular Toeplitz in tau, B the signed binomial
    matrix with B[i, j] = (-1)^j C(j, m) z1^(2j+1-m), m = i + j - k + 1."""
    k = len(tau)
    T = np.zeros((k, k), dtype=complex)
    B = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            if j <= i:
                T[i, j] = tau[i - j]
            m = i + j - k + 1
            if m >= 0:
                B[i, j] = (-1) ** j * math.comb(j, m) * z1 ** (2 * j + 1 - m)
    return np.conj(tau0) * T @ B


def boundary_datum(rng, k, *, min_ratio=1e-3, max_cond=1e8):
    """Random datum (z1, tau0, tau, z0) with a Hermitian Pick matrix.

    The Pick matrix is real-linear in tau, so Hermiticity is a linear
    constraint; tau is drawn from its null space. The test-suite generator
    asks for |tau_k| >= 0.3 max|tau| and never reaches k >= 6, because the
    constraint makes later coefficients grow binomially; the relaxed ratio
    and condition cap here reach k = 8. No datum is rejected for how the
    library handles it.
    """
    for _ in range(1000):
        z1, tau0, z0 = unimodular(rng), unimodular(rng), unimodular(rng)
        while abs(z0 - z1) < 0.3:
            z0 = unimodular(rng)
        columns = []
        for idx in range(2 * k):
            tau = np.zeros(k, dtype=complex)
            tau[idx // 2] = 1.0 if idx % 2 == 0 else 1j
            Pm = pick_matrix(z1, tau0, tau)
            v = (Pm - Pm.conj().T).ravel()
            columns.append(np.concatenate([v.real, v.imag]))
        _, sing, vt = np.linalg.svd(np.array(columns).T)
        null = [vt[i] for i in range(2 * k) if i >= sing.size or sing[i] <= 1e-10]
        if not null:
            continue
        y = sum(rng.normal() * n for n in null)
        tau = y[0::2] + 1j * y[1::2]
        if abs(tau[0]) < min_ratio * max(float(np.max(np.abs(tau))), 1e-12):
            continue
        tau = tau / abs(tau[0]) * rng.uniform(0.5, 2.0)
        if np.linalg.cond(pick_matrix(z1, tau0, tau)) > max_cond:
            continue
        return z1, tau0, tuple(complex(t) for t in tau), z0
    raise RuntimeError(f"no Hermitian datum found for k={k}")


def schur_function(rng, degree, *, inner):
    """(num, den) of c B(z) with B a Blaschke product of the given degree and
    |c| = 1 (inner) or |c| in [0.2, 0.95]."""
    num, den = blaschke(disk_points(rng, degree))
    scale = 1.0 if inner else rng.uniform(0.2, 0.95)
    return num * (scale * unimodular(rng)), den


def admissible_parameter(rng, degree, z1, tau0, *, inner):
    """Schur parameter whose value at z1 stays 1e-2 away from tau0."""
    for _ in range(200):
        num, den = schur_function(rng, degree, inner=inner)
        if abs(P.polyval(z1, num) / P.polyval(z1, den) - tau0) > 1e-2:
            return num, den
    raise RuntimeError("no admissible parameter found")


def generalized_schur(rng, kappa, n_zeros, *, inner):
    """(num, den, poles) of c B_zeros / B_poles with kappa disk poles.

    The function has exactly kappa negative squares: it is s0 / b with
    s0 = c B_zeros Schur and b = B_poles a Blaschke product of order kappa.
    """
    poles = disk_points(rng, kappa)
    zn, zd = blaschke(disk_points(rng, n_zeros))
    pn, pd = blaschke(poles)
    scale = 1.0 if inner else rng.uniform(0.3, 0.95)
    num = P.polymul(zn, pd) * (scale * unimodular(rng))
    den = P.polymul(zd, pn)
    return num, den, poles
