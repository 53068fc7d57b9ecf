"""Shared generators for seeded random sweeps."""

import numpy as np
import pytest

from schurkit.interpolation import InterpData, binomial_matrix, pick_matrix
from schurkit.rational import BlaschkeProduct


def unimodular(rng):
    return complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


def random_blaschke(rng, max_degree=3, min_degree=0, radius=0.85):
    deg = int(rng.integers(min_degree, max_degree + 1))
    zeros = [
        rng.uniform(0.05, radius) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        for _ in range(deg)
    ]
    return BlaschkeProduct(zeros, unimodular(rng))


def random_schur_fn(rng, max_degree=3):
    """Random rational Schur function: a Blaschke product scaled into the disk."""
    b = random_blaschke(rng, max_degree)
    scale = 1.0 if rng.uniform() < 0.4 else rng.uniform(0.2, 0.95)
    return b.as_rational() * (scale * unimodular(rng))


def _toeplitz(tau):
    k = len(tau)
    T = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(i + 1):
            T[i, j] = tau[i - j]
    return T


def random_interp_data(rng, k, max_cond=1e6, min_ratio=0.3):
    """Random datum with a Hermitian, well-conditioned Pick matrix.

    The Pick matrix is complex-linear in the tau vector, so Hermiticity is a
    real-linear constraint; tau is sampled from the null space of that
    constraint (via SVD) and rejected until |tau_k| >= min_ratio max|tau| and
    the matrix is invertible. The constraint makes later coefficients grow
    binomially, so k >= 6 needs a smaller min_ratio (1e-3 reaches k = 8).
    """
    for _ in range(200):
        z1 = unimodular(rng)
        tau0 = unimodular(rng)
        z0 = unimodular(rng)
        while abs(z0 - z1) < 0.3:
            z0 = unimodular(rng)
        shim = InterpData(z1=z1, k=k, tau0=tau0, tau=(1.0,) + (0.0,) * (k - 1), z0=z0)
        B = binomial_matrix(shim)
        columns = []
        for idx in range(2 * k):
            tau = np.zeros(k, dtype=complex)
            tau[idx // 2] = 1.0 if idx % 2 == 0 else 1j
            P = np.conj(tau0) * _toeplitz(tau) @ B
            v = (P - P.conj().T).ravel()
            columns.append(np.concatenate([v.real, v.imag]))
        M = np.array(columns).T
        _, sing, vt = np.linalg.svd(M)
        null = [vt[i] for i in range(2 * k) if i >= sing.size or sing[i] <= 1e-10]
        if not null:
            continue
        y = sum(rng.normal() * n for n in null)
        tau = y[0::2] + 1j * y[1::2]
        if abs(tau[0]) < min_ratio * max(np.max(np.abs(tau)), 1e-12):
            continue
        tau = tau / abs(tau[0]) * rng.uniform(0.5, 2.0)
        data = InterpData(z1=z1, k=k, tau0=tau0, tau=tuple(tau), z0=z0)
        try:
            P = pick_matrix(data)
        except Exception:
            continue
        if np.linalg.cond(P) > max_cond:
            continue
        return data
    raise RuntimeError("failed to sample Hermitian-compatible data")


def random_admissible_parameter(rng, data, max_degree=3):
    """Random rational Schur parameter bounded away from tau0 at z1."""
    for _ in range(100):
        s1 = random_schur_fn(rng, max_degree)
        if s1.vanishing_order(data.z1) < 0:
            continue
        if abs(s1(data.z1) - data.tau0) > 1e-2:
            return s1
    raise RuntimeError("failed to sample an admissible parameter")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
