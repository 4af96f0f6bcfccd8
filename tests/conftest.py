"""Shared fixtures: seeded random model corpora.

All randomness is drawn from PCG64 with fixed seeds so every run sees
the same matrices.
"""

import numpy as np
import pytest
import scipy.linalg

from kgbounds import (
    ModelSpec,
    eigen_spectrum,
    perturbation_constants,
    spectral_norm,
)
from oracles import sqrt_spd


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_spd(rng, n, lo=0.4, hi=4.0):
    q = random_orthogonal(rng, n)
    return (q * rng.uniform(lo, hi, size=n)) @ q.T


def random_model(rng, n=None, b_lo=0.05, b_hi=0.65):
    """A random spec with contraction ||V U^(-1)|| drawn from [b_lo, b_hi]."""
    if n is None:
        n = int(rng.integers(2, 9))
    u_squared = random_spd(rng, n)
    u_inv = np.linalg.inv(sqrt_spd(u_squared))
    v_raw = 0.5 * (lambda m: m + m.T)(rng.normal(size=(n, n)))
    b_target = float(rng.uniform(b_lo, b_hi))
    v = v_raw * (b_target / spectral_norm(v_raw @ u_inv))
    return ModelSpec(u_squared=u_squared, v=v, label=f"random(n={n})"), u_inv


def random_model_and_perturbation(rng, n=None, b_lo=0.05, b_hi=0.65):
    """(spec, delta_v) with c/(1-b) < 1 so every constant is applicable."""
    spec, u_inv = random_model(rng, n=n, b_lo=b_lo, b_hi=b_hi)
    b = spectral_norm(spec.v @ u_inv)
    dv_raw = 0.5 * (lambda m: m + m.T)(rng.normal(size=(spec.order, spec.order)))
    c_target = float(rng.uniform(0.05, 0.9)) * (1.0 - b)
    dv = dv_raw * (c_target / spectral_norm(dv_raw @ u_inv))
    return spec, dv


def constants_of(system, pert):
    """perturbation_constants with the spectrum of the same system."""
    return perturbation_constants(system, pert, eigen_spectrum(system))


@pytest.fixture(scope="session")
def corpus200():
    """200 seeded random (spec, delta_v) pairs with n <= 8, b < 0.7."""
    rng = np.random.Generator(np.random.PCG64(20240601))
    return [random_model_and_perturbation(rng) for _ in range(200)]


@pytest.fixture
def svd_calls(monkeypatch):
    """A list that records every SVD: numpy's or scipy's svd, and a 2-norm
    of a matrix or of a stack of them, which numpy takes by SVD."""
    calls = []
    np_svd, sp_svd, norm = np.linalg.svd, scipy.linalg.svd, np.linalg.norm

    def spy(svd):
        def record(*args, **kwargs):
            calls.append(svd.__module__)
            return svd(*args, **kwargs)

        return record

    def spy_norm(x, ord=None, *args, **kwargs):
        if ord in (2, -2) and np.ndim(x) >= 2:
            calls.append("numpy.linalg.norm")
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy(np_svd))
    monkeypatch.setattr(scipy.linalg, "svd", spy(sp_svd))
    monkeypatch.setattr(np.linalg, "norm", spy_norm)
    return calls
