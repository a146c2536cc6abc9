"""Shared draw helpers for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

from mfbm import MfbmParams, check_admissibility


def make_params(H, sigma=None, rho01=0.0, eta01=0.0) -> MfbmParams:
    """Bivariate-or-univariate shorthand used all over the tests."""
    H = np.atleast_1d(np.asarray(H, dtype=float))
    p = H.shape[0]
    sigma = np.ones(p) if sigma is None else np.asarray(sigma, dtype=float)
    rho = np.eye(p)
    eta = np.zeros((p, p))
    if p >= 2:
        rho[0, 1] = rho[1, 0] = rho01
        eta[0, 1], eta[1, 0] = eta01, -eta01
    return MfbmParams(H=H, sigma=sigma, rho=rho, eta=eta)


def random_admissible(
    rng: np.random.Generator,
    p: int,
    unit_sum: bool = False,
    h_margin: float = 0.0,
    min_eig: float = 1e-4,
    max_tries: int = 2000,
) -> MfbmParams:
    """Rejection-sample a strictly interior admissible parameter set.

    unit_sum forces H_1 + H_2 = 1 for p = 2 to hit the logarithmic
    branch; h_margin keeps every H_i away from 1/2.
    """
    for _ in range(max_tries):
        if unit_sum:
            if p != 2:
                raise ValueError("unit_sum draws are bivariate")
            h1 = rng.uniform(0.05, 0.95)
            H = np.array([h1, 1.0 - h1])
        else:
            H = rng.uniform(0.05, 0.95, size=p)
        if h_margin and np.any(np.abs(H - 0.5) < h_margin):
            continue
        sigma = rng.uniform(0.5, 2.0, size=p)
        rho = np.eye(p)
        eta = np.zeros((p, p))
        scale = rng.uniform(0.05, 0.6)
        for i in range(p):
            for j in range(i + 1, p):
                rho[i, j] = rho[j, i] = scale * rng.uniform(-1.0, 1.0)
                eta[i, j] = 0.5 * scale * rng.uniform(-1.0, 1.0)
                eta[j, i] = -eta[i, j]
        params = MfbmParams(H=H, sigma=sigma, rho=rho, eta=eta)
        report = check_admissibility(params)
        if report.admissible and report.min_eigenvalue > min_eig:
            return params
    raise AssertionError("failed to draw an admissible parameter set")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
