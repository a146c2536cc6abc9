"""Admissibility of mfBm parameter sets.

A parameter set defines a legitimate covariance exactly when the
Hermitian matrix of :func:`mfbm.spectral.admissibility_matrix` (built
from the Hurst exponents and the pair coefficients; also importable from
here) is positive semidefinite. For p = 2 the condition collapses to a
coherence bound, which also yields closed admissible regions in the
coefficient plane and the maximal attainable correlation between two
components.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .params import MfbmParams, validate
from .spectral import _coherence, _gamma, admissibility_matrix, coherence

__all__ = [
    "SpecialCase",
    "AdmissibilityReport",
    "check_admissibility",
    "max_correlation",
    "admissible_boundary",
    "pair_coherence_at",
]


class SpecialCase(Enum):
    """Named one-parameter subfamilies of the cross coefficients."""

    CAUSAL = "causal"
    WELL_BALANCED = "well_balanced"


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the semidefiniteness test.

    coherence is filled for p = 2 only, where the scalar criterion
    "coherence <= 1" is equivalent to the eigenvalue test.
    """

    admissible: bool
    min_eigenvalue: float
    threshold: float
    coherence: float | None = None

    def __bool__(self) -> bool:
        return self.admissible


def check_admissibility(params: MfbmParams, psd_tol: float = 1e-10) -> AdmissibilityReport:
    """Eigenvalue test of the admissibility matrix.

    Admissible iff the minimum eigenvalue is at least -psd_tol times the
    largest entry modulus. Eigenvalues rather than a Cholesky attempt so
    the margin is visible in the report. Structurally invalid parameters
    (see params.validate) raise ValueError instead of yielding a report.
    """
    if not 0.0 <= psd_tol < np.inf:
        raise ValueError(f"psd_tol must be finite and nonnegative, got {psd_tol}")
    report = validate(params)
    if not report.ok:
        raise ValueError(f"invalid parameters: {report}")
    q = admissibility_matrix(params)
    eigenvalues = np.linalg.eigvalsh(q)
    threshold = psd_tol * float(np.max(np.abs(q)))
    c12 = _coherence(q, 0, 1) if params.p == 2 else None
    return AdmissibilityReport(
        admissible=bool(eigenvalues[0] >= -threshold),
        min_eigenvalue=float(eigenvalues[0]),
        threshold=threshold,
        coherence=c12,
    )


def _ridged_cholesky(matrix: np.ndarray, shift: float) -> tuple[np.ndarray, float]:
    """Cholesky factor of matrix and the diagonal ridge it needed.

    Tries the plain factorization first (ridge 0.0), then matrix + shift I
    with shift doubled after each failure, at most 64 times; raises
    np.linalg.LinAlgError when every attempt fails.
    """
    try:
        return np.linalg.cholesky(matrix), 0.0
    except np.linalg.LinAlgError:
        pass
    eye = np.eye(matrix.shape[0])
    for _ in range(64):
        try:
            return np.linalg.cholesky(matrix + shift * eye), shift
        except np.linalg.LinAlgError:
            shift *= 2.0
    raise np.linalg.LinAlgError("matrix stays indefinite after 64 ridge doublings")


def _check_hurst_pair(h1: float, h2: float) -> None:
    for h in (h1, h2):
        if not 0.0 < h < 1.0:
            raise ValueError(f"Hurst exponent {h} outside (0, 1)")


def max_correlation(h1: float, h2: float, case: SpecialCase) -> float:
    """Largest symmetric coefficient admitting a bivariate process with
    Hurst exponents (h1, h2), under the given special case.

    The well-balanced family attains the unconstrained maximum; the causal
    family loses a factor |cos(pi (h1-h2) / 2)|. Continuous through
    h1 + h2 = 1, where the half-sum sine is 1.
    """
    _check_hurst_pair(h1, h2)
    alpha = h1 + h2
    rho_sq = (
        _gamma(2.0 * h1 + 1.0)
        * _gamma(2.0 * h2 + 1.0)
        / _gamma(alpha + 1.0) ** 2
        * np.sin(np.pi * h1)
        * np.sin(np.pi * h2)
        / np.sin(np.pi * alpha / 2.0) ** 2
    )
    if case is SpecialCase.CAUSAL:
        rho_sq *= np.cos(np.pi * (h1 - h2) / 2.0) ** 2
    return float(np.sqrt(rho_sq))


def pair_coherence_at(
    h1: float,
    h2: float,
    rho: float,
    eta_prime: float,
    one_tol: float = 1e-9,
) -> float:
    """Coherence of a bivariate set at a point of the (rho, eta') plane.

    eta' is the branch-continuous antisymmetric coordinate: for generic
    pairs eta = eta' / (1 - h1 - h2); for unit-sum pairs eta' is the
    coefficient itself. Both exponents must lie in (0, 1).
    """
    _check_hurst_pair(h1, h2)
    if abs(h1 + h2 - 1.0) <= one_tol:
        eta = eta_prime
    else:
        eta = eta_prime / (1.0 - h1 - h2)
    params = MfbmParams(
        H=[h1, h2],
        sigma=[1.0, 1.0],
        rho=[[1.0, rho], [rho, 1.0]],
        eta=[[0.0, eta], [-eta, 0.0]],
        one_tol=one_tol,
    )
    return coherence(params, 0, 1)


def admissible_boundary(
    h1: float,
    h2: float,
    n_points: int = 361,
    one_tol: float = 1e-9,
) -> np.ndarray:
    """Points of the unit-coherence curve in the (rho, eta') plane.

    Returns an (n_points, 2) array tracing the closed boundary of the
    admissible region for a bivariate process with exponents (h1, h2);
    the first and last rows coincide. rho enters only the real part of the
    cross entry Gamma(a+1) (rho s - i eta t) and eta' only its imaginary
    part, so the ray through the unit direction (u, v) meets the boundary
    at r = 1 / sqrt(C(1, 0) u^2 + C(0, 1) v^2), with C the coherence.
    """
    if n_points < 2:
        raise ValueError("need at least 2 points to trace a closed curve")
    c_rho = pair_coherence_at(h1, h2, 1.0, 0.0, one_tol)
    c_eta = pair_coherence_at(h1, h2, 0.0, 1.0, one_tol)
    thetas = 2.0 * np.pi * np.arange(n_points) / (n_points - 1)
    u, v = np.cos(thetas), np.sin(thetas)
    r = 1.0 / np.sqrt(c_rho * u**2 + c_eta * v**2)
    out = np.column_stack((r * u, r * v))
    out[-1] = out[0]  # same ray at theta = 0 and 2 pi; close the curve exactly
    return out
