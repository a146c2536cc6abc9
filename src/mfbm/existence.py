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

from .params import MfbmParams, _unit_sum
from .spectral import _coherence, admissibility_matrix, coherence

__all__ = [
    "SpecialCase",
    "CovarianceExistenceError",
    "AdmissibilityReport",
    "check_admissibility",
    "max_correlation",
    "admissible_boundary",
    "pair_coherence_at",
]

PSD_TOL = 1e-10


class SpecialCase(Enum):
    """Named one-parameter subfamilies of the cross coefficients."""

    CAUSAL = "causal"
    WELL_BALANCED = "well_balanced"


class CovarianceExistenceError(ValueError):
    """Raised when parameters do not define a legitimate covariance."""


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

    def require(self) -> None:
        """Raise CovarianceExistenceError unless the set is admissible."""
        if not self.admissible:
            raise CovarianceExistenceError(
                "parameters admit no valid covariance: admissibility matrix has "
                f"minimum eigenvalue {self.min_eigenvalue:.3e} "
                f"(threshold -{self.threshold:.3e})"
            )


def check_admissibility(params: MfbmParams) -> AdmissibilityReport:
    """Eigenvalue test of the admissibility matrix: the one existence rule.

    Admissible iff the minimum eigenvalue is at least -PSD_TOL times the
    largest entry modulus. Eigenvalues rather than a Cholesky attempt so
    the margin is visible in the report; every sampler, factor and CLI
    command refuses through its require(). params is well formed: an
    MfbmParams is validated when it is built.
    """
    q = admissibility_matrix(params)
    eigenvalues = np.linalg.eigvalsh(q)
    threshold = PSD_TOL * float(np.max(np.abs(q)))
    c12 = float(_coherence(q)[0, 1]) if params.p == 2 else None
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


def max_correlation(h1: float, h2: float, case: SpecialCase) -> float:
    """Largest symmetric coefficient admitting a bivariate process with
    Hurst exponents (h1, h2), under the given special case.

    Read off the coherence rule: rho enters q_12 linearly, so the
    well-balanced ceiling is 1 / sqrt(C) with C the coherence at
    (rho, eta') = (1, 0), the unconstrained maximum. The causal family
    loses a factor |cos(pi (h1-h2) / 2)|.
    """
    rho = 1.0 / np.sqrt(pair_coherence_at(h1, h2, 1.0, 0.0))
    if case is SpecialCase.CAUSAL:
        rho *= abs(np.cos(np.pi * (h1 - h2) / 2.0))
    return float(rho)


def pair_coherence_at(h1: float, h2: float, rho: float, eta_prime: float) -> float:
    """Coherence of a bivariate set at a point of the (rho, eta') plane.

    eta' is the branch-continuous antisymmetric coordinate: for generic
    pairs eta = eta' / (1 - h1 - h2); for unit-sum pairs eta' is the
    coefficient itself. The bivariate set is built, and so validated, like
    any other: exponents outside (0, 1) or |rho| > 1 raise ValueError.
    """
    a = float(h1) + float(h2)
    eta = eta_prime if _unit_sum(a) else eta_prime / (1.0 - a)
    params = MfbmParams(
        H=[h1, h2], sigma=[1.0, 1.0], rho=[[1.0, rho], [rho, 1.0]], eta=[[0.0, eta], [-eta, 0.0]]
    )
    return coherence(params, 0, 1)


def admissible_boundary(h1: float, h2: float, n_points: int = 361) -> np.ndarray:
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
    c_rho = pair_coherence_at(h1, h2, 1.0, 0.0)
    c_eta = pair_coherence_at(h1, h2, 0.0, 1.0)
    thetas = 2.0 * np.pi * np.arange(n_points) / (n_points - 1)
    u, v = np.cos(thetas), np.sin(thetas)
    r = 1.0 / np.sqrt(c_rho * u**2 + c_eta * v**2)
    out = np.column_stack((r * u, r * v))
    out[-1] = out[0]  # same ray at theta = 0 and 2 pi; close the curve exactly
    return out
