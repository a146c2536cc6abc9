"""Conversions among the three parameterizations of a mfBm.

Covariance-level coefficients (H, sigma, rho, eta), a complex spectral
factor A with A A* prescribed entrywise, and a pair of real moving
average matrices (M+, M-). The factor A is unique only up to right
multiplication by a unitary; the Cholesky factor is the canonical
choice here, with a closed-form alternative for p = 2.

The A <-> (M+, M-) change of basis uses row phases
phi_i = (pi/2)(H_i + 1/2): row i of A built from (M+, M-) is
Gamma(H_i + 1/2) (cos(phi_i) (M+ + M-) + i sin(phi_i) (M+ - M-))_i
/ sqrt(2 pi). The map degenerates at H_i = 1/2 (cos(phi_i) = 0), which
is exactly the excluded exponent of the moving average form.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn

from .existence import SpecialCase, _ridged_cholesky, check_admissibility
from .params import MfbmParams, PairKind
from .spectral import admissibility_matrix, coherence

__all__ = [
    "CovarianceExistenceError",
    "SpectralFactor",
    "MovingAveragePair",
    "gram_target",
    "spectral_factor",
    "spectral_factor_p2",
    "ma_from_spectral",
    "spectral_from_ma",
    "params_from_ma",
    "special_case_eta",
]

HALF_EXPONENT_TOL = 1e-8


class CovarianceExistenceError(ValueError):
    """Raised when parameters do not define a legitimate covariance."""


@dataclass(frozen=True)
class SpectralFactor:
    """Complex factor A with A A* equal to the Gram target.

    diag_shift is the ridge added to the target diagonal before
    factorization; zero when the plain factorization succeeded.
    """

    matrix: np.ndarray
    diag_shift: float = 0.0

    def __post_init__(self):
        self.matrix.setflags(write=False)


@dataclass(frozen=True)
class MovingAveragePair:
    """Real matrices weighting the forward (+) and reverse (-) kernels."""

    m_plus: np.ndarray
    m_minus: np.ndarray

    def __post_init__(self):
        self.m_plus.setflags(write=False)
        self.m_minus.setflags(write=False)


def gram_target(params: MfbmParams) -> np.ndarray:
    """Hermitian PSD matrix that any valid spectral factor must reproduce.

    Entry (i, j): (sigma_i sigma_j / 2 pi) Gamma(H_i+H_j+1) times the
    positive-frequency spectral coefficient.
    """
    scale = np.outer(params.sigma, params.sigma) / (2.0 * np.pi)
    return scale * admissibility_matrix(params)


def spectral_factor(params: MfbmParams, psd_tol: float = 1e-10) -> SpectralFactor:
    """Lower-triangular factor of the Gram target via Cholesky.

    Admissibility is checked first; a semidefinite target (boundary
    parameters) is factored after a recorded ridge of psd_tol times the
    largest diagonal entry, doubled until the factorization succeeds.
    """
    report = check_admissibility(params, psd_tol)
    if not report.admissible:
        raise CovarianceExistenceError(
            "parameters admit no valid covariance: admissibility matrix has "
            f"minimum eigenvalue {report.min_eigenvalue:.3e} "
            f"(threshold -{report.threshold:.3e})"
        )
    target = gram_target(params)
    shift = psd_tol * float(np.max(np.real(np.diag(target))))
    if shift <= 0.0:
        shift = np.finfo(float).tiny
    try:
        factor, shift = _ridged_cholesky(target, shift)
    except np.linalg.LinAlgError:
        raise CovarianceExistenceError(
            "factorization failed despite admissibility; target is numerically "
            "far from positive semidefinite"
        ) from None
    return SpectralFactor(matrix=factor, diag_shift=shift)


def spectral_factor_p2(params: MfbmParams) -> SpectralFactor:
    """Closed-form spectral factor for p = 2, read off the Gram target G.

    With C the pair coherence and r = sqrt((1-C)/C), the off-diagonal
    entries are G_ij (1 + i r) / sqrt(2 G_jj) and the diagonal ones
    sqrt(G_ii / 2). For a pair with vanishing cross coefficients (C = 0)
    the factor is diagonal, sqrt(G_ii), each entry carrying the full
    component variance.
    """
    if params.p != 2:
        raise ValueError("closed-form factor is specific to p = 2")
    c = coherence(params, 0, 1)
    if c > 1.0 + 1e-12:
        raise CovarianceExistenceError(
            f"pair coherence {c:.6f} exceeds 1; no valid covariance exists"
        )
    target = gram_target(params)
    diag = np.real(np.diag(target))
    if c == 0.0:
        return SpectralFactor(matrix=np.diag(np.sqrt(diag)).astype(complex))
    r = np.sqrt(max(1.0 - c, 0.0) / c)
    a_mat = target * (1.0 + 1j * r) / np.sqrt(2.0 * diag)[None, :]
    np.fill_diagonal(a_mat, np.sqrt(0.5 * diag))
    return SpectralFactor(matrix=a_mat)


def _row_phases(H: np.ndarray) -> np.ndarray:
    return 0.5 * np.pi * (H + 0.5)


def _check_half_exponents(H: np.ndarray) -> None:
    if np.any(np.abs(H - 0.5) < HALF_EXPONENT_TOL):
        raise ValueError(
            "moving average form is undefined at H = 1/2; "
            f"got H = {np.asarray(H).tolist()}"
        )


def ma_from_spectral(a, H) -> MovingAveragePair:
    """Moving average matrices realizing the same law as the factor a.

    Accepts a SpectralFactor or a bare complex matrix. Requires every
    H_i away from 1/2.
    """
    a_mat = np.asarray(getattr(a, "matrix", a), dtype=complex)
    H = np.atleast_1d(np.asarray(H, dtype=float))
    _check_half_exponents(H)
    phases = _row_phases(H)
    gammas = gamma_fn(H + 0.5)
    d1_inv = 1.0 / (np.cos(phases) * gammas)
    d2_inv = 1.0 / (np.sin(phases) * gammas)
    term1 = d1_inv[:, None] * a_mat.real
    term2 = d2_inv[:, None] * a_mat.imag
    root = np.sqrt(0.5 * np.pi)
    return MovingAveragePair(
        m_plus=root * (term1 + term2), m_minus=root * (term1 - term2)
    )


def _factor_from_ma(ma: MovingAveragePair, H: np.ndarray) -> np.ndarray:
    # The change of basis of the module docstring, defined at every H.
    phases = _row_phases(H)[:, None]
    msum, mdiff = ma.m_plus + ma.m_minus, ma.m_plus - ma.m_minus
    rows = np.cos(phases) * msum + 1j * np.sin(phases) * mdiff
    return gamma_fn(H + 0.5)[:, None] * rows / np.sqrt(2.0 * np.pi)


def spectral_from_ma(ma: MovingAveragePair, H) -> SpectralFactor:
    """Inverse of :func:`ma_from_spectral`; same H = 1/2 exclusion."""
    H = np.atleast_1d(np.asarray(H, dtype=float))
    _check_half_exponents(H)
    return SpectralFactor(matrix=_factor_from_ma(ma, H))


def params_from_ma(ma: MovingAveragePair, H, one_tol: float = 1e-9) -> MfbmParams:
    """Covariance coefficients of the process driven by (M+, M-).

    Inverts the Gram target A A* of the factor A the weights map to:
    Q = 2 pi A A* / Gamma(H_i+H_j+1) holds sigma_i sigma_j times the
    positive-frequency spectral coefficient of each pair, so
    sigma_i^2 = Q_ii / sin(pi H_i) and the pair coefficients follow from
    Q_ij / (sigma_i sigma_j) by undoing :func:`mfbm.spectral.spectral_coeff`.
    Unlike the factor maps, H = 1/2 is accepted here. Rows whose weights
    carry no variance are rejected.
    """
    H = np.atleast_1d(np.asarray(H, dtype=float))
    a_mat = _factor_from_ma(ma, H)
    q = 2.0 * np.pi * (a_mat @ a_mat.conj().T) / gamma_fn(np.add.outer(H, H) + 1.0)
    var = q.real.diagonal() / np.sin(np.pi * H)
    bad = np.flatnonzero(~(var > 0.0))
    if bad.size:
        raise ValueError(f"row {bad[0]} of the kernel weights carries no variance")
    sigma = np.sqrt(var)
    # undo spectral_coeff, coeff = rho s - i eta t, on each pair i < j and
    # mirror it, so that rho is symmetric and eta antisymmetric bitwise
    p = H.shape[0]
    rho = np.eye(p)
    eta = np.zeros((p, p))
    for i in range(p):
        for j in range(i + 1, p):
            coeff = q[i, j] / (sigma[i] * sigma[j])
            alpha = H[i] + H[j]
            if abs(alpha - 1.0) <= one_tol:
                s, t = 1.0, 0.5 * np.pi
            else:
                s, t = np.sin(0.5 * np.pi * alpha), np.cos(0.5 * np.pi * alpha)
            rho[i, j] = rho[j, i] = coeff.real / s
            eta[i, j] = -coeff.imag / t
            eta[j, i] = -eta[i, j]
    return MfbmParams(H=H, sigma=sigma, rho=rho, eta=eta, one_tol=one_tol)


def special_case_eta(params: MfbmParams, case: SpecialCase) -> MfbmParams:
    """Fill the antisymmetric coefficients implied by a named subfamily.

    The symmetric coefficients of params are kept; its eta entries are
    ignored and replaced. Well-balanced sets every eta to zero. Causal
    ties eta to rho pairwise; for a unit-sum pair the tie involves
    tan(pi H_i), rejected at H_i = 1/2 where the subfamily degenerates.
    """
    p = params.p
    eta = np.zeros((p, p))
    if case is SpecialCase.CAUSAL:
        for i in range(p):
            for j in range(i + 1, p):
                if params.pair_kind(i, j) is PairKind.UNIT_SUM:
                    if abs(params.H[i] - 0.5) < 1e-9:
                        raise ValueError(
                            "causal tie is undefined for a unit-sum pair "
                            "with H = 1/2"
                        )
                    val = (
                        params.rho[i, j]
                        * 2.0
                        / (np.pi * np.tan(np.pi * params.H[i]))
                    )
                else:
                    val = (
                        -params.rho[i, j]
                        * np.tan(0.5 * np.pi * params.hurst_sum(i, j))
                        * np.tan(0.5 * np.pi * (params.H[i] - params.H[j]))
                    )
                eta[i, j] = val
                eta[j, i] = -val
    elif case is not SpecialCase.WELL_BALANCED:
        raise ValueError(f"unknown special case {case!r}")
    return MfbmParams(
        H=params.H,
        sigma=params.sigma,
        rho=params.rho,
        eta=eta,
        one_tol=params.one_tol,
    )
