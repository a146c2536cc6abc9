"""Conversions among the three parameterizations of a mfBm.

Covariance-level coefficients (H, sigma, rho, eta), a complex spectral
factor A with A A* prescribed entrywise, and a pair of real moving
average matrices (M+, M-). The factor A is unique only up to right
multiplication by a unitary; the Cholesky factor is the canonical
choice here, with a closed-form alternative for p = 2.

The A <-> (M+, M-) change of basis uses row phases
phi_i = (pi/2)(H_i + 1/2): row i of A built from (M+, M-) is
Gamma(H_i + 1/2) (cos(phi_i) (M+ + M-) + i sin(phi_i) (M+ - M-))_i
/ sqrt(2 pi). The phases are read off the complementary angle, so
H_i = 1/2 gives (cos, sin) = (0, 1) exactly and only M+ - M- drives a
Brownian row. The inverse map degenerates there (cos(phi_i) = 0), the
excluded exponent of the moving average form.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .existence import (
    PSD_TOL, CovarianceExistenceError, SpecialCase, _ridged_cholesky, check_admissibility,
)
from .params import MfbmParams, _unit_sum
from .spectral import _gamma, _pair_weights, admissibility_matrix

__all__ = [
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


@dataclass(frozen=True, eq=False)
class SpectralFactor:
    """Complex factor A with A A* equal to the Gram target.

    diag_shift is the ridge added to the target diagonal before
    factorization; zero when the plain factorization succeeded.
    """

    matrix: np.ndarray
    diag_shift: float = 0.0

    def __post_init__(self):
        self.matrix.setflags(write=False)


@dataclass(frozen=True, eq=False)
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
    q = admissibility_matrix(params)
    return np.outer(params.sigma, params.sigma) / (2.0 * np.pi) * q


def spectral_factor(params: MfbmParams) -> SpectralFactor:
    """Lower-triangular factor of the Gram target via Cholesky.

    Admissibility is required first (CovarianceExistenceError); a
    semidefinite target (boundary parameters) is factored after a recorded
    ridge of PSD_TOL times the largest diagonal entry, doubled until the
    factorization succeeds.
    """
    check_admissibility(params).require()
    target = gram_target(params)
    shift = PSD_TOL * float(np.max(np.real(np.diag(target))))
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
    component variance. Existence is left to check_admissibility, whose
    report gives C; a set it admits with C a round-off above 1 is factored
    with r = 0, so A A* matches G to within that excess.
    """
    if params.p != 2:
        raise ValueError("closed-form factor is specific to p = 2")
    report = check_admissibility(params)
    report.require()
    c = report.coherence
    target = gram_target(params)
    diag = np.real(np.diag(target))
    if c == 0.0:
        return SpectralFactor(matrix=np.diag(np.sqrt(diag)).astype(complex))
    r = np.sqrt(max(1.0 - c, 0.0) / c)
    a_mat = target * (1.0 + 1j * r) / np.sqrt(2.0 * diag)[None, :]
    np.fill_diagonal(a_mat, np.sqrt(0.5 * diag))
    return SpectralFactor(matrix=a_mat)


def _row_phases(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos phi, sin phi) at phi = (pi/2)(H + 1/2); exactly (0, 1) at H = 1/2."""
    complement = 0.5 * np.pi * (0.5 - H)
    return np.sin(complement), np.cos(complement)


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
    cos_phi, sin_phi = _row_phases(H)
    gammas = _gamma(H + 0.5)
    d1_inv = 1.0 / (cos_phi * gammas)
    d2_inv = 1.0 / (sin_phi * gammas)
    term1 = d1_inv[:, None] * a_mat.real
    term2 = d2_inv[:, None] * a_mat.imag
    root = np.sqrt(0.5 * np.pi)
    return MovingAveragePair(
        m_plus=root * (term1 + term2), m_minus=root * (term1 - term2)
    )


def _factor_from_ma(ma: MovingAveragePair, H: np.ndarray) -> np.ndarray:
    # The change of basis of the module docstring, defined at every H.
    cos_phi, sin_phi = _row_phases(H)
    msum, mdiff = ma.m_plus + ma.m_minus, ma.m_plus - ma.m_minus
    rows = cos_phi[:, None] * msum + 1j * sin_phi[:, None] * mdiff
    return _gamma(H + 0.5)[:, None] * rows / np.sqrt(2.0 * np.pi)


def spectral_from_ma(ma: MovingAveragePair, H) -> SpectralFactor:
    """Inverse of :func:`ma_from_spectral`; same H = 1/2 exclusion."""
    H = np.atleast_1d(np.asarray(H, dtype=float))
    _check_half_exponents(H)
    return SpectralFactor(matrix=_factor_from_ma(ma, H))


def params_from_ma(ma: MovingAveragePair, H, one_tol: float = 1e-9) -> MfbmParams:
    """Covariance coefficients of the process driven by (M+, M-).

    Inverts the Gram target A A* of the factor A the weights map to:
    Q = 2 pi A A* / Gamma(H_i+H_j+1) holds sigma_i sigma_j times the
    positive-frequency spectral coefficient rho s - i eta t of each pair,
    so sigma_i^2 = Q_ii / sin(pi H_i), rho = Re(c) / s and eta = -Im(c) / t
    with c = Q_ij / (sigma_i sigma_j) and (s, t) the pair weights of
    :mod:`mfbm.spectral`. H needs one finite entry in (0, 1) per row of the
    weights; unlike the factor maps, H = 1/2 is accepted here. Rows whose
    weights carry no variance are rejected.
    """
    H = np.atleast_1d(np.asarray(H, dtype=float))
    if H.shape != ma.m_plus.shape[:1] or not (H.min() > 0.0 and H.max() < 1.0):
        raise ValueError(
            f"H needs one exponent in (0, 1) per row of the {ma.m_plus.shape} "
            f"weights; got H = {H.tolist()}"
        )
    a_mat = _factor_from_ma(ma, H)
    a, s, t = _pair_weights(H, one_tol)
    q = 2.0 * np.pi * (a_mat @ a_mat.conj().T) / _gamma(a + 1.0)
    var = q.real.diagonal() / np.sin(np.pi * H)
    bad = np.flatnonzero(~(var > 0.0))
    if bad.size:
        raise ValueError(f"row {bad[0]} of the kernel weights carries no variance")
    sigma = np.sqrt(var)
    c = q / np.outer(sigma, sigma)
    # |Re c| <= sqrt(sin(pi H_i) sin(pi H_j)) <= s (Cauchy-Schwarz, then
    # log sin concave), so |rho| <= 1; the clip drops the round-off above
    # it, as when two rows drive their components in proportion
    rho, eta = np.maximum(np.minimum(c.real / s, 1.0), -1.0), -c.imag / t
    # mirror each pair i < j: rho symmetric, eta antisymmetric, + 0.0 unsigns zeros
    lower = np.tri(H.shape[0], k=-1, dtype=bool)
    rho[lower], eta[lower] = rho.T[lower], -eta.T[lower]
    rho.flat[:: H.shape[0] + 1], eta.flat[:: H.shape[0] + 1] = 1.0, 0.0
    return MfbmParams(H=H, sigma=sigma, rho=rho, eta=eta + 0.0, one_tol=one_tol)


def special_case_eta(params: MfbmParams, case: SpecialCase) -> MfbmParams:
    """Fill the antisymmetric coefficients implied by a named subfamily.

    The symmetric coefficients of params are kept; its eta entries are
    ignored and replaced. Well-balanced sets every eta to zero. Causal
    ties eta to rho pairwise through the phase of the spectral coefficient,
    arg(rho s - i eta t) = (pi/2)(H_i - H_j), so
    eta = -rho s tan(pi (H_i - H_j) / 2) / t; a unit-sum pair with
    H_i = 1/2, where the subfamily degenerates, is rejected.
    """
    eta = np.zeros_like(params.rho)
    if case is SpecialCase.CAUSAL:
        H = params.H
        a, s, t = _pair_weights(H, params.one_tol)
        unit = _unit_sum(a, params.one_tol)
        if np.any(np.triu(unit, 1) & (np.abs(H - 0.5) < 1e-9)[:, None]):
            raise ValueError(
                "causal tie is undefined for a unit-sum pair with H = 1/2"
            )
        tie = np.tan(0.5 * np.pi * np.subtract.outer(H, H))
        eta = np.triu(-params.rho * s * tie / t, 1)
        eta = eta - eta.T
    elif case is not SpecialCase.WELL_BALANCED:
        raise ValueError(f"unknown special case {case!r}")
    return replace(params, eta=eta)
