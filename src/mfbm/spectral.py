"""Cross-spectral densities of mfBm increments.

Fourier convention: S(omega) = (1/2pi) Integral e^{-i h omega} gamma(h) dh.
The increment spectrum factorizes into a real power-law envelope and a
frequency-sign-dependent complex coefficient, so coherence between two
components is constant in frequency.

One Hermitian matrix carries the spectral convention: entry (i, j) of
:func:`admissibility_matrix` is q_ij = Gamma(H_i+H_j+1) times the
positive-frequency coefficient of the pair. The density, the
low-frequency modulus and the coherence are all read off its entries;
the negative half-line carries the conjugate.
"""
from __future__ import annotations

import numpy as np
from scipy.special import gamma as gamma_fn

from .params import MfbmParams, PairKind

__all__ = [
    "spectral_coeff",
    "admissibility_matrix",
    "cross_spectral_density",
    "low_frequency_modulus",
    "coherence",
]


def spectral_coeff(params: MfbmParams, i: int, j: int, sign_omega: int) -> complex:
    """Complex coefficient of the cross-spectrum on one frequency half-line.

    Generic pairs: rho*sin(pi a/2) - i*eta*sign_omega*cos(pi a/2), a = H_i+H_j.
    Unit-sum pairs: rho - i*(pi/2)*eta*sign_omega.
    Swapping (i, j) conjugates the value.
    """
    if sign_omega not in (-1, 1):
        raise ValueError(f"sign_omega must be -1 or +1, got {sign_omega}")
    rho = params.rho[i, j]
    eta = params.eta[i, j]
    if params.pair_kind(i, j) is PairKind.UNIT_SUM:
        return complex(rho, -0.5 * np.pi * eta * sign_omega)
    half_alpha = 0.5 * np.pi * params.hurst_sum(i, j)
    return complex(rho * np.sin(half_alpha), -eta * sign_omega * np.cos(half_alpha))


def _q(params: MfbmParams, i: int, j: int) -> complex:
    # Entry (i, j) of the admissibility matrix.
    return gamma_fn(params.hurst_sum(i, j) + 1.0) * spectral_coeff(params, i, j, 1)


def admissibility_matrix(params: MfbmParams) -> np.ndarray:
    """Hermitian matrix whose positive semidefiniteness decides existence.

    Entry (i, j) is Gamma(H_i+H_j+1) times the positive-frequency spectral
    coefficient of the pair. Scales sigma do not enter. Hermitian holds
    exactly: swapping indices conjugates the coefficient bitwise.
    """
    p = params.p
    return np.array([[_q(params, i, j) for j in range(p)] for i in range(p)], dtype=complex)


def _omega_array(omega, delta: float) -> np.ndarray:
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    omega = np.asarray(omega, dtype=float)
    if np.any(omega == 0.0):
        raise ValueError("omega = 0 is outside the domain of the density")
    return omega


def cross_spectral_density(
    params: MfbmParams, i: int, j: int, omega, delta: float = 1.0
):
    """S_{i,j}(omega, delta), vectorized over omega. Rejects omega = 0.

    (sigma_i sigma_j / pi) q_ij (1 - cos omega delta) / |omega|^(a+1) for
    omega > 0, with conj(q_ij) for omega < 0. The value at 0 is a pole
    when H_i + H_j > 1 and is excluded uniformly rather than special-cased
    by branch.
    """
    omega = _omega_array(omega, delta)
    q = _q(params, i, j)
    out = (
        (params.sigma[i] * params.sigma[j] / np.pi)
        * np.where(omega > 0.0, q, q.conjugate())
        * (1.0 - np.cos(omega * delta))
        / np.abs(omega) ** (params.hurst_sum(i, j) + 1.0)
    )
    return out if out.ndim else complex(out)


def low_frequency_modulus(
    params: MfbmParams, i: int, j: int, omega, delta: float = 1.0
):
    """Leading modulus of S_{i,j} as omega -> 0, vectorized over omega.

    (sigma_i sigma_j / 2pi) |q_ij| delta^2 |omega|^(1-a).
    """
    omega = _omega_array(omega, delta)
    out = (
        (params.sigma[i] * params.sigma[j] / (2.0 * np.pi))
        * abs(_q(params, i, j))
        * delta**2
        * np.abs(omega) ** (1.0 - params.hurst_sum(i, j))
    )
    return out if out.ndim else float(out)


def coherence(params: MfbmParams, i: int, j: int) -> float:
    """Squared coherence of the increment pair (i, j), constant in omega.

    |q_ij|^2 / (q_ii q_jj). Lies in [0, 1] exactly when the pair block
    admits a valid process.
    """
    if i == j:
        raise ValueError("coherence of a component with itself is trivially 1")
    q_ii, q_jj = _q(params, i, i).real, _q(params, j, j).real
    return float(abs(_q(params, i, j)) ** 2 / (q_ii * q_jj))
