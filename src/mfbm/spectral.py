"""Cross-spectral densities of mfBm increments.

Fourier convention: S(omega) = (1/2pi) Integral e^{-i h omega} gamma(h) dh.
The increment spectrum factorizes into a real power-law envelope and a
frequency-sign-dependent complex coefficient, so coherence between two
components is constant in frequency.

One Hermitian matrix carries the spectral convention: entry (i, j) of
:func:`admissibility_matrix` is q_ij = Gamma(a+1) (rho_ij s - i eta_ij t),
a = H_i + H_j, with the pair weights (s, t) written once, in
``_pair_weights``. The density, the low-frequency modulus and the
coherence are read off it; the negative half-line carries the conjugate.
"""
from __future__ import annotations

import math

import numpy as np

from .params import MfbmParams, _check_step, _unit_sum

__all__ = [
    "spectral_coeff",
    "admissibility_matrix",
    "cross_spectral_density",
    "low_frequency_modulus",
    "coherence",
]


def _gamma(x):
    """Gamma function of real arguments away from its poles, elementwise.

    Built on math.gamma, so the package needs no scipy: on (0.5, 3), the
    range of every argument here, it agrees with scipy.special.gamma to
    about 1e-15 relative. A 0-d input returns a float; an array keeps its
    shape.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return math.gamma(float(x))
    return np.fromiter(map(math.gamma, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _pair_weights(H):
    """p x p arrays (a, s, t): a = H_i + H_j, and the pair's positive-frequency
    coefficient is rho s - i eta t with (s, t) = (sin(pi a/2), cos(pi a/2))
    for a generic pair, (1, pi/2) for a unit-sum pair, |a - 1| <= UNIT_SUM_TOL.
    """
    a = H[:, None] + H
    half_alpha = 0.5 * np.pi * a
    unit = _unit_sum(a)
    s, t = np.sin(half_alpha), np.cos(half_alpha)
    np.copyto(s, 1.0, where=unit)
    np.copyto(t, 0.5 * np.pi, where=unit)
    return a, s, t


def spectral_coeff(params: MfbmParams, i: int, j: int, sign_omega: int) -> complex:
    """Complex coefficient of the cross-spectrum on one frequency half-line.

    Generic pairs: rho*sin(pi a/2) - i*eta*sign_omega*cos(pi a/2), a = H_i+H_j.
    Unit-sum pairs: rho - i*(pi/2)*eta*sign_omega.
    Swapping (i, j) conjugates the value.
    """
    if sign_omega not in (-1, 1):
        raise ValueError(f"sign_omega must be -1 or +1, got {sign_omega}")
    params.hurst_sum(i, j)  # IndexError on an out-of-range component
    _, s, t = _pair_weights(params.H)
    return complex(params.rho[i, j] * s[i, j], -params.eta[i, j] * sign_omega * t[i, j])


def admissibility_matrix(params: MfbmParams) -> np.ndarray:
    """Hermitian matrix whose positive semidefiniteness decides existence.

    Entry (i, j) is Gamma(H_i+H_j+1) times the positive-frequency spectral
    coefficient of the pair. Scales sigma do not enter. Hermitian holds
    exactly: every factor is symmetric and eta antisymmetric.
    """
    a, s, t = _pair_weights(params.H)
    coeff = (params.rho * s).astype(complex)
    coeff.imag = -params.eta * t
    return _gamma(a + 1.0) * coeff


def _omega_array(omega, delta: float) -> np.ndarray:
    _check_step(delta)
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
    params.hurst_sum(i, j)  # IndexError on an out-of-range component
    out = _density(params, admissibility_matrix(params), i, j, omega, delta)
    return out if out.ndim else complex(out)


def _density(params: MfbmParams, q: np.ndarray, i, j, omega, delta):
    """S_{i,j} on a checked omega array, read off a built admissibility matrix q;
    for index arrays (i, j) and a 1-D omega, the pair axes first, omega last."""
    col = lambda x: x[..., None] if np.ndim(x) else x
    return (
        col(params.sigma[i] * params.sigma[j] / np.pi)
        * np.where(omega > 0.0, col(q[i, j]), col(q[i, j].conjugate()))
        * (2.0 * np.sin(0.5 * omega * delta) ** 2)  # 1 - cos without the cancellation
        / np.abs(omega) ** col(params.H[i] + params.H[j] + 1.0)
    )


def low_frequency_modulus(
    params: MfbmParams, i: int, j: int, omega, delta: float = 1.0
):
    """Leading modulus of S_{i,j} as omega -> 0, vectorized over omega.

    (sigma_i sigma_j / 2pi) |q_ij| delta^2 |omega|^(1-a).
    """
    omega = _omega_array(omega, delta)
    a = params.hurst_sum(i, j)
    out = (
        (params.sigma[i] * params.sigma[j] / (2.0 * np.pi))
        * abs(admissibility_matrix(params)[i, j])
        * delta**2
        * np.abs(omega) ** (1.0 - a)
    )
    return out if out.ndim else float(out)


def coherence(params: MfbmParams, i: int, j: int) -> float:
    """Squared coherence of the increment pair (i, j), constant in omega.

    |q_ij|^2 / (q_ii q_jj). Lies in [0, 1] exactly when the pair block
    admits a valid process.
    """
    if i == j:
        raise ValueError("coherence of a component with itself is trivially 1")
    params.hurst_sum(i, j)  # IndexError on an out-of-range component
    return float(_coherence(admissibility_matrix(params))[i, j])


def _coherence(q: np.ndarray) -> np.ndarray:
    """|q_ij|^2 / (q_ii q_jj) of every pair; 1 on the diagonal, where q is real.
    hypot rounds as the scalar abs() does; numpy's complex abs of an array
    can differ from it by an ulp."""
    d = q.diagonal().real
    return np.hypot(q.real, q.imag) ** 2 / np.outer(d, d)
