"""Closed-form covariances of mfBm and of its increment process.

Everything here reduces to the pair structure function: the process
covariance, the stationary increment cross-covariance at any lag, the
per-lag coefficient blocks, and the power-law tail constant.
"""
from __future__ import annotations

import numpy as np

from .params import MfbmParams, PairKind

__all__ = [
    "structure_function",
    "mfbm_covariance",
    "increment_covariance",
    "lag_block_array",
    "covariance_tail_constant",
    "is_time_reversible",
]


def structure_function(params: MfbmParams, i: int, j: int, h) -> np.ndarray | float:
    """Pair structure function of (i, j) at lag h, vectorized over h.

    Generic pairs: (rho - eta*sign(h)) * |h|^(H_i+H_j).
    Unit-sum pairs: rho*|h| + eta*h*log|h|, with 0*log(0) := 0.
    """
    kind = params.pair_kind(i, j)
    h = np.asarray(h, dtype=float)
    rho = params.rho[i, j]
    eta = params.eta[i, j]
    absh = np.abs(h)
    if kind is PairKind.UNIT_SUM:
        # where() both-branch evaluation would hit log(0); mask first.
        safe = np.where(absh > 0.0, absh, 1.0)
        out = rho * absh + eta * h * np.log(safe)
    else:
        alpha = params.hurst_sum(i, j)
        out = (rho - eta * np.sign(h)) * absh**alpha
    return out if out.ndim else float(out)


def mfbm_covariance(params: MfbmParams, i: int, j: int, s, t) -> np.ndarray | float:
    """Process covariance E X_i(s) X_j(t), vectorized over (s, t).

    Both closed-form branches, and the single-component case, collapse to
    one expression in the structure function evaluated at -s, t, t - s.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    half = 0.5 * params.sigma[i] * params.sigma[j]
    out = half * (
        structure_function(params, i, j, -s)
        + structure_function(params, i, j, t)
        - structure_function(params, i, j, t - s)
    )
    return out if np.ndim(out) else float(out)


def increment_covariance(
    params: MfbmParams, i: int, j: int, h, delta: float = 1.0
) -> np.ndarray | float:
    """Stationary increment cross-covariance at lag h and step delta.

    Covariance of the step of component i at time t with the step of
    component j at time t + h; positive h means component j lags behind.
    Equals a centered second difference of the structure function.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    h = np.asarray(h, dtype=float)
    w = lambda x: structure_function(params, i, j, x)
    half = 0.5 * params.sigma[i] * params.sigma[j]
    out = half * (w(h - delta) - 2.0 * w(h) + w(h + delta))
    return out if np.ndim(out) else float(out)


def lag_block_array(params: MfbmParams, hs, delta: float = 1.0) -> np.ndarray:
    """Stacked increment covariance blocks, shape (len(hs), p, p).

    Entry [k, i, j] pairs the step of component i with that of component
    j at lag hs[k]; a single lag h is lag_block_array(params, [h])[0].
    """
    hs = np.asarray(hs, dtype=float)
    p = params.p
    out = np.empty((hs.shape[0], p, p))
    for i in range(p):
        for j in range(p):
            out[:, i, j] = increment_covariance(params, i, j, hs, delta)
    return out


def covariance_tail_constant(params: MfbmParams, i: int, j: int, sign_h: int) -> float:
    """Constant kappa in the tail law gamma(h, delta) ~ sigma_i sigma_j
    delta^2 |h|^(H_i+H_j-2) kappa as |h| grows.

    Generic pairs: (rho - eta*sign_h) * a * (a - 1) / 2 with a = H_i + H_j.
    Unit-sum pairs: eta * sign_h / 2.
    The factor 1/2 comes from the 1/2 in front of the second difference;
    without it the tail ratio settles at 2, not 1.
    """
    if sign_h not in (-1, 1):
        raise ValueError(f"sign_h must be -1 or +1, got {sign_h}")
    kind = params.pair_kind(i, j)
    if kind is PairKind.UNIT_SUM:
        return float(0.5 * params.eta[i, j] * sign_h)
    alpha = params.hurst_sum(i, j)
    return float(
        0.5 * (params.rho[i, j] - params.eta[i, j] * sign_h) * alpha * (alpha - 1.0)
    )


def is_time_reversible(params: MfbmParams) -> bool:
    """True iff the law of the process is invariant under time reversal.

    Holds exactly when every antisymmetric coefficient vanishes; tested
    as exact zero on the stored values.
    """
    return bool(np.all(params.eta == 0.0))
