"""Closed-form covariances of mfBm and of its increment process.

One pair rule, ``_structure``, gives the structure function of many pairs
at once from pair arrays (a = H_i + H_j, rho, eta, ``params._unit_sum``).
Covariances, lag blocks and tail constants read it, for one pair or all.
"""
from __future__ import annotations

import numpy as np

from .params import MfbmParams, _check_step, _unit_sum

__all__ = [
    "structure_function",
    "mfbm_covariance",
    "increment_covariance",
    "lag_block_array",
    "covariance_tail_constant",
    "is_time_reversible",
]

# Lags per pass of _blocks: 1.6 MB a temporary at p = 5, so a pass stays in
# cache. Rows this long also keep numpy's power loop on its per-row fast path
# (sqrt at a = 1/2), as for one pair; shorter grids may take pow, an ulp away.
_CHUNK = 8192


def _pairs(params: MfbmParams, i, j):
    """a = H_i + H_j, rho, eta and the unit-sum flags at the pairs (i, j)."""
    a = params.H[i] + params.H[j]
    return a, params.rho[i, j], params.eta[i, j], _unit_sum(a)


def _structure(params: MfbmParams, i, j, h: np.ndarray) -> np.ndarray:
    """Structure function of the pairs (i[k], j[k]) at the 1-D lags h, shape
    (len(i), len(h)); each branch is evaluated on its own pairs only."""
    a, rho, eta, unit = _pairs(params, i, j)
    absh, g = np.abs(h), ~unit
    out = np.empty((len(a), len(h)))
    out[g] = (rho[g, None] - eta[g, None] * np.sign(h)) * absh ** a[g, None]
    if unit.any():
        # where() both-branch evaluation would hit log(0); mask first.
        safe = np.where(absh > 0.0, absh, 1.0)
        out[unit] = rho[unit, None] * absh + eta[unit, None] * h * np.log(safe)
    return out


def _increments(params: MfbmParams, i, j, h: np.ndarray, delta) -> np.ndarray:
    """Increment covariance of the pairs (i[k], j[k]) at 1-D lags h, steps delta."""
    w = lambda x: _structure(params, i, j, x)
    half = (0.5 * params.sigma[i] * params.sigma[j])[:, None]
    return half * (w(h - delta) - 2.0 * w(h) + w(h + delta))


def _on_pair(rule, params: MfbmParams, i: int, j: int, h, *args):
    """rule of the one pair (i, j) at h of any shape; a float for a scalar h."""
    params.hurst_sum(i, j)  # IndexError on an out-of-range component
    h = np.asarray(h, dtype=float)
    out = rule(params, [i], [j], h.ravel(), *args)[0].reshape(h.shape)
    return out if out.ndim else float(out)


def _blocks(rule, params: MfbmParams, *arrays) -> np.ndarray:
    """rule of all p*p pairs over 1-D arrays of one length n, as (n, p, p) blocks."""
    p, n = params.p, len(arrays[0])
    i, j = np.divmod(np.arange(p * p), p)
    out = np.empty((n, p, p))
    for part in np.array_split(np.arange(n), max(1, n // _CHUNK)):
        rows = rule(params, i, j, *(x[part] for x in arrays))
        out[part] = rows.reshape(p, p, len(part)).transpose(2, 0, 1)
    return out


def structure_function(params: MfbmParams, i: int, j: int, h) -> np.ndarray | float:
    """Pair structure function of (i, j) at lag h, vectorized over h.

    Generic pairs: (rho - eta*sign(h)) * |h|^(H_i+H_j).
    Unit-sum pairs: rho*|h| + eta*h*log|h|, with 0*log(0) := 0.
    """
    return _on_pair(_structure, params, i, j, h)


def mfbm_covariance(params: MfbmParams, i: int, j: int, s, t) -> np.ndarray | float:
    """Process covariance E X_i(s) X_j(t), vectorized over (s, t).

    Both closed-form branches, and the single-component case, collapse to
    one expression in the structure function evaluated at -s, t, t - s.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    w = lambda x: structure_function(params, i, j, x)
    out = 0.5 * params.sigma[i] * params.sigma[j] * (w(-s) + w(t) - w(t - s))
    return out if np.ndim(out) else float(out)


def increment_covariance(
    params: MfbmParams, i: int, j: int, h, delta: float = 1.0
) -> np.ndarray | float:
    """Stationary increment cross-covariance at lag h and step delta.

    Covariance of the step of component i at time t with the step of
    component j at time t + h; positive h means component j lags behind.
    Equals a centered second difference of the structure function.
    """
    _check_step(delta)
    return _on_pair(_increments, params, i, j, h, delta)


def lag_block_array(params: MfbmParams, hs, delta: float = 1.0) -> np.ndarray:
    """Stacked increment covariance blocks, shape (len(hs), p, p).

    Entry [k, i, j] pairs the step of component i with that of component
    j at lag hs[k]; a single lag h is lag_block_array(params, [h])[0].
    """
    _check_step(delta)
    hs = np.asarray(hs, dtype=float)
    return _blocks(_increments, params, hs, np.full(hs.shape, float(delta)))


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
    params.hurst_sum(i, j)  # IndexError on an out-of-range component
    a, rho, eta, unit = _pairs(params, i, j)
    generic = 0.5 * (rho - eta * sign_h) * a * (a - 1.0)
    return float(np.where(unit, 0.5 * eta * sign_h, generic))


def is_time_reversible(params: MfbmParams) -> bool:
    """True iff the law of the process is invariant under time reversal.

    Holds exactly when every antisymmetric coefficient vanishes; tested
    as exact zero on the stored values.
    """
    return bool(np.all(params.eta == 0.0))
