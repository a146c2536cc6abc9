"""Covariance-level parameterization of multivariate fractional Brownian motion.

A p-variate fBm is described by Hurst exponents H, component scales sigma,
and per-pair coefficient matrices (rho, eta). Pairs whose Hurst exponents
sum to one use the alternative coefficient pair, conventionally written
(rho~, eta~); both conventions are stored in the same matrices and are
told apart by the pair kind.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "PairKind",
    "MfbmParams",
    "validate",
    "eta_prime",
    "eta_from_prime",
    "load_params",
    "dump_params",
    "params_from_dict",
    "params_to_dict",
]


class PairKind(Enum):
    """Covariance branch selector for a component pair."""

    GENERIC_SUM = "generic_sum"
    UNIT_SUM = "unit_sum"


# Half-width of the band around H_i + H_j = 1 whose pairs take the unit-sum
# (logarithmic) branch; it only absorbs float round-off in the sum.
UNIT_SUM_TOL = 1e-9


def _unit_sum(a):
    """Whether Hurst sums a (a float or an array) take the unit-sum branch."""
    return abs(a - 1.0) <= UNIT_SUM_TOL


def _check_int(name: str, value, low: int = 1) -> None:
    """Refuse value, naming the field, unless it is an integer (numpy's
    included, a bool not) of at least low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        rule = "a positive integer" if low == 1 else f"an integer of at least {low}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def _check_real(name: str, value, nonzero: bool = False) -> None:
    """Refuse value, naming the field, unless it is a finite real number
    (numpy's included, a bool not), and a nonzero one when asked."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None
    if not finite or (nonzero and value == 0):
        rule = "finite and nonzero" if nonzero else "finite"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def _check_step(delta) -> None:
    """Refuse an increment step delta unless it is positive and finite."""
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")


def _check_declared_p(payload: dict, p: int, counted: str) -> None:
    """Refuse the p a JSON payload declares, when it has one, unless it is
    an integer equal to p; null is refused like any non-integer. counted
    names what p counts, for the message."""
    if "p" in payload:
        declared = payload["p"]
        _check_int("p", declared)
        if declared != p:
            raise ValueError(f"declared p={declared} does not match {counted}={p}")


def _frozen_array(name: str, values, ndim: int) -> np.ndarray:
    try:
        out = np.array(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{name} holds a number too large for a float") from None
    if out.ndim < ndim:
        out = out.reshape((1,) * (ndim - out.ndim) + out.shape)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class MfbmParams:
    """Parameter set of a p-variate fractional Brownian motion.

    Valid by construction: building one, dataclasses.replace included,
    runs :func:`validate`, so a malformed set raises ValueError and never
    exists.

    Attributes
    ----------
    H : (p,) array, Hurst exponent per component, each in (0, 1).
    sigma : (p,) array, positive scale per component.
    rho : (p, p) symmetric array with unit diagonal. Entry (i, j) is the
        symmetric cross coefficient of the pair; for unit-sum pairs it is
        the rho~ coefficient.
    eta : (p, p) antisymmetric array. Entry (i, j) is the antisymmetric
        cross coefficient; for unit-sum pairs it is eta~.
    """

    H: np.ndarray
    sigma: np.ndarray
    rho: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        for name, ndim in (("H", 1), ("sigma", 1), ("rho", 2), ("eta", 2)):
            object.__setattr__(self, name, _frozen_array(name, getattr(self, name), ndim))
        validate(self)

    @property
    def p(self) -> int:
        return int(self.H.shape[0])

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.p:
            raise IndexError(f"component index {i} out of range for p={self.p}")

    def hurst_sum(self, i: int, j: int) -> float:
        self._check_index(i)
        self._check_index(j)
        return float(self.H[i] + self.H[j])

    def pair_kind(self, i: int, j: int) -> PairKind:
        """Classify pair (i, j); unit-sum within UNIT_SUM_TOL of H_i + H_j = 1."""
        if _unit_sum(self.hurst_sum(i, j)):
            return PairKind.UNIT_SUM
        return PairKind.GENERIC_SUM


def validate(params: MfbmParams) -> None:
    """Check every structural invariant; raise one ValueError, "invalid
    parameters: " and every violation found, '; '-joined, if any fails.

    MfbmParams runs it on construction. Value checks are exact: rho must
    equal its transpose bitwise, eta must equal its negated transpose,
    diagonals must be exactly 1 and 0.
    """
    v: list[str] = []
    p = params.p
    H, sigma, rho, eta = params.H, params.sigma, params.rho, params.eta

    if H.ndim != 1 or p == 0:
        raise ValueError("invalid parameters: H must be a nonempty vector")
    for name, values in (("H", H), ("sigma", sigma), ("rho", rho), ("eta", eta)):
        if not np.isfinite(values).all():
            v.append(f"every {name} entry must be finite")
    if not ((H > 0.0) & (H < 1.0)).all():
        v.append(f"every H_i must lie inside (0, 1); H = {H.tolist()} has one outside")
    if sigma.shape != (p,):
        v.append(f"sigma must have shape ({p},), got {sigma.shape}")
    elif not (sigma > 0.0).all():
        v.append("every sigma_i must be positive")
    if rho.shape != (p, p):
        v.append(f"rho must have shape ({p}, {p}), got {rho.shape}")
    else:
        if not (rho == rho.T).all():
            v.append("rho must be symmetric")
        if not (rho.diagonal() == 1.0).all():
            v.append("rho must have unit diagonal")
        if not (np.abs(rho) <= 1.0).all():
            v.append("every |rho_ij| must be at most 1")
    if eta.shape != (p, p):
        v.append(f"eta must have shape ({p}, {p}), got {eta.shape}")
    else:
        if not (eta == -eta.T).all():
            v.append("eta must be antisymmetric")
        if not (eta.diagonal() == 0.0).all():
            v.append("eta must have zero diagonal")
    if v:
        raise ValueError("invalid parameters: " + "; ".join(v))


def eta_prime(params: MfbmParams, i: int, j: int) -> float:
    """Reparameterized antisymmetric coefficient (1 - H_i - H_j) * eta_ij.

    Defined for generic-sum pairs only; it removes the apparent divergence
    of eta as the Hurst sum approaches 1 and matches eta~ in that limit.
    """
    if params.pair_kind(i, j) is PairKind.UNIT_SUM:
        raise ValueError(
            "pair (%d, %d) is unit-sum; its eta entry is already eta~" % (i, j)
        )
    return float((1.0 - params.hurst_sum(i, j)) * params.eta[i, j])


def eta_from_prime(params: MfbmParams, i: int, j: int, value: float) -> float:
    """Inverse of :func:`eta_prime` at the same pair."""
    if params.pair_kind(i, j) is PairKind.UNIT_SUM:
        raise ValueError(
            "pair (%d, %d) is unit-sum; eta~ needs no reparameterization" % (i, j)
        )
    return float(value / (1.0 - params.hurst_sum(i, j)))


def params_to_dict(params: MfbmParams) -> dict:
    return {
        "p": params.p,
        "H": params.H.tolist(),
        "sigma": params.sigma.tolist(),
        "rho": params.rho.tolist(),
        "eta": params.eta.tolist(),
    }


def params_from_dict(payload: dict) -> MfbmParams:
    if not isinstance(payload, dict):
        raise ValueError("a parameter file must hold one JSON object")
    extra = set(payload) - {"p", "H", "sigma", "rho", "eta", "one_tol"}
    if extra:
        raise ValueError(f"unknown parameter file keys {sorted(extra)}")
    try:
        H = payload["H"]
        sigma = payload["sigma"]
        rho = payload["rho"]
        eta = payload["eta"]
    except KeyError as missing:
        raise ValueError(f"parameter file is missing key {missing}") from None
    # files written while the band was a setting carry it; another value
    # would move a pair to the other branch without a word
    if "one_tol" in payload:
        _check_real("one_tol", payload["one_tol"])
        if payload["one_tol"] != UNIT_SUM_TOL:
            raise ValueError(f"one_tol must be {UNIT_SUM_TOL!r}, got {payload['one_tol']!r}")
    params = MfbmParams(H=H, sigma=sigma, rho=rho, eta=eta)
    _check_declared_p(payload, params.p, "len(H)")
    return params


def _load_json(path: str | Path):
    """The JSON document in the file at path, which a ValueError names if malformed."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from None


def load_params(path: str | Path) -> MfbmParams:
    """Read a parameter set from a JSON file."""
    return params_from_dict(_load_json(path))


def dump_params(params: MfbmParams, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(params_to_dict(params), fh, indent=2, sort_keys=True)
        fh.write("\n")
