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
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "PairKind",
    "MfbmParams",
    "ValidationReport",
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


def _unit_sum(a, one_tol: float):
    """Whether Hurst sums a (a float or an array) take the unit-sum branch."""
    return abs(a - 1.0) <= one_tol


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
    if not math.isfinite(value) or (nonzero and value == 0):
        rule = "finite and nonzero" if nonzero else "finite"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def _frozen_array(values, ndim: int) -> np.ndarray:
    out = np.array(values, dtype=float)
    if out.ndim < ndim:
        out = out.reshape((1,) * (ndim - out.ndim) + out.shape)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class MfbmParams:
    """Parameter set of a p-variate fractional Brownian motion.

    Attributes
    ----------
    H : (p,) array, Hurst exponent per component, each in (0, 1).
    sigma : (p,) array, positive scale per component.
    rho : (p, p) symmetric array with unit diagonal. Entry (i, j) is the
        symmetric cross coefficient of the pair; for unit-sum pairs it is
        the rho~ coefficient.
    eta : (p, p) antisymmetric array. Entry (i, j) is the antisymmetric
        cross coefficient; for unit-sum pairs it is eta~.
    one_tol : width of the band around H_i + H_j = 1 classified as a
        unit-sum pair; a finite real number (a bool is refused).
    """

    H: np.ndarray
    sigma: np.ndarray
    rho: np.ndarray
    eta: np.ndarray
    one_tol: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "H", _frozen_array(self.H, 1))
        object.__setattr__(self, "sigma", _frozen_array(self.sigma, 1))
        object.__setattr__(self, "rho", _frozen_array(self.rho, 2))
        object.__setattr__(self, "eta", _frozen_array(self.eta, 2))
        _check_real("one_tol", self.one_tol)
        object.__setattr__(self, "one_tol", float(self.one_tol))

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
        """Classify pair (i, j); unit-sum within one_tol of H_i + H_j = 1."""
        if _unit_sum(self.hurst_sum(i, j), self.one_tol):
            return PairKind.UNIT_SUM
        return PairKind.GENERIC_SUM


@dataclass(frozen=True)
class ValidationReport:
    """Collected structural violations; empty means the set is well formed."""

    violations: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(self.violations)


def validate(params: MfbmParams) -> ValidationReport:
    """Check every structural invariant and report all violations found.

    Value checks are exact: rho must equal its transpose bitwise, eta must
    equal its negated transpose, diagonals must be exactly 1 and 0.
    """
    v: list[str] = []
    p = params.p
    H, sigma, rho, eta = params.H, params.sigma, params.rho, params.eta

    if H.ndim != 1 or p == 0:
        v.append("H must be a nonempty vector")
        return ValidationReport(tuple(v))
    for name, values in (("H", H), ("sigma", sigma), ("rho", rho), ("eta", eta)):
        if not np.all(np.isfinite(values)):
            v.append(f"every {name} entry must be finite")
    if not np.all((H > 0.0) & (H < 1.0)):
        v.append("every H_i must lie strictly inside (0, 1)")
    if sigma.shape != (p,):
        v.append(f"sigma must have shape ({p},), got {sigma.shape}")
    elif not np.all(sigma > 0.0):
        v.append("every sigma_i must be positive")
    if rho.shape != (p, p):
        v.append(f"rho must have shape ({p}, {p}), got {rho.shape}")
    else:
        if not np.array_equal(rho, rho.T):
            v.append("rho must be symmetric")
        if not np.all(np.diag(rho) == 1.0):
            v.append("rho must have unit diagonal")
        if not np.all(np.abs(rho) <= 1.0):
            v.append("every |rho_ij| must be at most 1")
    if eta.shape != (p, p):
        v.append(f"eta must have shape ({p}, {p}), got {eta.shape}")
    else:
        if not np.array_equal(eta, -eta.T):
            v.append("eta must be antisymmetric")
        if not np.all(np.diag(eta) == 0.0):
            v.append("eta must have zero diagonal")
    if not params.one_tol >= 0.0:
        v.append("one_tol must be nonnegative")
    return ValidationReport(tuple(v))


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
        "one_tol": params.one_tol,
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
    params = MfbmParams(
        H=H,
        sigma=sigma,
        rho=rho,
        eta=eta,
        one_tol=payload.get("one_tol", 1e-9),
    )
    declared = payload.get("p")
    if declared is not None:
        _check_int("p", declared)
        if declared != params.p:
            raise ValueError(f"declared p={declared} does not match len(H)={params.p}")
    return params


def load_params(path: str | Path) -> MfbmParams:
    """Read a parameter set from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return params_from_dict(json.load(fh))


def dump_params(params: MfbmParams, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(params_to_dict(params), fh, indent=2, sort_keys=True)
        fh.write("\n")
