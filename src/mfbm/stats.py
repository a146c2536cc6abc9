"""Second-order Monte Carlo verification of simulated ensembles.

Cross-covariance estimates are averaged per replicate and then across
replicates. Long memory ruins within-path error rates, so uncertainty
comes from the spread across independent replicates, which keeps the
1/sqrt(R) law regardless of the dependence range. Increments have zero
mean by construction, so the estimator subtracts no sample mean; at the
short path lengths used for verification a subtracted mean would bias
every lag by the (slowly decaying) sum of cross-covariances.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circulant import Ensemble
from .covariance import increment_covariance
from .params import MfbmParams

__all__ = [
    "CovComparison",
    "ReportSummary",
    "ensemble_from_paths",
    "replicate_mean_stderr",
    "empirical_cross_cov",
    "compare_report",
]

MIN_REPLICATES = 30


@dataclass(frozen=True)
class CovComparison:
    """One (pair, lag) cell: estimate against its theoretical target."""

    i: int
    j: int
    h: float
    delta: float
    empirical: float
    theoretical: float
    stderr: float
    z: float
    n_replicates: int


@dataclass(frozen=True)
class ReportSummary:
    n_cells: int
    max_abs_z: float
    frac_exceeding: float
    z_thresh: float

    @property
    def ok(self) -> bool:
        return self.frac_exceeding <= 0.005

    def __str__(self) -> str:
        return (
            f"{self.n_cells} cells, max |z| = {self.max_abs_z:.2f}, "
            f"fraction beyond {self.z_thresh:g} = {self.frac_exceeding:.4f}"
        )


def ensemble_from_paths(ensemble: Ensemble) -> np.ndarray:
    """The (R, n, p) increments of an Ensemble: its read-only values array
    itself, uncopied. Anything else is refused with a TypeError."""
    if not isinstance(ensemble, Ensemble):
        raise TypeError(f"expected an Ensemble, got {type(ensemble).__name__}")
    return ensemble.values


def replicate_mean_stderr(values) -> tuple[np.ndarray, np.ndarray]:
    """Mean over replicates (axis 0) and its standard error.

    The standard error is the sample standard deviation (ddof=1) over
    sqrt(R). A single replicate shows no spread, so its error is 0.
    """
    values = np.asarray(values)
    r_count = values.shape[0]
    mean = values.mean(axis=0)
    if r_count == 1:
        return mean, np.zeros_like(mean)
    return mean, values.std(axis=0, ddof=1) / np.sqrt(r_count)


# Time rows per chunk of the lag-product pass: a few MB across all
# replicates, so every lag reads a chunk while it is still in cache.
_CHUNK_ROWS = 2048


def _lag_moments(
    values: np.ndarray, lags: Sequence[int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Lag-h estimates and replicate stderrs of all pairs, (p, p) each, per lag.

    Replicate r contributes the average of values[r, t, i] * values[r, t + h, j]
    over the n - |h| overlapping t. One pass walks the time axis in chunks
    of _CHUNK_ROWS rows, across all replicates, and adds every lag's
    batched matmul of two slice views of the chunk into one accumulator:
    the ensemble is read once for all lags and none of it is copied.
    """
    lags = [int(h) for h in lags]
    if not lags:
        return []
    if values.ndim != 3:
        raise ValueError("values must have shape (replicates, n, p)")
    r_count, n, p = values.shape
    if r_count < MIN_REPLICATES:
        raise ValueError(f"need at least {MIN_REPLICATES} replicates, got {r_count}")
    for h in lags:
        if abs(h) >= n:
            raise ValueError(f"|h|={abs(h)} must be smaller than the path length {n}")
    sums = np.zeros((len(lags), r_count, p, p))
    tmp = np.empty((r_count, p, p))
    for t0 in range(0, n, _CHUNK_ROWS):
        for acc, h in zip(sums, lags):
            shift = abs(h)
            stop = min(t0 + _CHUNK_ROWS, n - shift)
            if stop <= t0:
                continue
            lead, lag = values[:, t0:stop], values[:, t0 + shift : stop + shift]
            if h < 0:
                lead, lag = lag, lead
            acc += np.matmul(lead.transpose(0, 2, 1), lag, out=tmp)
    return [replicate_mean_stderr(acc / (n - abs(h))) for acc, h in zip(sums, lags)]


def empirical_cross_cov(
    values: np.ndarray, i: int, j: int, h: int
) -> tuple[float, float]:
    """Mean-free lag-h cross-covariance estimate with replicate stderr.

    Positive h pairs component i at t with component j at t + h. The
    per-replicate statistic averages the n - |h| overlapping products;
    no sample mean is subtracted. It is the (i, j) entry of the lag-h
    cell block compare_report forms, and equal to it exactly.
    """
    [(estimates, stderrs)] = _lag_moments(np.asarray(values), [h])
    return float(estimates[i, j]), float(stderrs[i, j])


def compare_report(
    values: np.ndarray,
    params: MfbmParams,
    lags: Sequence[int],
    delta: float = 1.0,
    z_thresh: float = 4.0,
) -> tuple[list[CovComparison], ReportSummary]:
    """All-pairs comparison of an ensemble against the closed form.

    One cell per (lag, i, j), lags in the given order. The estimates of
    every lag come from one pass over the ensemble's time axis, in
    chunks that each lag reads while they sit in cache. delta only
    rescales the theoretical target; the ensemble is assumed simulated
    at unit step.
    """
    values = np.asarray(values)
    lags = list(lags)
    cells: list[CovComparison] = []
    for h, (estimates, stderrs) in zip(lags, _lag_moments(values, lags)):
        r_count, p = values.shape[0], values.shape[2]
        for i in range(p):
            for j in range(p):
                est, se = float(estimates[i, j]), float(stderrs[i, j])
                target = float(increment_covariance(params, i, j, float(h), delta))
                z = (est - target) / se
                cells.append(
                    CovComparison(
                        i=i,
                        j=j,
                        h=float(h),
                        delta=delta,
                        empirical=est,
                        theoretical=target,
                        stderr=se,
                        z=float(z),
                        n_replicates=r_count,
                    )
                )
    if cells:
        zs = np.array([abs(c.z) for c in cells])
        summary = ReportSummary(
            n_cells=len(cells),
            max_abs_z=float(zs.max()),
            frac_exceeding=float(np.mean(zs > z_thresh)),
            z_thresh=z_thresh,
        )
    else:
        summary = ReportSummary(
            n_cells=0, max_abs_z=0.0, frac_exceeding=0.0, z_thresh=z_thresh
        )
    return cells, summary
