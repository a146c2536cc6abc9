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
from typing import Iterable, Sequence

import numpy as np

from .circulant import SamplePath
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


def ensemble_from_paths(paths: Iterable[SamplePath]) -> np.ndarray:
    """Stack replicates into (R, n, p) of increments.

    Integrated paths (leading zero row, flagged in meta) are differenced
    back to increments so downstream estimators see one representation.
    Paths that are rows 0..R-1, in order, of one read-only (R, rows, p)
    array, as simulate returns them, come back as that array itself, not
    a copy (integrated ones as one diff of it); any other list is stacked.
    """
    paths = list(paths)
    base = _shared_ensemble(paths) if paths else None
    if base is not None:
        return np.diff(base, axis=1) if paths[0].meta.get("integrate") else base
    arrays = [
        np.diff(path.values, axis=0) if path.meta.get("integrate") else path.values
        for path in paths
    ]
    if not arrays:
        raise ValueError("empty ensemble")
    out = np.stack(arrays)
    if out.ndim != 3:
        raise ValueError("paths must be matrices of equal shape")
    return out


def _shared_ensemble(paths: list[SamplePath]) -> np.ndarray | None:
    """The read-only (R, rows, p) array whose rows 0..R-1 are the paths'
    values, in order and with one integrate flag; else None."""
    base = paths[0].values.base
    if not (isinstance(base, np.ndarray) and base.ndim == 3
            and len(base) == len(paths) and not base.flags.writeable):
        return None
    flag = paths[0].meta.get("integrate")
    for row, path in zip(base, paths):
        values = path.values
        if (values.base is not base or path.meta.get("integrate") != flag
                or values.__array_interface__ != row.__array_interface__):
            return None
    return base


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


def _lag_estimates(values: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Lag-h estimates and replicate stderrs of all pairs, each (p, p).

    Replicate r contributes the average of values[r, t, i] * values[r, t + h, j]
    over the n - |h| overlapping t. One batched matmul of two slice views
    forms these for every (r, i, j), reading the ensemble once and copying
    none of it.
    """
    if values.ndim != 3:
        raise ValueError("values must have shape (replicates, n, p)")
    r_count, n, _ = values.shape
    if r_count < MIN_REPLICATES:
        raise ValueError(f"need at least {MIN_REPLICATES} replicates, got {r_count}")
    h = int(h)
    if abs(h) >= n:
        raise ValueError(f"|h|={abs(h)} must be smaller than the path length {n}")
    if h >= 0:
        lead, lag = values[:, : n - h], values[:, h:]
    else:
        lead, lag = values[:, -h :], values[:, : n + h]
    return replicate_mean_stderr(
        np.matmul(lead.transpose(0, 2, 1), lag) / (n - abs(h))
    )


def empirical_cross_cov(
    values: np.ndarray, i: int, j: int, h: int
) -> tuple[float, float]:
    """Mean-free lag-h cross-covariance estimate with replicate stderr.

    Positive h pairs component i at t with component j at t + h. The
    per-replicate statistic averages the n - |h| overlapping products;
    no sample mean is subtracted.
    """
    estimates, stderrs = _lag_estimates(np.asarray(values), h)
    return float(estimates[i, j]), float(stderrs[i, j])


def compare_report(
    values: np.ndarray,
    params: MfbmParams,
    lags: Sequence[int],
    delta: float = 1.0,
    z_thresh: float = 4.0,
) -> tuple[list[CovComparison], ReportSummary]:
    """All-pairs comparison of an ensemble against the closed form.

    delta only rescales the theoretical target; the ensemble is assumed
    simulated at unit step.
    """
    values = np.asarray(values)
    cells: list[CovComparison] = []
    for h in lags:
        estimates, stderrs = _lag_estimates(values, h)
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
