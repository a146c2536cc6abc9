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
# increment_covariance is unused here; the benchmark tracer wraps it by this name
from .covariance import increment_covariance, lag_block_array  # noqa: F401
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
Z_THRESH = 4.0


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
    """frac_exceeding counts the cells whose |z| is beyond Z_THRESH or not finite."""

    n_cells: int
    max_abs_z: float
    frac_exceeding: float

    @property
    def ok(self) -> bool:
        return self.frac_exceeding <= 0.005

    def __str__(self) -> str:
        return (
            f"{self.n_cells} cells, max |z| = {self.max_abs_z:.2f}, "
            f"fraction beyond {Z_THRESH:g} = {self.frac_exceeding:.4f}"
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


def _checked_lags(lags: Sequence, n: int) -> list[int]:
    """The lags as ints; a lag that is not an integer, or whose size is not
    below the path length n, is refused."""
    for h in lags:
        if not float(h).is_integer():
            raise ValueError(f"lag {h!r} must be an integer")
        if abs(h) >= n:
            raise ValueError(f"|h|={abs(h)} must be smaller than the path length {n}")
    return [int(h) for h in lags]


def _check_components(p: int, params: MfbmParams) -> None:
    if p != params.p:
        raise ValueError(f"the ensemble has {p} components, the parameters p = {params.p}")


def _lag_sums(values: np.ndarray, lags: Sequence) -> np.ndarray:
    """Per-replicate lag products of an (R, n, p) ensemble, shape (R, L, p, p);
    entry [r, k, i, j] is the average of values[r, t, i] * values[r, t + h, j]
    over the n - |h| overlapping t, for the integer lag h = lags[k].

    One pass walks the time axis in chunks of _CHUNK_ROWS rows, across all
    replicates, and adds every lag's batched matmul of two slice views of
    the chunk into one (R, L, p, p) accumulator: the ensemble is read once
    for all lags and none of it is copied. Replicate r's entries depend on
    values[r] alone, so sums of a few replicates at a time, stacked, are
    bitwise the sums of them all.
    """
    if values.ndim != 3:
        raise ValueError("values must have shape (replicates, n, p)")
    r_count, n, p = values.shape
    lags = _checked_lags(lags, n)
    sums = np.zeros((r_count, len(lags), p, p))
    tmp = np.empty((r_count, p, p))
    for t0 in range(0, n, _CHUNK_ROWS):
        for k, h in enumerate(lags):
            shift = abs(h)
            stop = min(t0 + _CHUNK_ROWS, n - shift)
            if stop <= t0:
                continue
            lead, lag = values[:, t0:stop], values[:, t0 + shift : stop + shift]
            if h < 0:
                lead, lag = lag, lead
            sums[:, k] += np.matmul(lead.transpose(0, 2, 1), lag, out=tmp)
    sums /= (n - np.abs(lags))[:, None, None]
    return sums


def _moments(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Estimates and replicate stderrs, two (L, p, p) arrays, of stacked
    per-replicate lag sums; fewer than MIN_REPLICATES replicates are refused."""
    if len(sums) < MIN_REPLICATES:
        raise ValueError(f"need at least {MIN_REPLICATES} replicates, got {len(sums)}")
    return replicate_mean_stderr(sums)


def empirical_cross_cov(
    values: np.ndarray, i: int, j: int, h: int
) -> tuple[float, float]:
    """Mean-free lag-h cross-covariance estimate with replicate stderr.

    Positive h pairs component i at t with component j at t + h. The
    per-replicate statistic averages the n - |h| overlapping products;
    no sample mean is subtracted. It is entry [0, i, j] of the moments
    of the one lag h, equal to compare_report's (i, j, h) cell exactly.
    """
    estimates, stderrs = _moments(_lag_sums(np.asarray(values), [h]))
    p = estimates.shape[1]
    for k in (i, j):
        if not 0 <= k < p:
            raise IndexError(f"component index {k} out of range for p={p}")
    return float(estimates[0, i, j]), float(stderrs[0, i, j])


def compare_report(
    values: np.ndarray,
    params: MfbmParams,
    lags: Sequence[int],
    delta: float = 1.0,
) -> tuple[list[CovComparison], ReportSummary]:
    """All-pairs comparison of an ensemble against the closed form.

    One cell per (lag, i, j), lags in the given order. The estimates of
    every lag come from one pass over the ensemble's time axis, in
    chunks that each lag reads while they sit in cache; the targets of
    every lag from one lag_block_array call. A cell whose stderr is 0
    gets an infinite or NaN z and fails. delta only rescales the
    theoretical target; the ensemble is assumed simulated at unit step.
    """
    values = np.asarray(values)
    if values.ndim == 3:
        _check_components(values.shape[2], params)
    lags = list(lags)
    return _report(_lag_sums(values, lags), params, lags, delta)


def _report(
    sums: np.ndarray, params: MfbmParams, lags: list, delta: float
) -> tuple[list[CovComparison], ReportSummary]:
    """compare_report's cells and summary from the stacked (R, L, p, p)
    per-replicate lag sums of the checked lags (see _lag_sums)."""
    estimates, stderrs = _moments(sums)
    targets = lag_block_array(params, lags, delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (estimates - targets) / stderrs
    cells = [
        CovComparison(
            i, j, float(lags[k]), delta, float(estimates[k, i, j]), float(targets[k, i, j]),
            float(stderrs[k, i, j]), float(z[k, i, j]), len(sums),
        )
        for k, i, j in np.ndindex(z.shape)
    ]
    abs_z = np.abs(z)
    summary = ReportSummary(
        n_cells=z.size,
        max_abs_z=float(abs_z.max(initial=0.0)),
        # a NaN z fails its cell: it is not at most the threshold
        frac_exceeding=float(np.count_nonzero(~(abs_z <= Z_THRESH)) / max(z.size, 1)),
    )
    return cells, summary
