"""The one-pass lag products behind compare_report and empirical_cross_cov."""
import hashlib
import tracemalloc

import numpy as np
import pytest

from mfbm import MfbmParams, compare_report, empirical_cross_cov, stats
from mfbm.covariance import increment_covariance, lag_block_array
from conftest import make_params
from test_stats import direct_lag_moments, iid_ensemble


def test_lag_moments_agree_across_chunk_boundaries(monkeypatch):
    # chunks of 3 rows split every lag's window at several places,
    # with a repeated lag and the lags out of order
    p, n = 3, 17
    values = iid_ensemble(reps=30, n=n, p=p, seed=11) + 0.5
    lags = [0, 1, 5, 5, -1, -7, 16, -16]
    params = make_params([0.3, 0.7, 0.5])
    monkeypatch.setattr(stats, "_CHUNK_ROWS", n)
    whole, _ = compare_report(values, params, lags)
    monkeypatch.setattr(stats, "_CHUNK_ROWS", 3)
    cells, _ = compare_report(values, params, lags)
    assert [(c.h, c.i, c.j) for c in cells] == [
        (float(h), i, j) for h in lags for i in range(p) for j in range(p)
    ]
    for c, w in zip(cells, whole):
        want_est, want_se = direct_lag_moments(values, c.i, c.j, int(c.h))
        assert c.empirical == pytest.approx(want_est, rel=1e-12)
        assert c.stderr == pytest.approx(want_se, rel=1e-12)
        assert c.empirical == pytest.approx(w.empirical, rel=1e-14)
        assert c.stderr == pytest.approx(w.stderr, rel=1e-14)
        assert empirical_cross_cov(values, c.i, c.j, int(c.h)) == (c.empirical, c.stderr)


# sha256 of the float64 (empirical, stderr, z) triple of every cell of the
# report below, frozen from the one-shot estimator
FROZEN_REPORT_SHA256 = "ce891fa1da7b70cbe444276d432ede59f7bbd4cd1772f0633dce2c351f62bb2a"


@pytest.mark.parametrize("size", [1, 7, 45])
def test_lag_sums_in_batches_stack_to_the_one_shot_sums(size):
    # CLI verify folds path files into the per-replicate sums a batch at a
    # time; the stacked batches must be the one-shot sums bit for bit, and
    # the report built on them compare_report's, frozen
    values = iid_ensemble(reps=45, n=64, p=3, seed=5) + 0.25
    params = make_params([0.3, 0.7, 0.5], rho01=0.2)
    lags = [0, 1, -3, 7, 63]
    whole = stats._lag_sums(values, lags)
    assert whole.shape == (45, len(lags), 3, 3)
    batched = np.concatenate(
        [stats._lag_sums(values[start : start + size], lags) for start in range(0, 45, size)]
    )
    assert batched.tobytes() == whole.tobytes()
    cells, summary = compare_report(values, params, lags)
    triples = np.array([(c.empirical, c.stderr, c.z) for c in cells])
    assert hashlib.sha256(triples.tobytes()).hexdigest() == FROZEN_REPORT_SHA256
    assert stats._report(batched, params, lags, 1.0) == (cells, summary)


def test_compare_report_reads_the_ensemble_in_place():
    # every lag product comes from views of the ensemble; a chunk copy
    # or a stacked lag buffer would show in the peak
    values = iid_ensemble(reps=64, n=8192, p=5)
    params = make_params([0.25, 0.35, 0.45, 0.55, 0.65])
    tracemalloc.start()
    try:
        cells, _ = compare_report(values, params, range(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cells) == 8 * 25
    assert peak <= 0.05 * values.nbytes, peak / values.nbytes


def test_compare_report_reads_every_target_from_one_lag_block_call(monkeypatch):
    values = iid_ensemble(reps=30, n=12, p=3)
    params = make_params([0.3, 0.7, 0.5], rho01=0.2)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return lag_block_array(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("compare_report evaluated a target one cell at a time")

    monkeypatch.setattr(stats, "lag_block_array", counted)
    monkeypatch.setattr(stats, "increment_covariance", refused)
    cells, _ = compare_report(values, params, [0, 4, -3, 4], delta=0.5)
    assert len(calls) == 1
    assert len(cells) == 4 * 9


EXACT_WIDE = MfbmParams(
    H=np.array([0.25, 0.35, 0.45, 0.55, 0.65]),
    sigma=np.array([1.0, 0.5, 2.0, 1.0, 1.5]),
    rho=np.full((5, 5), 0.2) + 0.8 * np.eye(5),
    eta=0.05 * (np.triu(np.ones((5, 5)), 1) - np.tril(np.ones((5, 5)), -1)),
)
CLI_SHORT = MfbmParams(
    H=np.array([0.3, 0.7]),
    sigma=np.array([1.0, 2.0]),
    rho=np.array([[1.0, 0.3], [0.3, 1.0]]),
    eta=np.array([[0.0, 0.1], [-0.1, 0.0]]),
)


@pytest.mark.parametrize("delta", [1.0, 0.37])
@pytest.mark.parametrize(
    "params, lags", [(EXACT_WIDE, range(8)), (CLI_SHORT, range(50))], ids=["p5", "p2"]
)
def test_report_targets_equal_the_pointwise_closed_form(params, lags, delta):
    # the benchmark parameter sets: the batched targets are the scalar
    # ones bit for bit, the a = 1/2 pair of the p = 5 set included
    values = iid_ensemble(reps=30, n=len(lags) + 1, p=params.p)
    cells, _ = compare_report(values, params, lags, delta)
    assert len(cells) == len(lags) * params.p**2
    for c in cells:
        assert c.theoretical == increment_covariance(params, c.i, c.j, c.h, delta)


def test_report_targets_at_a_half_hurst_sum_agree_to_round_off():
    # at H_i + H_j = 1/2 numpy's power loop takes sqrt or pow depending on
    # the grid length, so the batched and scalar targets may sit an ulp of
    # the largest target apart; the second difference magnifies that
    # relative to the small far-lag cells
    params = make_params([0.25, 0.5])
    values = iid_ensemble(reps=30, n=51, p=2)
    cells, _ = compare_report(values, params, range(50))
    scale = max(abs(c.theoretical) for c in cells)
    for c in cells:
        want = increment_covariance(params, c.i, c.j, c.h)
        assert abs(c.theoretical - want) <= 1e-14 * scale
