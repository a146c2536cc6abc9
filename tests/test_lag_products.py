"""The one-pass lag products behind compare_report and empirical_cross_cov."""
import tracemalloc

import pytest

from mfbm import compare_report, empirical_cross_cov, stats
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
