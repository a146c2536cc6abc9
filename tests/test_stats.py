import tracemalloc

import numpy as np
import pytest

from mfbm import (
    SimulationConfig,
    build_plan,
    compare_report,
    dense_oracle_simulate,
    empirical_cross_cov,
    ensemble_from_paths,
    replicate_mean_stderr,
    simulate,
)
from conftest import make_params


def iid_ensemble(reps=400, n=50, p=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((reps, n, p))


def test_empirical_cross_cov_on_white_noise():
    values = iid_ensemble()
    est0, se0 = empirical_cross_cov(values, 0, 0, 0)
    assert abs(est0 - 1.0) <= 4.0 * se0
    est1, se1 = empirical_cross_cov(values, 0, 0, 1)
    assert abs(est1) <= 4.0 * se1
    cross, se_cross = empirical_cross_cov(values, 0, 1, 0)
    assert abs(cross) <= 4.0 * se_cross


def test_empirical_cross_cov_lag_reflection():
    values = iid_ensemble(reps=60, n=20)
    fwd, _ = empirical_cross_cov(values, 0, 1, 3)
    rev, _ = empirical_cross_cov(values, 1, 0, -3)
    assert fwd == pytest.approx(rev, rel=1e-12)


def test_empirical_cross_cov_input_checks():
    values = iid_ensemble(reps=40, n=10)
    with pytest.raises(ValueError):
        empirical_cross_cov(values[:20], 0, 0, 0)
    with pytest.raises(ValueError):
        empirical_cross_cov(values, 0, 0, 10)
    with pytest.raises(ValueError):
        empirical_cross_cov(values, 0, 0, -10)
    with pytest.raises(ValueError):
        empirical_cross_cov(values[0], 0, 0, 0)


def test_empirical_cross_cov_replicate_order_invariant():
    values = iid_ensemble(reps=50, n=12)
    est, se = empirical_cross_cov(values, 0, 1, 2)
    shuffled = values[::-1].copy()
    est2, se2 = empirical_cross_cov(shuffled, 0, 1, 2)
    assert est == pytest.approx(est2, rel=1e-12)
    assert se == pytest.approx(se2, rel=1e-12)


def direct_lag_moments(values, i, j, h):
    """Reference: per-replicate mean of explicit window products."""
    n = values.shape[1]
    if h >= 0:
        lead, lag = values[:, : n - h, i], values[:, h:, j]
    else:
        lead, lag = values[:, -h:, i], values[:, : n + h, j]
    per_replicate = np.mean(lead * lag, axis=1)
    return per_replicate.mean(), per_replicate.std(ddof=1) / np.sqrt(len(values))


def test_batched_estimator_matches_definition():
    p, n = 3, 17
    values = iid_ensemble(reps=30, n=n, p=p, seed=7) + 0.5
    lags = [0, 1, 5, -1, -7, n - 1, -(n - 1)]
    params = make_params([0.3, 0.7, 0.5])
    cells, _ = compare_report(values, params, lags)
    assert [(c.h, c.i, c.j) for c in cells] == [
        (float(h), i, j) for h in lags for i in range(p) for j in range(p)
    ]
    for c in cells:
        want_est, want_se = direct_lag_moments(values, c.i, c.j, int(c.h))
        assert c.empirical == pytest.approx(want_est, rel=1e-12)
        assert c.stderr == pytest.approx(want_se, rel=1e-12)
        assert c.n_replicates == 30
        est, se = empirical_cross_cov(values, c.i, c.j, int(c.h))
        assert est == pytest.approx(want_est, rel=1e-12)
        assert se == pytest.approx(want_se, rel=1e-12)


def test_compare_report_input_checks():
    values = iid_ensemble(reps=30, n=17, p=3)
    params = make_params([0.3, 0.7, 0.5])
    with pytest.raises(ValueError, match="replicates"):
        compare_report(values[:29], params, [0])
    with pytest.raises(ValueError, match="path length"):
        compare_report(values, params, [0, 17])
    with pytest.raises(ValueError, match="path length"):
        compare_report(values, params, [-17])
    with pytest.raises(ValueError, match="shape"):
        compare_report(values[0], params, [0])
    with pytest.raises(ValueError, match="2 components, the parameters p = 3"):
        compare_report(values[:, :, :2], params, [0])


def test_compare_report_accepts_matched_law():
    params = make_params([0.3, 0.7], rho01=0.3, eta01=0.1)
    config = SimulationConfig(n=32, replicates=400, seed=21)
    paths = simulate(build_plan(params, config), config)
    values = ensemble_from_paths(paths)
    cells, summary = compare_report(values, params, lags=range(0, 6))
    assert summary.n_cells == 6 * 4
    assert len(cells) == summary.n_cells
    assert summary.ok
    assert str(summary).startswith("24 cells")
    zero_lag = [c for c in cells if c.h == 0.0 and c.i == 0 and c.j == 1]
    assert zero_lag[0].theoretical == pytest.approx(0.3, rel=1e-12)


def test_compare_report_flags_wrong_law():
    params = make_params([0.3, 0.7], rho01=0.3)
    config = SimulationConfig(n=32, replicates=400, seed=22)
    paths = simulate(build_plan(params, config), config)
    values = ensemble_from_paths(paths)
    wrong = make_params([0.45, 0.55], rho01=0.3)
    _, summary = compare_report(values, wrong, lags=range(0, 6))
    assert not summary.ok
    assert summary.max_abs_z > 10.0


def test_compare_report_empty_lags():
    values = iid_ensemble(reps=40, n=10)
    cells, summary = compare_report(values, make_params([0.5, 0.5]), lags=[])
    assert cells == []
    assert summary.n_cells == 0
    assert summary.ok


def test_compare_report_fails_a_nan_cell():
    # a NaN z-score used to count as within the threshold, so the report
    # passed with max |z| = nan
    values = iid_ensemble(reps=40, n=10)
    params = make_params([0.5, 0.5])
    assert compare_report(values, params, lags=[0, 1])[1].ok
    values[3, 5, 0] = np.nan
    _, summary = compare_report(values, params, lags=[0, 1])
    # every cell but the two (1, 1) ones reads component 0
    assert summary.frac_exceeding == 6 / 8
    assert not summary.ok


def test_mean_free_estimator_is_unbiased():
    # long memory would bias a demeaned estimator at n = 16 well past
    # this band; the plain product estimator centers on zero. Cells of
    # one ensemble share paths, so average over independent ensembles.
    params = make_params([0.3, 0.7], rho01=0.3, eta01=0.1)
    zs = []
    for seed in range(4):
        paths = dense_oracle_simulate(params, n=16, seed=seed, replicates=5000)
        values = ensemble_from_paths(paths)
        cells, _ = compare_report(values, params, lags=range(0, 8))
        zs.extend(c.z for c in cells)
    assert -0.2 <= np.mean(zs) <= 0.2


def simulated_paths(n=9, replicates=4, seed=5):
    params = make_params([0.3, 0.7], rho01=0.3, eta01=0.1)
    config = SimulationConfig(n=n, replicates=replicates, seed=seed)
    return simulate(build_plan(params, config), config)


def test_ensemble_from_paths_rejects_empty_and_ragged():
    # only an Ensemble is read; a list of paths, empty, ragged or not, is refused
    with pytest.raises(TypeError, match="expected an Ensemble, got list"):
        ensemble_from_paths([])
    with pytest.raises(TypeError, match="expected an Ensemble"):
        ensemble_from_paths([np.zeros((4, 2)), np.zeros((3, 2))])


@pytest.mark.parametrize("pick", [lambda e: e.values, lambda e: [e]], ids=["values", "wrapped"])
def test_ensemble_from_paths_refuses_anything_but_an_ensemble(pick):
    with pytest.raises(TypeError, match="expected an Ensemble"):
        ensemble_from_paths(pick(simulated_paths()))


def test_ensemble_from_paths_returns_simulate_buffer_uncopied():
    paths = simulated_paths()
    out = ensemble_from_paths(paths)
    assert out is paths.values and out.shape == (4, 9, 2)
    with pytest.raises(ValueError):
        out[0, 0, 0] = 1.0


def test_ensemble_from_paths_returns_dense_oracle_values_uncopied():
    params = make_params([0.3, 0.7], rho01=0.3, eta01=0.1)
    paths = dense_oracle_simulate(params, n=8, seed=2, replicates=3)
    assert ensemble_from_paths(paths) is paths.values


def test_ensemble_from_paths_of_simulate_holds_one_ensemble():
    # the ensemble is one buffer handed back uncopied; a stacked copy or
    # per-path arrays beside it would double the peak
    params = make_params([0.3, 0.5, 0.7], rho01=0.2, eta01=0.05)
    config = SimulationConfig(n=1025, replicates=256, seed=3)
    plan = build_plan(params, config)
    tracemalloc.start()
    try:
        values = ensemble_from_paths(simulate(plan, config))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (256, 1025, 3)
    assert peak <= 1.25 * values.nbytes, peak / values.nbytes


def test_replicate_mean_stderr_matches_definition():
    values = iid_ensemble(reps=7, n=3)
    mean, stderr = replicate_mean_stderr(values)
    assert np.array_equal(mean, values.mean(axis=0))
    assert np.array_equal(stderr, values.std(axis=0, ddof=1) / np.sqrt(7))


def test_replicate_mean_stderr_single_replicate_has_zero_error():
    values = iid_ensemble(reps=1, n=3)
    mean, stderr = replicate_mean_stderr(values)
    assert np.array_equal(mean, values[0])
    assert np.array_equal(stderr, np.zeros((3, 2)))


def test_compare_report_fails_a_zero_spread_cell():
    # a zero stderr used to raise ZeroDivisionError; its z is now +-inf
    # (or NaN where the target is 0 too) and the cell fails
    params = make_params([0.3, 0.7], rho01=0.3, eta01=0.1)
    cells, summary = compare_report(np.zeros((30, 10, 2)), params, [0, 1])
    assert len(cells) == summary.n_cells == 8
    assert all(c.stderr == 0.0 and not np.isfinite(c.z) for c in cells)
    assert summary.frac_exceeding == 1.0
    assert not summary.ok


@pytest.mark.parametrize("lag", [0.5, -2.5, np.nan, np.inf])
def test_non_integer_lags_are_refused(lag):
    # a lag of 0.5 used to be truncated to 0 for the estimate but not for
    # the target, and reported as a failed law at z = 21.9
    values = iid_ensemble(reps=40, n=10)
    params = make_params([0.3, 0.7], rho01=0.3)
    with pytest.raises(ValueError, match=f"lag {lag!r} must be an integer"):
        compare_report(values, params, [0, lag])
    with pytest.raises(ValueError, match=f"lag {lag!r} must be an integer"):
        empirical_cross_cov(values, 0, 1, lag)


def test_integral_float_lags_are_accepted():
    values = iid_ensemble(reps=40, n=10)
    params = make_params([0.3, 0.7], rho01=0.3)
    as_floats, _ = compare_report(values, params, [3.0, -2.0])
    as_ints, _ = compare_report(values, params, [3, -2])
    assert as_floats == as_ints
    assert empirical_cross_cov(values, 0, 1, 3.0) == empirical_cross_cov(values, 0, 1, 3)


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (2, 0), (0, 2)])
def test_empirical_cross_cov_refuses_an_out_of_range_component(i, j):
    # -1 used to return the (p - 1, 0) estimate silently
    values = iid_ensemble(reps=40, n=10)
    bad = i if not 0 <= i < 2 else j
    with pytest.raises(IndexError, match=rf"^component index {bad} out of range for p=2$"):
        empirical_cross_cov(values, i, j, 0)
