import warnings

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from mfbm import (
    SpecialCase,
    admissibility_matrix,
    admissible_boundary,
    check_admissibility,
    max_correlation,
    pair_coherence_at,
)
from conftest import make_params, random_admissible


def test_admissibility_matrix_frozen_half_half():
    # H = (1/2, 1/2): matrix reduces to the plain correlation matrix
    params = make_params([0.5, 0.5], rho01=0.9)
    q = admissibility_matrix(params)
    assert np.allclose(q, np.array([[1.0, 0.9], [0.9, 1.0]]), atol=1e-15)
    eigs = np.linalg.eigvalsh(q)
    assert eigs == pytest.approx([0.1, 1.9], rel=1e-12)


def test_admissibility_matrix_hermitian_and_diagonal(rng):
    for p in (2, 3, 5):
        params = random_admissible(rng, p)
        q = admissibility_matrix(params)
        assert np.array_equal(q, q.conj().T)
        want = gamma_fn(2.0 * params.H + 1.0) * np.sin(np.pi * params.H)
        assert np.allclose(np.diag(q).real, want, rtol=1e-14)
        assert np.allclose(np.diag(q).imag, 0.0, atol=0.0)


def test_check_admissibility_accepts_and_rejects():
    ok = check_admissibility(make_params([0.3, 0.7], rho01=0.3))
    assert ok.admissible
    assert bool(ok)
    assert ok.coherence is not None and ok.coherence < 1.0
    # 0.9 exceeds the 0.514 ceiling for these exponents
    bad = check_admissibility(make_params([0.1, 0.8], rho01=0.9))
    assert not bad.admissible
    assert bad.coherence > 1.0


def test_check_admissibility_no_pair_coherence_beyond_two(rng):
    report = check_admissibility(random_admissible(rng, 3))
    assert report.coherence is None


def test_check_admissibility_threshold():
    params = make_params([0.3, 0.7], rho01=0.3)
    report = check_admissibility(params, psd_tol=1e-10)
    q_scale = np.abs(admissibility_matrix(params)).max()
    assert report.threshold == pytest.approx(1e-10 * q_scale, rel=1e-12)
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="psd_tol must be finite and nonnegative"):
            check_admissibility(params, psd_tol=bad)


def test_check_admissibility_rejects_non_finite_entries():
    # validation runs first, so no NaN eigenvalue and no RuntimeWarning
    params = make_params([0.3, 0.7], rho01=0.3, eta01=np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="invalid parameters.*eta"):
            check_admissibility(params)


def test_max_correlation_frozen_anchors():
    assert max_correlation(0.1, 0.8, SpecialCase.WELL_BALANCED) == pytest.approx(
        0.5140241285804235, rel=1e-14
    )
    assert max_correlation(0.1, 0.8, SpecialCase.CAUSAL) == pytest.approx(
        0.23336207101241152, rel=1e-14
    )


def test_max_correlation_symmetry_and_equal_exponents(rng):
    for _ in range(10):
        h1, h2 = rng.uniform(0.05, 0.95, size=2)
        for case in SpecialCase:
            assert max_correlation(h1, h2, case) == pytest.approx(
                max_correlation(h2, h1, case), rel=1e-13
            )
        # causal phase factor is at most one
        assert max_correlation(h1, h2, SpecialCase.CAUSAL) <= max_correlation(
            h1, h2, SpecialCase.WELL_BALANCED
        ) + 1e-15
    h = rng.uniform(0.05, 0.95)
    for case in SpecialCase:
        assert max_correlation(h, h, case) == pytest.approx(1.0, rel=1e-12)


def test_max_correlation_validates_range():
    with pytest.raises(ValueError):
        max_correlation(0.0, 0.5, SpecialCase.CAUSAL)
    with pytest.raises(ValueError):
        max_correlation(0.5, 1.0, SpecialCase.CAUSAL)


def test_psd_and_pair_coherence_agree(rng):
    # small version of the full acceptance sweep
    agree = 0
    for _ in range(300):
        h1, h2 = rng.uniform(0.05, 0.95, size=2)
        rho = rng.uniform(-1.0, 1.0)
        eta = rng.uniform(-1.5, 1.5)
        params = make_params([h1, h2], rho01=rho, eta01=eta)
        report = check_admissibility(params, psd_tol=0.0)
        c = report.coherence
        if abs(c - 1.0) <= 1e-9:
            continue
        assert report.admissible == (c <= 1.0)
        agree += 1
    assert agree > 250


def test_pair_coherence_at_unit_sum_branch():
    # on the unit-sum line the second coordinate acts directly
    c = pair_coherence_at(0.3, 0.7, 0.0, 0.542599238, one_tol=1e-9)
    assert c == pytest.approx(1.0, abs=1e-6)


def test_boundary_is_closed_and_unit_coherence():
    curve = admissible_boundary(0.2, 0.6, n_points=41)
    assert curve.shape == (41, 2)
    assert np.array_equal(curve[0], curve[-1])
    for rho, ep in curve[:-1]:
        assert pair_coherence_at(0.2, 0.6, rho, ep) == pytest.approx(1.0, abs=1e-9)


def test_boundary_intercepts_match_max_correlation():
    h1, h2 = 0.2, 0.6
    curve = admissible_boundary(h1, h2, n_points=5)
    # theta = 0 ray is the positive rho axis
    assert curve[0, 1] == 0.0
    assert curve[0, 0] == pytest.approx(
        max_correlation(h1, h2, SpecialCase.WELL_BALANCED), rel=1e-10
    )


def test_boundary_validates_points():
    with pytest.raises(ValueError):
        admissible_boundary(0.3, 0.6, n_points=1)
