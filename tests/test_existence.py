import inspect
import warnings

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from mfbm import (
    CirculantEmbeddingError,
    CovarianceExistenceError,
    SpecialCase,
    admissibility_matrix,
    admissible_boundary,
    check_admissibility,
    coherence,
    dense_oracle_simulate,
    eta_from_prime,
    max_correlation,
    pair_coherence_at,
    spectral_factor,
)
from mfbm import circulant, representations
from mfbm.existence import _ridged_cholesky
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
    assert ok.coherence is not None and ok.coherence < 1.0
    # 0.9 exceeds the 0.514 ceiling for these exponents
    bad = check_admissibility(make_params([0.1, 0.8], rho01=0.9))
    assert not bad.admissible
    assert bad.coherence > 1.0


def test_require_is_the_one_refusal():
    assert check_admissibility(make_params([0.3, 0.7], rho01=0.3)).require() is None
    bad = check_admissibility(make_params([0.1, 0.8], rho01=0.9))
    with pytest.raises(CovarianceExistenceError, match="^parameters admit no valid covariance"):
        bad.require()
    # one tolerance, PSD_TOL: the rule takes the parameters alone
    assert list(inspect.signature(check_admissibility).parameters) == ["params"]


def test_check_admissibility_no_pair_coherence_beyond_two(rng):
    report = check_admissibility(random_admissible(rng, 3))
    assert report.coherence is None


def test_check_admissibility_threshold():
    params = make_params([0.3, 0.7], rho01=0.3)
    report = check_admissibility(params)
    q_scale = np.abs(admissibility_matrix(params)).max()
    assert report.threshold == pytest.approx(1e-10 * q_scale, rel=1e-12)


def test_check_admissibility_rejects_non_finite_entries():
    # the set is refused when it is built, so check_admissibility never
    # meets it: no NaN eigenvalue and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^invalid parameters: every eta entry"):
            check_admissibility(make_params([0.3, 0.7], rho01=0.3, eta01=np.inf))


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
        report = check_admissibility(params)
        c = report.coherence
        if abs(c - 1.0) <= 1e-9:
            continue
        assert report.admissible == (c <= 1.0)
        agree += 1
    assert agree > 250


def test_pair_coherence_at_unit_sum_branch():
    # on the unit-sum line the second coordinate acts directly
    c = pair_coherence_at(0.3, 0.7, 0.0, 0.542599238)
    assert c == pytest.approx(1.0, abs=1e-6)


def test_pair_coherence_at_converts_eta_prime_like_eta_from_prime(rng):
    for h1, h2 in rng.uniform(0.05, 0.95, size=(100, 2)):
        base = make_params([h1, h2], rho01=0.2)
        eta = eta_from_prime(base, 0, 1, 0.1)
        want = coherence(make_params([h1, h2], rho01=0.2, eta01=eta), 0, 1)
        assert pair_coherence_at(h1, h2, 0.2, 0.1) == want


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


def test_boundary_helpers_reject_exponents_outside_unit_interval():
    # formerly NaN points, a ZeroDivisionError or a negative coherence
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h1, h2 in ((0.3, 1.5), (0.0, 0.5), (np.nan, 0.5), (0.5, 1.0), (-0.2, 0.4)):
            with pytest.raises(ValueError, match="outside"):
                admissible_boundary(h1, h2)
            with pytest.raises(ValueError, match="outside"):
                pair_coherence_at(h1, h2, 0.1, 0.1)


def test_boundary_matches_coherence_on_every_ray():
    # each point is the unit-coherence crossing of its own ray, for a
    # generic and a unit-sum pair
    for h1, h2 in ((0.2, 0.6), (0.3, 0.7), (0.85, 0.9)):
        curve = admissible_boundary(h1, h2, n_points=73)
        thetas = 2.0 * np.pi * np.arange(73) / 72
        radii = np.hypot(curve[:, 0], curve[:, 1])
        tol = 1e-15 * radii.max()
        np.testing.assert_allclose(curve[:, 0], radii * np.cos(thetas), atol=tol)
        np.testing.assert_allclose(curve[:, 1], radii * np.sin(thetas), atol=tol)
        for rho, ep in curve[:-1]:
            assert pair_coherence_at(h1, h2, rho, ep) == pytest.approx(1.0, rel=1e-13)


def test_ridged_cholesky_gives_up_after_64_doublings():
    # a shift of 1e-300 doubled 64 times is still far below 1
    with pytest.raises(np.linalg.LinAlgError, match="after 64 ridge doublings"):
        _ridged_cholesky(np.array([[-1.0]]), 1e-300)


def _never_factors(matrix, shift):
    raise np.linalg.LinAlgError("matrix stays indefinite after 64 ridge doublings")


@pytest.mark.parametrize(
    "module, call, error",
    [
        (circulant, lambda params: dense_oracle_simulate(params, 8), CirculantEmbeddingError),
        (representations, spectral_factor, CovarianceExistenceError),
    ],
    ids=["dense_oracle_simulate", "spectral_factor"],
)
def test_a_ridge_that_fails_is_refused_in_the_callers_terms(
    monkeypatch, rng, module, call, error
):
    monkeypatch.setattr(module, "_ridged_cholesky", _never_factors)
    with pytest.raises(error):
        call(random_admissible(rng, 2))
