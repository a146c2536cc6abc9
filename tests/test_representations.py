import warnings

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from mfbm import (
    CovarianceExistenceError,
    MfbmParams,
    MovingAveragePair,
    check_admissibility,
    SpecialCase,
    gram_target,
    ma_from_spectral,
    max_correlation,
    mfbm_covariance,
    params_from_ma,
    special_case_eta,
    spectral_factor,
    spectral_factor_p2,
    spectral_from_ma,
)
from mfbm.existence import PSD_TOL
from mfbm.params import UNIT_SUM_TOL
from conftest import make_params, random_admissible

# Quadrature oracle, frozen: E X_i(t) X_j(s) computed by numerically
# integrating the products of the moving average kernels
#   M+[(t-u)_+^d - (-u)_+^d] + M-[(t-u)_-^d - (-u)_-^d],  d = H - 1/2,
# over the whole line (scipy.integrate.quad, abs tol 1e-12), for
#   H  = (0.3, 0.7)
#   M+ = [[1.0, 0.3], [0.2, 0.8]]
#   M- = [[0.1, 0.4], [0.5, 0.2]]
QUAD_H = np.array([0.3, 0.7])
QUAD_MPLUS = np.array([[1.0, 0.3], [0.2, 0.8]])
QUAD_MMINUS = np.array([[0.1, 0.4], [0.5, 0.2]])
QUAD_COV = {
    # (i, j, s, t): E X_i(t) X_j(s)
    (0, 0, 1.0, 1.0): 1.6951250856431788,
    (1, 1, 1.0, 1.0): 0.4608132739487009,
    (0, 1, 1.0, 1.0): -0.46912382729699675,
    (0, 1, 1.0, 2.0): -0.5550740776864581,
    (1, 0, 1.0, 2.0): -0.3831735769076218,
}


def test_params_from_ma_matches_quadrature_oracle():
    ma = MovingAveragePair(m_plus=QUAD_MPLUS, m_minus=QUAD_MMINUS)
    params = params_from_ma(ma, QUAD_H)
    for (i, j, s, t), want in QUAD_COV.items():
        got = mfbm_covariance(params, i, j, t, s)
        assert got == pytest.approx(want, rel=1e-9)


def test_params_from_ma_frozen_variance():
    # single causal kernel with weight 5 at H = 0.7
    ma = MovingAveragePair(m_plus=np.array([[5.0]]), m_minus=np.zeros((1, 1)))
    params = params_from_ma(ma, [0.7])
    assert params.sigma[0] ** 2 == pytest.approx(20.972324296796103, rel=1e-12)


def test_gram_target_formula(rng):
    params = random_admissible(rng, 3)
    t = gram_target(params)
    assert np.allclose(t, t.conj().T, rtol=1e-14)
    for i in range(3):
        a = 2.0 * params.H[i]
        want = params.sigma[i] ** 2 * gamma_fn(a + 1.0) * np.sin(np.pi * params.H[i])
        assert t[i, i].real == pytest.approx(want / (2.0 * np.pi), rel=1e-13)


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_cholesky_factor_reproduces_gram(rng, p):
    params = random_admissible(rng, p)
    factor = spectral_factor(params)
    assert factor.diag_shift == 0.0
    got = factor.matrix @ factor.matrix.conj().T
    want = gram_target(params)
    assert np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_factor_rejects_inadmissible():
    params = make_params([0.1, 0.8], rho01=0.9)
    with pytest.raises(CovarianceExistenceError):
        spectral_factor(params)
    with pytest.raises(CovarianceExistenceError):
        spectral_factor_p2(params)


def test_explicit_p2_factor_reproduces_gram(rng):
    for case in ("generic", "unit_sum"):
        for _ in range(10):
            params = random_admissible(rng, 2, unit_sum=case == "unit_sum")
            a = spectral_factor_p2(params).matrix
            want = gram_target(params)
            assert np.allclose(
                a @ a.conj().T, want, rtol=0, atol=1e-12 * np.abs(want).max()
            )


def test_explicit_p2_factor_on_the_edge_of_admissibility():
    # rho a relative 1e-11 above its ceiling: coherence 1 + 2e-11, which
    # check_admissibility admits and spectral_factor_p2 used to refuse.
    # The target is then indefinite by about 4e-12 of its largest entry, so
    # no factor reproduces it to 1e-12; the bound is the rule's PSD_TOL.
    h1, h2 = 0.3, 0.6
    rho = max_correlation(h1, h2, SpecialCase.WELL_BALANCED) * (1.0 + 1e-11)
    params = make_params([h1, h2], rho01=rho)
    assert check_admissibility(params).admissible
    a = spectral_factor_p2(params).matrix
    want = gram_target(params)
    assert np.allclose(a @ a.conj().T, want, rtol=0, atol=PSD_TOL * np.abs(want).max())


def test_explicit_p2_requires_two_components(rng):
    with pytest.raises(ValueError):
        spectral_factor_p2(random_admissible(rng, 3))


def test_explicit_p2_zero_coherence_is_diagonal():
    params = make_params([0.4, 0.7], sigma=[1.0, 1.3])
    a = spectral_factor_p2(params).matrix
    assert a[0, 1] == 0.0 and a[1, 0] == 0.0
    assert a[1, 1] == pytest.approx(0.5199033836915364, rel=1e-13)
    assert a.imag == pytest.approx(np.zeros((2, 2)), abs=0.0)


def test_ma_map_round_trips_factor(rng):
    for _ in range(10):
        params = random_admissible(rng, 2, h_margin=0.02)
        a = spectral_factor_p2(params).matrix
        ma = ma_from_spectral(a, params.H)
        back = spectral_from_ma(ma, params.H).matrix
        assert np.allclose(back, a, rtol=0, atol=1e-12 * np.abs(a).max())


def test_ma_map_degenerate_at_half():
    a = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        ma_from_spectral(a, [0.5, 0.7])


@pytest.mark.parametrize("p,explicit", [(1, False), (2, True), (3, False)])
def test_full_round_trip_recovers_params(rng, p, explicit):
    for _ in range(8):
        params = random_admissible(rng, p, h_margin=0.05)
        a = spectral_factor_p2(params) if explicit else spectral_factor(params)
        ma = ma_from_spectral(a, params.H)
        back = params_from_ma(ma, params.H)
        assert np.allclose(back.sigma, params.sigma, rtol=1e-10)
        assert np.allclose(back.rho, params.rho, rtol=0, atol=1e-10)
        assert np.allclose(back.eta, params.eta, rtol=0, atol=1e-10)


def test_full_round_trip_unit_sum(rng):
    for _ in range(8):
        params = random_admissible(rng, 2, unit_sum=True, h_margin=0.05)
        ma = ma_from_spectral(spectral_factor_p2(params), params.H)
        back = params_from_ma(ma, params.H)
        assert np.allclose(back.sigma, params.sigma, rtol=1e-10)
        assert np.allclose(back.rho, params.rho, rtol=0, atol=1e-10)
        assert np.allclose(back.eta, params.eta, rtol=0, atol=1e-10)


def test_full_round_trip_p3_with_unit_sum_pair():
    # pair (0, 1) is unit-sum, pairs (0, 2) and (1, 2) are generic
    params = MfbmParams(
        H=[0.3, 0.7, 0.85],
        sigma=[1.0, 1.4, 0.7],
        rho=[[1.0, 0.3, -0.2], [0.3, 1.0, 0.25], [-0.2, 0.25, 1.0]],
        eta=[[0.0, 0.1, 0.05], [-0.1, 0.0, -0.08], [-0.05, 0.08, 0.0]],
    )
    assert check_admissibility(params).admissible
    ma = ma_from_spectral(spectral_factor(params), params.H)
    back = params_from_ma(ma, params.H)
    assert np.allclose(back.sigma, params.sigma, rtol=1e-9)
    assert np.allclose(back.rho, params.rho, rtol=0, atol=1e-9)
    assert np.allclose(back.eta, params.eta, rtol=0, atol=1e-9)


def test_params_from_ma_brownian_weights():
    # at H = 1/2 only the difference of the weights drives the process
    m_plus = np.array([[1.0, 0.3], [0.2, 0.8]])
    m_minus = np.array([[0.1, 0.4], [0.5, 0.2]])
    params = params_from_ma(MovingAveragePair(m_plus=m_plus, m_minus=m_minus), [0.5, 0.5])
    diff = m_plus - m_minus
    cov = diff @ diff.T
    assert np.allclose(params.sigma**2, np.sum(diff**2, axis=1), rtol=1e-13)
    assert params.rho[0, 1] == pytest.approx(
        cov[0, 1] / np.sqrt(cov[0, 0] * cov[1, 1]), rel=1e-13
    )
    # the row phase is exactly (0, 1) at H = 1/2, so eta is exactly 0
    assert np.array_equal(params.eta, np.zeros((2, 2)))


def test_params_from_ma_half_exponent_is_brownian():
    # forward weights alone at H = 1/2: a Brownian motion mixed by M
    mix = np.array([[1.5, 0.4, -0.5], [-0.7, 1.1, 0.55], [0.35, 0.6, 0.5]])
    params = params_from_ma(
        MovingAveragePair(m_plus=mix, m_minus=np.zeros((3, 3))), [0.5, 0.5, 0.5]
    )
    assert np.array_equal(params.eta, np.zeros((3, 3)))
    np.testing.assert_allclose(params.sigma**2, np.diag(mix @ mix.T), rtol=1e-15, atol=0)


def test_well_balanced_ties_moving_averages(rng):
    # eta = 0 gives a real Gram matrix, a real factor, and equal weights
    params = random_admissible(rng, 2, h_margin=0.02)
    params = special_case_eta(params, SpecialCase.WELL_BALANCED)
    assert np.array_equal(params.eta, np.zeros((2, 2)))
    a = spectral_factor(params).matrix
    assert np.abs(a.imag).max() <= 1e-14 * np.abs(a.real).max()
    ma = ma_from_spectral(a, params.H)
    assert np.allclose(ma.m_plus, ma.m_minus, rtol=0, atol=1e-13)


def test_causal_eta_frozen_generic():
    params = make_params([0.3, 0.6], rho01=0.3)
    causal = special_case_eta(params, SpecialCase.CAUSAL)
    assert causal.eta[0, 1] == pytest.approx(0.9651051235532793, rel=1e-13)
    assert causal.eta[1, 0] == -causal.eta[0, 1]


def test_causal_eta_frozen_unit_sum():
    params = make_params([0.3, 0.7], rho01=0.3)
    causal = special_case_eta(params, SpecialCase.CAUSAL)
    assert causal.eta[0, 1] == pytest.approx(0.13875940163824202, rel=1e-13)


def test_causal_eta_rejects_half_exponent_on_unit_sum():
    params = make_params([0.5, 0.5], rho01=0.3)
    with pytest.raises(ValueError):
        special_case_eta(params, SpecialCase.CAUSAL)


def test_causal_params_admit_causal_factorization(rng):
    # for the causal coupling the phase-rotated Gram matrix is real and
    # PSD, its Cholesky root gives M- = 0, and the parameters round trip
    from scipy.linalg import cholesky

    from mfbm import max_correlation

    for _ in range(6):
        h1 = rng.uniform(0.15, 0.45)
        h2 = rng.uniform(0.55, 0.85)
        ceiling = max_correlation(h1, h2, SpecialCase.CAUSAL)
        small = make_params(
            [h1, h2],
            sigma=rng.uniform(0.5, 2.0, size=2),
            rho01=0.5 * ceiling * rng.choice([-1.0, 1.0]),
        )
        causal = special_case_eta(small, SpecialCase.CAUSAL)
        t = gram_target(causal)
        phase = np.exp(-0.5j * np.pi * (causal.H + 0.5)) / gamma_fn(causal.H + 0.5)
        r = 2.0 * np.pi * (phase[:, None] * t * np.conj(phase)[None, :])
        assert np.abs(r.imag).max() <= 1e-12 * np.abs(r).max()
        m_plus = cholesky(r.real, lower=True)
        ma = MovingAveragePair(m_plus=m_plus, m_minus=np.zeros((2, 2)))
        back = params_from_ma(ma, causal.H)
        assert np.allclose(back.sigma, causal.sigma, rtol=1e-9)
        assert np.allclose(back.rho, causal.rho, rtol=0, atol=1e-9)
        assert np.allclose(back.eta, causal.eta, rtol=0, atol=1e-9)


def test_special_case_eta_rejects_unknown():
    with pytest.raises(ValueError):
        special_case_eta(make_params([0.3, 0.6]), "sideways")


def test_params_from_ma_rejects_exponents_it_cannot_use():
    # one exponent per weight row, each finite and in (0, 1); formerly a
    # p = 1 set with two sigmas, sigma = 5.8e7, or a divide-by-zero warning
    ma = MovingAveragePair(m_plus=QUAD_MPLUS, m_minus=QUAD_MMINUS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for H in ([0.3], [1.0, 0.5], [0.0, 0.3], [0.3, np.nan], [0.3, 0.7, 0.4]):
            with pytest.raises(ValueError, match="one exponent in"):
                params_from_ma(ma, H)
        with pytest.raises(ValueError, match="one exponent in"):
            params_from_ma(ma, [[0.3, 0.7]])


def test_causal_eta_phase_tie_p3_with_unit_sum_pair():
    # arg of the positive-frequency coefficient is (pi/2)(H_i - H_j) on
    # every pair; pair (0, 1) is unit-sum, the others generic
    H = np.array([0.3, 0.7, 0.45])
    rho = np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.25], [-0.2, 0.25, 1.0]])
    params = MfbmParams(H=H, sigma=np.ones(3), rho=rho, eta=np.zeros((3, 3)))
    causal = special_case_eta(params, SpecialCase.CAUSAL)
    eta = causal.eta
    assert np.array_equal(eta, -eta.T)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        a = H[i] + H[j]
        if abs(a - 1.0) <= UNIT_SUM_TOL:
            coeff = complex(rho[i, j], -0.5 * np.pi * eta[i, j])
            want = 2.0 * rho[i, j] / (np.pi * np.tan(np.pi * H[i]))
        else:
            s, t = np.sin(0.5 * np.pi * a), np.cos(0.5 * np.pi * a)
            coeff = complex(rho[i, j] * s, -eta[i, j] * t)
            want = -rho[i, j] * np.tan(0.5 * np.pi * a)
            want *= np.tan(0.5 * np.pi * (H[i] - H[j]))
        assert eta[i, j] == pytest.approx(want, rel=1e-13)
        turned = coeff * np.exp(-0.5j * np.pi * (H[i] - H[j]))
        assert abs(turned.imag) <= 1e-15 * abs(coeff)
    assert check_admissibility(causal).admissible


def test_params_from_ma_returns_valid_sets(rng):
    # each pair is read off i < j and mirrored, so rho is symmetric and eta
    # antisymmetric bitwise even where A A* is Hermitian only to round-off
    for p in (1, 2, 3, 4, 5):
        for _ in range(10):
            ma = MovingAveragePair(
                m_plus=rng.normal(size=(p, p)), m_minus=rng.normal(size=(p, p))
            )
            params = params_from_ma(ma, rng.uniform(0.05, 0.95, size=p))
            assert np.array_equal(params.rho, params.rho.T)
            assert np.array_equal(params.eta, -params.eta.T)
