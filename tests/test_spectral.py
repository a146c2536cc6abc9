import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from mfbm import (
    MfbmParams,
    PairKind,
    admissibility_matrix,
    coherence,
    covariance_tail_constant,
    cross_spectral_density,
    increment_covariance,
    low_frequency_modulus,
    mfbm_covariance,
    spectral_coeff,
    structure_function,
)
from mfbm.params import UNIT_SUM_TOL
from mfbm.spectral import _gamma
from conftest import make_params, random_admissible

GENERIC = make_params([0.3, 0.6], rho01=0.4, eta01=0.1)
UNIT_SUM = make_params([0.3, 0.7], rho01=0.5, eta01=0.2)


def test_white_noise_density_frozen():
    # H = 1/2 increments are white; the continuous-lag density is the
    # transform of the unit tent, (1 - cos w) / (pi w^2); at w = pi this
    # is 2/pi^3
    params = make_params([0.5])
    got = cross_spectral_density(params, 0, 0, np.pi)
    assert got.imag == 0.0
    assert got.real == pytest.approx(2.0 / np.pi**3, rel=1e-14)
    assert got.real == pytest.approx(0.06450306886639899, rel=1e-12)


def test_spectral_coeff_unit_sum_frozen():
    tau = spectral_coeff(UNIT_SUM, 0, 1, +1)
    assert tau == pytest.approx(0.5 - 0.1j * np.pi, rel=1e-15)
    # opposite frequency sign conjugates
    assert spectral_coeff(UNIT_SUM, 0, 1, -1) == pytest.approx(
        np.conj(tau), rel=1e-15
    )


def test_spectral_coeff_generic_formula():
    alpha = GENERIC.hurst_sum(0, 1)
    want = 0.4 * np.sin(np.pi * alpha / 2) - 0.1j * np.cos(np.pi * alpha / 2)
    assert spectral_coeff(GENERIC, 0, 1, +1) == pytest.approx(want, rel=1e-15)


def test_spectral_coeff_validates_sign():
    with pytest.raises(ValueError):
        spectral_coeff(GENERIC, 0, 1, 0)


def test_density_rejects_zero_frequency_and_bad_delta():
    with pytest.raises(ValueError):
        cross_spectral_density(GENERIC, 0, 1, 0.0)
    with pytest.raises(ValueError):
        cross_spectral_density(GENERIC, 0, 1, np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        cross_spectral_density(GENERIC, 0, 1, 1.0, delta=0.0)


@pytest.mark.parametrize("delta", [np.inf, np.nan])
def test_density_rejects_non_finite_delta(delta):
    with pytest.raises(ValueError, match="positive and finite"):
        cross_spectral_density(GENERIC, 0, 1, 1.0, delta=delta)
    with pytest.raises(ValueError, match="positive and finite"):
        low_frequency_modulus(GENERIC, 0, 1, 1.0, delta=delta)


def test_density_hermitian_in_components_and_frequency():
    omegas = np.array([-2.0, -0.5, 0.3, 1.7])
    for params in (GENERIC, UNIT_SUM):
        s01 = cross_spectral_density(params, 0, 1, omegas)
        s10 = cross_spectral_density(params, 1, 0, omegas)
        assert np.allclose(s01, np.conj(s10), rtol=1e-14)
        neg = cross_spectral_density(params, 0, 1, -omegas)
        assert np.allclose(neg, np.conj(s01), rtol=1e-14)


def test_diagonal_density_real_positive(rng):
    params = random_admissible(rng, 3)
    omegas = np.linspace(0.1, 5.0, 17)
    for i in range(3):
        s = cross_spectral_density(params, i, i, omegas)
        assert np.allclose(s.imag, 0.0, atol=1e-18)
        assert np.all(s.real > 0.0)


def test_density_delta_scaling():
    # delta enters only through the 1 - cos(w delta) factor
    w = 0.7
    for params in (GENERIC, UNIT_SUM):
        s1 = cross_spectral_density(params, 0, 1, w, delta=1.0)
        s2 = cross_spectral_density(params, 0, 1, w, delta=2.0)
        factor = (1.0 - np.cos(2.0 * w)) / (1.0 - np.cos(w))
        assert s2 == pytest.approx(factor * s1, rel=1e-13)


def test_low_frequency_modulus_is_the_limit():
    for params in (GENERIC, UNIT_SUM):
        w = 1e-4
        s = cross_spectral_density(params, 0, 1, w)
        envelope = low_frequency_modulus(params, 0, 1, w)
        assert abs(s) == pytest.approx(envelope, rel=1e-7)


def test_density_keeps_its_digits_at_small_frequency():
    # 1 - cos(w) cancels to exactly 0 below w ~ 1e-8; the density must
    # still follow its low-frequency envelope, relative error ~ w^2 / 12
    params = make_params([0.3, 0.7], rho01=0.3, eta01=0.1)
    omegas = np.logspace(-4, -12, 17)
    for w in (omegas, -omegas):
        for i, j in ((0, 1), (0, 0), (1, 1)):
            s = cross_spectral_density(params, i, j, w)
            envelope = low_frequency_modulus(params, i, j, w)
            assert np.allclose(np.abs(s), envelope, rtol=1e-8, atol=0.0)


# p = 3 with a unit-sum pair (0, 1) beside generic ones, nonzero eta everywhere
REFERENCE_SET = MfbmParams(
    H=[0.3, 0.7, 0.45],
    sigma=[1.0, 1.7, 0.6],
    rho=[[1.0, 0.4, -0.2], [0.4, 1.0, 0.3], [-0.2, 0.3, 1.0]],
    eta=[[0.0, 0.15, 0.05], [-0.15, 0.0, -0.1], [-0.05, 0.1, 0.0]],
)


def reference_density(params, i, j, w, delta):
    """S_ij(w, delta) in scalar math-module arithmetic: (sigma_i sigma_j / pi)
    Gamma(a+1) (rho s - i eta t sign w) 2 sin^2(w delta / 2) / |w|^(a+1)."""
    a = float(params.H[i] + params.H[j])
    if params.pair_kind(i, j) is PairKind.UNIT_SUM:
        s, t = 1.0, math.pi / 2
    else:
        s, t = math.sin(math.pi * a / 2), math.cos(math.pi * a / 2)
    coeff = complex(params.rho[i, j] * s, -params.eta[i, j] * t * math.copysign(1.0, w))
    envelope = 2.0 * math.sin(0.5 * w * delta) ** 2 / abs(w) ** (a + 1.0)
    scale = params.sigma[i] * params.sigma[j] / math.pi * math.gamma(a + 1.0)
    return float(scale) * coeff * envelope


@pytest.mark.parametrize("delta", [1.0, 0.37])
def test_density_matches_math_reference(delta):
    omegas = [1e-12, -1e-12, 1e-6, -1e-6, 1e-3, 0.3, 1.0, 2.5, 10.0]
    for i in range(3):
        for j in range(3):
            got = cross_spectral_density(REFERENCE_SET, i, j, np.array(omegas), delta)
            for w, value in zip(omegas, got):
                want = reference_density(REFERENCE_SET, i, j, w, delta)
                assert abs(value - want) <= 1e-14 * abs(want), (i, j, w)


def test_coherence_equals_normalized_cross_density(rng):
    omegas = np.linspace(0.05, 4.0, 23)
    for params in (GENERIC, UNIT_SUM, random_admissible(rng, 2)):
        c = coherence(params, 0, 1)
        s01 = cross_spectral_density(params, 0, 1, omegas)
        s00 = cross_spectral_density(params, 0, 0, omegas).real
        s11 = cross_spectral_density(params, 1, 1, omegas).real
        grid = np.abs(s01) ** 2 / (s00 * s11)
        assert np.allclose(grid, c, rtol=1e-12)


def test_coherence_rejects_diagonal():
    with pytest.raises(ValueError):
        coherence(GENERIC, 0, 0)


def test_coherence_below_one_for_admissible(rng):
    for _ in range(10):
        params = random_admissible(rng, 2)
        assert coherence(params, 0, 1) <= 1.0 + 1e-12


def test_gamma_matches_scipy():
    # every Gamma argument in the package lies in (0.5, 3)
    x = np.linspace(0.5, 3.0, 2001)[1:]
    np.testing.assert_allclose(_gamma(x), gamma_fn(x), rtol=2e-15, atol=0.0)
    scalar = _gamma(np.float64(1.7))
    assert type(scalar) is float and scalar == pytest.approx(gamma_fn(1.7), rel=2e-15)
    assert type(_gamma(np.array(2.5))) is float
    grid = x[:12].reshape(3, 4)
    assert _gamma(grid).shape == (3, 4)
    np.testing.assert_array_equal(_gamma(grid), _gamma(x[:12]).reshape(3, 4))


def test_component_index_out_of_range_raises():
    # a negative index would wrap silently in a bare q[i, j], and in the
    # p x p pair arrays of the covariance functions
    for i, j in ((0, 2), (2, 0), (-1, 0), (0, -1), (1, -2)):
        with pytest.raises(IndexError):
            spectral_coeff(GENERIC, i, j, +1)
        with pytest.raises(IndexError):
            cross_spectral_density(GENERIC, i, j, 0.5)
        with pytest.raises(IndexError):
            low_frequency_modulus(GENERIC, i, j, 0.5)
        with pytest.raises(IndexError):
            coherence(GENERIC, i, j)
        with pytest.raises(IndexError):
            structure_function(GENERIC, i, j, 1.0)
        with pytest.raises(IndexError):
            mfbm_covariance(GENERIC, i, j, 1.0, 2.0)
        with pytest.raises(IndexError):
            increment_covariance(GENERIC, i, j, np.array([0.0, 1.0]))
        with pytest.raises(IndexError):
            covariance_tail_constant(GENERIC, i, j, +1)


def test_admissibility_matrix_matches_pair_formulas():
    # both pair formulas written out entry by entry:
    #   generic:  Gamma(a+1) (rho sin(pi a/2) - i eta cos(pi a/2))
    #   unit sum: Gamma(a+1) (rho - i (pi/2) eta)
    rng = np.random.default_rng(7130)
    unit_draws = 0
    for k in range(330):
        p = int(rng.integers(2, 6))
        H = rng.uniform(0.05, 0.95, size=p)
        if k % 3 == 0:
            i, j = rng.choice(p, size=2, replace=False)
            H[j] = 1.0 - H[i]
            unit_draws += 1
        rho = np.eye(p)
        eta = np.zeros((p, p))
        for i in range(p):
            for j in range(i + 1, p):
                rho[i, j] = rho[j, i] = rng.uniform(-0.9, 0.9)
                eta[i, j] = rng.uniform(-0.9, 0.9)
                eta[j, i] = -eta[i, j]
        params = MfbmParams(H=H, sigma=np.ones(p), rho=rho, eta=eta)
        q = admissibility_matrix(params)
        assert np.array_equal(q, q.conj().T)
        for i in range(p):
            for j in range(p):
                if i == j:
                    continue
                a = H[i] + H[j]
                if abs(a - 1.0) <= UNIT_SUM_TOL:
                    coeff = complex(rho[i, j], -0.5 * math.pi * eta[i, j])
                else:
                    coeff = complex(
                        rho[i, j] * math.sin(0.5 * math.pi * a),
                        -eta[i, j] * math.cos(0.5 * math.pi * a),
                    )
                want = math.gamma(a + 1.0) * coeff
                assert abs(q[i, j] - want) <= 1e-15 * abs(want)
                got = spectral_coeff(params, i, j, +1)
                assert abs(got - coeff) <= 1e-15 * abs(coeff)
    assert unit_draws >= 100


def test_unit_sum_branch_follows_pair_kind_at_band_edge(monkeypatch):
    # |H_i + H_j - 1| = UNIT_SUM_TOL exactly is still unit-sum, as in
    # pair_kind; no float sum lies exactly 1e-9 from 1, so the edge is hit
    # under dyadic bands
    cases = (([0.25, 0.75], 0.0, True), ([0.5, 0.625], 0.125, True),
             ([0.5, 0.6875], 0.125, False))
    for H, band, unit in cases:
        monkeypatch.setattr("mfbm.params.UNIT_SUM_TOL", band)
        params = make_params(H, rho01=0.4, eta01=0.3)
        a = params.hurst_sum(0, 1)
        assert (params.pair_kind(0, 1) is PairKind.UNIT_SUM) == unit
        if unit:
            coeff = complex(0.4, -0.5 * math.pi * 0.3)
        else:
            half_alpha = 0.5 * math.pi * a
            coeff = complex(0.4 * math.sin(half_alpha), -0.3 * math.cos(half_alpha))
        q01 = admissibility_matrix(params)[0, 1]
        assert abs(q01 - math.gamma(a + 1.0) * coeff) <= 1e-15 * abs(q01)
