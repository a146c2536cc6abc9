import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from mfbm import (
    coherence,
    cross_spectral_density,
    low_frequency_modulus,
    spectral_coeff,
)
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
