import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfbm import (
    covariance_tail_constant,
    increment_covariance,
    is_time_reversible,
    lag_block_array,
    mfbm_covariance,
    structure_function,
)
from conftest import make_params, random_admissible

GENERIC = make_params([0.3, 0.6], rho01=0.4, eta01=0.1)
UNIT_SUM = make_params([0.3, 0.7], rho01=0.4, eta01=0.1)


def test_structure_function_zero_at_origin():
    assert structure_function(GENERIC, 0, 1, 0.0) == 0.0
    assert structure_function(UNIT_SUM, 0, 1, 0.0) == 0.0


def test_structure_function_generic_values():
    # (rho - eta sign h) |h|^alpha with alpha = 0.9
    assert structure_function(GENERIC, 0, 1, 2.0) == pytest.approx(
        0.3 * 2.0**0.9, rel=1e-15
    )
    assert structure_function(GENERIC, 0, 1, -1.0) == pytest.approx(0.5, rel=1e-15)


def test_structure_function_unit_sum_values():
    # rho |h| + eta h log|h|
    assert structure_function(UNIT_SUM, 0, 1, 2.0) == pytest.approx(
        0.8 + 0.2 * np.log(2.0), rel=1e-15
    )
    assert structure_function(UNIT_SUM, 0, 1, -1.0) == pytest.approx(0.4, rel=1e-15)


def test_covariance_frozen_anchor_generic():
    # hand evaluation of the three structure values for s=1, t=2
    assert mfbm_covariance(GENERIC, 0, 1, 1.0, 2.0) == pytest.approx(
        0.37990989746104223, rel=1e-14
    )


def test_covariance_frozen_anchor_unit_sum():
    assert mfbm_covariance(UNIT_SUM, 0, 1, 1.0, 2.0) == pytest.approx(
        0.4 + 0.1 * np.log(2.0), rel=1e-14
    )


def test_diagonal_reduces_to_single_component_form(rng):
    params = random_admissible(rng, 2)
    for _ in range(20):
        s, t = rng.uniform(-3.0, 3.0, size=2)
        for i in range(2):
            h2 = 2.0 * params.H[i]
            want = (
                0.5
                * params.sigma[i] ** 2
                * (abs(s) ** h2 + abs(t) ** h2 - abs(t - s) ** h2)
            )
            assert mfbm_covariance(params, i, i, s, t) == pytest.approx(
                want, rel=1e-12, abs=1e-12
            )


def test_increment_covariance_at_zero_lag_is_rho():
    # unit step, generic pair: gamma(0) = sigma_i sigma_j rho
    params = make_params([0.3, 0.6], sigma=[1.5, 2.0], rho01=0.4, eta01=0.1)
    assert increment_covariance(params, 0, 1, 0.0) == pytest.approx(
        1.5 * 2.0 * 0.4, rel=1e-14
    )


def test_increment_covariance_vectorized():
    hs = np.array([-2.0, 0.0, 1.0, 7.5])
    out = increment_covariance(GENERIC, 0, 1, hs)
    assert out.shape == hs.shape
    for k, h in enumerate(hs):
        want = increment_covariance(GENERIC, 0, 1, float(h))
        assert out[k] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_increment_covariance_rejects_bad_delta():
    with pytest.raises(ValueError):
        increment_covariance(GENERIC, 0, 1, 1.0, delta=0.0)
    with pytest.raises(ValueError):
        increment_covariance(GENERIC, 0, 1, 1.0, delta=-1.0)


@given(h=st.floats(-50.0, 50.0), delta=st.floats(0.1, 3.0))
@settings(max_examples=60, deadline=None)
def test_lag_reflection_swaps_components(h, delta):
    for params in (GENERIC, UNIT_SUM):
        a = increment_covariance(params, 0, 1, h, delta)
        b = increment_covariance(params, 1, 0, -h, delta)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-14)


@given(
    t=st.floats(-20.0, 20.0),
    h=st.floats(-10.0, 10.0),
    delta=st.floats(0.1, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_increments_are_stationary(t, h, delta):
    # lag covariance equals the four-term window of the full covariance
    # at any base time, which also checks the two routes agree
    for params in (GENERIC, UNIT_SUM):
        direct = increment_covariance(params, 0, 1, h, delta)
        c = lambda s, u: mfbm_covariance(params, 0, 1, s, u)
        window = (
            c(t + delta, t + h + delta)
            - c(t + delta, t + h)
            - c(t, t + h + delta)
            + c(t, t + h)
        )
        assert direct == pytest.approx(window, rel=1e-9, abs=1e-9)


@given(lam=st.floats(0.01, 100.0), s=st.floats(-5.0, 5.0), t=st.floats(-5.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_joint_self_similarity(lam, s, t):
    for params in (GENERIC, UNIT_SUM):
        for i, j in ((0, 0), (0, 1), (1, 1)):
            a = mfbm_covariance(params, i, j, lam * s, lam * t)
            b = lam ** params.hurst_sum(i, j) * mfbm_covariance(params, i, j, s, t)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


def test_lag_block_matches_pointwise():
    block = lag_block_array(GENERIC, [2.5], delta=0.5)[0]
    assert block.shape == (2, 2)
    for i in range(2):
        for j in range(2):
            want = increment_covariance(GENERIC, i, j, np.array([2.5]), 0.5)[0]
            assert block[i, j] == want


def test_lag_block_array_shape_and_values():
    hs = np.arange(-3, 4, dtype=float)
    blocks = lag_block_array(GENERIC, hs)
    assert blocks.shape == (7, 2, 2)
    assert blocks[3, 0, 1] == increment_covariance(GENERIC, 0, 1, 0.0)


def test_zero_lag_block_is_psd_for_admissible_draws(rng):
    for p in (2, 3, 5):
        params = random_admissible(rng, p)
        block = lag_block_array(params, [0.0])[0]
        eigs = np.linalg.eigvalsh(block)
        assert eigs.min() >= -1e-12 * eigs.max()


def test_tail_constant_generic_frozen():
    # 0.5 * (rho - eta sign) * alpha * (alpha - 1); the 0.5 matters,
    # without it the decay ratio settles at 2 instead of 1
    params = make_params([0.7, 0.7], rho01=0.5)
    assert covariance_tail_constant(params, 0, 1, +1) == pytest.approx(
        0.14, rel=1e-14
    )


def test_tail_constant_unit_sum_frozen():
    params = make_params([0.3, 0.7], rho01=0.4, eta01=0.2)
    assert covariance_tail_constant(params, 0, 1, +1) == pytest.approx(0.1, rel=1e-14)
    assert covariance_tail_constant(params, 0, 1, -1) == pytest.approx(-0.1, rel=1e-14)


def test_tail_constant_vanishes_when_flat():
    assert covariance_tail_constant(make_params([0.3, 0.7], rho01=0.4), 0, 1, +1) == 0.0


def test_tail_constant_validates_sign():
    with pytest.raises(ValueError):
        covariance_tail_constant(GENERIC, 0, 1, 0)


@pytest.mark.parametrize(
    "params,sign",
    [
        (make_params([0.7, 0.7], rho01=0.5), +1),
        (make_params([0.6, 0.75], rho01=0.3, eta01=0.15), -1),
        (make_params([0.3, 0.7], rho01=0.4, eta01=0.2), +1),
    ],
)
def test_tail_ratio_approaches_one(params, sign):
    h = sign * 1.0e4
    kappa = covariance_tail_constant(params, 0, 1, sign)
    envelope = (
        params.sigma[0]
        * params.sigma[1]
        * abs(h) ** (params.hurst_sum(0, 1) - 2.0)
        * kappa
    )
    ratio = increment_covariance(params, 0, 1, h) / envelope
    assert ratio == pytest.approx(1.0, abs=1e-4)


def test_time_reversibility_is_exact_zero_test():
    assert is_time_reversible(make_params([0.3, 0.6], rho01=0.4))
    assert not is_time_reversible(make_params([0.3, 0.6], rho01=0.4, eta01=1e-300))
