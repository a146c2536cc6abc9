import json

import numpy as np
import pytest

from mfbm import (
    MfbmParams,
    PairKind,
    SpecialCase,
    dump_params,
    eta_from_prime,
    eta_prime,
    load_params,
    params_from_dict,
    params_to_dict,
    special_case_eta,
    validate,
)
from mfbm.spectral import _pair_weights
from conftest import make_params


def test_valid_params_pass_validation():
    params = make_params([0.3, 0.7], rho01=0.4, eta01=0.1)
    report = validate(params)
    assert report.ok
    assert report.violations == ()


def test_arrays_are_frozen():
    params = make_params([0.3, 0.7])
    with pytest.raises(ValueError):
        params.H[0] = 0.5
    with pytest.raises(ValueError):
        params.rho[0, 1] = 0.2


def test_validation_collects_all_violations():
    # deliberately broken on several axes at once
    params = MfbmParams(
        H=np.array([0.0, 1.2]),
        sigma=np.array([1.0, -1.0]),
        rho=np.array([[1.0, 0.5], [0.4, 0.9]]),
        eta=np.array([[0.1, 0.2], [0.2, 0.0]]),
    )
    report = validate(params)
    assert not report.ok
    text = str(report)
    assert len(report.violations) >= 4
    for word in ("H", "sigma", "rho", "eta"):
        assert word in text


def test_validation_rejects_rho_above_one():
    params = make_params([0.4, 0.6], rho01=1.5)
    assert not validate(params).ok


@pytest.mark.parametrize(
    "field, value",
    [("eta", np.inf), ("eta", -np.inf), ("eta", np.nan), ("rho", np.nan),
     ("sigma", np.inf), ("H", np.nan)],
)
def test_validation_rejects_non_finite_entries(field, value):
    params = make_params([0.4, 0.6], rho01=0.2, eta01=0.1)
    arrays = {
        name: np.array(getattr(params, name)) for name in ("H", "sigma", "rho", "eta")
    }
    if field in ("rho", "eta"):
        sign = 1.0 if field == "rho" else -1.0
        arrays[field][0, 1], arrays[field][1, 0] = value, sign * value
    else:
        arrays[field][1] = value
    report = validate(MfbmParams(**arrays))
    assert not report.ok
    assert f"every {field} entry must be finite" in report.violations


def test_validation_rejects_negative_one_tol():
    params = make_params([0.4, 0.6], one_tol=-1.0)
    assert not validate(params).ok


@pytest.mark.parametrize("one_tol", [True, np.inf, np.nan, "1e-9"])
def test_one_tol_must_be_a_finite_real_number(one_tol):
    # True ran as 1.0 and a string was cast; an infinite band passed
    # validate, and every pair, diagonal ones included, took the unit-sum
    # branch
    with pytest.raises(ValueError, match="^one_tol must be"):
        make_params([0.4, 0.6], one_tol=one_tol)


def test_pair_kind_window():
    params = make_params([0.3, 0.7])
    assert params.pair_kind(0, 1) is PairKind.UNIT_SUM
    assert params.pair_kind(0, 0) is PairKind.GENERIC_SUM
    generic = make_params([0.3, 0.6])
    assert generic.pair_kind(0, 1) is PairKind.GENERIC_SUM
    # the tolerance window is configurable
    wide = make_params([0.3, 0.7 + 1e-6], one_tol=1e-5)
    assert wide.pair_kind(0, 1) is PairKind.UNIT_SUM


@pytest.mark.parametrize("one_tol", [1e-9, 1e-5])
@pytest.mark.parametrize("excess", [0.0, 0.5, 2.0, 1e3])
def test_unit_sum_band_is_one_rule(one_tol, excess):
    # pair_kind, the spectral pair weights and the causal tie draw one band
    params = make_params([0.3, 0.7 + excess * one_tol], rho01=0.2, one_tol=one_tol)
    unit = params.pair_kind(0, 1) is PairKind.UNIT_SUM
    assert unit == (excess <= 1.0)
    _, s, t = _pair_weights(params.H, one_tol)
    assert (s[0, 1] == 1.0 and t[0, 1] == 0.5 * np.pi) == unit
    half = make_params([0.5, 0.5 + excess * one_tol], rho01=0.2, one_tol=one_tol)
    if half.pair_kind(0, 1) is PairKind.UNIT_SUM:
        with pytest.raises(ValueError, match="unit-sum"):
            special_case_eta(half, SpecialCase.CAUSAL)
    else:
        assert np.isfinite(special_case_eta(half, SpecialCase.CAUSAL).eta).all()


def test_hurst_sum_and_index_check():
    params = make_params([0.3, 0.6])
    assert params.hurst_sum(0, 1) == 0.3 + 0.6
    with pytest.raises(IndexError):
        params.hurst_sum(0, 2)
    with pytest.raises(IndexError):
        params.hurst_sum(-1, 0)


def test_eta_prime_round_trip():
    params = make_params([0.3, 0.6], eta01=0.2)
    ep = eta_prime(params, 0, 1)
    assert ep == pytest.approx((1.0 - 0.9) * 0.2)
    assert eta_from_prime(params, 0, 1, ep) == pytest.approx(0.2)


def test_eta_prime_rejected_on_unit_sum():
    params = make_params([0.3, 0.7], eta01=0.2)
    with pytest.raises(ValueError):
        eta_prime(params, 0, 1)
    with pytest.raises(ValueError):
        eta_from_prime(params, 0, 1, 0.1)


def test_dict_round_trip():
    params = make_params([0.3, 0.7], sigma=[1.5, 0.5], rho01=0.4, eta01=0.1)
    payload = params_to_dict(params)
    assert payload["p"] == 2
    back = params_from_dict(payload)
    assert np.array_equal(back.H, params.H)
    assert np.array_equal(back.sigma, params.sigma)
    assert np.array_equal(back.rho, params.rho)
    assert np.array_equal(back.eta, params.eta)


def test_dict_errors():
    payload = params_to_dict(make_params([0.3, 0.7]))
    del payload["H"]
    with pytest.raises(ValueError):
        params_from_dict(payload)
    payload = params_to_dict(make_params([0.3, 0.7]))
    payload["p"] = 3
    with pytest.raises(ValueError):
        params_from_dict(payload)


@pytest.mark.parametrize("declared", [True, 1.7, [1], "1"], ids=["bool", "float", "list", "str"])
def test_dict_refuses_a_non_integer_p(declared):
    # true and 1.7 used to pass on a one-component set, and [1] ended in a
    # TypeError from int()
    payload = {**params_to_dict(make_params([0.3])), "p": declared}
    with pytest.raises(ValueError, match="p must be a positive integer"):
        params_from_dict(payload)


def test_dict_rejects_unknown_keys():
    # a misspelt one_tol would otherwise fall back to the default silently
    payload = {**params_to_dict(make_params([0.3, 0.7])), "one_tl": 0.1, "Eta": 0}
    with pytest.raises(ValueError, match=r"\['Eta', 'one_tl'\]"):
        params_from_dict(payload)


def test_json_file_round_trip(tmp_path):
    params = make_params([0.2, 0.8], rho01=-0.3, eta01=0.05)
    path = tmp_path / "params.json"
    dump_params(params, path)
    with open(path) as handle:
        raw = json.load(handle)
    assert set(raw) >= {"p", "H", "sigma", "rho", "eta"}
    back = load_params(path)
    assert np.array_equal(back.rho, params.rho)
