import dataclasses
import json

import numpy as np
import pytest

from mfbm import (
    MfbmParams,
    PairKind,
    SpecialCase,
    cross_spectral_density,
    dump_params,
    eta_from_prime,
    eta_prime,
    lag_block_array,
    load_params,
    mfbm_covariance,
    pair_coherence_at,
    params_from_dict,
    params_to_dict,
    special_case_eta,
    toeplitz_covariance,
    validate,
)
from mfbm.params import UNIT_SUM_TOL
from mfbm.spectral import _pair_weights
from conftest import make_params


def test_valid_params_pass_validation():
    params = make_params([0.3, 0.7], rho01=0.4, eta01=0.1)
    assert validate(params) is None


def test_arrays_are_frozen():
    params = make_params([0.3, 0.7])
    with pytest.raises(ValueError):
        params.H[0] = 0.5
    with pytest.raises(ValueError):
        params.rho[0, 1] = 0.2


def violations(excinfo) -> list[str]:
    """The violations a construction refusal lists, in order."""
    text = str(excinfo.value)
    assert text.startswith("invalid parameters: ")
    return text[len("invalid parameters: "):].split("; ")


def test_validation_collects_all_violations():
    # deliberately broken on several axes at once; one message names them all
    with pytest.raises(ValueError) as excinfo:
        MfbmParams(
            H=np.array([0.0, 1.2]),
            sigma=np.array([1.0, -1.0]),
            rho=np.array([[1.0, 0.5], [0.4, 0.9]]),
            eta=np.array([[0.1, 0.2], [0.2, 0.0]]),
        )
    found = violations(excinfo)
    assert len(found) >= 4
    for word in ("H", "sigma", "rho", "eta"):
        assert any(word in v for v in found)


def test_validation_rejects_rho_above_one():
    with pytest.raises(ValueError) as excinfo:
        make_params([0.4, 0.6], rho01=1.5)
    assert violations(excinfo) == ["every |rho_ij| must be at most 1"]


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
    with pytest.raises(ValueError) as excinfo:
        MfbmParams(**arrays)
    assert f"every {field} entry must be finite" in violations(excinfo)


@pytest.mark.parametrize(
    "fields, violation",
    [
        ({"H": [], "sigma": [], "rho": [[]], "eta": [[]]}, "H must be a nonempty vector"),
        ({"sigma": [1.0]}, "sigma must have shape (2,), got (1,)"),
        ({"rho": [[1.0]]}, "rho must have shape (2, 2), got (1, 1)"),
        ({"eta": np.zeros((2, 3))}, "eta must have shape (2, 2), got (2, 3)"),
    ],
    ids=["empty-H", "sigma", "rho", "eta"],
)
def test_validation_rejects_a_wrong_shape(fields, violation):
    arrays = {"H": [0.4, 0.6], "sigma": [1.0, 1.0], "rho": np.eye(2), "eta": np.zeros((2, 2))}
    with pytest.raises(ValueError) as excinfo:
        MfbmParams(**{**arrays, **fields})
    assert violations(excinfo) == [violation]


def test_scalars_make_a_one_component_set():
    params = MfbmParams(H=0.3, sigma=2.0, rho=1.0, eta=0.0)
    assert params.p == 1
    assert (params.H.shape, params.sigma.shape) == ((1,), (1,))
    assert (params.rho.shape, params.eta.shape) == ((1, 1), (1, 1))
    assert not params.rho.flags.writeable


BUILDS = {
    "direct": lambda rho01: make_params([0.4, 0.6], rho01=rho01),
    "replace": lambda rho01: dataclasses.replace(
        make_params([0.4, 0.6]), rho=[[1.0, rho01], [rho01, 1.0]]
    ),
    "from_dict": lambda rho01: params_from_dict(
        {**params_to_dict(make_params([0.4, 0.6])), "rho": [[1.0, rho01], [rho01, 1.0]]}
    ),
    "pair_coherence_at": lambda rho01: pair_coherence_at(0.4, 0.6, rho01, 0.0),
}


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
def test_every_way_of_making_a_set_refuses_a_malformed_one(build):
    # the one construction check: none of these holds a set with |rho| > 1
    build(0.5)
    with pytest.raises(ValueError) as excinfo:
        build(1.5)
    assert violations(excinfo) == ["every |rho_ij| must be at most 1"]


MALFORMED = {
    "H": {"H": [1.5], "sigma": [-1.0]},
    "sigma": {"H": [0.3, 0.7], "sigma": [1.0, -1.0]},
    "rho": {"H": [0.3, 0.7], "rho01": 2.0},
}
CLOSED_FORMS = {
    "lag_block_array": lambda params: lag_block_array(params, [0.0, 1.0, 2.0]),
    "toeplitz_covariance": lambda params: toeplitz_covariance(params, 3),
    "mfbm_covariance": lambda params: mfbm_covariance(params, 0, 0, 1.0, 2.0),
    "cross_spectral_density": lambda params: cross_spectral_density(params, 0, 0, 1.0),
}


@pytest.mark.parametrize("form", CLOSED_FORMS.values(), ids=CLOSED_FORMS.keys())
@pytest.mark.parametrize("fields", MALFORMED.values(), ids=MALFORMED.keys())
def test_closed_forms_never_see_a_malformed_set(form, fields):
    # at H = 1.5 lag_block_array once returned [1, 3, 6] and, with
    # sigma = -1, cross_spectral_density a negative density; rho01 = 2 gave
    # a lag-0 block with 2 off the diagonal
    with pytest.raises(ValueError, match="^invalid parameters: "):
        form(make_params(**fields))


@pytest.mark.parametrize("one_tol", [True, np.inf, np.nan, "1e-9", 1e-5])
def test_one_tol_must_be_a_finite_real_number(one_tol):
    # the band is the constant UNIT_SUM_TOL; a parameter dict may still
    # carry it, as files written while it was a setting do, and nothing
    # else: True ran as 1.0, a string was cast, an infinite band made every
    # pair unit-sum, and a wider one would move a pair to the other branch
    payload = params_to_dict(make_params([0.4, 0.6]))
    with pytest.raises(ValueError, match="^one_tol must be"):
        params_from_dict({**payload, "one_tol": one_tol})
    assert params_from_dict({**payload, "one_tol": 1e-09}).pair_kind(0, 1) is PairKind.UNIT_SUM


@pytest.mark.parametrize("field", ["H", "sigma", "rho", "eta"])
def test_a_number_too_large_for_a_float_names_its_field(field):
    # each raised a bare OverflowError: int too large to convert to float
    fields = dataclasses.asdict(make_params([0.4, 0.6]))
    fields[field] = np.asarray(fields[field], dtype=object)
    fields[field].flat[-1] = 10**400
    message = f"{field} holds a number too large for a float"
    with pytest.raises(ValueError, match=f"^{message}$"):
        MfbmParams(**fields)


def test_pair_kind_window():
    params = make_params([0.3, 0.7])
    assert params.pair_kind(0, 1) is PairKind.UNIT_SUM
    assert params.pair_kind(0, 0) is PairKind.GENERIC_SUM
    generic = make_params([0.3, 0.6])
    assert generic.pair_kind(0, 1) is PairKind.GENERIC_SUM


@pytest.mark.parametrize("step", [UNIT_SUM_TOL, 1e-5])
@pytest.mark.parametrize("excess", [0.0, 0.5, 2.0, 1e3])
def test_unit_sum_band_is_one_rule(step, excess):
    # pair_kind, the spectral pair weights and the causal tie draw one band,
    # UNIT_SUM_TOL, at offsets on its own scale and on a coarser one
    params = make_params([0.3, 0.7 + excess * step], rho01=0.2)
    unit = params.pair_kind(0, 1) is PairKind.UNIT_SUM
    assert unit == (excess * step <= UNIT_SUM_TOL)
    _, s, t = _pair_weights(params.H)
    assert (s[0, 1] == 1.0 and t[0, 1] == 0.5 * np.pi) == unit
    half = make_params([0.5, 0.5 + excess * step], rho01=0.2)
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
    # a misspelt key would otherwise be ignored silently
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
