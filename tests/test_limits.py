import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfbm import (
    KernelRegime,
    KernelSide,
    KernelSpec,
    dump_params,
    is_time_reversible,
    limit_target,
    load_kernel_spec,
    mfbm_covariance,
    realize_kernel,
    simulate_partial_sums,
)
from mfbm import limits
from mfbm.circulant import _replicate_rng

POS = KernelSide(KernelRegime.POWER_POS, alpha=1.0, d=0.2)
NEG = KernelSide(KernelRegime.POWER_NEG, alpha=0.7, d=-0.3)
SPIKE = KernelSide(KernelRegime.SUMMABLE, alpha=1.5)


def one_sided(cell, p=1, i=0, j=0, truncation=None):
    plus = [[None] * p for _ in range(p)]
    plus[i][j] = cell
    minus = [[None] * p for _ in range(p)]
    if p > 1:
        for k in range(p):
            if all(c is None for c in plus[k]):
                plus[k][k] = SPIKE
    return KernelSpec(plus=plus, minus=minus, truncation=truncation)


def test_kernel_side_validation():
    KernelSide("power_pos", alpha=-2.0, d=0.49)
    with pytest.raises(ValueError):
        KernelSide(KernelRegime.POWER_POS, alpha=1.0, d=0.5)
    with pytest.raises(ValueError):
        KernelSide(KernelRegime.POWER_POS, alpha=1.0, d=-0.1)
    with pytest.raises(ValueError):
        KernelSide(KernelRegime.POWER_NEG, alpha=1.0, d=0.1)
    with pytest.raises(ValueError):
        KernelSide(KernelRegime.POWER_NEG, alpha=1.0, d=-0.5)
    with pytest.raises(ValueError):
        KernelSide(KernelRegime.SUMMABLE, alpha=1.0, d=0.2)
    with pytest.raises(ValueError):
        KernelSide(KernelRegime.SUMMABLE, alpha=0.0)
    with pytest.raises(ValueError):
        KernelSide("sideways", alpha=1.0)


@pytest.mark.parametrize(
    "alpha, d, field",
    [("1", 0.2, "alpha"), (True, 0.2, "alpha"), (np.inf, 0.2, "alpha"),
     (np.nan, 0.2, "alpha"), (1.0, "x", "d"), (1.0, None, "d")],
    ids=["string-alpha", "bool-alpha", "inf-alpha", "nan-alpha", "string-d", "none-d"],
)
def test_kernel_side_refuses_non_real_alpha_and_d(alpha, d, field):
    # strings and None used to end in a TypeError, True ran as alpha = 1,
    # and an infinite or NaN alpha was taken
    with pytest.raises(ValueError, match=f"^kernel (tail constant )?{field} must be"):
        KernelSide(KernelRegime.POWER_POS, alpha=alpha, d=d)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(plus=(), minus=())
    with pytest.raises(ValueError):
        KernelSpec(plus=((POS,),), minus=())
    with pytest.raises(ValueError):
        KernelSpec(plus=((POS, None),), minus=((None, None),))
    with pytest.raises(ValueError):
        KernelSpec(plus=((None,),), minus=((None,),))
    with pytest.raises(ValueError):
        KernelSpec(plus=(("x",),), minus=((None,),))
    with pytest.raises(ValueError):
        KernelSpec(plus=((POS,),), minus=((None,),), truncation=0)
    assert one_sided(POS).p == 1


def test_realized_kernel_support():
    spec = one_sided(POS, truncation=8)
    plus = realize_kernel(spec, "plus", 0, 0)
    assert plus.shape == (17,)
    assert np.all(plus[:9] == 0.0)
    assert np.all(plus[9:] != 0.0)
    minus = realize_kernel(spec, "minus", 0, 0)
    assert np.array_equal(minus, np.zeros(17))
    with pytest.raises(ValueError):
        realize_kernel(spec, "sideways", 0, 0)
    with pytest.raises(ValueError):
        realize_kernel(one_sided(POS), "plus", 0, 0)


def test_realized_kernel_mirrors_on_minus_side():
    spec = KernelSpec(plus=((None,),), minus=((POS,),), truncation=6)
    minus = realize_kernel(spec, "minus", 0, 0)
    mirrored = realize_kernel(one_sided(POS, truncation=6), "plus", 0, 0)
    assert np.array_equal(minus, mirrored[::-1])


def test_summable_kernel_is_a_spike():
    spec = one_sided(SPIKE, truncation=5)
    out = realize_kernel(spec, "plus", 0, 0)
    want = np.zeros(11)
    want[5] = 1.5
    assert np.array_equal(out, want)


def test_negative_exponent_kernel_sums_to_zero():
    spec = one_sided(NEG, truncation=500)
    out = realize_kernel(spec, "plus", 0, 0)
    assert abs(out.sum()) <= 1e-12 * np.abs(out).sum()
    balance = -NEG.alpha / NEG.d * 500**NEG.d
    assert out[500] == pytest.approx(balance, rel=1e-12)


@given(
    st.floats(min_value=-0.45, max_value=-0.05),
    st.floats(min_value=0.1, max_value=3.0),
    st.integers(min_value=2, max_value=2000),
)
@settings(deadline=None)
def test_zero_sum_holds_for_any_negative_exponent(d, alpha, K):
    side = KernelSide(KernelRegime.POWER_NEG, alpha=alpha, d=d)
    out = realize_kernel(one_sided(side), "plus", 0, 0, truncation=K)
    assert abs(out.sum()) <= 1e-11 * np.abs(out).sum()


@given(
    st.floats(min_value=0.05, max_value=0.45),
    st.floats(min_value=0.1, max_value=3.0),
)
@settings(deadline=None)
def test_positive_exponent_partial_sums_telescope(d, alpha):
    # cumulative sums hit (alpha/d) k^d exactly, so the growth condition
    # holds with zero window error at every k, 10^3 and 10^4 included
    side = KernelSide(KernelRegime.POWER_POS, alpha=alpha, d=d)
    K = 10_000
    out = realize_kernel(one_sided(side), "plus", 0, 0, truncation=K)
    sums = np.cumsum(out[K + 1 :])
    ks = np.arange(1, K + 1, dtype=float)
    want = alpha / d * ks**d
    assert np.allclose(sums, want, rtol=1e-12, atol=0)


def test_limit_target_single_causal_kernel():
    spec = one_sided(KernelSide(KernelRegime.POWER_POS, alpha=1.0, d=0.2))
    target = limit_target(spec)
    assert target.h == pytest.approx([0.7], abs=0)
    assert np.allclose(target.m_plus, [[5.0]], rtol=1e-14)
    assert np.array_equal(target.m_minus, np.zeros((1, 1)))
    assert target.params.sigma[0] ** 2 == pytest.approx(
        20.972324296796103, rel=1e-12
    )


def test_limit_target_keeps_only_dominant_kernels():
    slow = KernelSide(KernelRegime.POWER_POS, alpha=2.0, d=0.1)
    spec = KernelSpec(
        plus=((POS, slow), (None, POS)),
        minus=((None, None), (NEG, None)),
    )
    target = limit_target(spec)
    assert np.array_equal(target.d, [0.2, 0.2])
    assert np.allclose(target.m_plus, [[5.0, 0.0], [0.0, 5.0]], rtol=1e-14)
    assert np.array_equal(target.m_minus, np.zeros((2, 2)))


def test_limit_target_two_sided_row():
    spec = KernelSpec(plus=((POS,),), minus=((POS,),))
    target = limit_target(spec)
    assert target.m_plus[0, 0] == target.m_minus[0, 0]
    assert target.m_plus[0, 0] == pytest.approx(5.0, rel=1e-14)
    assert target.params.H[0] == pytest.approx(0.7)


def test_limit_target_brownian_route():
    a = KernelSide(KernelRegime.SUMMABLE, alpha=2.0)
    b = KernelSide(KernelRegime.SUMMABLE, alpha=-1.0)
    spec = KernelSpec(
        plus=((a, b), (None, a)),
        minus=((None, None), (b, None)),
    )
    target = limit_target(spec)
    mix = np.array([[2.0, -1.0], [-1.0, 2.0]])
    assert np.array_equal(target.m_plus, mix)
    cov = mix @ mix.T
    assert np.array_equal(target.h, [0.5, 0.5])
    assert target.params.sigma == pytest.approx(np.sqrt(np.diag(cov)))
    assert target.params.rho[0, 1] == pytest.approx(
        cov[0, 1] / np.sqrt(cov[0, 0] * cov[1, 1])
    )
    assert np.array_equal(target.params.eta, np.zeros((2, 2)))


def test_limit_target_rejects_mixed_exponent_rows():
    spec = KernelSpec(
        plus=((POS, None), (None, SPIKE)),
        minus=((None, None), (None, None)),
    )
    with pytest.raises(ValueError):
        limit_target(spec)


def test_limit_target_rejects_cancelled_brownian_row():
    a = KernelSide(KernelRegime.SUMMABLE, alpha=2.0)
    b = KernelSide(KernelRegime.SUMMABLE, alpha=-2.0)
    spec = KernelSpec(plus=((a,),), minus=((b,),))
    with pytest.raises(ValueError, match="carries no variance"):
        limit_target(spec)


def brownian_p2():
    a = KernelSide(KernelRegime.SUMMABLE, alpha=2.0)
    b = KernelSide(KernelRegime.SUMMABLE, alpha=-1.0)
    return KernelSpec(plus=((a, b), (None, a)), minus=((None, None), (b, None)))


def brownian_p3():
    s = lambda alpha: KernelSide(KernelRegime.SUMMABLE, alpha=alpha)
    return KernelSpec(
        plus=((s(1.3), s(0.4), None), (s(-0.7), s(1.1), s(0.25)), (None, s(0.6), s(0.9))),
        minus=((s(0.2), None, s(-0.5)), (None, None, s(0.3)), (s(0.35), None, s(-0.4))),
    )


def cross_grid():
    # the psum-cross benchmark grid: cross terms and both power regimes
    pos = lambda alpha: KernelSide(KernelRegime.POWER_POS, alpha=alpha, d=0.2)
    neg = lambda alpha: KernelSide(KernelRegime.POWER_NEG, alpha=alpha, d=-0.2)
    return KernelSpec(
        plus=((pos(1.0), pos(0.5)), (None, neg(1.0))),
        minus=((None, None), (neg(0.4), None)),
    )


# Frozen limit_target outputs: (grid, m_plus, m_minus, sigma, rho_ij, eta_ij)
FROZEN_TARGETS = [
    (
        cross_grid,
        [[5.0, 2.5], [0.0, -5.0]],
        [[0.0, 0.0], [-2.0, 0.0]],
        [5.120098179819905, 7.374080039155267],
        [-0.003191147355783915],
        [0.13242923440744545],
    ),
    (
        brownian_p2,
        [[2.0, -1.0], [-1.0, 2.0]],
        [[0.0, 0.0], [0.0, 0.0]],
        [2.23606797749979, 2.23606797749979],
        [-0.7999999999999998],
        [0.0],
    ),
    (
        brownian_p3,
        [[1.5, 0.4, -0.5], [-0.7, 1.1, 0.55], [0.35, 0.6, 0.5]],
        np.zeros((3, 3)),
        [1.6309506430300091, 1.4150971698084907, 0.8558621384311844],
        [-0.3834565760015124, 0.3689458215940774, 0.5697167837062008],
        [0.0, 0.0, 0.0],
    ),
]


@pytest.mark.parametrize("grid, m_plus, m_minus, sigma, rho, eta", FROZEN_TARGETS)
def test_limit_target_frozen(grid, m_plus, m_minus, sigma, rho, eta, tmp_path):
    target = limit_target(grid())
    upper = np.triu_indices(target.params.p, 1)
    assert np.array_equal(target.m_plus, m_plus)
    assert np.array_equal(target.m_minus, m_minus)
    np.testing.assert_allclose(target.params.sigma, sigma, rtol=1e-14, atol=0)
    np.testing.assert_allclose(target.params.rho[upper], rho, rtol=1e-14, atol=0)
    np.testing.assert_allclose(target.params.eta[upper], eta, rtol=1e-14, atol=0)
    # a zero eta entry carries no sign, in either triangle or in the file
    zeros = target.params.eta == 0.0
    assert not np.signbit(target.params.eta[zeros]).any()
    dump_params(target.params, tmp_path / "limit.json")
    assert not re.search(r"-0\.0(?!\d)", (tmp_path / "limit.json").read_text())


def test_all_summable_limit_is_time_reversible():
    target = limit_target(brownian_p3())
    assert np.array_equal(target.h, [0.5, 0.5, 0.5])
    assert is_time_reversible(target.params)


def test_load_kernel_spec_rejects_unknown_keys(tmp_path):
    path = tmp_path / "k.json"
    cell = {"regime": "summable", "alpha": 1.0}
    path.write_text(json.dumps({"plus": [[cell]], "minus": [[None]], "trunction": 8}))
    with pytest.raises(ValueError, match="trunction"):
        load_kernel_spec(path)


def test_partial_sums_shape_and_zero_start():
    spec = one_sided(POS)
    out = simulate_partial_sums(spec, n=32, taus=[0.0, 0.5, 1.0], replicates=4)
    assert out.shape == (4, 3, 1)
    assert np.array_equal(out[:, 0, 0], np.zeros(4))


CROSS_GRID = KernelSpec(
    plus=((POS, NEG), (SPIKE, NEG)),
    minus=((None, POS), (NEG, None)),
)
# channel 2 feeds no component; row 2 mixes both power regimes
IDLE_CHANNEL_GRID = KernelSpec(
    plus=((POS, None, None), (NEG, SPIKE, None), (None, POS, None)),
    minus=((None, NEG, None), (None, None, None), (NEG, None, None)),
    truncation=2 * 32 + 3,
)


def _direct_partial_sums(spec, n, K, taus, seed, reps, noise):
    # the definition: convolve fresh Philox innovations with each kernel
    # ("valid" part), cumulate, read off floor(n tau), scale per row
    p = spec.p
    idx = np.floor(n * taus).astype(int)
    d = [
        max(c.d for side in (spec.plus, spec.minus) for c in side[i] if c is not None)
        for i in range(p)
    ]
    scale = n ** -(np.array(d) + 0.5)
    want = np.empty((reps, taus.size, p))
    for r in range(reps):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(r, 2)))
        )
        if noise == "gaussian":
            eps = rng.standard_normal((p, n + 2 * K))
        else:
            eps = rng.integers(0, 2, size=(p, n + 2 * K)).astype(float) * 2.0 - 1.0
        for i in range(p):
            z = sum(
                np.convolve(eps[j], realize_kernel(spec, side, i, j, K), "valid")
                for j in range(p)
                for side in ("plus", "minus")
            )
            want[r, :, i] = np.concatenate(([0.0], np.cumsum(z)))[idx] * scale[i]
    return want


@pytest.mark.parametrize("noise", ["gaussian", "rademacher"])
def test_window_sums_match_direct_convolution(noise):
    n, seed, reps = 32, 17, 3
    # floor(n tau) takes 0 (twice), 1 and n among the interior fractions
    taus = np.array([0.0, 0.5 / n, 1.0 / n, 0.2, 1.0 / 3.0, 0.5, 1.0])
    # K: the default 4n, and set on the grid, at n, over 4n and between
    for spec, K in [
        (CROSS_GRID, 4 * n),
        (IDLE_CHANNEL_GRID, IDLE_CHANNEL_GRID.truncation),
        (dataclasses.replace(IDLE_CHANNEL_GRID, truncation=n), n),
        (dataclasses.replace(CROSS_GRID, truncation=5 * n + 1), 5 * n + 1),
    ]:
        want = _direct_partial_sums(spec, n, K, taus, seed, reps, noise)
        got = simulate_partial_sums(
            spec, n=n, taus=taus, seed=seed, replicates=reps, noise=noise
        )
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(got[:, :2], np.zeros((reps, 2, spec.p)))


# every regime on both sides, cross cells, and channel 2 feeding nothing
ALL_REGIMES_GRID = KernelSpec(
    plus=((POS, NEG, None), (SPIKE, KernelSide(KernelRegime.POWER_POS, 0.5, 0.45), None),
          (NEG, SPIKE, None)),
    minus=((KernelSide(KernelRegime.POWER_NEG, -1.2, -0.45), SPIKE, None), (POS, NEG, None),
           (SPIKE, POS, None)),
)


def _cumulated_tails(spec, K):
    # the definition: realize both sides of every kernel, cumulate over
    # k' <= k and read it from k = K down
    tail = np.empty((spec.p, 2 * K + 1, spec.p))
    for i, j in np.ndindex(spec.p, spec.p):
        kernel = realize_kernel(spec, "plus", i, j, K) + realize_kernel(spec, "minus", i, j, K)
        tail[j, :, i] = np.cumsum(kernel)[::-1]
    return tail


@pytest.mark.parametrize("grid", [CROSS_GRID, IDLE_CHANNEL_GRID, ALL_REGIMES_GRID],
                         ids=["cross", "idle-channel", "all-regimes"])
@pytest.mark.parametrize("K", [32, 4 * 32, 4 * 32 + 3], ids=["n", "4n", "4n+3"])
def test_closed_form_tails_match_cumulated_kernels(grid, K):
    want = _cumulated_tails(grid, K)
    got = limits._kernel_tails(grid, K)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("K", [1, 32, 131, 4096])
def test_plus_side_negative_exponent_tail_ends_at_exactly_zero(K):
    # the balancing value cancels c K^d with the very number it wrote
    assert limits._kernel_tails(one_sided(NEG), K)[0, 0, 0] == 0.0


def test_partial_sums_realize_no_kernel(monkeypatch):
    want = simulate_partial_sums(CROSS_GRID, n=16, taus=[0.5, 1.0], seed=3, replicates=2)

    def refuse(*args, **kwargs):
        raise AssertionError("a kernel was realized")

    monkeypatch.setattr(limits, "realize_kernel", refuse)
    monkeypatch.setattr(limits, "_half_line", refuse)
    got = simulate_partial_sums(CROSS_GRID, n=16, taus=[0.5, 1.0], seed=3, replicates=2)
    assert np.array_equal(got, want)


def _partial_sums_peak_units(noise):
    """Peak working memory of simulate_partial_sums beyond its result, in
    kernel units of p^2 (2K + 1) floats, on the benchmark's grid."""
    spec = KernelSpec(
        plus=(
            (POS, KernelSide(KernelRegime.POWER_POS, alpha=0.5, d=0.2)),
            (None, KernelSide(KernelRegime.POWER_NEG, alpha=1.0, d=-0.2)),
        ),
        minus=((None, None), (KernelSide(KernelRegime.POWER_NEG, alpha=0.4, d=-0.2), None)),
    )
    n, p = 1024, 2
    K = 4 * n
    tracemalloc.start()
    try:
        out = simulate_partial_sums(
            spec, n=n, taus=[0.25, 0.5, 1.0], replicates=2, noise=noise
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - out.nbytes) / (p * p * (2 * K + 1) * 8)


def test_partial_sums_working_memory_budget():
    # beyond the returned sums, simulate_partial_sums holds the cumulated
    # kernels, p^2 (2K + 1) floats, and one (p, n + 2K) draw buffer: about
    # 1.6 kernel units on this grid (the benchmark's), bounded by 1.75.
    # Realizing each kernel and cumulating it peaked at 2.01
    assert _partial_sums_peak_units("gaussian") <= 1.75


def test_rademacher_partial_sums_working_memory_budget():
    # the signs are drawn in slices of _SIGN_CHUNK into the draw buffer, so
    # the integer temporary and its cast are one slice each: about 1.7
    # units, bounded by 1.75 (one row at a time peaked at 2.11, one whole
    # (p, n + 2K) draw at 2.39)
    assert _partial_sums_peak_units("rademacher") <= 1.75


def test_partial_sums_validation():
    spec = one_sided(POS)
    with pytest.raises(ValueError):
        simulate_partial_sums(spec, n=0, taus=[1.0])
    with pytest.raises(ValueError):
        simulate_partial_sums(spec, n=8, taus=[1.5])
    # NaN passes a test for lying outside [0, 1]; it used to end in a cast
    # warning and a matmul error that did not name taus
    with pytest.raises(ValueError, match=r"taus must lie in \[0, 1\], got \[0.5, nan\]"):
        simulate_partial_sums(spec, n=8, taus=[0.5, np.nan])
    with pytest.raises(ValueError):
        simulate_partial_sums(spec, n=8, taus=[1.0], noise="cauchy")
    with pytest.raises(ValueError):
        simulate_partial_sums(dataclasses.replace(spec, truncation=4), n=8, taus=[1.0])
    with pytest.raises(ValueError, match="replicates must be a positive integer"):
        simulate_partial_sums(spec, n=8, taus=[1.0], replicates=0)


@pytest.mark.parametrize(
    "bad", [5000.5, 16.0, True, "16", 0], ids=["fractional", "float", "bool", "str", "zero"]
)
def test_truncation_must_be_a_positive_integer(bad):
    # a float truncation used to end in a numpy TypeError, and True ran as K = 1
    with pytest.raises(ValueError, match="truncation must be a positive integer"):
        KernelSpec(plus=((POS,),), minus=((None,),), truncation=bad)
    with pytest.raises(ValueError, match="truncation must be a positive integer"):
        realize_kernel(one_sided(POS), "plus", 0, 0, truncation=bad)
    assert one_sided(POS, truncation=np.int64(16)).truncation == 16


@pytest.mark.parametrize(
    "bad", [8.0, 8.5, True, np.float64(8.0)], ids=["float", "fractional", "bool", "numpy-float"]
)
def test_partial_sums_need_an_integer_n(bad):
    with pytest.raises(ValueError, match="n must be a positive integer"):
        simulate_partial_sums(one_sided(POS), n=bad, taus=[1.0])


@pytest.mark.parametrize("bad", [1.5, -1, True, 2**64], ids=["float", "negative", "bool", "wide"])
def test_partial_sums_need_an_integer_seed(bad):
    with pytest.raises(ValueError, match="^seed must "):
        simulate_partial_sums(one_sided(POS), n=4, taus=[1.0], seed=bad)


def test_rademacher_signs_match_one_whole_draw():
    # row-by-row sign draws continue one Philox stream: the innovations are
    # those of a single (p, n + 2K) draw, so a spike grid returns its sums
    n, K, p, r = 8, 8, 2, 1
    spec = KernelSpec(
        plus=((SPIKE, None), (None, SPIKE)), minus=((None, None), (None, None)), truncation=K
    )
    out = simulate_partial_sums(
        spec, n=n, taus=[1.0], seed=5, replicates=r + 1, noise="rademacher"
    )
    signs = 2 * _replicate_rng(5, r, stream=2).integers(0, 2, size=(p, n + 2 * K)) - 1
    counts = np.round(out[r, 0] * np.sqrt(n) / SPIKE.alpha)
    assert np.array_equal(counts, signs[:, K : K + n].sum(axis=1))


def test_rademacher_signs_match_one_whole_draw_across_slices():
    # each channel's window [K, K + n) straddles a slice boundary, and one
    # fraction per step reads every sign in it
    n, K, p, r = 8, limits._SIGN_CHUNK - 4, 2, 1
    spec = KernelSpec(
        plus=((SPIKE, None), (None, SPIKE)), minus=((None, None), (None, None)), truncation=K
    )
    taus = np.arange(1, n + 1) / n
    out = simulate_partial_sums(
        spec, n=n, taus=taus, seed=9, replicates=r + 1, noise="rademacher"
    )
    signs = 2 * _replicate_rng(9, r, stream=2).integers(0, 2, size=(p, n + 2 * K)) - 1
    counts = np.round(out[r] * np.sqrt(n) / SPIKE.alpha)
    assert np.array_equal(counts, np.cumsum(signs[:, K : K + n], axis=1).T)


@pytest.mark.parametrize("declared", [True, 1.7, [1], "1"], ids=["bool", "float", "list", "str"])
def test_load_kernel_spec_refuses_a_non_integer_p(tmp_path, declared):
    # true used to pass on a one-wide grid
    path = tmp_path / "k.json"
    cell = {"regime": "power_pos", "alpha": 1.0, "d": 0.2}
    path.write_text(json.dumps({"p": declared, "plus": [[cell]], "minus": [[None]]}))
    with pytest.raises(ValueError, match="p must be a positive integer"):
        load_kernel_spec(path)


def test_partial_sums_reproducible():
    spec = one_sided(POS)
    a = simulate_partial_sums(spec, n=16, taus=[1.0], seed=3, replicates=3)
    b = simulate_partial_sums(spec, n=16, taus=[1.0], seed=3, replicates=3)
    c = simulate_partial_sums(spec, n=16, taus=[1.0], seed=4, replicates=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rademacher_noise_lands_on_the_parity_lattice():
    # spike kernel: S(tau) sqrt(n) / alpha is a sum of floor(n tau)
    # signs, hence an integer of that parity
    n = 64
    spec = one_sided(SPIKE, truncation=n)
    out = simulate_partial_sums(
        spec, n=n, taus=[0.25, 1.0], replicates=50, noise="rademacher"
    )
    lattice = out[:, :, 0] * np.sqrt(n) / SPIKE.alpha
    counts = np.array([n // 4, n])
    assert np.allclose(lattice, np.round(lattice), atol=1e-9)
    assert np.all((np.round(lattice) - counts) % 2 == 0)


def test_summable_partial_sums_match_brownian_variance():
    n, reps = 256, 2000
    spec = one_sided(SPIKE, truncation=n)
    out = simulate_partial_sums(spec, n=n, taus=[1.0], replicates=reps, seed=1)
    var = out[:, 0, 0].var()
    want = SPIKE.alpha**2
    assert abs(var - want) <= 5.0 * np.sqrt(2.0 / reps) * want


def test_brownian_variance_grows_linearly_in_tau():
    n, reps = 512, 2000
    taus = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
    spec = one_sided(SPIKE, truncation=n)
    out = simulate_partial_sums(spec, n=n, taus=taus, replicates=reps, seed=2)
    var = out[:, :, 0].var(axis=0)
    slope, intercept = np.polyfit(taus, var, 1)
    fitted = slope * taus + intercept
    ss_res = np.sum((var - fitted) ** 2)
    ss_tot = np.sum((var - var.mean()) ** 2)
    assert 1.0 - ss_res / ss_tot >= 0.99
    assert slope == pytest.approx(SPIKE.alpha**2, rel=0.2)


def test_coupled_positive_kernels_approach_their_target():
    same = KernelSide(KernelRegime.POWER_POS, alpha=0.8, d=0.2)
    cross = KernelSide(KernelRegime.POWER_POS, alpha=0.4, d=0.2)
    spec = KernelSpec(
        plus=((POS, None), (cross, same)),
        minus=((None, None), (None, None)),
    )
    target = limit_target(spec)
    n, reps = 256, 600
    out = simulate_partial_sums(spec, n=n, taus=[1.0], replicates=reps, seed=5)
    prods = {
        (i, j): out[:, 0, i] * out[:, 0, j]
        for i in range(2)
        for j in range(i, 2)
    }
    for (i, j), sample in prods.items():
        want = mfbm_covariance(target.params, i, j, 1.0, 1.0)
        stderr = sample.std() / np.sqrt(reps)
        # finite-n bias of the scaled sums stays under ~15% here
        assert abs(sample.mean() - want) <= 5.0 * stderr + 0.15 * abs(want)


@pytest.mark.parametrize("alpha", [1.0, 2.0, -1.0])
def test_limit_of_one_noise_in_two_components_has_rho_of_one(alpha):
    # both components sum the same noise through d = 0.3 kernels, so their
    # limits move in proportion and |rho| = 1; computed, it rounded above 1
    # and the limit set was refused as malformed
    cell = lambda a: KernelSide(KernelRegime.POWER_POS, alpha=a, d=0.3)
    spec = KernelSpec(plus=((cell(1.0), None), (cell(alpha), None)), minus=((None, None),) * 2)
    assert limit_target(spec).params.rho[0, 1] == np.sign(alpha)
