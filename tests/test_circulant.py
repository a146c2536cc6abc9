import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfbm import (
    CirculantEmbeddingError,
    CovarianceExistenceError,
    EigPolicy,
    Ensemble,
    SimulationConfig,
    build_plan,
    default_embedding_order,
    dense_oracle_simulate,
    lag_block_array,
    simulate,
    toeplitz_covariance,
)
from mfbm.circulant import MAX_DOUBLINGS, _half_generator, _replicate_rng, _sampler
from conftest import make_params, random_admissible

# Admissible pair whose circulant embedding is indefinite at every
# tried order; the negative mass grows with m instead of vanishing.
STUBBORN = make_params(
    [0.8552209546808407, 0.8902845959317469],
    rho01=-0.1350304501824543,
    eta01=-0.41199791578472383,
)

# Pair whose order-4 embedding for n=3 is indefinite (smallest relative
# eigenvalue -5.8e-4) while the order-8 one is not.
GROWS_ONCE = make_params([0.95, 0.6], rho01=-0.6)


def test_default_embedding_order_values():
    assert default_embedding_order(1) == 2
    assert default_embedding_order(2) == 4
    assert default_embedding_order(33) == 128


@given(st.integers(min_value=1, max_value=5000))
def test_default_embedding_order_properties(n):
    m = default_embedding_order(n)
    assert m & (m - 1) == 0
    assert m > 2 * (n - 1)
    assert m == 2 or m // 2 <= 2 * (n - 1)


def test_config_validation():
    SimulationConfig(n=4, m=8)
    for bad in (
        dict(n=0),
        dict(n=4, replicates=0),
        dict(n=4, seed=-1),
        dict(n=4, m=12),
        dict(n=10, m=16),
    ):
        with pytest.raises(ValueError):
            SimulationConfig(**bad)
    assert SimulationConfig(n=4, eig_policy="truncate").eig_policy is (
        EigPolicy.TRUNCATE
    )
    assert SimulationConfig(n=9).resolved_m() == 32


@pytest.mark.parametrize(
    "field, bad",
    [
        ("n", 5.5), ("n", True), ("n", np.float64(4.0)), ("replicates", 2.0),
        ("seed", 1.5), ("seed", 2**64), ("m", 8.0),
    ],
)
def test_config_refuses_non_integer_settings(field, bad):
    # each used to fail later as a bare TypeError inside simulate or
    # build_plan, or, for n=True, to run with n = 1
    with pytest.raises(ValueError, match=f"^{field} must "):
        SimulationConfig(**{"n": 4, field: bad})


@pytest.mark.parametrize(
    "field, bad",
    [("n", 2.5), ("n", True), ("n", 0), ("seed", 1.5), ("seed", -1), ("replicates", 0),
     ("replicates", 2.0)],
)
def test_dense_oracle_refuses_non_integer_settings(field, bad):
    # n=2.5 used to end in an IndexError, replicates=0 in an empty ensemble
    with pytest.raises(ValueError, match=f"^{field} must "):
        dense_oracle_simulate(make_params([0.3]), **{"n": 4, field: bad})


def test_dense_oracle_refuses_a_set_without_covariance():
    # both used to be sampled after a diagonal ridge (0.27 and 70.4 at n = 8)
    with pytest.raises(CovarianceExistenceError):
        dense_oracle_simulate(make_params([0.2, 0.8], rho01=0.95), 8)
    with pytest.raises(ValueError, match="^invalid parameters"):
        dense_oracle_simulate(make_params([1.5]), 8)


def test_build_plan_rejects_inadmissible():
    with pytest.raises(CovarianceExistenceError):
        build_plan(make_params([0.1, 0.8], rho01=0.9), SimulationConfig(n=8))


def test_plan_blocks_match_lag_covariances(rng):
    params = random_admissible(rng, 3)
    plan = build_plan(params, SimulationConfig(n=8))
    m = plan.m
    for j in range(m // 2):
        assert np.allclose(
            plan.c_blocks[j], lag_block_array(params, [j])[0], rtol=0, atol=1e-13
        )
    for j in range(m // 2 + 1, m):
        assert np.array_equal(plan.c_blocks[j], plan.c_blocks[m - j].T)
    back = np.fft.ifft(plan.b_blocks, axis=0)
    assert np.allclose(back.real, plan.c_blocks, rtol=0, atol=1e-10)
    assert np.abs(back.imag).max() < 1e-10
    herm = plan.b_blocks - np.conj(np.transpose(plan.b_blocks, (0, 2, 1)))
    # cross entries are conjugate-paired exactly; diagonals keep FFT round-off
    assert np.abs(herm).max() <= 1e-14 * np.abs(plan.b_blocks).max()
    off = herm[:, ~np.eye(3, dtype=bool)]
    assert np.abs(off).max() == 0.0


def half_eigenvalues(plan):
    """The block eigenvalues at frequencies 0..m/2, as build_plan computes them."""
    return np.linalg.eigh(plan.b_blocks[: plan.m // 2 + 1])[0]


def test_plan_eigen_mirror_and_exactness(rng):
    params = random_admissible(rng, 2)
    plan = build_plan(params, SimulationConfig(n=16, eig_policy="fail"))
    assert plan.exact
    half = plan.m // 2
    assert plan.truncated_mass <= 1e-10 * half_eigenvalues(plan).max()
    assert plan.sqrt_blocks.shape == (half + 1, 2, 2)
    rebuilt = np.einsum(
        "kuv,kvw->kuw", plan.sqrt_blocks, plan.sqrt_blocks, optimize=True
    )
    assert np.allclose(
        rebuilt,
        plan.b_blocks[: half + 1],
        rtol=0,
        atol=1e-9 * np.abs(plan.b_blocks).max(),
    )


def test_plan_records_doublings_and_eigenvalue_margin():
    plan = build_plan(GROWS_ONCE, SimulationConfig(n=3, m=4))
    assert (plan.m, plan.doublings, plan.exact) == (8, 1, True)
    vals = half_eigenvalues(plan)
    assert plan.min_rel_eigenvalue == vals.min() / vals.max()
    assert plan.min_rel_eigenvalue > 0.0
    kept = build_plan(GROWS_ONCE, SimulationConfig(n=3, m=4, eig_policy="truncate"))
    assert (kept.m, kept.doublings, kept.exact) == (4, 0, False)
    assert kept.min_rel_eigenvalue < -1e-4


def _half_plan_bytes(m, p):
    # complex square roots
    return (m // 2 + 1) * 16 * p * p


def test_plan_stores_only_the_half_grid(rng):
    params = random_admissible(rng, 3)
    plan = build_plan(params, SimulationConfig(n=20))
    m, half = plan.m, plan.m // 2
    stored = {k: v for k, v in vars(plan).items() if isinstance(v, np.ndarray)}
    assert set(stored) == {"roots"}
    assert half_eigenvalues(plan).shape == (half + 1, 3)
    assert plan.roots.shape == (3, 3, half + 1) and plan.roots.flags.c_contiguous
    assert sum(a.nbytes for a in stored.values()) == _half_plan_bytes(m, 3)
    # the exact-wide benchmark plan: p=5, m=2^17
    assert _half_plan_bytes(2**17, 5) == 26_214_800
    assert plan.sqrt_blocks.shape == (half + 1, 3, 3)
    assert np.shares_memory(plan.sqrt_blocks, plan.roots)
    assert np.array_equal(plan.sqrt_blocks[:, 0, 1], plan.roots[0, 1])
    assert plan.c_blocks.shape == plan.b_blocks.shape == (m, 3, 3)
    assert np.array_equal(plan.c_blocks[: half + 1], _half_generator(params, m, plan.n))
    for name in ("sqrt_blocks", "c_blocks", "b_blocks"):
        assert not getattr(plan, name).flags.writeable
        with pytest.raises(AttributeError):
            setattr(plan, name, None)


def test_plan_keeps_a_view_once_read(rng):
    # the full-length views were rebuilt on every access, which made a
    # block loop over c_blocks rebuild the generator per block
    plan = build_plan(random_admissible(rng, 2), SimulationConfig(n=16))
    for name in ("c_blocks", "b_blocks"):
        assert name not in vars(plan)
        first = getattr(plan, name)
        assert getattr(plan, name) is first
        assert not first.flags.writeable
        assert vars(plan)[name] is first


def test_simulate_working_memory_budget():
    # beyond the returned paths, simulate holds its (m, p) Philox buffer,
    # a component-major complex copy of its half spectrum and one
    # component's row at a time: about 3 m p floats, bounded here by 4
    params = make_params([0.3, 0.5, 0.7], rho01=0.3, eta01=0.1)
    config = SimulationConfig(n=8192, replicates=2)
    plan = build_plan(params, config)
    assert plan.m == 2**14
    tracemalloc.start()
    try:
        paths = simulate(plan, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - paths.values.nbytes <= 4 * plan.m * 3 * 8


def test_build_plan_rejects_asymmetric_fold_at_minimal_order():
    # at m = 2(n-1) the lag-8 block would be folded onto its transpose,
    # zeroing its cross entries (+-0.0125) while the plan claimed exactness
    params = make_params([0.3, 0.7], rho01=0.3, eta01=0.2)
    for policy in ("fail", "grow", "truncate"):
        with pytest.raises(ValueError, match="smallest lossless order is m=32"):
            build_plan(params, SimulationConfig(n=9, m=16, eig_policy=policy))
    plan = build_plan(params, SimulationConfig(n=9, m=32, eig_policy="fail"))
    assert plan.exact
    assert np.array_equal(plan.c_blocks[8], lag_block_array(params, [8])[0])


def _reference_paths(plan, config):
    """simulate rebuilt from its definition: the same Philox draws as a
    full Hermitian vector, full-length square roots of b_blocks, and the
    real part of a complex FFT."""
    m, p, n = plan.m, plan.params.p, config.n
    half = m // 2
    vals, vecs = np.linalg.eigh(plan.b_blocks)
    roots = np.einsum(
        "kup,kp,kvp->kuv", vecs, np.sqrt(np.maximum(vals, 0.0)), np.conj(vecs)
    )
    out = []
    for r in range(config.replicates):
        buf = np.empty((m, p))
        _replicate_rng(config.seed, r).standard_normal(out=buf)
        z = np.empty((m, p), dtype=complex)
        z[0] = np.sqrt(2.0) * buf[0]
        z[half] = np.sqrt(2.0) * buf[half]
        for k in range(1, half):
            z[k] = buf[k] + 1j * buf[half + k]
            z[m - k] = np.conj(z[k])
        z /= np.sqrt(2.0 * m)
        out.append(np.fft.fft(np.einsum("kuv,kv->ku", roots, z), axis=0)[:n].real)
    return np.array(out)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 17])
def test_simulate_matches_definition(rng, p, n):
    params = random_admissible(rng, p)
    config = SimulationConfig(n=n, replicates=3, seed=41)
    cases = [(build_plan(params, config), config)]
    if p == 2 and n == 17:
        stubborn = SimulationConfig(n=8, m=16, eig_policy="truncate", replicates=2)
        cases.append((build_plan(STUBBORN, stubborn), stubborn))
    for plan, cfg in cases:
        values = simulate(plan, cfg).values
        want = _reference_paths(plan, cfg)
        # one (R, n, p) array of its own, never a view of an m-row transform
        assert values.flags.c_contiguous and values.flags.owndata
        assert not values.flags.writeable and values.shape == want.shape
        assert np.allclose(values, want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("p", [1, 2, 3])
def test_sampler_draws_the_replicates_of_simulate(rng, p):
    # the routine CLI simulate streams from: one reused (n, p) row, filled
    # in any order, holds simulate's replicate r bit for bit, also at a
    # path length below the plan's
    params = random_admissible(rng, p)
    assert p == 1 or np.any(params.eta != 0.0)
    plan = build_plan(params, SimulationConfig(n=17))
    config = SimulationConfig(n=11, replicates=4, seed=5)
    want = simulate(plan, config).values
    draw = _sampler(plan, config)
    row = np.empty((11, p))
    for r in (3, 0, 2, 1, 3):
        assert draw(r, row) is row
        assert row.tobytes() == want[r].tobytes()


def test_simulate_shapes_and_integration(rng):
    # simulate returns increments only; integrating them is left to the
    # caller (CLI simulate --integrate), so the library has no switch for it
    params = random_admissible(rng, 2)
    config = SimulationConfig(n=10, replicates=3, seed=7)
    plan = build_plan(params, config)
    paths = simulate(plan, config)
    assert len(paths) == 3 and paths.values.shape == (3, 10, 2)
    with pytest.raises(TypeError):
        simulate(plan, config, integrate=True)


def test_simulate_reproducible_per_replicate(rng):
    params = random_admissible(rng, 2)
    base = SimulationConfig(n=6, replicates=3, seed=11)
    plan = build_plan(params, base)
    first = simulate(plan, base).values
    assert np.array_equal(simulate(plan, base).values, first)
    solo = simulate(plan, SimulationConfig(n=6, replicates=1, seed=11)).values
    assert np.array_equal(solo[0], first[0])
    other = simulate(plan, SimulationConfig(n=6, replicates=1, seed=12)).values
    assert not np.array_equal(other[0], first[0])


def test_simulate_meta_records_run(rng):
    params = random_admissible(rng, 2)
    config = SimulationConfig(n=5, replicates=2, seed=3)
    plan = build_plan(params, config)
    meta = simulate(plan, config).meta
    assert meta["n"] == 5
    assert meta["m"] == plan.m
    assert meta["seed"] == 3
    assert meta["replicates"] == 2
    assert meta["eig_policy"] == "grow"
    assert meta["exact"] is True
    assert meta["doublings"] == plan.doublings == 0
    assert meta["min_rel_eigenvalue"] == plan.min_rel_eigenvalue
    assert "integrate" not in meta and "replicate" not in meta


def test_simulate_meta_records_the_plan_policy():
    # the record used to copy the sampling config's policy, "grow" here
    plan = build_plan(STUBBORN, SimulationConfig(n=8, m=16, eig_policy="truncate"))
    assert plan.eig_policy is EigPolicy.TRUNCATE
    meta = simulate(plan, SimulationConfig(n=8, m=16)).meta
    assert meta["eig_policy"] == "truncate" and meta["exact"] is False


def test_simulate_returns_one_ensemble_with_one_record(rng):
    params = random_admissible(rng, 2)
    config = SimulationConfig(n=6, replicates=3, seed=4)
    paths = simulate(build_plan(params, config), config)
    assert isinstance(paths, Ensemble)
    assert [f.name for f in dataclasses.fields(paths)] == ["values", "meta"]
    assert len(paths) == 3 and paths.values.shape == (3, 6, 2)
    assert isinstance(paths.meta, dict)
    # one array and one record: no per-path items to index or iterate
    with pytest.raises(TypeError):
        paths[0]
    with pytest.raises(TypeError):
        iter(paths)


def test_plans_paths_and_ensembles_compare_by_identity():
    # a dataclass __eq__ over array fields raises "truth value ... is
    # ambiguous" from ==, `in`, .count and .index; these compare by identity
    params = make_params([0.3])
    config = SimulationConfig(n=4, replicates=2)
    plan_a, plan_b = build_plan(params, config), build_plan(params, config)
    e, e2 = simulate(plan_a, config), simulate(plan_b, config)
    assert (plan_a == plan_b, plan_a == plan_a) == (False, True)
    assert (e == e2, e == e) == (False, True)
    assert ([e, e2].count(e), [e2].index(e2), e in [e2]) == (1, 0, False)


def test_simulate_rejects_config_longer_than_plan(rng):
    params = random_admissible(rng, 2)
    plan = build_plan(params, SimulationConfig(n=10))
    assert plan.m == 32
    with pytest.raises(ValueError, match="plan"):
        simulate(plan, SimulationConfig(n=32))
    with pytest.raises(ValueError, match="plan"):
        simulate(plan, SimulationConfig(n=11))
    assert simulate(plan, SimulationConfig(n=10)).values.shape == (1, 10, 2)


def test_values_are_frozen(rng):
    params = random_admissible(rng, 1)
    config = SimulationConfig(n=4)
    values = simulate(build_plan(params, config), config).values
    with pytest.raises(ValueError):
        values[0, 0, 0] = 0.0


def test_stubborn_embedding_fail_policy_raises():
    config = SimulationConfig(n=8, m=16, eig_policy="fail")
    with pytest.raises(CirculantEmbeddingError, match="negative eigenvalue"):
        build_plan(STUBBORN, config)


def test_stubborn_embedding_grow_policy_exhausts():
    config = SimulationConfig(n=8, m=16, eig_policy="grow")
    with pytest.raises(CirculantEmbeddingError):
        build_plan(STUBBORN, config)


def test_stubborn_embedding_grow_policy_stops_when_mass_grows():
    # negative eigenvalue mass 1.69 at m=16, 3.71 at m=32: one doubling
    # that does not help ends the walk, far below the default cap
    config = SimulationConfig(n=8, m=16)
    assert config.eig_policy is EigPolicy.GROW and MAX_DOUBLINGS > 1
    with pytest.raises(CirculantEmbeddingError) as caught:
        build_plan(STUBBORN, config)
    message = str(caught.value)
    assert "m=16: " in message and "m=32: " in message
    assert "m=64" not in message


def test_stubborn_embedding_truncate_policy_degrades():
    config = SimulationConfig(n=8, m=16, eig_policy="truncate", replicates=2)
    plan = build_plan(STUBBORN, config)
    assert not plan.exact
    assert plan.truncated_mass == pytest.approx(1.691172, rel=1e-5)
    paths = simulate(plan, config)
    assert np.all(np.isfinite(paths.values))
    assert paths.meta["exact"] is False
    assert paths.meta["truncated_mass"] == plan.truncated_mass


def test_grow_policy_keeps_order_when_exact(rng):
    params = random_admissible(rng, 2)
    config = SimulationConfig(n=8, eig_policy="grow")
    plan = build_plan(params, config)
    assert plan.m == default_embedding_order(8)


def test_toeplitz_covariance_structure(rng):
    params = random_admissible(rng, 2)
    full = toeplitz_covariance(params, 6)
    assert full.shape == (12, 12)
    assert np.allclose(full, full.T, rtol=0, atol=1e-15)
    assert np.linalg.eigvalsh(full).min() > -1e-10 * full.max()
    # every (s, t) block, against the block-by-block definition
    for n in (1, 2, 6):
        dense = toeplitz_covariance(params, n)
        gam = lag_block_array(params, np.arange(n))
        for s, t in np.ndindex(n, n):
            block = gam[t - s] if t >= s else gam[s - t].T
            assert np.array_equal(dense[2 * s : 2 * s + 2, 2 * t : 2 * t + 2], block)


def test_dense_oracle_caps_length_and_reproduces(rng):
    params = random_admissible(rng, 2)
    with pytest.raises(ValueError):
        dense_oracle_simulate(params, 65)
    first = dense_oracle_simulate(params, 12, seed=5, replicates=2)
    again = dense_oracle_simulate(params, 12, seed=5, replicates=2)
    assert isinstance(first, Ensemble) and len(first) == 2
    assert first.values.shape == (2, 12, 2) and not first.values.flags.writeable
    assert np.array_equal(first.values, again.values)
    assert not np.array_equal(first.values[0], first.values[1])
    solo = dense_oracle_simulate(params, 12, seed=5)
    assert np.array_equal(solo.values[0], first.values[0])


def test_dense_oracle_reports_ridge_as_inexact(rng):
    regular = dense_oracle_simulate(random_admissible(rng, 2), 8, seed=2)
    assert regular.meta["diag_shift"] == 0.0
    assert regular.meta["exact"] is True
    # identical components: the covariance is singular and needs a ridge
    twins = make_params([0.5, 0.5], rho01=1.0)
    ridged = dense_oracle_simulate(twins, 8, seed=2)
    assert ridged.meta["diag_shift"] > 0.0
    assert ridged.meta["exact"] is False


def test_dense_oracle_stream_disjoint_from_circulant(rng):
    params = random_admissible(rng, 1)
    config = SimulationConfig(n=8, m=16, seed=9)
    circ = simulate(build_plan(params, config), config)
    dense = dense_oracle_simulate(params, 8, seed=9)
    assert not np.array_equal(circ.values, dense.values)


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=2, max_value=40))
def test_exact_plan_matches_dense_covariance(n):
    # the circulant construction is lossless below the fold, so the
    # implied covariance of the first n increments is the dense one
    params = make_params([0.3, 0.7], rho01=0.3, eta01=0.1)
    plan = build_plan(params, SimulationConfig(n=n, eig_policy="fail"))
    full = toeplitz_covariance(params, n)
    p = params.p
    for s in range(0, n, max(1, n // 4)):
        for t in range(0, n, max(1, n // 4)):
            j = t - s
            block = plan.c_blocks[j] if j >= 0 else plan.c_blocks[-j].T
            assert np.allclose(
                full[s * p : (s + 1) * p, t * p : (t + 1) * p],
                block,
                rtol=0,
                atol=1e-14,
            )
