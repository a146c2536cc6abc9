import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfbm import (
    CirculantEmbeddingError,
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
from mfbm.circulant import _half_generator, _replicate_rng
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
        dict(n=4, max_doublings=-1),
        dict(n=4, m=12),
        dict(n=10, m=16),
    ):
        with pytest.raises(ValueError):
            SimulationConfig(**bad)
    assert SimulationConfig(n=4, eig_policy="truncate").eig_policy is (
        EigPolicy.TRUNCATE
    )
    assert SimulationConfig(n=9).resolved_m() == 32


def test_build_plan_rejects_inadmissible():
    with pytest.raises(CirculantEmbeddingError):
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


def test_plan_eigen_mirror_and_exactness(rng):
    params = random_admissible(rng, 2)
    plan = build_plan(params, SimulationConfig(n=16, eig_policy="fail"))
    assert plan.exact
    assert plan.truncated_mass <= 1e-10 * plan.eigenvalues.max()
    half = plan.m // 2
    for k in range(1, half):
        assert np.array_equal(plan.eigenvalues[plan.m - k], plan.eigenvalues[k])
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
    vals = plan.eigenvalues
    assert plan.min_rel_eigenvalue == vals.min() / vals.max()
    assert plan.min_rel_eigenvalue > 0.0
    kept = build_plan(GROWS_ONCE, SimulationConfig(n=3, m=4, eig_policy="truncate"))
    assert (kept.m, kept.doublings, kept.exact) == (4, 0, False)
    assert kept.min_rel_eigenvalue < -1e-4


def _half_plan_bytes(m, p):
    # float eigenvalues, complex square roots
    return (m // 2 + 1) * (8 * p + 16 * p * p)


def test_plan_stores_only_the_half_grid(rng):
    params = random_admissible(rng, 3)
    plan = build_plan(params, SimulationConfig(n=20))
    m, half = plan.m, plan.m // 2
    stored = {k: v for k, v in vars(plan).items() if isinstance(v, np.ndarray)}
    assert set(stored) == {"eigenvalues_half", "roots"}
    assert plan.eigenvalues_half.shape == (half + 1, 3)
    assert plan.roots.shape == (3, 3, half + 1) and plan.roots.flags.c_contiguous
    assert sum(a.nbytes for a in stored.values()) == _half_plan_bytes(m, 3)
    # the exact-wide benchmark plan: p=5, m=2^17
    assert _half_plan_bytes(2**17, 5) == 28_836_280
    assert plan.sqrt_blocks.shape == (half + 1, 3, 3)
    assert np.shares_memory(plan.sqrt_blocks, plan.roots)
    assert np.array_equal(plan.sqrt_blocks[:, 0, 1], plan.roots[0, 1])
    assert np.array_equal(plan.c_half, _half_generator(params, m, plan.n))
    assert plan.c_blocks.shape == plan.b_blocks.shape == (m, 3, 3)
    assert plan.eigenvalues.shape == (m, 3)
    assert np.array_equal(plan.c_blocks[: half + 1], plan.c_half)
    assert np.array_equal(plan.eigenvalues[: half + 1], plan.eigenvalues_half)
    for name in ("c_half", "sqrt_blocks", "c_blocks", "b_blocks", "eigenvalues"):
        assert not getattr(plan, name).flags.writeable
        with pytest.raises(AttributeError):
            setattr(plan, name, None)


@pytest.mark.parametrize("integrate", [False, True])
def test_simulate_working_memory_budget(integrate):
    # beyond the returned paths, simulate holds its (m, p) Philox buffer,
    # a component-major complex copy of its half spectrum and one
    # component's row at a time: about 3 m p floats, bounded here by 4
    params = make_params([0.3, 0.5, 0.7], rho01=0.3, eta01=0.1)
    config = SimulationConfig(n=8192, replicates=2)
    plan = build_plan(params, config)
    assert plan.m == 2**14
    tracemalloc.start()
    try:
        paths = simulate(plan, config, integrate=integrate)
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


def _reference_paths(plan, config, integrate):
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
        x = np.fft.fft(np.einsum("kuv,kv->ku", roots, z), axis=0)[:n].real
        if integrate:
            x = np.vstack([np.zeros((1, p)), np.cumsum(x, axis=0)])
        out.append(x)
    return out


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
        for integrate in (False, True):
            paths = simulate(plan, cfg, integrate=integrate)
            for path, want in zip(paths, _reference_paths(plan, cfg, integrate)):
                # a view of the (R, rows, p) ensemble, never of an m-row transform
                values = path.values
                assert values.flags.c_contiguous and not values.flags.writeable
                assert values.base.shape == (cfg.replicates,) + want.shape
                assert np.allclose(
                    path.values, want, rtol=0, atol=1e-12 * np.abs(want).max()
                )


def test_simulate_shapes_and_integration(rng):
    params = random_admissible(rng, 2)
    config = SimulationConfig(n=10, replicates=3, seed=7)
    plan = build_plan(params, config)
    paths = simulate(plan, config)
    assert len(paths) == 3
    assert all(path.values.shape == (10, 2) for path in paths)
    walks = simulate(plan, config, integrate=True)
    assert all(path.values.shape == (11, 2) for path in walks)
    for inc, walk in zip(paths, walks):
        assert np.array_equal(walk.values[0], np.zeros(2))
        assert np.allclose(np.diff(walk.values, axis=0), inc.values, atol=1e-14)


def test_simulate_reproducible_per_replicate(rng):
    params = random_admissible(rng, 2)
    base = SimulationConfig(n=6, replicates=3, seed=11)
    plan = build_plan(params, base)
    first = simulate(plan, base)
    again = simulate(plan, base)
    for a, b in zip(first, again):
        assert np.array_equal(a.values, b.values)
    solo = simulate(plan, SimulationConfig(n=6, replicates=1, seed=11))
    assert np.array_equal(solo[0].values, first[0].values)
    other = simulate(plan, SimulationConfig(n=6, replicates=1, seed=12))
    assert not np.array_equal(other[0].values, first[0].values)


def test_simulate_meta_records_run(rng):
    params = random_admissible(rng, 2)
    config = SimulationConfig(n=5, replicates=2, seed=3)
    plan = build_plan(params, config)
    path = simulate(plan, config, integrate=True)[1]
    meta = path.meta
    assert meta["n"] == 5
    assert meta["m"] == plan.m
    assert meta["seed"] == 3
    assert path.replicate == 1
    assert meta["eig_policy"] == "grow"
    assert meta["integrate"] is True
    assert meta["exact"] is True


def test_simulate_returns_one_ensemble_with_one_record(rng):
    params = random_admissible(rng, 2)
    config = SimulationConfig(n=6, replicates=3, seed=4)
    paths = simulate(build_plan(params, config), config)
    assert isinstance(paths, Ensemble)
    assert len(paths) == 3 and len(list(paths)) == 3
    assert paths[0].meta is paths[-1].meta is paths.meta
    assert "replicate" not in paths.meta
    assert paths[-1].replicate == 2 and paths[np.int64(1)].replicate == 1
    assert np.array_equal(paths[-1].values, paths.values[2])
    assert [path.replicate for path in paths[::-2]] == [2, 0]
    with pytest.raises(IndexError):
        paths[3]
    with pytest.raises(IndexError):
        paths[-4]


def test_plans_paths_and_ensembles_compare_by_identity():
    # a dataclass __eq__ over array fields raises "truth value ... is
    # ambiguous" from ==, `in`, .count and .index; these compare by identity
    params = make_params([0.3])
    config = SimulationConfig(n=4, replicates=2)
    plan_a, plan_b = build_plan(params, config), build_plan(params, config)
    e, e2 = simulate(plan_a, config), simulate(plan_b, config)
    assert (plan_a == plan_b, plan_a == plan_a) == (False, True)
    assert (e == e2, e == e, e[0] == e2[0]) == (False, True, False)
    # items are fresh row views, so none is found in the sequence
    assert (e[0] in e, e.count(e[0])) == (False, 0)
    with pytest.raises(ValueError) as missing:
        e.index(e[0])
    assert "ambiguous" not in str(missing.value)


def test_simulate_rejects_config_longer_than_plan(rng):
    params = random_admissible(rng, 2)
    plan = build_plan(params, SimulationConfig(n=10))
    assert plan.m == 32
    with pytest.raises(ValueError, match="plan"):
        simulate(plan, SimulationConfig(n=32))
    with pytest.raises(ValueError, match="plan"):
        simulate(plan, SimulationConfig(n=11))
    assert simulate(plan, SimulationConfig(n=10))[0].values.shape == (10, 2)


def test_values_are_frozen(rng):
    params = random_admissible(rng, 1)
    config = SimulationConfig(n=4)
    path = simulate(build_plan(params, config), config)[0]
    with pytest.raises(ValueError):
        path.values[0, 0] = 0.0


def test_stubborn_embedding_fail_policy_raises():
    config = SimulationConfig(n=8, m=16, eig_policy="fail")
    with pytest.raises(CirculantEmbeddingError, match="negative eigenvalue"):
        build_plan(STUBBORN, config)


def test_stubborn_embedding_grow_policy_exhausts():
    config = SimulationConfig(n=8, m=16, eig_policy="grow", max_doublings=3)
    with pytest.raises(CirculantEmbeddingError):
        build_plan(STUBBORN, config)


def test_stubborn_embedding_grow_policy_stops_when_mass_grows():
    # negative eigenvalue mass 1.69 at m=16, 3.71 at m=32: one doubling
    # that does not help ends the walk, far below the default cap
    config = SimulationConfig(n=8, m=16)
    assert config.eig_policy is EigPolicy.GROW and config.max_doublings > 1
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
    for path in paths:
        assert np.all(np.isfinite(path.values))
        assert path.meta["exact"] is False
        assert path.meta["truncated_mass"] == plan.truncated_mass


def test_grow_policy_keeps_order_when_exact(rng):
    params = random_admissible(rng, 2)
    config = SimulationConfig(n=8, eig_policy="grow", max_doublings=6)
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
    assert len(first) == 2
    assert first[0].values.shape == (12, 2)
    for a, b in zip(first, again):
        assert np.array_equal(a.values, b.values)
    assert not np.array_equal(first[0].values, first[1].values)
    assert isinstance(first, Ensemble) and not first.integrate
    assert first[0].meta is first[1].meta is first.meta
    assert [path.replicate for path in first] == [0, 1]


def test_dense_oracle_reports_ridge_as_inexact(rng):
    regular = dense_oracle_simulate(random_admissible(rng, 2), 8, seed=2)[0]
    assert regular.meta["diag_shift"] == 0.0
    assert regular.meta["exact"] is True
    # identical components: the covariance is singular and needs a ridge
    twins = make_params([0.5, 0.5], rho01=1.0)
    ridged = dense_oracle_simulate(twins, 8, seed=2)[0]
    assert ridged.meta["diag_shift"] > 0.0
    assert ridged.meta["exact"] is False


def test_dense_oracle_stream_disjoint_from_circulant(rng):
    params = random_admissible(rng, 1)
    config = SimulationConfig(n=8, m=16, seed=9)
    circ = simulate(build_plan(params, config), config)[0]
    dense = dense_oracle_simulate(params, 8, seed=9)[0]
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
