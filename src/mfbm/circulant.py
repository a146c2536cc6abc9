"""Exact sampling of mfGn paths through block-circulant embedding.

The block Toeplitz covariance of n consecutive increment vectors is
embedded into a block circulant operator of order m, diagonalized by the
DFT into m small Hermitian blocks. Complex Gaussian vectors with the
right conjugate symmetry, colored by the Hermitian square roots of those
blocks and transformed back, have exactly the target law whenever every
block eigenvalue is nonnegative.

The generator of a real embedding is transpose-mirrored and its
spectrum conjugate-mirrored, so the sampler colors frequencies 0..m/2
only, and one real inverse transform of that half spectrum (numpy's
``hfft``) returns a real component path directly. The plan stores two
arrays over those frequencies: the block eigenvalues and the square
roots, component-major (p, p, m/2+1), so that each output component is
colored from contiguous rows and transformed on its own. The generator
blocks are recomputed on access rather than stored.

Increments are simulated at unit step; rescale by self-similarity for
other steps. The sampler returns increments only: an integrated path is
their cumulative sum with a leading zero row, as CLI ``simulate
--integrate`` writes it.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Any

import numpy as np
# numpy 2 loads these submodules on first use; importing them here keeps
# that one-off cost out of the first timed simulate call
from numpy.fft import irfft, rfft
from numpy.random import Generator, Philox, SeedSequence

# increment_covariance and validate are unused here, but the benchmark
# tracer (perfbench/tracing.py) wraps them under this module's name
from .covariance import increment_covariance, lag_block_array  # noqa: F401
from .existence import _ridged_cholesky, check_admissibility
from .params import MfbmParams, _check_int, validate  # noqa: F401

__all__ = [
    "EigPolicy",
    "SimulationConfig",
    "CirculantEmbeddingError",
    "CirculantPlan",
    "build_plan",
    "simulate",
    "Ensemble",
    "default_embedding_order",
    "toeplitz_covariance",
    "dense_oracle_simulate",
]

NEGATIVE_EIG_REL_TOL = 1e-12
DENSE_ORACLE_MAX_N = 64
MAX_DOUBLINGS = 4


class EigPolicy(str, Enum):
    """What to do when an embedding block has a negative eigenvalue."""

    FAIL = "fail"
    GROW = "grow"
    TRUNCATE = "truncate"


def default_embedding_order(n: int) -> int:
    """Smallest power of 2 strictly greater than 2(n-1), at least 2.

    Strict: at m = 2(n-1) the corner lag lands on the symmetrized block,
    which is lossy whenever the lag blocks are asymmetric (p >= 2);
    build_plan refuses such an explicit m for asymmetric blocks.
    """
    m = 2
    while m <= 2 * (n - 1):
        m *= 2
    return m


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class SimulationConfig:
    """Run settings for the circulant sampler.

    m = None auto-selects the embedding order. Replicate r draws from an
    independent substream derived from (seed, r), so any single replicate
    is reproducible without generating the others.
    """

    n: int
    m: int | None = None
    seed: int = 0
    replicates: int = 1
    eig_policy: EigPolicy = EigPolicy.GROW

    def __post_init__(self):
        _check_int("n", self.n)
        _check_int("replicates", self.replicates)
        _check_seed(self.seed)
        if self.m is not None:
            _check_int("m", self.m)
            if not _is_power_of_two(self.m):
                raise ValueError(f"m must be a power of 2, got {self.m}")
            if self.m < max(2, 2 * (self.n - 1)):
                raise ValueError(
                    f"m must be at least max(2, 2(n-1)) = {max(2, 2 * (self.n - 1))}"
                )
        object.__setattr__(self, "eig_policy", EigPolicy(self.eig_policy))

    def resolved_m(self) -> int:
        return self.m if self.m is not None else default_embedding_order(self.n)


class CirculantEmbeddingError(RuntimeError):
    """An embedding, or the reference sampler's dense covariance, stays
    indefinite for parameters that admit a covariance."""


@dataclass(frozen=True, eq=False)
class CirculantPlan:
    """Frozen factorization shared by all replicates of a run.

    Two arrays are stored, both for frequencies k = 0..m/2 only:
    eigenvalues_half[k], shape (m/2+1, p), the eigenvalues of the DFT
    block at frequency k, and roots, the Hermitian PSD square roots
    actually applied, component-major: roots[u, v] is the (u, v) entry
    of every root, shape (p, p, m/2+1). sqrt_blocks is a read-only
    (m/2+1, p, p) view of roots. The full-length c_blocks (the circulant
    generator, the fold block j = m/2 symmetrized) and b_blocks (its DFT
    blocks) are read-only, built on first access and kept on the plan from
    then on (they then appear in vars(plan)).
    exact is False only when eigenvalue mass beyond round-off was
    truncated; truncated_mass records everything clipped, round-off
    included. doublings counts how often the order was doubled from the
    configured one; min_rel_eigenvalue is the smallest block eigenvalue
    over the largest. eig_policy is the policy the plan was built under.
    """

    params: MfbmParams
    n: int
    m: int
    eig_policy: EigPolicy
    eigenvalues_half: np.ndarray
    roots: np.ndarray
    truncated_mass: float
    exact: bool
    doublings: int
    min_rel_eigenvalue: float

    def __post_init__(self):
        for name in ("eigenvalues_half", "roots"):
            getattr(self, name).setflags(write=False)

    @property
    def sqrt_blocks(self) -> np.ndarray:
        return np.moveaxis(self.roots, -1, 0)

    @cached_property
    def c_blocks(self) -> np.ndarray:
        return _unfold(_half_generator(self.params, self.m, self.n), self.m, _transpose)

    @cached_property
    def b_blocks(self) -> np.ndarray:
        return _unfold(_spectral_half(self.c_blocks), self.m, np.conj)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """One run: read-only increments of shape (R, n, p) and one meta record.

    values[r] is replicate r, drawn from the substream of (seed, r); len()
    counts the replicates.
    """

    values: np.ndarray
    meta: dict[str, Any]

    def __post_init__(self):
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return len(self.values)


def _half_generator(params: MfbmParams, m: int, n: int) -> np.ndarray:
    """Generator blocks for lags 0..m/2, the fold block symmetrized.

    At m = 2(n-1) the fold is the lag-(n-1) block itself, so an
    asymmetric one would be sampled with the wrong law: refuse it.
    """
    half = m // 2
    c = lag_block_array(params, np.arange(half + 1), 1.0)
    fold = c[half]
    skew = np.abs(fold - fold.T).max()
    if half == n - 1 and skew > NEGATIVE_EIG_REL_TOL * np.abs(c[0]).max():
        raise ValueError(
            f"m={m} = 2(n-1) folds the asymmetric lag-{n - 1} block onto its "
            f"transpose; the smallest lossless order is m={default_embedding_order(n)}"
        )
    c[half] = 0.5 * (fold + fold.T)
    return c


def _transpose(blocks: np.ndarray) -> np.ndarray:
    return np.transpose(blocks, (0, 2, 1))


def _unfold(half_rows: np.ndarray, m: int, mirror) -> np.ndarray:
    """Read-only full-length array from rows 0..m/2: row m-k is mirror(row k)."""
    half = m // 2
    out = np.empty((m,) + half_rows.shape[1:], dtype=half_rows.dtype)
    out[: half + 1] = half_rows
    out[half + 1 :] = mirror(half_rows[half - 1 : 0 : -1])
    out.setflags(write=False)
    return out


def _spectral_half(c_blocks: np.ndarray) -> np.ndarray:
    """Hermitian DFT blocks of the full generator at frequencies 0..m/2.

    Only u <= v is transformed (real input, so rfft); the lower triangle
    is set by conjugation, making every block Hermitian by construction.
    """
    m, p, _ = c_blocks.shape
    b = np.empty((m // 2 + 1, p, p), dtype=complex)
    for u in range(p):
        for v in range(u, p):
            b[:, u, v] = rfft(c_blocks[:, u, v])
            if v > u:
                b[:, v, u] = np.conj(b[:, u, v])
    return b


def build_plan(params: MfbmParams, config: SimulationConfig) -> CirculantPlan:
    """Assemble and factor the embedding for the given run settings.

    Negative block eigenvalues below -NEGATIVE_EIG_REL_TOL times the
    spectral maximum trigger the configured policy; smaller negatives are
    round-off and are clipped silently. The grow policy doubles m at most
    MAX_DOUBLINGS times and gives up as soon as a doubling fails to shrink
    the negative eigenvalue mass; the error names every order tried.
    An explicit m = 2(n-1) raises ValueError unless the lag-(n-1) block
    is symmetric. A set without a valid covariance raises
    CovarianceExistenceError first.
    """
    check_admissibility(params).require()
    m = config.resolved_m()
    tried: list[tuple[int, float, float]] = []  # (order, worst eigenvalue, negative mass)
    while True:
        half = m // 2
        # the generator, half and full, and its transform are temporaries
        vals, vecs = np.linalg.eigh(
            _spectral_half(_unfold(_half_generator(params, m, config.n), m, _transpose))
        )

        worst = float(vals.min())
        largest = float(vals.max())
        exact = bool(worst >= -NEGATIVE_EIG_REL_TOL * largest)
        # frequencies 1..m/2-1 stand for their mirrors too
        clipped = np.abs(np.minimum(vals, 0.0))
        truncated_mass = float(clipped.sum() + clipped[1:half].sum())
        if not exact and config.eig_policy is not EigPolicy.TRUNCATE:
            tried.append((m, worst, truncated_mass))
            # growing stops at the cap, or once a doubling leaves the
            # negative mass no smaller than before it
            if (
                config.eig_policy is EigPolicy.GROW
                and len(tried) <= MAX_DOUBLINGS
                and (len(tried) == 1 or truncated_mass < tried[-2][2])
            ):
                m *= 2
                continue
            orders = ", ".join(f"m={k}: {w:.6e}" for k, w, _ in tried)
            raise CirculantEmbeddingError(
                f"embedding has a negative eigenvalue at every order tried "
                f"({orders}); eig_policy={EigPolicy.TRUNCATE.value!r} clips "
                "them at the cost of exactness"
            )
        p = params.p
        roots = np.empty((p, p, half + 1), dtype=complex)
        np.einsum(
            "kup,kp,kvp->uvk", vecs, np.sqrt(np.maximum(vals, 0.0)), np.conj(vecs),
            out=roots, optimize=True,
        )
        return CirculantPlan(
            params=params,
            n=config.n,
            m=m,
            eig_policy=config.eig_policy,
            eigenvalues_half=vals,
            roots=roots,
            truncated_mass=truncated_mass,
            exact=exact,
            doublings=len(tried),
            min_rel_eigenvalue=worst / largest,
        )


def _check_seed(seed) -> None:
    _check_int("seed", seed, 0)
    if seed >= 2**64:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")


def _replicate_rng(seed: int, replicate: int, stream: int = 0) -> Generator:
    key = (replicate,) if stream == 0 else (replicate, stream)
    return Generator(Philox(SeedSequence(entropy=seed, spawn_key=key)))


def _sampler(plan: CirculantPlan, config: SimulationConfig):
    """The one sampling routine: draw(r, out) writes replicate r of the run,
    drawn from the substream of (config.seed, r), into out, an (n, p)
    array, and returns out.

    Only the frequencies 0..m/2 are colored; hfft of that Hermitian half
    equals the real part of the full complex FFT, so the paths are real by
    construction. Each replicate's draws are copied once, component-major,
    into z; then each output component a is colored as one row,
    sum_v roots[a, v] * z[v], and run through one inverse FFT. The draw
    buffer, z and that row are allocated here, once, and shared by every
    call.
    """
    m, p, n = plan.m, plan.params.p, config.n
    if n > plan.n:
        raise ValueError(f"path length n={n} exceeds the plan's length n={plan.n}")
    half = m // 2
    inv_root = 1.0 / np.sqrt(2.0 * m)
    root2 = np.sqrt(2.0)
    buf = np.empty((m, p))
    u = buf[: half + 1].T
    v = buf[half + 1 :].T
    z = np.empty((p, half + 1), dtype=complex)
    w = np.empty(half + 1, dtype=complex)

    def draw(r: int, out: np.ndarray) -> np.ndarray:
        _replicate_rng(config.seed, r).standard_normal(out=buf)
        z[:, 0] = root2 * u[:, 0]
        z[:, half] = root2 * u[:, half]
        z.real[:, 1:half] = u[:, 1:half]
        z.imag[:, 1:half] = v
        np.multiply(z, inv_root, out=z)
        for a in range(p):
            np.einsum("vk,vk->k", plan.roots[a], z, out=w)
            # numpy's hfft, without its conjugate temporary
            out[:, a] = irfft(np.conjugate(w, out=w), n=m, norm="forward")[:n]
        return out

    return draw


def _run_meta(plan: CirculantPlan, config: SimulationConfig) -> dict[str, Any]:
    """The record of one sampled run: simulate's meta, and the body of CLI
    simulate's manifest.json."""
    return {
        "n": config.n, "m": plan.m, "seed": config.seed, "replicates": config.replicates,
        "eig_policy": plan.eig_policy.value,
        "exact": plan.exact, "truncated_mass": plan.truncated_mass,
        "doublings": plan.doublings, "min_rel_eigenvalue": plan.min_rel_eigenvalue,
        "rng": "philox, SeedSequence(entropy=seed, spawn_key=(replicate,))",
    }


def simulate(plan: CirculantPlan, config: SimulationConfig) -> Ensemble:
    """Draw config.replicates increment paths from the factored embedding.

    Returns one Ensemble: read-only increments of shape (R, n, p) and one
    meta dict recording the run. Each replicate is drawn straight into its
    row of the ensemble, so the working memory beyond the output is the
    draw buffer, a complex copy of it and one row (see _sampler).
    """
    draw = _sampler(plan, config)
    ens = np.empty((config.replicates, config.n, plan.params.p))
    for r in range(config.replicates):
        draw(r, ens[r])
    return Ensemble(ens, _run_meta(plan, config))


def toeplitz_covariance(params: MfbmParams, n: int) -> np.ndarray:
    """Dense covariance of n consecutive increment vectors, time-major.

    Entry ((s, u), (t, v)) with row index s*p+u is the covariance of
    increment u at time s with increment v at time t.
    """
    p = params.p
    gam = lag_block_array(params, np.arange(n), 1.0)
    back = np.subtract.outer(np.arange(n), np.arange(n))  # s - t at block (s, t)
    blocks = gam[np.abs(back)]
    blocks[back > 0] = _transpose(blocks[back > 0])
    return blocks.transpose(0, 2, 1, 3).reshape(n * p, n * p)


def dense_oracle_simulate(
    params: MfbmParams, n: int, seed: int = 0, replicates: int = 1
) -> Ensemble:
    """Reference sampler: dense Cholesky of the full increment covariance.

    Quadratic-size and cubic-time; capped at n = 64. Returns an Ensemble
    of (R, n, p) increments, like simulate. A set without a valid
    covariance raises CovarianceExistenceError, so only an admissible one
    is ridged (meta diag_shift). Substreams are disjoint from the circulant
    sampler's, so the two ensembles are independent even at equal seeds.
    """
    _check_int("n", n)
    _check_seed(seed)
    _check_int("replicates", replicates)
    if n > DENSE_ORACLE_MAX_N:
        raise ValueError(f"dense oracle is capped at n = {DENSE_ORACLE_MAX_N}")
    check_admissibility(params).require()
    full = toeplitz_covariance(params, n)
    try:
        chol, shift = _ridged_cholesky(full, 1e-12 * float(np.max(np.diag(full))))
    except np.linalg.LinAlgError:
        raise CirculantEmbeddingError(
            "dense covariance is numerically indefinite"
        ) from None
    p = params.p
    ens = np.empty((replicates, n, p))
    for r in range(replicates):
        eps = _replicate_rng(seed, r, stream=1).standard_normal(n * p)
        ens[r] = (chol @ eps).reshape(n, p)
    return Ensemble(ens, {
        "n": n, "seed": seed, "exact": shift == 0.0, "oracle": "dense cholesky",
        "diag_shift": shift,
        "rng": "philox, SeedSequence(entropy=seed, spawn_key=(replicate, 1))",
    })
