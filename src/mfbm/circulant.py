"""Exact sampling of mfGn paths through block-circulant embedding.

The block Toeplitz covariance of n consecutive increment vectors is
embedded into a block circulant operator of order m, diagonalized by the
DFT into m small Hermitian blocks. Complex Gaussian vectors with the
right conjugate symmetry, colored by the Hermitian square roots of those
blocks and transformed back, have exactly the target law whenever every
block eigenvalue is nonnegative.

Increments are simulated at unit step; rescale by self-similarity for
other steps. Integrated paths are cumulative sums with a leading zero.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

import numpy as np

from .covariance import increment_covariance, lag_block_array
from .existence import check_admissibility
from .params import MfbmParams, validate

__all__ = [
    "EigPolicy",
    "SimulationConfig",
    "CirculantEmbeddingError",
    "CirculantPlan",
    "build_plan",
    "simulate",
    "SamplePath",
    "default_embedding_order",
    "toeplitz_covariance",
    "dense_oracle_simulate",
]

NEGATIVE_EIG_REL_TOL = 1e-12
DENSE_ORACLE_MAX_N = 64


class EigPolicy(str, Enum):
    """What to do when an embedding block has a negative eigenvalue."""

    FAIL = "fail"
    GROW = "grow"
    TRUNCATE = "truncate"


def default_embedding_order(n: int) -> int:
    """Smallest power of 2 strictly greater than 2(n-1), at least 2.

    Strict: at m = 2(n-1) the corner lag lands on the symmetrized block,
    which is lossy whenever the lag blocks are asymmetric (p >= 2).
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
    max_doublings: int = 4
    imag_tol: float = 1e-8

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.replicates < 1:
            raise ValueError("replicates must be a positive integer")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.max_doublings < 0:
            raise ValueError("max_doublings must be nonnegative")
        if self.imag_tol < 0.0:
            raise ValueError("imag_tol must be nonnegative")
        if self.m is not None:
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
    """Embedding blocks are not PSD and the policy forbids proceeding."""


@dataclass(frozen=True)
class CirculantPlan:
    """Frozen factorization shared by all replicates of a run.

    c_blocks[j] is the circulant generator block, b_blocks[k] its DFT,
    sqrt_blocks[k] the Hermitian PSD square root actually applied.
    exact is False only when eigenvalue mass beyond round-off was
    truncated; truncated_mass records everything clipped, round-off
    included.
    """

    params: MfbmParams
    n: int
    m: int
    c_blocks: np.ndarray
    b_blocks: np.ndarray
    eigenvalues: np.ndarray
    sqrt_blocks: np.ndarray
    truncated_mass: float
    exact: bool
    scale: float

    def __post_init__(self):
        for name in ("c_blocks", "b_blocks", "eigenvalues", "sqrt_blocks"):
            getattr(self, name).setflags(write=False)


@dataclass(frozen=True)
class SamplePath:
    """One simulated replicate with its provenance."""

    values: np.ndarray
    replicate: int
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self.values.setflags(write=False)


def _embedding_blocks(params: MfbmParams, m: int) -> np.ndarray:
    half = m // 2
    gam = lag_block_array(params, np.arange(half + 1), 1.0)
    p = params.p
    c = np.empty((m, p, p))
    c[:half] = gam[:half]
    c[half] = 0.5 * (gam[half] + gam[half].T)
    if half > 1:
        # lags past the fold wrap to negative: block transpose of the mirror
        c[half + 1 :] = np.transpose(gam[half - 1 : 0 : -1], (0, 2, 1))
    return c


def _spectral_blocks(c_blocks: np.ndarray) -> np.ndarray:
    """Per-frequency Hermitian blocks: scalar DFT of each (u, v) sequence.

    Only u <= v is transformed; the lower triangle is set by conjugation,
    making every block Hermitian by construction.
    """
    m, p, _ = c_blocks.shape
    b = np.empty((m, p, p), dtype=complex)
    for u in range(p):
        for v in range(u, p):
            b[:, u, v] = np.fft.fft(c_blocks[:, u, v])
            if v > u:
                b[:, v, u] = np.conj(b[:, u, v])
    return b


def build_plan(params: MfbmParams, config: SimulationConfig) -> CirculantPlan:
    """Assemble and factor the embedding for the given run settings.

    Negative block eigenvalues below -NEGATIVE_EIG_REL_TOL times the
    spectral maximum trigger the configured policy; smaller negatives are
    round-off and are clipped silently.
    """
    report = validate(params)
    if not report.ok:
        raise ValueError(f"invalid parameters: {report}")
    adm = check_admissibility(params)
    if not adm.admissible:
        raise CirculantEmbeddingError(
            "parameters admit no valid covariance "
            f"(minimum eigenvalue {adm.min_eigenvalue:.3e})"
        )
    m = config.resolved_m()
    doublings_left = (
        config.max_doublings if config.eig_policy is EigPolicy.GROW else 0
    )
    while True:
        c_blocks = _embedding_blocks(params, m)
        b_blocks = _spectral_blocks(c_blocks)
        half = m // 2
        vals_half, vecs_half = np.linalg.eigh(b_blocks[: half + 1])
        p = params.p
        vals = np.empty((m, p))
        vals[: half + 1] = vals_half
        vals[half + 1 :] = vals_half[half - 1 : 0 : -1]

        neg_floor = -NEGATIVE_EIG_REL_TOL * float(vals.max())
        worst = float(vals.min())
        if worst < neg_floor:
            if doublings_left > 0:
                doublings_left -= 1
                m *= 2
                continue
            if config.eig_policy is not EigPolicy.TRUNCATE:
                raise CirculantEmbeddingError(
                    f"embedding of order m={m} has negative eigenvalue "
                    f"{worst:.6e}; retry with a larger m or "
                    f"eig_policy={EigPolicy.TRUNCATE.value!r}"
                )
        truncated_mass = float(np.abs(np.minimum(vals, 0.0)).sum())
        exact = bool(worst >= neg_floor)
        sqrt_vals = np.sqrt(np.maximum(vals_half, 0.0))
        sqrt_blocks = np.empty((m, p, p), dtype=complex)
        sqrt_blocks[: half + 1] = np.einsum(
            "kup,kp,kvp->kuv", vecs_half, sqrt_vals, np.conj(vecs_half), optimize=True
        )
        # mirrored frequencies share the conjugate decomposition exactly
        sqrt_blocks[half + 1 :] = np.conj(sqrt_blocks[half - 1 : 0 : -1])
        var0 = np.array(
            [increment_covariance(params, i, i, 0.0, 1.0) for i in range(p)]
        )
        return CirculantPlan(
            params=params,
            n=config.n,
            m=m,
            c_blocks=c_blocks,
            b_blocks=b_blocks,
            eigenvalues=vals,
            sqrt_blocks=sqrt_blocks,
            truncated_mass=truncated_mass,
            exact=exact,
            scale=float(np.sqrt(var0.max())),
        )


def _replicate_rng(seed: int, replicate: int, stream: int = 0) -> np.random.Generator:
    key = (replicate,) if stream == 0 else (replicate, stream)
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


def _path_meta(config: SimulationConfig, plan_m: int, exact: bool, truncated_mass: float,
               replicate: int, integrate: bool) -> dict[str, Any]:
    return {
        "n": config.n,
        "m": plan_m,
        "seed": config.seed,
        "replicates": config.replicates,
        "eig_policy": config.eig_policy.value,
        "imag_tol": config.imag_tol,
        "integrate": integrate,
        "replicate": replicate,
        "exact": exact,
        "truncated_mass": truncated_mass,
        "rng": "philox, SeedSequence(entropy=seed, spawn_key=(replicate,))",
    }


def simulate(
    plan: CirculantPlan, config: SimulationConfig, integrate: bool = False
) -> list[SamplePath]:
    """Draw config.replicates paths from the factored embedding.

    Returns increment paths of shape (n, p), or integrated paths of
    shape (n+1, p) starting at zero when integrate is set. A residual
    imaginary part beyond imag_tol means broken conjugate symmetry and
    raises rather than returning corrupt data.
    """
    m, p, n = plan.m, plan.params.p, config.n
    if n > plan.n:
        raise ValueError(f"path length n={n} exceeds the plan's length n={plan.n}")
    half = m // 2
    inv_root = 1.0 / np.sqrt(2.0 * m)
    root2 = np.sqrt(2.0)
    buf = np.empty((2 * half, p))
    u = buf[: half + 1]
    v = buf[half + 1 :]
    z = np.empty((m, p), dtype=complex)
    out: list[SamplePath] = []
    for r in range(config.replicates):
        rng = _replicate_rng(config.seed, r)
        rng.standard_normal(out=buf)
        z[0] = root2 * u[0]
        z[half] = root2 * u[half]
        if half > 1:
            z[1:half] = u[1:half] + 1j * v
            z[half + 1 :] = np.conj(z[half - 1 : 0 : -1])
        z *= inv_root
        w = np.einsum("kuv,kv->ku", plan.sqrt_blocks, z)
        path_c = np.fft.fft(w, axis=0)[:n]
        resid = float(np.max(np.abs(path_c.imag)))
        if resid > config.imag_tol * plan.scale:
            raise CirculantEmbeddingError(
                f"residual imaginary magnitude {resid:.3e} exceeds tolerance; "
                "conjugate symmetry of the spectral draw is broken"
            )
        values = np.ascontiguousarray(path_c.real)
        if integrate:
            values = np.vstack([np.zeros((1, p)), np.cumsum(values, axis=0)])
        out.append(
            SamplePath(
                values=values,
                replicate=r,
                meta=_path_meta(
                    config, plan.m, plan.exact, plan.truncated_mass, r, integrate
                ),
            )
        )
    return out


def toeplitz_covariance(params: MfbmParams, n: int) -> np.ndarray:
    """Dense covariance of n consecutive increment vectors, time-major.

    Entry ((s, u), (t, v)) with row index s*p+u is the covariance of
    increment u at time s with increment v at time t.
    """
    p = params.p
    gam = lag_block_array(params, np.arange(n), 1.0)
    full = np.empty((n * p, n * p))
    for s in range(n):
        for t in range(n):
            block = gam[t - s] if t >= s else gam[s - t].T
            full[s * p : (s + 1) * p, t * p : (t + 1) * p] = block
    return full


def dense_oracle_simulate(
    params: MfbmParams, n: int, seed: int = 0, replicates: int = 1
) -> list[SamplePath]:
    """Reference sampler: dense Cholesky of the full increment covariance.

    Quadratic-size and cubic-time; capped at n = 64. Substreams are
    disjoint from the circulant sampler's, so the two ensembles are
    independent even at equal seeds.
    """
    if n > DENSE_ORACLE_MAX_N:
        raise ValueError(f"dense oracle is capped at n = {DENSE_ORACLE_MAX_N}")
    full = toeplitz_covariance(params, n)
    shift = 0.0
    try:
        chol = np.linalg.cholesky(full)
    except np.linalg.LinAlgError:
        shift = 1e-12 * float(np.max(np.diag(full)))
        for _ in range(64):
            try:
                chol = np.linalg.cholesky(full + shift * np.eye(n * params.p))
                break
            except np.linalg.LinAlgError:
                shift *= 2.0
        else:
            raise CirculantEmbeddingError(
                "dense covariance is numerically indefinite"
            ) from None
    p = params.p
    out = []
    for r in range(replicates):
        rng = _replicate_rng(seed, r, stream=1)
        eps = rng.standard_normal(n * p)
        values = (chol @ eps).reshape(n, p)
        out.append(
            SamplePath(
                values=values,
                replicate=r,
                meta={
                    "n": n,
                    "seed": seed,
                    "replicate": r,
                    "exact": shift == 0.0,
                    "oracle": "dense cholesky",
                    "diag_shift": shift,
                    "rng": "philox, SeedSequence(entropy=seed, spawn_key=(replicate, 1))",
                },
            )
        )
    return out
