"""Superlinear processes whose normalized partial sums approach a mfBm.

A component i is driven by per-innovation-channel coefficient sequences
on the forward (k >= 1) and reverse (k <= -1) half-lines. Three regimes:
a positive-exponent power tail (d in (0, 1/2)), a negative-exponent
power tail forced to sum to zero (d in (-1/2, 0)), and an absolutely
summable kernel collapsed to its sum at k = 0 (d = 0). The partial sums
of component i, scaled by n^(-d_i - 1/2) with d_i the largest exponent
feeding the row, converge to a mfBm with H_i = d_i + 1/2; the limiting
moving average weights keep only the kernels attaining d_i.

Everything is Monte Carlo at truncated support K >= n. The truncation
bias is set by K/n, not by n: at the default K = 4n the variance of one
power kernel is 3.5% low at d = 0.2 and 72% low at d = -0.2.

simulate_partial_sums realizes no kernel. The cumulated kernels it reads
telescope to closed form and are written straight into one array of
p^2 (2K + 1) floats; realize_kernel gives the coefficients themselves.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .circulant import _check_seed, _replicate_rng
from .params import MfbmParams, _check_declared_p, _check_int, _check_real, _load_json
from .representations import MovingAveragePair, params_from_ma

__all__ = [
    "KernelRegime",
    "KernelSide",
    "KernelSpec",
    "load_kernel_spec",
    "realize_kernel",
    "LimitTarget",
    "limit_target",
    "simulate_partial_sums",
]


# Nothing here convolves any more, but perfbench/tracing.py still wraps
# this name, so it stays bound. A function rather than a module-level
# import keeps scipy.signal (most of a cold import) out until a call.
def fftconvolve(*args, **kwargs):
    from scipy.signal import fftconvolve as convolve

    return convolve(*args, **kwargs)


# Rademacher signs per integers() call in simulate_partial_sums
_SIGN_CHUNK = 2048


class KernelRegime(str, Enum):
    POWER_POS = "power_pos"
    POWER_NEG = "power_neg"
    SUMMABLE = "summable"


@dataclass(frozen=True)
class KernelSide:
    """One coefficient sequence: regime, tail constant, tail exponent.

    For SUMMABLE kernels alpha is the sum of the sequence and d is 0 by
    definition; the realized kernel is the single spike alpha at k = 0.
    """

    regime: KernelRegime
    alpha: float
    d: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "regime", KernelRegime(self.regime))
        _check_real("kernel alpha", self.alpha, nonzero=True)
        _check_real("kernel d", self.d)
        if self.regime is KernelRegime.POWER_POS and not 0.0 < self.d < 0.5:
            raise ValueError(f"positive power regime needs d in (0, 1/2), got {self.d}")
        if self.regime is KernelRegime.POWER_NEG and not -0.5 < self.d < 0.0:
            raise ValueError(f"negative power regime needs d in (-1/2, 0), got {self.d}")
        if self.regime is KernelRegime.SUMMABLE and self.d != 0.0:
            raise ValueError("summable regime fixes d = 0")


@dataclass(frozen=True)
class KernelSpec:
    """Coefficient families for all p components over p innovation channels.

    plus[i][j] weights channel j's past-to-future half-line in component
    i, minus[i][j] the mirrored half-line; None means that sequence is
    identically zero. Every row must be fed by at least one kernel.
    """

    plus: tuple
    minus: tuple
    truncation: int | None = None

    def __post_init__(self):
        plus = tuple(tuple(row) for row in self.plus)
        minus = tuple(tuple(row) for row in self.minus)
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)
        p = len(plus)
        if p == 0 or len(minus) != p:
            raise ValueError("plus and minus must both be p x p")
        for side in (plus, minus):
            for row in side:
                if len(row) != p:
                    raise ValueError("kernel grids must be square")
                for cell in row:
                    if cell is not None and not isinstance(cell, KernelSide):
                        raise ValueError("grid cells must be KernelSide or None")
        for i in range(p):
            if all(plus[i][j] is None and minus[i][j] is None for j in range(p)):
                raise ValueError(f"component {i} is fed by no kernel")
        if self.truncation is not None:
            _check_int("truncation", self.truncation)

    @property
    def p(self) -> int:
        return len(self.plus)


def _kernel_cell(payload) -> KernelSide | None:
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise ValueError("kernel grid cells must be objects or null")
    extra = set(payload) - {"regime", "alpha", "d"}
    if extra:
        raise ValueError(f"unknown kernel cell keys {sorted(extra)}")
    for key in ("regime", "alpha"):
        if key not in payload:
            raise ValueError(f"kernel cell {payload} is missing {key!r}")
    return KernelSide(
        regime=payload["regime"], alpha=payload["alpha"], d=payload.get("d", 0.0)
    )


def load_kernel_spec(path: str | Path) -> KernelSpec:
    """Read a kernel grid from a JSON file.

    Keys plus and minus hold p x p grids of cells {regime, alpha, d} or
    null; truncation and a declared p are optional.
    """
    payload = _load_json(path)
    if not isinstance(payload, dict):
        raise ValueError("a kernel file must hold one JSON object")
    extra = set(payload) - {"p", "plus", "minus", "truncation"}
    if extra:
        raise ValueError(f"unknown kernel spec keys {sorted(extra)}")
    grids = {}
    for key in ("plus", "minus"):
        if key not in payload:
            raise ValueError(f"kernel spec is missing {key!r}")
        grid = payload[key]
        if not isinstance(grid, list) or not all(isinstance(row, list) for row in grid):
            raise ValueError(f"kernel spec {key!r} must be a list of lists, got {grid!r}")
        grids[key] = tuple(tuple(_kernel_cell(c) for c in row) for row in grid)
    spec = KernelSpec(**grids, truncation=payload.get("truncation"))
    _check_declared_p(payload, spec.p, "len(plus)")
    return spec


def _half_line(side: KernelSide, K: int) -> np.ndarray:
    """Values at k = 1..K for a power kernel.

    Sampled as antiderivative increments (alpha/d)(k^d - (k-1)^d), which
    are alpha*k^(d-1)*(1 + O(1/k)) and hence satisfy the defining tail
    condition, while partial sums telescope to (alpha/d) k^d exactly.
    Pointwise sampling alpha*k^(d-1) would shift every window sum by a
    zeta-function constant that dies off only like n^(-d), far too slow
    for any finite-n convergence check. realize_kernel reads these values;
    _kernel_tails writes their telescoped sums without forming them.
    """
    ks = np.arange(1, K + 1, dtype=float)
    # 0^d := 0 anchor keeps the telescoped sums exact for d of either sign
    powers = np.concatenate(([0.0], ks**side.d))
    return side.alpha / side.d * np.diff(powers)


def realize_kernel(
    spec: KernelSpec, side: str, i: int, j: int, truncation: int | None = None
) -> np.ndarray:
    """Concrete coefficients on k in [-K, K], index k + K; zeros if absent.

    Power kernels occupy one open half-line; the negative-exponent regime
    adds a balancing value at k = 0 so the realized kernel sums to zero
    exactly, as its defining condition requires. Truncation biases the
    scaled sums by an amount set by K/n: at K = 4n the dropped tail costs
    3.5% of the variance for d = 0.2, and for d < 0 the balancing value
    makes it O((K/n)^d), 72% for d = -0.2 (still 50% at K = 64n).
    """
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    K = truncation if truncation is not None else spec.truncation
    if K is None:
        raise ValueError("no truncation given, in the call or on the kernel grid")
    _check_int("truncation", K)
    cell: KernelSide | None = getattr(spec, side)[i][j]
    out = np.zeros(2 * K + 1)
    if cell is None:
        return out
    if cell.regime is KernelRegime.SUMMABLE:
        out[K] = cell.alpha
        return out
    tail = _half_line(cell, K)
    if side == "plus":
        out[K + 1 :] = tail
    else:
        out[:K] = tail[::-1]
    if cell.regime is KernelRegime.POWER_NEG:
        out[K] = -tail.sum()
    return out


def _kernel_tails(spec: KernelSpec, K: int) -> np.ndarray:
    """tail[j, q, i] = F(K - q), where F(k) is channel j's kernel into
    component i summed over k' <= k. A window sum weighs each innovation
    by a difference of two shifted windows of it.

    F is written in closed form, one cell at a time into its strided
    tail[j, :, i] view, with one K-length temporary per kernel. With
    c = alpha/d, a power kernel's sums telescope (see _half_line): on the
    plus side F(k) = c k^d for 1 <= k <= K and 0 below; on the minus side
    F(-k0) = c (K^d - (k0 - 1)^d) for k0 = 1..K, with 0^d = 0, and c K^d
    from k = 0 on. The negative-exponent balancing value subtracts c K^d
    from k = 0 on, and a summable kernel adds alpha there. No kernel is
    realized, so F rounds differently from a cumsum of realize_kernel, by
    a few ulps of the largest |F|.
    """
    tail = np.zeros((spec.p, 2 * K + 1, spec.p))
    for i, j in np.ndindex(spec.p, spec.p):
        for side in ("plus", "minus"):
            cell = getattr(spec, side)[i][j]
            if cell is not None:
                _add_tail(tail[j, :, i], cell, side == "plus", K)
    return tail


def _add_tail(column: np.ndarray, cell: KernelSide, plus: bool, K: int) -> None:
    """Add one side's F(K - q) into column[q], q = 0..2K. A call of its
    own, so its K-length temporary is freed before the next kernel's."""
    if cell.regime is KernelRegime.SUMMABLE:
        column[: K + 1] += cell.alpha
        return
    c = cell.alpha / cell.d
    powers = np.arange(1.0, K + 1)
    np.power(powers, cell.d, out=powers)  # k^d, k = 1..K
    top = c * powers[-1]  # c K^d
    if plus:
        powers *= c
        column[:K] += powers[::-1]
    else:
        column[: K + 2] += top
        rest = powers[:-1]  # (k0 - 1)^d, k0 = 2..K
        np.subtract(powers[-1], rest, out=rest)
        rest *= c
        column[K + 2 :] += rest
    if cell.regime is KernelRegime.POWER_NEG:
        column[: K + 1] -= top


@dataclass(frozen=True, eq=False)
class LimitTarget:
    """Limiting mfBm of the normalized partial sums.

    m_plus and m_minus are the limiting moving average weights at
    h = d + 1/2. For all-zero exponents the limit is a correlated
    Brownian motion: m_plus then holds the mixing matrix of the driving
    motions and m_minus is zero.
    """

    d: np.ndarray
    h: np.ndarray
    m_plus: np.ndarray
    m_minus: np.ndarray
    params: MfbmParams

    def __post_init__(self):
        for name in ("d", "h", "m_plus", "m_minus"):
            getattr(self, name).setflags(write=False)


def _row_exponents(spec: KernelSpec) -> np.ndarray:
    p = spec.p
    d = np.empty(p)
    for i in range(p):
        d[i] = max(
            cell.d
            for side in (spec.plus, spec.minus)
            for cell in side[i]
            if cell is not None
        )
    return d


def limit_target(spec: KernelSpec) -> LimitTarget:
    """Parameters of the mfBm the scaled partial sums converge to.

    Only kernels attaining the row exponent survive in the limit, with
    weight alpha / d_i; a Brownian row (d_i = 0) adds its spikes, all at
    k = 0, into m_plus. Every grid goes through params_from_ma at
    h = d + 1/2. Mixing zero and nonzero row exponents is not supported,
    as the joint cross structure is not defined here.
    """
    p = spec.p
    d = _row_exponents(spec)
    brownian = d == 0.0
    if brownian.any() and not brownian.all():
        raise ValueError(
            "rows with zero and nonzero limiting exponents cannot be mixed"
        )
    m_plus = np.zeros((p, p))
    m_minus = np.zeros((p, p))
    for i, j in np.ndindex(p, p):
        for cell, weights in ((spec.plus[i][j], m_plus), (spec.minus[i][j], m_minus)):
            if cell is None or cell.d != d[i]:
                continue
            if brownian[i]:
                m_plus[i, j] += cell.alpha
            else:
                weights[i, j] = cell.alpha / d[i]
    h = d + 0.5
    params = params_from_ma(MovingAveragePair(m_plus=m_plus, m_minus=m_minus), h)
    return LimitTarget(d=d, h=h, m_plus=m_plus, m_minus=m_minus, params=params)


def simulate_partial_sums(
    spec: KernelSpec,
    n: int,
    taus,
    seed: int = 0,
    replicates: int = 1,
    noise: str = "gaussian",
) -> np.ndarray:
    """Normalized partial sums at the requested fractions, shape (R, T, p).

    The kernels are truncated at K = spec.truncation, or at 4n when the
    spec sets none. Each replicate draws unit-variance innovations eps on
    n + 2K steps into one reused buffer. With tail from _kernel_tails, the
    convolved series sums over its first s steps, up to a constant, to
    S(s) = tail[:, 0] . eps[:, :s].sum() + eps[:, s : s+2K] . tail[:, 1:];
    the output is (S(floor(n tau)) - S(0)) n^(-d_i - 1/2). Cost
    O(p^2 (T + 1) K) per replicate. Working memory is about
    p^2 (2K + 1) + p (n + 2K) floats: tail, written in closed form with
    no kernel realized, and eps. Rademacher signs are drawn in slices of
    _SIGN_CHUNK, the same stream as one whole draw.
    """
    _check_int("n", n)
    _check_int("replicates", replicates)
    _check_seed(seed)
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if not np.all((taus >= 0.0) & (taus <= 1.0)):
        raise ValueError(f"taus must lie in [0, 1], got {taus.tolist()}")
    if noise not in ("gaussian", "rademacher"):
        raise ValueError(f"unknown noise law {noise!r}")
    K = spec.truncation or 4 * n
    if K < n:
        raise ValueError(f"truncation K={K} must be at least n={n}")
    p = spec.p
    d = _row_exponents(spec)
    tail = _kernel_tails(spec, K)
    used = [j for j in range(p) if tail[j].any()]
    starts = np.concatenate(([0], np.floor(n * taus).astype(int)))
    scale = n ** (-d - 0.5)
    out = np.empty((replicates, taus.shape[0], p))
    eps = np.empty((p, n + 2 * K))
    for r in range(replicates):
        rng = _replicate_rng(seed, r, stream=2)
        if noise == "gaussian":
            rng.standard_normal(out=eps)
        else:
            # slices of one (p, n + 2K) draw continue its stream, so the
            # integer temporary is one slice
            flat = eps.reshape(-1)
            for lo in range(0, flat.size, _SIGN_CHUNK):
                chunk = flat[lo : lo + _SIGN_CHUNK]
                np.multiply(rng.integers(0, 2, size=chunk.size), 2.0, out=chunk)
            eps -= 1.0
        sums = np.array([
            eps[:, :s].sum(axis=1) @ tail[:, 0]
            + sum(eps[j, s : s + 2 * K] @ tail[j, 1:] for j in used)
            for s in starts
        ])
        out[r] = (sums[1:] - sums[0]) * scale
    return out
