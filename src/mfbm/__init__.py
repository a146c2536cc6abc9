"""Multivariate fractional Brownian motion: covariances, spectra,
existence tests, spectral and moving average representations, exact
circulant-embedding synthesis, and partial-sum limit experiments.

Each module declares its public names once, in its own ``__all__``; the
package re-exports them and builds its ``__all__`` from those lists.
"""
from . import (
    circulant,
    covariance,
    existence,
    limits,
    params,
    representations,
    spectral,
    stats,
)
from .circulant import *  # noqa: F403
from .covariance import *  # noqa: F403
from .existence import *  # noqa: F403
from .limits import *  # noqa: F403
from .params import *  # noqa: F403
from .representations import *  # noqa: F403
from .spectral import *  # noqa: F403
from .stats import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (
        circulant,
        covariance,
        existence,
        limits,
        params,
        representations,
        spectral,
        stats,
    )
    for name in module.__all__
)
