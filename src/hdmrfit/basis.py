"""Orthonormal univariate polynomial bases on an interval with uniform measure.

Only the Legendre family is provided. Polynomials are indexed from 1, so
``alpha`` denotes degree ``alpha - 1`` and ``psi_1`` is the constant 1. Each
``psi_alpha`` has unit norm under the uniform probability measure on
``[lo, hi]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _check_finite_fields

__all__ = [
    "BasisConfig",
    "univariate_table",
    "univariate_deriv_table",
]


@dataclass(frozen=True)
class BasisConfig:
    """Configuration of the univariate basis.

    Parameters
    ----------
    lo, hi : float
        Interval endpoints, lo < hi. The uniform probability measure on
        [lo, hi] is the orthonormality measure.
    max_order : int
        Largest admissible index alpha (alpha = degree + 1, so max_order = 4
        spans degrees 0..3).
    """

    lo: float = -1.0
    hi: float = 1.0
    max_order: int = 10

    def __post_init__(self):
        _check_finite_fields(self, "lo", "hi")
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")
        if self.max_order < 1:
            raise ValueError(f"max_order must be >= 1, got {self.max_order}")


def _empty_table(shape, no: int) -> np.ndarray:
    # the one table layout: shape + (no,), laid out as (dims, orders, rows)
    # for (rows, dims) points, so each order of a dim is a contiguous run of
    # rows and a dim's orders are a C-contiguous (orders, rows) block
    mem = np.empty(shape[:0:-1] + (no,) + shape[:1])
    return np.moveaxis(mem.T, 1, -1) if shape else mem


def univariate_table(cfg: BasisConfig, xi) -> np.ndarray:
    """Evaluate all basis functions at the given points.

    Parameters
    ----------
    cfg : BasisConfig
    xi : array_like
        Evaluation points, any shape.

    Returns
    -------
    numpy.ndarray
        Array of shape ``xi.shape + (max_order,)``; entry ``[..., a]`` holds
        ``psi_{a+1}`` evaluated by the three-term Legendre recurrence on the
        affinely mapped coordinate, scaled to unit norm, in the one table
        layout (``_empty_table``): every ``table[:, d, a]`` is contiguous.
    """
    out = _legendre(cfg, xi)[1].T
    out *= np.sqrt(2.0 * np.arange(cfg.max_order) + 1.0)
    return out


def _legendre(cfg: BasisConfig, xi):
    # (t, p): t the points mapped affinely [lo, hi] -> [-1, 1] (values outside
    # are extrapolated; callers flag them if they care) and transposed; p
    # P_0..P_{no-1} at t, unnormalized and order-major, (no,) + t.shape
    no = cfg.max_order
    t = (np.multiply(2.0, np.asarray(xi, dtype=float).T, order="C")
         - cfg.lo - cfg.hi) / (cfg.hi - cfg.lo)
    p = _empty_table(t.shape[::-1], no).T
    p[0] = 1.0
    if no > 1:
        p[1] = t
    for n in range(1, no - 1):
        # (n+1) P_{n+1} = (2n+1) t P_n - n P_{n-1}
        p[n + 1] = ((2 * n + 1) * t * p[n] - n * p[n - 1]) / (n + 1)
    return t, p


def univariate_deriv_table(cfg: BasisConfig, xi) -> np.ndarray:
    """Evaluate all basis-function derivatives d psi_alpha / d xi at ``xi``.

    Same shape and memory layout as :func:`univariate_table`. Includes the
    chain-rule factor of the affine interval map.
    """
    t, p = _legendre(cfg, xi)
    no = cfg.max_order
    dp = np.zeros_like(p)
    if no > 1:
        dp[1] = 1.0
    for n in range(1, no - 1):
        dp[n + 1] = ((2 * n + 1) * (p[n] + t * dp[n]) - n * dp[n - 1]) / (n + 1)
    dp = dp.T
    dp *= np.sqrt(2.0 * np.arange(no) + 1.0) * (2.0 / (cfg.hi - cfg.lo))
    return dp
