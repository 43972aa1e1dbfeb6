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
    # t: the points mapped [lo, hi] -> [-1, 1] (outside, extrapolated) and
    # transposed; p: P_0..P_{no-1} at t on the table's order-major view
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
    out = p.T
    out *= np.sqrt(2.0 * np.arange(no) + 1.0)
    return out


def _deriv_table(cfg: BasisConfig, table) -> np.ndarray:
    # d psi_alpha / d xi from a values table of univariate_table's shape, in
    # the one table layout: slot a holds sqrt(2a+1) P_a, so the recurrence
    # P'_a = P'_{a-2} + (2a-1) P_{a-1} reads sqrt(2a-1) times slot a-1; the
    # result is scaled to unit norm and by the interval map's 2 / (hi - lo)
    no = table.shape[-1]
    vals = table.T
    dp = _empty_table(table.shape[:-1], no).T
    dp[0] = 0.0
    for a in range(1, no):
        dp[a] = np.sqrt(2.0 * a - 1.0) * vals[a - 1] + (dp[a - 2] if a > 1 else 0.0)
    return dp.T * (np.sqrt(2.0 * np.arange(no) + 1.0) * (2.0 / (cfg.hi - cfg.lo)))
