"""Orthonormal univariate polynomial bases on an interval with uniform measure.

Only the Legendre family is provided. Polynomials are indexed from 1, so
``alpha`` denotes degree ``alpha - 1`` and ``psi_1`` is the constant 1. Each
``psi_alpha`` has unit norm under the uniform probability measure on
``[lo, hi]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BasisConfig",
    "eval_univariate",
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
    family : str
        Basis family. Only "legendre" is supported.
    """

    lo: float = -1.0
    hi: float = 1.0
    max_order: int = 10
    family: str = "legendre"

    def __post_init__(self):
        if self.family != "legendre":
            raise ValueError(f"unsupported basis family {self.family!r}")
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")
        if self.max_order < 1:
            raise ValueError(f"max_order must be >= 1, got {self.max_order}")


def _check_index(cfg: BasisConfig, alpha: int) -> None:
    if not 1 <= alpha <= cfg.max_order:
        raise IndexError(
            f"basis index {alpha} outside 1..{cfg.max_order}"
        )


def _to_reference(cfg: BasisConfig, xi):
    # affine map [lo, hi] -> [-1, 1]; values outside the interval are
    # extrapolated by the same recurrence (callers flag them if they care)
    return (2.0 * np.asarray(xi, dtype=float) - cfg.lo - cfg.hi) / (cfg.hi - cfg.lo)


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
        affinely mapped coordinate, scaled to unit norm.
    """
    t = _to_reference(cfg, xi)
    no = cfg.max_order
    out = np.empty(t.shape + (no,), dtype=float)
    out[..., 0] = 1.0
    if no > 1:
        out[..., 1] = t
    for n in range(1, no - 1):
        # (n+1) P_{n+1} = (2n+1) t P_n - n P_{n-1}
        out[..., n + 1] = ((2 * n + 1) * t * out[..., n] - n * out[..., n - 1]) / (n + 1)
    norms = np.sqrt(2.0 * np.arange(no) + 1.0)
    out *= norms
    return out


def univariate_deriv_table(cfg: BasisConfig, xi) -> np.ndarray:
    """Evaluate all basis-function derivatives d psi_alpha / d xi at ``xi``.

    Same layout as :func:`univariate_table`. Includes the chain-rule factor
    of the affine interval map.
    """
    t = _to_reference(cfg, xi)
    no = cfg.max_order
    p = np.empty(t.shape + (no,), dtype=float)
    dp = np.empty_like(p)
    p[..., 0] = 1.0
    dp[..., 0] = 0.0
    if no > 1:
        p[..., 1] = t
        dp[..., 1] = 1.0
    for n in range(1, no - 1):
        p[..., n + 1] = ((2 * n + 1) * t * p[..., n] - n * p[..., n - 1]) / (n + 1)
        dp[..., n + 1] = ((2 * n + 1) * (p[..., n] + t * dp[..., n]) - n * dp[..., n - 1]) / (n + 1)
    norms = np.sqrt(2.0 * np.arange(no) + 1.0)
    dp *= norms * (2.0 / (cfg.hi - cfg.lo))
    return dp


def eval_univariate(cfg: BasisConfig, alpha: int, xi):
    """Value of ``psi_alpha`` at ``xi`` (scalar or array).

    Raises IndexError when ``alpha`` is outside ``1..max_order``. Points
    outside ``[lo, hi]`` are extrapolated by the recurrence.
    """
    _check_index(cfg, alpha)
    table = univariate_table(cfg, xi)
    val = table[..., alpha - 1]
    return float(val) if np.isscalar(xi) else val
