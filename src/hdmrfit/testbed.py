"""Data generators for a 1-D stochastic diffusion experiment.

Random coefficient and forcing fields are built from truncated
Karhunen-Loeve expansions of the Gaussian-kernel covariance
C(x, y) = sigma^2 exp(-(x - y)^2 / (2 lc^2)), the steady
diffusion equation d/dx(nu du/dx) = F is solved per draw on a uniform grid,
and the solution is probed at a fixed location or at scattered points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .data import SampleSet, _check_finite_fields, rng_stream

__all__ = [
    "KLField",
    "DiffusionConfig",
    "kl_eigendecompose",
    "solve_diffusion",
    "generate_dataset",
    "save_spectrum",
]

# the experiment's fixed data: mean diffusion coefficient nu0 and mean
# forcing f0 of the two fields, on the spatial domain [0, 1]
_NU0 = 1.0
_F0 = -1.0
_DOMAIN = (0.0, 1.0)


@dataclass(frozen=True)
class KLField:
    """Truncated KL expansion of a stationary Gaussian-kernel random field.

    The covariance is C(x, y) = sigma^2 exp(-(x - y)^2 / (2 lc^2)) on
    ``domain``, so the eigenvalues of the full operator sum to
    sigma^2 |domain|.

    eigenfunctions[k] is omega_k discretized on ``grid`` (Nystrom midpoints)
    with unit continuous L2 norm; eigenvalues are non-increasing.
    """

    mean_value: float
    sigma: float
    lc: float
    domain: tuple[float, float]
    nterms: int
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    grid: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        ef = np.asarray(self.eigenfunctions, dtype=float)
        grid = np.asarray(self.grid, dtype=float)
        if ev.shape != (self.nterms,):
            raise ValueError(f"expected {self.nterms} eigenvalues, got {ev.shape}")
        if ef.shape != (self.nterms, grid.shape[0]):
            raise ValueError(f"eigenfunction array has shape {ef.shape}")
        if np.any(ev < -1e-12):
            raise ValueError("covariance eigenvalue below -1e-12")
        if np.any(np.diff(ev) > 0):
            raise ValueError("eigenvalues must be non-increasing")
        ev = np.maximum(ev, 0.0)
        for a in (ev, ef, grid):
            a.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "eigenfunctions", ef)
        object.__setattr__(self, "grid", grid)


def _gauss_kernel(sigma: float, lc: float, x: np.ndarray) -> np.ndarray:
    d = x[:, None] - x[None, :]
    return sigma**2 * np.exp(-(d**2) / (2.0 * lc**2))


def kl_eigendecompose(sigma, lc, domain, m_k, nterms, mean_value=0.0) -> KLField:
    """Nystrom eigendecomposition of the Gaussian covariance kernel.

    The kernel is C(x, y) = sigma^2 exp(-(x - y)^2 / (2 lc^2)): lc is the
    standard deviation of the Gaussian in x - y, not the 1/e distance of
    exp(-(x - y)^2 / lc^2).

    Discretizes the Fredholm problem on m_k equispaced midpoints of
    ``domain`` with weight h = |domain|/m_k, eigendecomposes the weighted
    kernel matrix, and returns the top ``nterms`` pairs with eigenvalues
    non-increasing. Eigenfunctions get unit continuous L2 norm and a
    canonical sign: positive mean, or positive largest-magnitude entry when
    the mean is negligible.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise ValueError(f"empty domain [{lo}, {hi}]")
    if nterms > m_k:
        raise ValueError(f"Nterms={nterms} exceeds quadrature size M_k={m_k}")
    h = (hi - lo) / m_k
    grid = lo + h * (np.arange(m_k) + 0.5)
    lam, vec = np.linalg.eigh(h * _gauss_kernel(sigma, lc, grid))
    order = np.argsort(lam)[::-1][:nterms]
    lam = lam[order]
    # unit Euclidean eigenvectors -> unit continuous L2 under midpoint weights
    funcs = vec[:, order].T / np.sqrt(h)
    for k in range(funcs.shape[0]):
        s = funcs[k].sum()
        if abs(s) > 1e-10:
            sign = np.sign(s)
        else:
            sign = np.sign(funcs[k][np.argmax(np.abs(funcs[k]))])
        if sign < 0:
            funcs[k] = -funcs[k]
    lam = np.where((lam < 0) & (lam >= -1e-12), 0.0, lam)
    return KLField(
        mean_value=float(mean_value), sigma=float(sigma), lc=float(lc),
        domain=(lo, hi), nterms=int(nterms), eigenvalues=lam,
        eigenfunctions=funcs, grid=grid,
    )


def _interp_funcs(f: KLField, x: np.ndarray) -> np.ndarray:
    # piecewise-linear eigenfunction values at x, shape (nterms, len(x))
    return np.stack([np.interp(x, f.grid, f.eigenfunctions[k])
                     for k in range(f.nterms)])


def solve_diffusion(nu, f_rhs, u_minus, u_plus, m_x, length=1.0) -> np.ndarray:
    """Solve d/dx(nu du/dx) = F on a uniform grid of m_x cells.

    ``nu`` and ``f_rhs`` hold nodal values (m_x + 1 entries each); Dirichlet
    values u_minus, u_plus are imposed at the ends. Conservative second-order
    scheme with harmonic-mean face coefficients.
    """
    nu = np.asarray(nu, dtype=float)
    f_rhs = np.asarray(f_rhs, dtype=float)
    n = m_x + 1
    if nu.shape != (n,) or f_rhs.shape != (n,):
        raise ValueError(f"need {n} nodal values, got {nu.shape} and {f_rhs.shape}")
    if np.any(nu <= 0):
        raise ValueError("non-positive diffusion coefficient: problem not coercive")
    h = length / m_x
    face = 2.0 * nu[:-1] * nu[1:] / (nu[:-1] + nu[1:])
    ab = np.zeros((3, n))
    rhs = np.empty(n)
    ab[1, 0] = ab[1, -1] = 1.0
    rhs[0], rhs[-1] = u_minus, u_plus
    ab[0, 2:] = face[1:]                      # upper: nf_{j+1/2}
    ab[2, :-2] = face[:-1]                    # lower: nf_{j-1/2}
    ab[1, 1:-1] = -(face[:-1] + face[1:])
    rhs[1:-1] = h * h * f_rhs[1:-1]
    return solve_banded((1, 1), ab, rhs)


@dataclass(frozen=True)
class DiffusionConfig:
    """Experiment configuration: two KL fields, grid sizes, boundary data.

    The coefficient and forcing fields have means 1 and -1 on [0, 1]. The
    germ is uniform on [0,1]^(nd_nu + nd_f); coefficient dims come first,
    forcing dims second, each block ordered by eigenvalue magnitude.
    """

    nd_nu: int = 5
    nd_f: int = 5
    sigma_nu: float = 0.7
    sigma_f: float = 0.7
    lc: float = 0.3
    u_minus: float = 0.0
    u_plus: float = 0.0
    m_x: int = 64
    m_k: int = 400
    x_star: float = 0.5

    def __post_init__(self):
        if self.nd_nu < 0 or self.nd_f < 0 or self.nd_nu + self.nd_f < 1:
            raise ValueError("need nd_nu + nd_f >= 1, both non-negative")
        if self.m_x < 16:
            raise ValueError("m_x (--mx) must be >= 16")
        _check_finite_fields(self, "sigma_nu", "sigma_f", "lc", "u_minus", "u_plus")
        if not self.lc > 0:
            raise ValueError(f"lc (--lc) must be > 0, got {self.lc!r}")
        if self.m_k < max(1, self.nd_nu, self.nd_f):
            raise ValueError(f"m_k (--mk) = {self.m_k} must be >= 1 and >= "
                             f"max(nd_nu, nd_f) = {max(self.nd_nu, self.nd_f)}: "
                             "the KL quadrature needs a node per term")
        lo, hi = _DOMAIN
        if not lo <= self.x_star <= hi:
            raise ValueError(f"x_star {self.x_star} outside {_DOMAIN}")

    @property
    def nd(self) -> int:
        return self.nd_nu + self.nd_f

    def fields(self) -> tuple[KLField, KLField]:
        nu = kl_eigendecompose(self.sigma_nu, self.lc, _DOMAIN,
                               self.m_k, self.nd_nu, mean_value=_NU0)
        ff = kl_eigendecompose(self.sigma_f, self.lc, _DOMAIN,
                               self.m_k, self.nd_f, mean_value=_F0)
        return nu, ff


def generate_dataset(cfg: DiffusionConfig, nq: int, seed: int,
                     mode: str = "point") -> SampleSet:
    """Draw germ vectors, solve the PDE per draw, record the solution.

    mode "point": u at cfg.x_star, Ndx = 0. mode "scattered": u at a
    per-sample uniform x, recorded in an Ndx = 1 spatial column. Bitwise
    deterministic per (cfg, nq, seed): sample q uses the stream (seed, q).
    """
    if mode not in ("point", "scattered"):
        raise ValueError(f"unknown sampling mode {mode!r}")
    if nq < 1:
        raise ValueError("nq must be >= 1")
    nu_f, ff = cfg.fields()
    lo, hi = _DOMAIN
    nodes = np.linspace(lo, hi, cfg.m_x + 1)
    # nodal eigenfunction tables, premultiplied by sqrt(eigenvalue)
    w_nu = np.sqrt(nu_f.eigenvalues)[:, None] * _interp_funcs(nu_f, nodes) \
        if cfg.nd_nu else np.zeros((0, nodes.size))
    w_f = np.sqrt(ff.eigenvalues)[:, None] * _interp_funcs(ff, nodes) \
        if cfg.nd_f else np.zeros((0, nodes.size))
    xi = np.empty((nq, cfg.nd))
    xs = np.empty((nq, 1 if mode == "scattered" else 0))
    u = np.empty(nq)
    for q in range(nq):
        g = rng_stream(seed, 3, q)
        germ = g.uniform(0.0, 1.0, cfg.nd)
        xi[q] = germ
        nu_nodes = _NU0 + germ[:cfg.nd_nu] @ w_nu
        f_nodes = _F0 + germ[cfg.nd_nu:] @ w_f
        sol = solve_diffusion(nu_nodes, f_nodes, cfg.u_minus, cfg.u_plus,
                              cfg.m_x, length=hi - lo)
        if mode == "scattered":
            xq = g.uniform(lo, hi)
            xs[q, 0] = xq
            u[q] = np.interp(xq, nodes, sol)
        else:
            u[q] = np.interp(cfg.x_star, nodes, sol)
    return SampleSet(xs, xi, u)


def save_spectrum(f: KLField, path) -> None:
    """Write the KL spectrum as CSV rows ``k,eigenvalue`` (k is 1-based)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,eigenvalue\n")
        for k, lam in enumerate(f.eigenvalues, start=1):
            fh.write(f"{k},{float(lam)!r}\n")
