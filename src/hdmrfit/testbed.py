"""Data generators for a 1-D stochastic diffusion experiment.

Random coefficient and forcing fields are built from truncated
Karhunen-Loeve expansions of the Gaussian-kernel covariance
C(x, y) = sigma^2 exp(-(x - y)^2 / (2 lc^2)), the steady
diffusion equation d/dx(nu du/dx) = F is solved for each draw on a uniform
grid, and the solution is probed at a fixed location or at scattered points.
The draws are made in blocks with no loop over them: every draw's random
stream is computed at once, and the block is solved by one elimination
sweep over the grid nodes vectorized across its rows, with the bits of one
LAPACK solve per draw.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data import SampleSet, _check_finite_fields, _stream_uniforms

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
# draws solved together by one elimination sweep in generate_dataset; it
# bounds the transient arrays at O(_BLOCK_ROWS * m_x) for any nq
_BLOCK_ROWS = 1024


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

    ``nu`` and ``f_rhs`` hold nodal values: m_x + 1 entries for one draw,
    or shape (nq, m_x + 1) for nq draws solved together; the solution has
    the same shape. Dirichlet values u_minus, u_plus are imposed at the
    ends. Conservative second-order scheme with harmonic-mean face
    coefficients. The tridiagonal systems are solved by ``_gtsv``, which
    gives each row the bits of LAPACK's dgtsv on that row alone.
    """
    nu = np.asarray(nu, dtype=float)
    f_rhs = np.asarray(f_rhs, dtype=float)
    n = m_x + 1
    if nu.ndim not in (1, 2) or nu.shape[-1] != n or f_rhs.shape != nu.shape:
        raise ValueError(f"need {n} nodal values per row, "
                         f"got {nu.shape} and {f_rhs.shape}")
    if not (np.all(np.isfinite(nu)) and np.all(np.isfinite(f_rhs))):
        raise ValueError("non-finite nodal values")
    if np.any(nu <= 0):
        raise ValueError("non-positive diffusion coefficient: problem not coercive")
    h = length / m_x
    # node-major: entry [i] of each array holds node i of every row
    nu_t = np.atleast_2d(nu).T
    face = 2.0 * nu_t[:-1] * nu_t[1:] / (nu_t[:-1] + nu_t[1:])
    # row i of a system is dl[i-1] u[i-1] + d[i] u[i] + du[i] u[i+1] = b[i];
    # the Dirichlet rows 0 and n-1 are u = u_minus and u = u_plus
    dl = np.zeros_like(face)
    du = np.zeros_like(face)
    dl[:-1] = face[:-1]                       # lower: nf_{j-1/2}
    du[1:] = face[1:]                         # upper: nf_{j+1/2}
    d = np.empty_like(nu_t)
    b = np.empty_like(nu_t)
    d[0] = d[-1] = 1.0
    d[1:-1] = -(face[:-1] + face[1:])
    b[0], b[-1] = u_minus, u_plus
    b[1:-1] = h * h * np.atleast_2d(f_rhs).T[1:-1]
    _gtsv(dl, d, du, b)
    return b.T if nu.ndim == 2 else b[:, 0]


def _gtsv(dl, d, du, b) -> None:
    """Solve tridiagonal systems in place, one per column, into ``b``.

    ``d`` (n, rows) is the diagonal, ``dl`` and ``du`` (n-1, rows) the sub-
    and superdiagonal, ``b`` (n, rows) the right-hand sides. This is LAPACK
    dgtsv's Gaussian elimination with partial pivoting, one sweep over the
    nodes for all columns together: rows i and i+1 are interchanged where
    |d_i| < |dl_i|, and ``dl`` then holds the second superdiagonal. Each
    step repeats dgtsv's operations in its order, so every column gets the
    bits of a dgtsv solve of that system alone. A zero pivot raises
    LinAlgError("singular matrix"), as ``scipy.linalg.solve_banded`` does.
    """
    n = d.shape[0]
    for i in range(n - 1):
        swap = np.abs(d[i]) < np.abs(dl[i])
        pivot = np.where(swap, dl[i], d[i])
        if not pivot.all():
            raise np.linalg.LinAlgError("singular matrix")
        fact = np.where(swap, d[i], dl[i]) / pivot
        # each right-hand side is evaluated before any row is written
        dn, dui, bi, bn = d[i + 1], du[i], b[i], b[i + 1]
        d[i], d[i + 1], du[i] = (pivot, np.where(swap, dui - fact * dn, dn - fact * dui),
                                 np.where(swap, dn, dui))
        b[i], b[i + 1] = (np.where(swap, bn, bi),
                          np.where(swap, bi - fact * bn, bn - fact * bi))
        if i < n - 2:
            dl[i], du[i + 1] = (np.where(swap, du[i + 1], 0.0),
                                np.where(swap, -fact * du[i + 1], du[i + 1]))
    if not d[-1].all():
        raise np.linalg.LinAlgError("singular matrix")
    b[-1] /= d[-1]
    b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]


def _probe(nodes, sol, x) -> np.ndarray:
    """np.interp(x[r], nodes, sol[r]) for every row r of ``sol`` at once,
    with np.interp's arithmetic: the node value at a node and at the last
    node, slope * (x - x_j) + y_j between x_j and x_{j+1}. Every x lies
    in [nodes[0], nodes[-1]]."""
    last = nodes.size - 1
    j = np.searchsorted(nodes, x, side="right") - 1
    k = np.minimum(j, last - 1)
    r = np.arange(sol.shape[0])
    slope = (sol[r, k + 1] - sol[r, k]) / (nodes[k + 1] - nodes[k])
    between = slope * (x - nodes[k]) + sol[r, k]
    return np.where((j == last) | (nodes[k] == x), sol[r, j], between)


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
        """The coefficient and forcing fields, eigendecomposed once per
        config object (``dataclasses.replace`` makes a new one)."""
        return self._fields

    @cached_property
    def _fields(self) -> tuple[KLField, KLField]:
        # the fields share lc, m_k and the domain, so one eigendecomposition
        # per distinct sigma serves both: each takes its leading terms,
        # whose bits do not depend on how many terms are kept
        nterms = max(self.nd_nu, self.nd_f)
        kl = {s: kl_eigendecompose(s, self.lc, _DOMAIN, self.m_k, nterms)
              for s in {self.sigma_nu, self.sigma_f}}
        return (_leading(kl[self.sigma_nu], self.nd_nu, _NU0),
                _leading(kl[self.sigma_f], self.nd_f, _F0))


def _leading(f: KLField, nterms: int, mean_value: float) -> KLField:
    # the first nterms terms of f, about mean_value
    return replace(f, mean_value=mean_value, nterms=nterms,
                   eigenvalues=f.eigenvalues[:nterms],
                   eigenfunctions=f.eigenfunctions[:nterms])


def generate_dataset(cfg: DiffusionConfig, nq: int, seed: int,
                     mode: str = "point") -> SampleSet:
    """Draw germ vectors, solve the PDE for each, record the solution.

    mode "point": u at cfg.x_star, Ndx = 0. mode "scattered": u at a
    per-sample uniform x, recorded in an Ndx = 1 spatial column. Bitwise
    deterministic per (cfg, nq, seed): sample q draws its germ, then its x,
    from the stream ``rng_stream(seed, 3, q)``. The draws are made
    ``_BLOCK_ROWS`` rows at a time with no loop over them: the block's
    streams are computed together (``data._stream_uniforms``), its field
    products are stacked, and it is solved and probed together, with the
    bits of one ``rng_stream`` draw, one vector-matrix product, one
    ``scipy.linalg.solve_banded`` solve and one ``np.interp`` probe per draw.
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
    x = np.full(nq, cfg.x_star, dtype=float)
    u = np.empty(nq)
    draws = cfg.nd + (mode == "scattered")
    for start in range(0, nq, _BLOCK_ROWS):
        block = slice(start, min(start + _BLOCK_ROWS, nq))
        # each draw's stream, all at once: its germ, then (scattered) its x
        d = _stream_uniforms(seed, 3, np.arange(start, block.stop), draws)
        germ = xi[block] = d[:, :cfg.nd]
        if mode == "scattered":
            x[block] = lo + (hi - lo) * d[:, cfg.nd]
        # numpy runs a stacked (1, k) @ (k, nodes) matmul as one
        # vector-matrix product per draw, which keeps each draw's bits; a
        # plain GEMM, einsum or running sum over the block does not
        nu_nodes = np.matmul(germ[:, None, :cfg.nd_nu], w_nu)[:, 0]
        f_nodes = np.matmul(germ[:, None, cfg.nd_nu:], w_f)[:, 0]
        sol = solve_diffusion(_NU0 + nu_nodes, _F0 + f_nodes, cfg.u_minus,
                              cfg.u_plus, cfg.m_x, length=hi - lo)
        u[block] = _probe(nodes, sol, x[block])
    xs = x[:, None] if mode == "scattered" else np.empty((nq, 0))
    return SampleSet(xs, xi, u)


def save_spectrum(f: KLField, path) -> None:
    """Write the KL spectrum as CSV rows ``k,eigenvalue`` (k is 1-based)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,eigenvalue\n")
        for k, lam in enumerate(f.eigenvalues, start=1):
            fh.write(f"{k},{float(lam)!r}\n")
