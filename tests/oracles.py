"""Slow, obvious reference implementations the library is checked against.

Each function works one basis function or one sample at a time, straight
from the defining formula: they are the pointwise forms of
``univariate_deriv_table``, of a ``dense_design`` column and of
``covariance_blocks``. The least-squares oracles rebuild the design and
solve it by ``ls_solve`` (an SVD ``lstsq``) every time, as the coefficient
passes once did: they check the cached dense-mode operator and the Gram
solves of the ALS subproblems. The weighted TLS oracle works on the dense
(Nq, p+1, p+1) covariance blocks, stacked one sample at a time, that the
factored form in ``fitting`` replaces. The selection path's direction
oracle runs one lstsq on all active columns at every step: it checks the
orthonormal basis of the active span that ``glars_select`` grows.
"""

import warnings

import numpy as np

from hdmrfit import fitting
from hdmrfit.basis import (BasisConfig, _check_index, eval_univariate,
                           univariate_deriv_table, univariate_table)
from hdmrfit.data import NoiseModel, SampleSet
from hdmrfit.fitting import ls_solve
from hdmrfit.model import dense_design


def eval_univariate_deriv(cfg: BasisConfig, alpha: int, xi):
    """Derivative of ``psi_alpha`` at ``xi`` (scalar or array)."""
    _check_index(cfg, alpha)
    table = univariate_deriv_table(cfg, xi)
    val = table[..., alpha - 1]
    return float(val) if np.isscalar(xi) else val


def eval_tensor(cfg: BasisConfig, gamma, alphas, xi_vec):
    """Tensor-product value prod_{i in gamma} psi_{alpha_i}(xi_i).

    ``gamma`` holds 1-based dimension indices and ``alphas`` one basis index
    per dimension; ``xi_vec`` is a full coordinate vector, or a (nq, Nd)
    batch of them, whose entry ``i - 1`` is used for dimension ``i``.
    """
    gamma = tuple(gamma)
    alphas = tuple(alphas)
    if len(gamma) != len(alphas):
        raise ValueError(
            f"group has {len(gamma)} dims but multi-index has {len(alphas)} entries"
        )
    xi_vec = np.asarray(xi_vec, dtype=float)
    single = xi_vec.ndim == 1
    rows = xi_vec[None, :] if single else xi_vec
    out = np.ones(rows.shape[0])
    for i, a in zip(gamma, alphas):
        out = out * eval_univariate(cfg, a, rows[:, i - 1])
    return float(out[0]) if single else out


def build_sample_covariance(xi_q, dims, indices, noise: NoiseModel, u_q,
                            basis: BasisConfig) -> np.ndarray:
    """First-order noise covariance block for one sample.

    Predictor rows get s^2 * sum_i (dpsi_a/dxi_i)(dpsi_b/dxi_i); the residual
    row variance is (s_u * u_q)^2; cross terms vanish because coordinate and
    value noise are independent.
    """
    xi_q = np.asarray(xi_q, dtype=float).ravel()
    dims = tuple(int(d) for d in dims)
    p = len(indices)
    lam = np.zeros((p + 1, p + 1))
    if noise.s > 0:
        sub = xi_q[[d - 1 for d in dims]]
        vals = univariate_table(basis, sub)
        ders = univariate_deriv_table(basis, sub)
        der = np.empty((p, len(dims)))
        for a, idx in enumerate(indices):
            for i, al in enumerate(idx):
                prod = 1.0
                for j, aj in enumerate(idx):
                    if j != i:
                        prod *= vals[j, aj - 1]
                der[a, i] = ders[i, al - 1] * prod
        lam[:p, :p] = noise.s**2 * (der @ der.T)
    lam[p, p] = (noise.s_u * float(u_q)) ** 2
    return lam


def stack_sample_covariance(train: SampleSet, dims, indices, noise: NoiseModel,
                            basis: BasisConfig, u_ref=None) -> np.ndarray:
    """(Nq, p+1, p+1) covariance blocks of every training row, one
    ``build_sample_covariance`` per row; u_ref defaults to train.u."""
    u = train.u if u_ref is None else np.asarray(u_ref, dtype=float).ravel()
    return np.stack([build_sample_covariance(train.xi[q], dims, indices, noise,
                                             u[q], basis)
                     for q in range(train.nq)])


def wtls_denominators_dense(lam, c) -> np.ndarray:
    """a' Lambda_q a + tau_q a'a for a = (c', -1)', tau_q = 1e-12 trace
    Lambda_q, contracted on the dense blocks and floored at 1e-14 of the
    largest."""
    a = np.concatenate([np.asarray(c, dtype=float), [-1.0]])
    tau = 1e-12 * np.trace(lam, axis1=1, axis2=2)
    d = np.einsum("i,qij,j->q", a, lam, a) + tau * float(a @ a)
    return np.maximum(d, 1e-14 * d.max())


def wtls_solve_dense(psi, r, lam, c0=None) -> np.ndarray:
    """Weighted TLS on dense covariance blocks: the reweighted projections,
    backtracking and stopping rule of ``wtls_solve``."""
    psi = np.asarray(psi, dtype=float)
    r = np.asarray(r, dtype=float).ravel()
    if not np.any(lam):
        return ls_solve(psi, r, 0.0)

    def rho2(c):
        e = psi @ c - r
        return float(np.sum(e * e / wtls_denominators_dense(lam, c)))

    c = ls_solve(psi, r, 0.0) if c0 is None else np.asarray(c0, dtype=float).ravel()
    prev = rho2(c)
    best_c, best_rho = c.copy(), prev
    for _ in range(fitting._WTLS_MAX_ITER):
        sw = 1.0 / np.sqrt(wtls_denominators_dense(lam, c))
        c_prop = ls_solve(psi * sw[:, None], r * sw, 0.0)
        step, cand, rho_new = 1.0, None, prev
        for _ in range(30):
            cand = c + step * (c_prop - c)
            rho_new = rho2(cand)
            if rho_new <= prev * (1.0 + 1e-12):
                break
            step *= 0.5
        else:
            cand, rho_new = c, prev
        c = cand
        if rho_new < best_rho:
            best_c, best_rho = c.copy(), rho_new
        if abs(prev - rho_new) <= fitting._WTLS_TOL * max(prev, fitting._TINY):
            return best_c
        prev = rho_new
    warnings.warn("weighted TLS did not converge; returning best iterate")
    return best_c


def lstsq_direction(active_cols, r) -> np.ndarray:
    """Least-squares fit of r on the stacked columns of every active group:
    the path's direction, solved by one lstsq on the whole active set."""
    x = np.hstack(active_cols)
    coef, *_ = np.linalg.lstsq(x, r, rcond=None)
    return x @ coef


def dense_mode_lstsq(table, dims, indices, w, r, beta: float) -> np.ndarray:
    """Coefficients of one dense mode: minimize ||r - w * (psi c)||^2 +
    beta^2 ||c||^2 with psi rebuilt from the table."""
    psi = dense_design(table, dims, indices) * np.asarray(w, dtype=float)[:, None]
    return ls_solve(psi, r, beta)


def als_factor_lstsq(block, partial, w, target, beta: float) -> np.ndarray:
    """One ALS factor update: the block's columns scaled row by row by the
    other factors' product (and the row weights), solved by lstsq."""
    psi = block * partial[:, None]
    if w is not None:
        psi = psi * w[:, None]
    return ls_solve(psi, target, beta)
