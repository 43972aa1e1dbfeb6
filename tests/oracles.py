"""Slow, obvious reference implementations the library is checked against.

Each function works one basis function or one sample at a time, straight
from the defining formula. The basis oracles evaluate numpy's own Legendre
series, independently of the library's recurrence tables; the others are
the pointwise forms of a ``dense_design`` column and of
``covariance_blocks``, which the library builds for a whole block of dense
groups side by side, as the weighted TLS refit of a robust fit uses it;
the covariance oracle reads its values and derivatives off the same series.
``evaluate_model_design`` evaluates a model as ``evaluate_model`` once did:
the table on every dim and one ``dense_design`` per dense mode, which the
library's contraction of each mode's coefficients with the table replaces;
its CP modes' values are per-rank products of table columns
(``cp_mode_values``), which the other oracles share.
The least-squares oracles rebuild the design and solve it by ``ls_solve``
(an SVD ``lstsq``) every time, as the coefficient passes once did: they
check the bordered dense block and the Gram solves of the ALS subproblems;
``dense_block_lstsq`` stacks f0 and several dense modes over their ridge
rows, as one block holds them.
``greedy_cp_refit`` is rank-by-rank ALS that solves one factor at a time
by lstsq: it checks the joint-rank sweeps that make a CP mode's entry fit.
``backfit`` is the coefficient passes as they once ran: per-mode
backfitting, with a CP mode refitted by ``greedy_cp_refit`` warm-started
from its previous factors; the joint dense block must reach its limit.
``continued_fit`` is the final refit of a fit by lstsq: the kept groups
on all rows, each CP mode from the factors the passes left, alternating
one lstsq of f0 and the dense modes with one joint-rank lstsq sweep per CP
mode (``cp_sweep_lstsq``); ``cv_fit_reference`` is a cross-validated
``fit_hdmr`` whose final refit it is. ``fit_separated_reference`` is the
separated driver as a loop of public calls and these oracles: the whole
selection path, ``cv_fit_reference`` or ``fit_hdmr`` on the first
alternation, ``continued_fit`` on every later one and ``evaluate_model``
for every value of lambda; the library's driver, which reads the path
lazily and keeps each rank's skeleton designs, must write the same model
bytes when no CP mode is kept, and the same model up to the lstsq's
rounding otherwise.
The weighted TLS oracle works on the dense (Nq, p+1, p+1) covariance
blocks, stacked one sample at a time, that the factored form in
``fitting`` replaces. The selection path's direction oracle runs one lstsq
on all active columns at every step: it checks the orthonormal basis of the
active span that ``glars_select`` grows. ``grow_basis_svd`` extends that
basis by a thin SVD of every remainder, as ``model._grow_basis`` did before
its Cholesky-QR2 path; it also counts the directions the dense block's
fallback drops from dependent columns. ``kl_field`` sums
a field's Karhunen-Loeve expansion term by term. ``solve_diffusion_banded``
solves one draw's diffusion system by ``scipy.linalg.solve_banded`` (LAPACK
dgtsv), and ``generate_rows`` is the diffusion test bed one draw at a time:
its own two eigendecompositions, one banded solve and one ``np.interp``
probe per draw. ``inject_noise_rows`` perturbs one row at a time. The
library's batched test bed and noise must give the same bytes.
"""

import warnings
from dataclasses import replace

import numpy as np
from numpy.polynomial.legendre import Legendre
from scipy.linalg import solve_banded

from hdmrfit import fitting
from hdmrfit.basis import BasisConfig, univariate_table
from hdmrfit.data import NoiseModel, SampleSet, _reflect, rng_stream
from hdmrfit.fitting import (FitConfig, fit_basis, fit_hdmr, ls_solve,
                             merge_train_validation)
from hdmrfit.model import (CPMode, DenseMode, HdmrModel, dense_design,
                           enumerate_dense_indices, evaluate_model)
from hdmrfit.selection import glars_select
from hdmrfit.separated import (_MAX_OUTER_ITERS, _OUTER_TOL, _STOP_NORM_FRAC,
                               SeparatedModel, fit_spatial_mode, spatial_design)
from hdmrfit.testbed import DiffusionConfig, KLField, kl_eigendecompose


def _legendre_series(cfg: BasisConfig, alpha: int) -> Legendre:
    # psi_alpha as a series in the coordinate mapped from [lo, hi] to [-1, 1]
    if not 1 <= alpha <= cfg.max_order:
        raise IndexError(f"basis index {alpha} outside 1..{cfg.max_order}")
    return np.sqrt(2.0 * alpha - 1.0) * Legendre.basis(alpha - 1)


def _mapped(cfg: BasisConfig, xi):
    return (2.0 * np.asarray(xi, dtype=float) - cfg.lo - cfg.hi) / (cfg.hi - cfg.lo)


def legendre_psi(cfg: BasisConfig, alpha: int, xi):
    """Value of ``psi_alpha`` at ``xi`` (scalar or array), by numpy's
    Legendre series; IndexError when alpha is outside 1..max_order."""
    val = _legendre_series(cfg, alpha)(_mapped(cfg, xi))
    return float(val) if np.ndim(xi) == 0 else val


def legendre_dpsi(cfg: BasisConfig, alpha: int, xi):
    """Derivative of ``psi_alpha`` at ``xi``: the series' derivative times
    the chain-rule factor 2 / (hi - lo) of the interval map."""
    val = (_legendre_series(cfg, alpha).deriv()(_mapped(cfg, xi))
           * (2.0 / (cfg.hi - cfg.lo)))
    return float(val) if np.ndim(xi) == 0 else val


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
        out = out * legendre_psi(cfg, a, rows[:, i - 1])
    return float(out[0]) if single else out


def cp_mode_values(blocks, factors) -> np.ndarray:
    """A CP mode's values: per rank, the product over its dims of each
    dim's (rows, orders) table columns times that rank's factor, summed
    over the ranks."""
    out = np.zeros(blocks[0].shape[0])
    for fac in factors:
        out += np.prod([b @ f for b, f in zip(blocks, fac)], axis=0)
    return out


def evaluate_model_design(model: HdmrModel, xi) -> np.ndarray:
    """``evaluate_model`` in its design form: the table on every dim, each
    dense mode's full ``dense_design`` times its coefficients, and each CP
    mode's per-rank products (``cp_mode_values``), added to f0 in the
    model's order."""
    xi = np.asarray(xi, dtype=float)
    squeeze = xi.ndim == 1
    rows = xi[None, :] if squeeze else xi
    table = univariate_table(model.basis, rows)
    out = np.full(rows.shape[0], model.f0)
    for m in model.dense:
        out += dense_design(table, m.dims, m.indices) @ m.coeffs
    for m in model.cp:
        out += cp_mode_values([table[:, d - 1, 1:model.no] for d in m.dims], m.factors)
    return out[0] if squeeze else out


def block_sample_covariance(xi_q, groups, noise: NoiseModel, u_q,
                            basis: BasisConfig) -> np.ndarray:
    """First-order noise covariance of one sample for dense groups side by
    side, ``groups`` a list of (dims, indices).

    Each predictor's gradient is taken over every dimension of the block,
    zero along the dimensions its group does not touch; predictor rows get
    s^2 times the inner products of those gradients, so groups that share
    a dimension get cross terms. The residual row variance is
    (s_u * u_q)^2; the predictor-response terms vanish because coordinate
    and value noise are independent.
    """
    xi_q = np.asarray(xi_q, dtype=float).ravel()
    groups = [(tuple(int(d) for d in dims), indices) for dims, indices in groups]
    block_dims = sorted({d for dims, _ in groups for d in dims})
    p = sum(len(indices) for _, indices in groups)
    lam = np.zeros((p + 1, p + 1))
    if noise.s > 0:
        sub = xi_q[[d - 1 for d in block_dims]]
        orders = range(1, basis.max_order + 1)
        vals = np.stack([legendre_psi(basis, a, sub) for a in orders], axis=1)
        ders = np.stack([legendre_dpsi(basis, a, sub) for a in orders], axis=1)
        der = np.zeros((p, len(block_dims)))
        row = 0
        for dims, indices in groups:
            at = [block_dims.index(d) for d in dims]
            for idx in indices:
                for i, al in enumerate(idx):
                    prod = 1.0
                    for j, aj in enumerate(idx):
                        if j != i:
                            prod *= vals[at[j], aj - 1]
                    der[row, at[i]] = ders[at[i], al - 1] * prod
                row += 1
        lam[:p, :p] = noise.s**2 * (der @ der.T)
    lam[p, p] = (noise.s_u * float(u_q)) ** 2
    return lam


def build_sample_covariance(xi_q, dims, indices, noise: NoiseModel, u_q,
                            basis: BasisConfig) -> np.ndarray:
    """First-order noise covariance block of one group for one sample."""
    return block_sample_covariance(xi_q, [(dims, indices)], noise, u_q, basis)


def stack_block_covariance(train: SampleSet, groups, noise: NoiseModel,
                           basis: BasisConfig, u_ref=None) -> np.ndarray:
    """(Nq, p+1, p+1) covariance blocks of every training row for dense
    groups side by side, one ``block_sample_covariance`` per row; u_ref
    defaults to train.u."""
    u = train.u if u_ref is None else np.asarray(u_ref, dtype=float).ravel()
    return np.stack([block_sample_covariance(train.xi[q], groups, noise, u[q], basis)
                     for q in range(train.nq)])


def stack_sample_covariance(train: SampleSet, dims, indices, noise: NoiseModel,
                            basis: BasisConfig, u_ref=None) -> np.ndarray:
    """(Nq, p+1, p+1) covariance blocks of one group for every training row."""
    return stack_block_covariance(train, [(dims, indices)], noise, basis, u_ref)


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
        step, cand, rho_new = 1.0, c, prev
        for _ in range(30):
            if step * np.linalg.norm(c_prop - c) <= np.finfo(float).eps * np.linalg.norm(c):
                break   # the step no longer moves c beyond rounding: c stays
            trial = c + step * (c_prop - c)
            rho_t = rho2(trial)
            if rho_t <= prev * (1.0 + 1e-12):
                cand, rho_new = trial, rho_t
                break
            step *= 0.5
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


def grow_basis_svd(q, cols, cutoff: float):
    """Extend the orthonormal basis q by the span of ``cols``: Gram-Schmidt
    against q twice, then a thin SVD of the remainder, keeping the
    directions whose singular value exceeds ``cutoff``. Returns (u, h, s, vt)
    with cols = q h + u diag(s) vt up to the dropped directions."""
    h = q.T @ cols
    rem = cols - q @ h
    step = q.T @ rem
    rem = rem - q @ step
    u, s, vt = np.linalg.svd(rem, full_matrices=False)
    keep = s > cutoff
    return u[:, keep], h + step, s[keep], vt[keep]


def dense_block_lstsq(table, groups, no: int, w, r, beta: float) -> np.ndarray:
    """f0 and the coefficients of the dense modes on ``groups``, in order:
    one lstsq of the row-weighted columns [1, psi_1, ..., psi_m], stacked
    over beta * I rows under the modes' columns (f0 unridged) and a zero
    right-hand side there."""
    w = np.asarray(w, dtype=float)
    psi = np.hstack([np.ones((w.shape[0], 1))]
                    + [dense_design(table, g, enumerate_dense_indices(g, no))
                       for g in groups]) * w[:, None]
    p = psi.shape[1] - 1
    stacked = np.vstack([psi, np.hstack([np.zeros((p, 1)), beta * np.eye(p)])])
    c, *_ = np.linalg.lstsq(stacked, np.concatenate([r, np.zeros(p)]), rcond=None)
    return c


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


def greedy_cp_refit(gamma, residual, blocks, cfg: FitConfig, w, init=None):
    """Rank-by-rank ALS of a CP mode, each rank fitted to what the earlier
    ranks leave, one factor at a time by ``als_factor_lstsq``; ``blocks``
    hold each dimension's (rows, orders) columns of the public table.

    A rank starts from its ``init`` factors or, with ``init=None`` (the
    cold start), from the seeded draws of stream (seed, 4, *gamma, rank, 0).
    Its sweeps stop at the tolerance and cap of the library's ALS. A factor
    whose other factors' product (times the row weights) vanishes is set
    to zero, and a rank left all zero is skipped with a warning.
    """
    card, nord = len(gamma), cfg.no - 1
    w = np.ones(residual.shape[0]) if w is None else np.asarray(w, dtype=float)
    factors = np.zeros((cfg.nr, card, nord))
    target = residual.copy()

    def product(fac, skip=None):
        out = np.ones_like(target)
        for j in range(card):
            if j != skip:
                out = out * (blocks[j] @ fac[j])
        return out

    for rank in range(cfg.nr):
        if float(np.linalg.norm(target)) == 0.0:
            break
        if init is None:
            g = rng_stream(cfg.seed, 4, *gamma, rank, 0)
            fac = g.uniform(-1.0, 1.0, size=(card, nord))
        else:
            fac = np.array(init[rank], dtype=float)
        prev = np.inf
        for _ in range(fitting._ALS_MAX_SWEEPS):
            for i in range(card):
                partial = product(fac, skip=i)
                fac[i] = (als_factor_lstsq(blocks[i], partial, w, target, cfg.beta)
                          if np.any(partial * w) else 0.0)
            contr = w * product(fac)
            res = float(np.linalg.norm(target - contr))
            if abs(prev - res) <= fitting._ALS_TOL * max(res, fitting._TINY):
                break
            prev = res
        if not fac.any():
            warnings.warn(f"CP rank {rank + 1} on {gamma}: factor values vanished, "
                          "skipping this rank")
            continue
        factors[rank] = fac
        target = target - contr
    return factors


def backfit(train: SampleSet, groups, cfg: FitConfig, basis: BasisConfig,
            row_weights=None, max_sweeps=20, tol=1e-6) -> HdmrModel:
    """The coefficient passes by backfitting, with no validation rows.

    Each group enters fitted to the current residual; then every pass
    cycles f0 (the weighted mean of its residual) and each mode in turn,
    refitted to its partial residual: a dense mode by ``ls_solve`` of its
    rebuilt row-weighted design, a CP mode by greedy rank-by-rank ALS from
    its previous factors. A pass stops once the training residual norm
    changes by at most ``tol`` (relative), or after ``max_sweeps``.
    """
    table = univariate_table(fit_basis(basis, cfg), train.xi)
    u = train.u
    w = np.ones(train.nq) if row_weights is None else np.asarray(row_weights, float)
    dense, cps = {}, {}
    values = {}

    def refit(dims, r):
        if len(dims) <= cfg.npc:
            idx = enumerate_dense_indices(dims, cfg.no)
            dense[dims] = dense_mode_lstsq(table, dims, idx, w, r, cfg.beta)
            values[dims] = dense_design(table, dims, idx) @ dense[dims]
        else:
            blocks = [table[:, d - 1, 1:cfg.no] for d in dims]
            cps[dims] = greedy_cp_refit(dims, r, blocks, cfg, w, cps.get(dims))
            values[dims] = cp_mode_values(blocks, cps[dims])

    def total():
        return sum(values.values(), np.zeros(train.nq))

    f0 = float(w @ u) / float(w @ w)
    for dims in groups:
        dims = tuple(dims)
        refit(dims, u - w * (f0 + total()))
        prev = float(np.linalg.norm(u - w * (f0 + total())))
        for _ in range(max_sweeps):
            f0 = float(w @ (u - w * total())) / float(w @ w)
            for d in list(values):
                refit(d, u - w * (f0 + total() - values[d]))
            cur = float(np.linalg.norm(u - w * (f0 + total())))
            if abs(prev - cur) <= tol * max(cur, 1e-300):
                break
            prev = cur
        f0 = float(w @ (u - w * total())) / float(w @ w)
    return HdmrModel(
        f0=f0, basis=fit_basis(basis, cfg), nd=train.nd, no=cfg.no,
        ninter=cfg.ninter, npc=cfg.npc, nr=cfg.nr,
        dense=[DenseMode(d, enumerate_dense_indices(d, cfg.no), c)
               for d, c in dense.items()],
        cp=[CPMode(d, f) for d, f in cps.items()])


def cp_sweep_lstsq(residual, blocks, factors, w, beta: float) -> np.ndarray:
    """One joint-rank ALS sweep of a CP mode: for each dimension in turn,
    the factors of all ranks by one ``ls_solve`` of the design whose
    columns are that dimension's (rows, orders) block scaled row by row by
    each rank's product of the other dimensions' factor values and the row
    weights, the other dimensions' factors held."""
    nr, card, nord = factors.shape
    fac = np.array(factors, dtype=float)
    for i in range(card):
        cols = []
        for r in range(nr):
            partial = np.array(w, dtype=float)
            for j in range(card):
                if j != i:
                    partial = partial * (blocks[j] @ fac[r, j])
            cols.append(blocks[i] * partial[:, None])
        fac[:, i] = ls_solve(np.hstack(cols), residual, beta).reshape(nr, nord)
    return fac


def continued_fit(rows: SampleSet, groups, cp_start, cfg: FitConfig, basis: BasisConfig,
                  row_weights=None):
    """The final refit of a fit, which continues it: the ``groups`` on all
    ``rows``, each CP mode from its factors in ``cp_start`` (dims ->
    factors). One lstsq of f0 and the dense modes, f0 unridged and the
    CP modes' values held, alternates with one ``cp_sweep_lstsq`` per CP
    mode in path order for ``_MAX_UPDATE_SWEEPS`` sweeps; the lstsq comes
    first, once alone. Returns (HdmrModel, (residual norm, sweeps)).

    With no CP mode the continuation is one solve of the dense block, the
    last pass of a fit of the groups afresh: the result is then
    ``fit_hdmr(rows, None, groups, ...)``, whose bytes the library gives.
    """
    groups = [tuple(g) for g in groups]
    if all(len(g) <= cfg.npc for g in groups):
        model, diag = fit_hdmr(rows, None, groups, cfg, basis, row_weights=row_weights)
        last = diag.records[-1]
        return model, (last.train_residual_norm, last.update_sweeps)
    if cfg.robust:
        raise NotImplementedError("no weighted TLS refit after CP modes here")
    fbasis = fit_basis(basis, cfg)
    table = univariate_table(fbasis, rows.xi)
    u = rows.u
    w = np.ones(rows.nq) if row_weights is None else np.asarray(row_weights, float)
    dense = [(g, enumerate_dense_indices(g, cfg.no)) for g in groups if len(g) <= cfg.npc]
    plain = np.hstack([np.ones((rows.nq, 1))] + [dense_design(table, g, idx)
                                                 for g, idx in dense])
    psi = plain * w[:, None]
    p = psi.shape[1] - 1
    design = np.vstack([psi, np.hstack([np.zeros((p, 1)), cfg.beta * np.eye(p)])])
    cps = {g: np.array(cp_start[g], dtype=float) for g in groups if len(g) > cfg.npc}
    blocks = {g: [table[:, d - 1, 1:cfg.no] for d in g] for g in cps}

    def cp_values(g):
        return cp_mode_values(blocks[g], cps[g])

    def solve():
        r = u - w * sum((cp_values(g) for g in cps), np.zeros(rows.nq))
        c = ls_solve(design, np.concatenate([r, np.zeros(p)]))
        return c, plain @ c

    def norm():
        return float(np.linalg.norm(u - w * (fitted + sum(cp_values(g) for g in cps))))

    c, fitted = solve()
    for _ in range(fitting._MAX_UPDATE_SWEEPS):
        c, fitted = solve()
        for g in cps:
            others = sum((cp_values(h) for h in cps if h != g), np.zeros(rows.nq))
            cps[g] = cp_sweep_lstsq(u - w * (fitted + others), blocks[g], cps[g], w,
                                    cfg.beta)
    ends = np.cumsum([1] + [len(idx) for _, idx in dense])
    model = HdmrModel(
        f0=float(c[0]), basis=fbasis, nd=rows.nd, no=cfg.no, ninter=cfg.ninter,
        npc=cfg.npc, nr=cfg.nr,
        dense=[DenseMode(g, idx, part)
               for (g, idx), part in zip(dense, np.split(c, ends)[1:])],
        cp=[CPMode(g, f) for g, f in cps.items()])
    return model, (norm(), fitting._MAX_UPDATE_SWEEPS)


def cv_fit_reference(train: SampleSet, validation: SampleSet, path, cfg: FitConfig,
                     basis: BasisConfig, row_weights=None, val_row_weights=None):
    """A cross-validated ``fit_hdmr`` whose final refit is ``continued_fit``.
    The passes, the groups they read and the number kept are ``fit_hdmr``'s;
    the CP modes start from the factors of ``fit_hdmr(train, None, groups
    read)``, the fit the passes had reached when they stopped, and the kept
    groups are continued on train plus validation. Returns (HdmrModel,
    the passes' FitDiagnostics, the continuation's (residual norm,
    sweeps))."""
    _, diag = fit_hdmr(train, validation, path, cfg, basis, row_weights=row_weights,
                       val_row_weights=val_row_weights)
    groups = [rec.dims for rec in diag.records[1:]]
    start, _ = fit_hdmr(train, None, groups, replace(cfg, robust=False), basis,
                        row_weights=row_weights)
    rows, w = merge_train_validation(train, validation, row_weights, val_row_weights)
    model, rec = continued_fit(rows, groups[: diag.retained],
                               {m.dims: m.factors for m in start.cp}, cfg, basis, w)
    return model, diag, rec


def fit_separated_reference(train: SampleSet, sel_cfg, fit_cfg: FitConfig, sep_cfg,
                            sb, basis: BasisConfig, solve,
                            validation: SampleSet | None = None) -> SeparatedModel:
    """``separated.fit_separated`` from public calls, evaluating everything.

    Each rank selects its whole path by ``glars_select`` and fits lambda
    on that path, by ``cv_fit_reference`` with validation rows and by
    ``fit_hdmr`` without. Every later alternation continues the retained
    groups from the last fit's CP factors by ``continued_fit`` (on train
    plus validation), and every value of lambda is taken from
    ``evaluate_model``. The spatial
    least-squares fits other than ``fit_spatial_mode``'s (rank 0, the start
    profile, the joint re-solve) are ``solve(design, r)``; the library
    solves them by its unit-scaled Gram solve.
    """
    have_val = validation is not None
    phi = spatial_design(sb, train.x[:, 0])
    u = train.u
    unorm = float(np.linalg.norm(u))
    c0 = solve(phi, u)
    pairs = [(c0, None)]
    res = u - phi @ c0
    if have_val:
        phi_val = spatial_design(sb, validation.x[:, 0])
        res_val = validation.u - phi_val @ c0
    w_start = solve(phi, np.ones(train.nq))
    w_start = w_start / float(np.linalg.norm(phi @ w_start))

    def lam_at(lam, xi):
        return np.ones(xi.shape[0]) if lam is None else evaluate_model(lam, xi)

    for _ in range(sep_cfg.lmax):
        if float(np.linalg.norm(res)) == 0.0:
            break
        r_train = replace(train, u=res)
        r_val = replace(validation, u=res_val) if have_val else None
        w_c = w_start
        prev_norm = None
        for it in range(_MAX_OUTER_ITERS):
            w_train = phi @ w_c
            w_val = phi_val @ w_c if have_val else None
            if it == 0:
                path = glars_select(r_train, sel_cfg, basis, row_weights=w_train)
                if have_val:
                    lam_model, diag, _ = cv_fit_reference(r_train, r_val, path, fit_cfg,
                                                          basis, w_train, w_val)
                else:
                    lam_model, diag = fit_hdmr(r_train, None, path, fit_cfg, basis,
                                               row_weights=w_train)
                groups = path.groups()[: diag.retained]
            else:
                fit_set, w_fit = r_train, w_train
                if have_val:
                    fit_set, w_fit = merge_train_validation(r_train, r_val,
                                                            w_train, w_val)
                lam_model, _ = continued_fit(fit_set, groups,
                                             {m.dims: m.factors for m in lam_model.cp},
                                             fit_cfg, basis, w_fit)
            lam_vals = evaluate_model(lam_model, train.xi)
            lam_norm = float(np.linalg.norm(lam_vals))
            if lam_norm == 0.0:
                return SeparatedModel(spatial_basis=sb, pairs=pairs)
            if prev_norm is not None and \
                    abs(lam_norm - prev_norm) <= _OUTER_TOL * lam_norm:
                break
            prev_norm = lam_norm
            w_c, scale = fit_spatial_mode(res, lam_vals, phi)
            if scale == 0.0:
                return SeparatedModel(spatial_basis=sb, pairs=pairs)
        if lam_norm < _STOP_NORM_FRAC * unorm:
            break
        new_res = res - (phi @ w_c) * lam_vals
        if float(np.linalg.norm(new_res)) > float(np.linalg.norm(res)):
            warnings.warn("separated rank did not reduce the training residual; "
                          "stopping")
            break
        pairs.append((w_c, lam_model))
        res = new_res
        if have_val:
            res_val = res_val - (phi_val @ w_c) * evaluate_model(lam_model,
                                                                 validation.xi)
        if sep_cfg.update_spatial_joint:
            design = np.hstack([phi * lam_at(lam, train.xi)[:, None]
                                for _, lam in pairs])
            coeffs = solve(design, u)
            cardx = phi.shape[1]
            pairs = [(coeffs[n * cardx:(n + 1) * cardx], lam)
                     for n, (_, lam) in enumerate(pairs)]
            res = u - design @ coeffs
            if have_val:
                pred = np.zeros(validation.nq)
                for c, lam in pairs:
                    w = phi_val @ c
                    pred += w if lam is None else w * evaluate_model(lam, validation.xi)
                res_val = validation.u - pred
    return SeparatedModel(spatial_basis=sb, pairs=pairs)


def kl_field(f: KLField, germ, x) -> np.ndarray:
    """mean_value + sum_k sqrt(lambda_k) germ_k omega_k(x), one term at a
    time, with omega_k interpolated linearly between its grid values."""
    vals = np.full(np.shape(x), f.mean_value, dtype=float)
    for k in range(f.nterms):
        vals += np.sqrt(f.eigenvalues[k]) * germ[k] * np.interp(x, f.grid,
                                                                 f.eigenfunctions[k])
    return vals


def solve_diffusion_banded(nu, f_rhs, u_minus, u_plus, m_x, length=1.0) -> np.ndarray:
    """One draw of ``testbed.solve_diffusion``: the conservative scheme's
    tridiagonal matrix in scipy's (1, 1) banded layout, solved by
    ``solve_banded``."""
    n = m_x + 1
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


def generate_rows(cfg: DiffusionConfig, nq: int, seed: int, mode: str = "point"):
    """``testbed.generate_dataset`` one draw at a time, each field from its
    own eigendecomposition: draw q takes its germ (and its x) from stream
    (seed, 3, q), builds the nodal fields, solves by
    ``solve_diffusion_banded`` and probes by ``np.interp``."""
    nodes = np.linspace(0.0, 1.0, cfg.m_x + 1)

    def table(sigma, nterms):
        f = kl_eigendecompose(sigma, cfg.lc, (0.0, 1.0), cfg.m_k, nterms)
        rows = [np.sqrt(f.eigenvalues[k]) * np.interp(nodes, f.grid, f.eigenfunctions[k])
                for k in range(nterms)]
        return np.array(rows).reshape(nterms, nodes.size)

    w_nu, w_f = table(cfg.sigma_nu, cfg.nd_nu), table(cfg.sigma_f, cfg.nd_f)
    xi = np.empty((nq, cfg.nd))
    x = np.empty((nq, 1 if mode == "scattered" else 0))
    u = np.empty(nq)
    for q in range(nq):
        g = rng_stream(seed, 3, q)
        xi[q] = g.uniform(0.0, 1.0, cfg.nd)
        nu = 1.0 + xi[q, :cfg.nd_nu] @ w_nu
        f = -1.0 + xi[q, cfg.nd_nu:] @ w_f
        sol = solve_diffusion_banded(nu, f, cfg.u_minus, cfg.u_plus, cfg.m_x)
        at = cfg.x_star
        if mode == "scattered":
            at = x[q, 0] = g.uniform(0.0, 1.0)
        u[q] = np.interp(at, nodes, sol)
    return SampleSet(x, xi, u)


def inject_noise_rows(sset: SampleSet, noise: NoiseModel, seed: int) -> SampleSet:
    """``data.inject_noise`` one row at a time: draw, reflect, scale."""
    xi, u = np.array(sset.xi), np.array(sset.u)
    for q in range(sset.nq):
        g = rng_stream(seed, 2, q)
        zeta = g.standard_normal(sset.nd)
        zeta_u = g.standard_normal()
        if noise.s > 0:
            xi[q] = _reflect(xi[q] + noise.s * zeta, *noise.box)
        if noise.s_u > 0:
            u[q] = u[q] * (1.0 + noise.s_u * zeta_u)
    return SampleSet(sset.x, xi, u, sset.tag)
