"""Coefficient estimation for sparse HDMR surrogates.

Covers ordinary least squares, dense-mode fits, separated-rank (CP) mode
fits by alternating least squares, the multi-pass driver with
cross-validation stopping, and a weighted total least squares (WTLS) refit
for data with noisy stochastic coordinates. With validation rows, the
cross-validated passes fit by least squares and only the final refit on
train plus validation is weighted TLS; without them every pass is.

Every fit targets the u of its SampleSet. All fits accept optional per-row
weights w_q: the surrogate then predicts w_q * model(xi_q) at the sample
rows, which is what the separated representation driver needs when a
stochastic mode is fitted to its deflated residual under a fixed spatial
profile. Weighted TLS covers plain rows only: a robust fit with row weights
raises ValueError.

One ``_fit_passes`` call (the driver behind ``fit_hdmr``) owns everything its
refits reuse, for the life of that call and no longer: the univariate tables
over the columns its groups touch, and one ``_ActiveMode`` per mode that
holds the train and validation designs (dense) or factor blocks (CP), plus
for a dense mode the least-squares operator of its row-weighted design and,
in a robust fit, the noise-covariance factor of its rows. A dense refit is
then two matrix-vector products (and a weighted TLS solve that refreshes
only the value-noise variances), and an ALS step solves a small Gram
system. Nothing is cached between calls; ``fit_dense_mode`` and
``fit_cp_mode`` build one ``_ActiveMode`` for a single refit.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .basis import BasisConfig, univariate_deriv_table, univariate_table
from .data import NoiseModel, SampleSet, rng_stream
from .model import (
    CPMode,
    DenseMode,
    Group,
    HdmrModel,
    _cp_blocks,
    _cp_values,
    dense_design,
    enumerate_dense_indices,
    evaluate_model,
)

__all__ = [
    "FitConfig",
    "CovarianceBlocks",
    "PassRecord",
    "FitDiagnostics",
    "ls_solve",
    "fit_dense_mode",
    "fit_cp_mode",
    "fit_hdmr",
    "merge_train_validation",
    "relative_error",
    "covariance_blocks",
    "wtls_solve",
    "save_diagnostics",
]

_TINY = 1e-300
# solver internals: each loop stops once its objective changes by at most its
# tol (relative), or at its cap
_ALS_TOL = 1e-8                 # ALS sweeps of one CP rank
_ALS_MAX_SWEEPS = 100
_UPDATE_SWEEPS_TOL = 1e-6       # cyclic refits of all active modes per pass
_MAX_UPDATE_SWEEPS = 20
_WTLS_TOL = 1e-10               # reweighting iterations of wtls_solve
_WTLS_MAX_ITER = 50
# an ALS subproblem is solved through its Gram while the Cholesky pivots stay
# within this ratio of each other, and by ls_solve otherwise: the Gram
# squares the design's condition number. On ALS-shaped probes the Gram
# solution stayed within 1e-9 of lstsq above the ratio (1e-7 at 1e-3); the
# benchmark workloads' subproblems never go below 0.37.
_GRAM_MIN_PIVOT_RATIO = 1e-2


@dataclass(frozen=True)
class FitConfig:
    """Structural choices of the coefficient stage; robust with a NoiseModel
    selects weighted total least squares."""

    no: int = 4
    npc: int = 2
    ninter: int = 2
    nr: int = 3
    beta: float = 0.0
    seed: int = 0
    robust: bool = False
    noise: NoiseModel | None = None

    def __post_init__(self):
        if self.npc > self.ninter:
            raise ValueError("npc must be <= ninter")
        if self.nr < 1:
            raise ValueError("nr must be >= 1")
        if self.no < 1:
            raise ValueError("no must be >= 1")
        # a dense group of cardinality npc has comb(no, npc) predictors, and
        # a CP factor fits orders 2..no
        if self.no < self.npc:
            raise ValueError(f"no={self.no} must be >= npc={self.npc}: a dense "
                             f"group of {self.npc} dims has no predictors")
        if self.no < 2 and self.ninter > self.npc:
            raise ValueError(f"no={self.no} must be >= 2 when ninter={self.ninter} "
                             f"> npc={self.npc}: CP factors have no orders")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.robust and self.noise is None:
            raise ValueError("robust fitting needs a NoiseModel")


def fit_basis(basis: BasisConfig, cfg: FitConfig) -> BasisConfig:
    """Basis table wide enough for single-dimension modes of total degree no."""
    return replace(basis, max_order=max(basis.max_order, cfg.no + 1))


def ls_solve(psi, r, beta: float = 0.0) -> np.ndarray:
    """Minimize ||r - psi c||^2 + beta^2 ||c||^2.

    Rank-deficient systems get the minimum-norm solution when beta = 0.
    """
    psi = np.asarray(psi, dtype=float)
    r = np.asarray(r, dtype=float).ravel()
    if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(r))):
        raise ValueError("non-finite entries in the least-squares system")
    if psi.ndim != 2 or psi.shape[1] < 1:
        raise ValueError(f"bad design shape {psi.shape}")
    if beta > 0:
        psi = np.vstack([psi, beta * np.eye(psi.shape[1])])
        r = np.concatenate([r, np.zeros(psi.shape[1])])
    c, *_ = np.linalg.lstsq(psi, r, rcond=None)
    return c


def _check_finite(*arrays) -> None:
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("non-finite entries in the least-squares system")


def _lstsq_operator(psi, beta: float) -> np.ndarray:
    """Matrix P with P @ r == ls_solve(psi, r, beta) for every r.

    One SVD of psi, stacked over beta * I when beta > 0, cut off where
    numpy.linalg.lstsq(rcond=None) cuts off (eps * max(n, p) * sigma_max),
    so rank-deficient designs still get the minimum-norm solution.
    """
    _check_finite(psi)
    n, p = psi.shape
    a = np.vstack([psi, beta * np.eye(p)]) if beta > 0 else psi
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > np.finfo(float).eps * max(a.shape) * s[0]
    return (vt[keep].T / s[keep]) @ u[:n, keep].T


def fit_dense_mode(gamma, train: SampleSet, cfg: FitConfig, basis: BasisConfig,
                   row_weights=None, u_base=None) -> DenseMode:
    """Least-squares (or robust) fit of one dense mode to train.u.

    The errors-in-variables path applies to plain rows only, so a robust
    ``cfg`` with row weights raises ValueError. u_base is the current model
    prediction excluding this mode; together with the mode's own
    least-squares estimate it provides the denoised response for the
    value-noise variance.

    This is one ``_fit_passes`` refit on its own: one ``_ActiveMode`` built
    and refitted once for this call.
    """
    gamma = tuple(int(d) for d in gamma)
    if len(gamma) > cfg.npc:
        raise ValueError(f"group {gamma} exceeds the dense cutoff npc={cfg.npc}")
    _check_plain_rows(cfg, row_weights)
    return _fit_one(gamma, train, cfg, basis, row_weights, u_base)


def fit_cp_mode(gamma, train: SampleSet, cfg: FitConfig, basis: BasisConfig,
                row_weights=None) -> CPMode:
    """Greedy rank-by-rank ALS fit of a separated mode to train.u.

    Each rank starts from seeded uniform draws in [-1, 1], then cycles the
    dimensions solving the exact least-squares subproblem for one factor
    block at a time. This is one ``_fit_passes`` refit on its own, like
    ``fit_dense_mode``.
    """
    gamma = tuple(int(d) for d in gamma)
    _check_cp_range(gamma, cfg)
    return _fit_one(gamma, train, cfg, basis, row_weights, None)


def _fit_one(gamma, train, cfg, basis, row_weights, u_base):
    # the table spans every column of train.xi, so a group's columns are its dims
    fbasis = fit_basis(basis, cfg)
    table = univariate_table(fbasis, train.xi)
    w = _vector(row_weights, np.ones(train.nq))
    _check_finite(w)
    am = _ActiveMode(gamma, gamma, cfg, table, None, w, train, fbasis)
    am.refit(train.u, cfg, w, _vector(u_base, 0.0))
    return am.mode()


def _check_plain_rows(cfg: FitConfig, *row_weights) -> None:
    if cfg.robust and any(w is not None for w in row_weights):
        raise ValueError("robust fitting (weighted TLS) covers plain rows only: "
                         "it does not apply to row-weighted fits")


def _check_cp_range(gamma, cfg: FitConfig) -> None:
    if len(gamma) <= cfg.npc or len(gamma) > cfg.ninter:
        raise ValueError(
            f"group {gamma} is not in the separated range ({cfg.npc}, {cfg.ninter}]"
        )


def _cp_factors(gamma, residual, blocks_t, cfg: FitConfig, w, init) -> np.ndarray:
    # rank-by-rank ALS on per-dimension design blocks over orders 2..no
    card = len(gamma)
    nord = cfg.no - 1
    factors = np.zeros((cfg.nr, card, nord))
    target = residual.copy()
    for rank in range(cfg.nr):
        if float(np.linalg.norm(target)) == 0.0:
            break
        for attempt in (0, 1):
            if init is not None and attempt == 0:
                fac = np.array(init[rank], dtype=float)
            else:
                g = rng_stream(cfg.seed, 4, *gamma, rank, attempt)
                fac = g.uniform(-1.0, 1.0, size=(card, nord))
            fac, contr = _als_rank(target, blocks_t, fac, w, cfg.beta)
            if fac is not None:
                break
        else:
            warnings.warn(
                f"CP rank {rank + 1} on {gamma}: factor values vanished twice, "
                "skipping this rank"
            )
            continue
        factors[rank] = fac
        target = target - contr
    return factors


def _als_rank(target, blocks_t, fac, w, beta: float):
    """ALS sweeps for one rank. Returns (factors, weighted contribution),
    or (None, None) when a partial product vanishes."""
    card = len(blocks_t)
    vals = [blocks_t[i] @ fac[i] for i in range(card)]
    prev = np.inf
    contr = np.zeros_like(target)
    for _ in range(_ALS_MAX_SWEEPS):
        for i in range(card):
            partial = np.ones_like(target)
            for j in range(card):
                if j != i:
                    partial = partial * vals[j]
            if not np.any(partial):
                return None, None
            partial = partial * w
            fac[i] = _gram_solve(blocks_t[i] * partial[:, None], target, beta)
            vals[i] = blocks_t[i] @ fac[i]
        contr = np.ones_like(target)
        for v in vals:
            contr = contr * v
        contr = contr * w
        res = float(np.linalg.norm(target - contr))
        if abs(prev - res) <= _ALS_TOL * max(res, _TINY):
            break
        prev = res
    return fac, contr


def _gram_solve(psi, r, beta: float) -> np.ndarray:
    """ls_solve(psi, r, beta) for a tall design with few columns, through
    the Cholesky factor of psi'psi + beta^2 I; ls_solve itself when that
    Gram is not numerically positive definite."""
    g = psi.T @ psi
    if beta > 0:
        g[np.diag_indices_from(g)] += beta * beta
    # LAPACK potrf flags a non-positive or NaN pivot with info > 0; a NaN
    # pivot also fails the ratio test, so non-finite systems reach ls_solve
    low, info = dpotrf(g, lower=1, clean=0)
    if info == 0:
        piv = low.diagonal()
        if piv.min() > _GRAM_MIN_PIVOT_RATIO * piv.max():
            c, info = dpotrs(low, psi.T @ r, lower=1)
            if info == 0:
                return c
    return ls_solve(psi, r, beta)


@dataclass(frozen=True)
class PassRecord:
    """One driver pass: the group added, training residual norm after the
    update sweeps, the validation error (nan without a validation set) and
    the number of update sweeps the pass ran."""

    s: int
    dims: Group | None
    train_residual_norm: float
    cv_eps: float
    update_sweeps: int


@dataclass
class FitDiagnostics:
    """``records`` are the passes of the (cross-validated) pass loop and
    ``retained`` the number of groups the model keeps. With validation rows,
    ``refit_records`` are the passes of the final refit on train plus
    validation (empty without them). ``cv_seconds`` times the pass loop and
    ``refit_seconds`` the final refit (0 without validation rows)."""

    records: list[PassRecord] = field(default_factory=list)
    retained: int = 0
    refit_records: list[PassRecord] = field(default_factory=list)
    cv_seconds: float = 0.0
    refit_seconds: float = 0.0


def save_diagnostics(diag: FitDiagnostics, path) -> None:
    """CSV export: pass, dims (semicolon-joined), train residual norm, CVeps,
    update sweeps."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass,dims,train_residual_norm,cv_eps,update_sweeps\n")
        for rec in diag.records:
            dims = ";".join(str(d) for d in rec.dims) if rec.dims else ""
            fh.write(f"{rec.s},{dims},{rec.train_residual_norm!r},{rec.cv_eps!r},"
                     f"{rec.update_sweeps}\n")


class _ActiveMode:
    """One mode of a ``_fit_passes`` call with what its refits reuse.

    Built when its group enters a pass and kept for the rest of the call;
    ``at`` gives the group's columns in the call's tables (``vtable`` is the
    validation rows' table, or None). A dense mode holds its train and
    validation designs, the row-weighted train design ``weighted`` and its
    least-squares operator ``lsq``; when weighted TLS applies (a noisy
    ``cfg`` and plain rows), also the noise covariance ``cov`` of ``train``,
    whose ``value_var`` each refit replaces. A CP mode holds its train and
    validation factor blocks. ``params`` are the current coefficients
    (dense) or factors (CP), and ``values`` the mode's unweighted values at
    the training rows.
    """

    __slots__ = ("dims", "kind", "indices", "design", "vdesign", "weighted", "lsq",
                 "cov", "blocks", "vblocks", "params", "values")

    def __init__(self, dims, at, cfg: FitConfig, table, vtable, w,
                 train: SampleSet, fbasis: BasisConfig):
        self.dims = dims
        self.kind = "dense" if len(dims) <= cfg.npc else "cp"
        self.params = None
        self.values = None
        if self.kind == "dense":
            self.indices = enumerate_dense_indices(dims, cfg.no)
            self.cov = None
            # robust fits have plain rows (fit_hdmr and fit_dense_mode reject
            # row weights), and __post_init__ guarantees a NoiseModel
            if cfg.robust and (cfg.noise.s > 0 or cfg.noise.s_u > 0):
                self.cov = covariance_blocks(train, dims, self.indices, cfg.noise,
                                             fbasis)
            self.design = dense_design(table, at, self.indices)
            self.vdesign = None if vtable is None else dense_design(vtable, at,
                                                                    self.indices)
            self.weighted = self.design * w[:, None]
            self.lsq = _lstsq_operator(self.weighted, cfg.beta)
        else:
            _check_cp_range(dims, cfg)
            self.blocks = [np.ascontiguousarray(b) for b in _cp_blocks(table, at, cfg.no)]
            self.vblocks = None if vtable is None else _cp_blocks(vtable, at, cfg.no)

    def refit(self, r, cfg, w, u_base) -> None:
        if self.kind == "dense":
            c = self.lsq @ r
            if self.cov is not None:
                u_ref = self.weighted @ c + u_base
                cov = replace(self.cov, value_var=(cfg.noise.s_u * u_ref) ** 2)
                c = wtls_solve(self.weighted, r, cov, c0=c)
            self.params = c
            self.values = self.design @ c
        else:
            self.params = _cp_factors(self.dims, r, self.blocks, cfg, w, self.params)
            self.values = _cp_values(self.blocks, self.params)

    def val_values(self) -> np.ndarray:
        if self.kind == "dense":
            return self.vdesign @ self.params
        return _cp_values(self.vblocks, self.params)

    def mode(self):
        if self.kind == "dense":
            return DenseMode(self.dims, tuple(self.indices), self.params)
        return CPMode(self.dims, self.params)


def _vector(v, default):
    return default if v is None else np.asarray(v, dtype=float).ravel()


def _total(modes, n: int) -> np.ndarray:
    # sum of the active modes' values at the training rows
    tot = np.zeros(n)
    for m in modes:
        tot += m.values
    return tot


def merge_train_validation(train: SampleSet, validation: SampleSet,
                           row_weights=None, val_row_weights=None):
    """Stack the validation rows under the training rows for a final refit.

    Returns (combined SampleSet, row weights); the combined u stacks both
    parts' u. The weights are None when neither part has them; otherwise a
    missing part is filled with ones.
    """
    combined = SampleSet(
        np.vstack([train.x, validation.x]),
        np.vstack([train.xi, validation.xi]),
        np.concatenate([train.u, validation.u]),
        "train",
    )
    weights = None
    if row_weights is not None or val_row_weights is not None:
        weights = np.concatenate([_vector(row_weights, np.ones(train.nq)),
                                  _vector(val_row_weights, np.ones(validation.nq))])
    return combined, weights


def fit_hdmr(train: SampleSet, validation: SampleSet | None, path, cfg: FitConfig,
             basis: BasisConfig, row_weights=None, val_row_weights=None):
    """Multi-pass driver: grow the surrogate of train.u along a selection path.

    ``path`` is a SelectionPath or any iterable of groups; its groups are
    added one per pass in order. Each pass fits the new mode on the current
    residual, cyclically re-fits all active modes (update sweeps), and
    evaluates the error on the validation set. Growth stops once the
    validation error has increased over two consecutive passes; the
    returned model keeps the pass with the smallest validation error and is
    refitted on train plus validation. With ``validation=None`` every group
    is fitted, with no early stopping (as for refits on a fixed skeleton).

    A robust ``cfg`` applies weighted TLS where the model is fitted: with
    validation rows the cross-validated passes, whose model only decides how
    many groups to keep, fit by least squares, and the final refit on train
    plus validation is weighted TLS; with ``validation=None`` every pass is.
    Weighted TLS covers plain rows only: a robust ``cfg`` with row weights
    raises ValueError.

    Returns (HdmrModel, FitDiagnostics).
    """
    _check_plain_rows(cfg, row_weights, val_row_weights)
    groups = [tuple(g) for g in path]
    cv_cfg = cfg if validation is None else replace(cfg, robust=False)
    t0 = time.perf_counter()
    model, diag = _fit_passes(train, validation, groups, cv_cfg, basis, row_weights,
                              val_row_weights)
    diag.cv_seconds = time.perf_counter() - t0
    if validation is None:
        return model, diag

    combined, w_c = merge_train_validation(train, validation, row_weights,
                                           val_row_weights)
    t0 = time.perf_counter()
    model, refit = _fit_passes(combined, None, groups[: diag.retained], cfg, basis,
                               w_c, None)
    diag.refit_seconds = time.perf_counter() - t0
    diag.refit_records = refit.records
    return model, diag


def _fit_passes(train, validation, groups, cfg, basis, row_weights,
                val_row_weights):
    fbasis = fit_basis(basis, cfg)
    # the tables hold only the columns the path's groups touch; a group's
    # columns there are its 1-based positions among them
    cols = sorted({int(d) for g in groups for d in g})
    at = {d: k + 1 for k, d in enumerate(cols)}
    table = univariate_table(fbasis, train.xi[:, [d - 1 for d in cols]])
    u = train.u
    w = _vector(row_weights, np.ones(train.nq))
    _check_finite(w)
    wsq = float(w @ w)
    if wsq <= 0:
        raise ValueError("row weights are identically zero")

    have_val = validation is not None
    vtable = None
    if have_val:
        vtable = univariate_table(fbasis, validation.xi[:, [d - 1 for d in cols]])
        uval = validation.u
        wv = _vector(val_row_weights, np.ones(validation.nq))
        val_norm = float(np.linalg.norm(uval))
        if val_norm == 0.0:
            warnings.warn("validation values are identically zero: no early stopping")
            have_val = False

    modes: list[_ActiveMode] = []

    def cv_eps(f0):
        if not have_val:
            return float("nan")
        tot = np.zeros(validation.nq)
        for m in modes:
            tot += m.val_values()
        return float(np.linalg.norm(uval - wv * (f0 + tot)) / val_norm)

    f0 = float(w @ u) / wsq
    r0 = float(np.linalg.norm(u - w * f0))
    eps0 = cv_eps(f0)
    records = [PassRecord(0, None, r0, eps0, 0)]
    best_eps, best_s = (eps0, 0) if have_val else (np.inf, len(groups))
    prev_eps, inc = eps0, 0
    unique = set()

    for s, dims in enumerate(groups, start=1):
        dims = tuple(int(d) for d in dims)
        if dims in unique:
            raise ValueError(f"group {dims} appears twice in the path")
        unique.add(dims)
        am = _ActiveMode(dims, tuple(at[d] for d in dims), cfg, table,
                         vtable if have_val else None, w, train, fbasis)
        base = f0 + _total(modes, train.nq)
        am.refit(u - w * base, cfg, w, base)
        modes.append(am)

        f0, sweeps = _update_sweeps(modes, u, cfg, w, wsq, f0)
        f0 = float(w @ (u - w * _total(modes, train.nq))) / wsq
        rnorm = float(np.linalg.norm(u - w * (f0 + _total(modes, train.nq))))
        eps = cv_eps(f0)
        records.append(PassRecord(s, dims, rnorm, eps, sweeps))

        if have_val:
            inc = inc + 1 if eps > prev_eps else 0
            if eps < best_eps:
                best_eps, best_s = eps, s
            prev_eps = eps
            if inc >= 2:
                break

    retained = best_s if have_val else len(modes)
    model = HdmrModel(
        f0=f0, basis=fbasis, nd=train.nd, no=cfg.no, ninter=cfg.ninter,
        npc=cfg.npc, nr=cfg.nr,
        dense=[m.mode() for m in modes if m.kind == "dense"],
        cp=[m.mode() for m in modes if m.kind == "cp"],
    )
    return model, FitDiagnostics(records=records, retained=retained)


def _update_sweeps(modes, u, cfg, w, wsq, f0):
    # cyclic refits of every active mode; returns (f0, sweeps run)
    nq = u.shape[0]
    prev = float(np.linalg.norm(u - w * (f0 + _total(modes, nq))))
    sweeps = 0
    for sweeps in range(1, _MAX_UPDATE_SWEEPS + 1):
        f0 = float(w @ (u - w * _total(modes, nq))) / wsq
        for m in modes:
            base = f0 + _total(modes, nq) - m.values
            m.refit(u - w * base, cfg, w, base)
        cur = float(np.linalg.norm(u - w * (f0 + _total(modes, nq))))
        if abs(prev - cur) <= _UPDATE_SWEEPS_TOL * max(cur, _TINY):
            break
        prev = cur
    return f0, sweeps


def relative_error(model, test: SampleSet) -> float:
    """Relative L2 error ||u - u_hat|| / ||u|| over a test set."""
    denom = float(np.linalg.norm(test.u))
    if denom == 0.0:
        raise ValueError("zero-norm reference values: relative error undefined")
    if isinstance(model, HdmrModel):
        pred = evaluate_model(model, test.xi)
    else:
        from .separated import evaluate_separated
        pred = evaluate_separated(model, test.x, test.xi)
    return float(np.linalg.norm(test.u - pred) / denom)


@dataclass(frozen=True)
class CovarianceBlocks:
    """First-order noise covariance of one group's (design row, response)
    pair, for every training row, in factored form.

    Row q's (p+1)x(p+1) covariance is Lambda_q = J_q J_q' (+) v_q: ``jac``
    (Nq, p, card) holds J_q = s * dpsi_a/dxi_i over the group's dimensions
    i, and ``value_var`` (Nq,) holds v_q = (s_u * u_q)^2. Cross terms vanish
    because coordinate and value noise are independent, and the form is
    symmetric by construction.
    """

    jac: np.ndarray
    value_var: np.ndarray


def covariance_blocks(train: SampleSet, dims, indices, noise: NoiseModel,
                      basis: BasisConfig, u_ref=None) -> CovarianceBlocks:
    """First-order noise covariance of one group, for every training row.

    u_ref supplies the response values for the value-noise variance;
    it defaults to the observed train.u. A denoised estimate (the current
    model prediction) avoids feeding the value noise back into its own
    weights, which otherwise biases the fit toward rows the noise happened
    to pull toward zero.
    """
    dims = tuple(int(d) for d in dims)
    nq, card = train.nq, len(dims)
    jac = np.zeros((nq, len(indices), card))
    if noise.s > 0:
        sub = train.xi[:, [d - 1 for d in dims]]
        vals = univariate_table(basis, sub)   # (nq, card, ord)
        ders = univariate_deriv_table(basis, sub)
        local = tuple(range(1, card + 1))
        for i in range(card):
            # d psi_a / d xi_i is the tensor product with dimension i's
            # values replaced by its derivatives
            table = vals.copy()
            table[:, i] = ders[:, i]
            jac[:, :, i] = dense_design(table, local, indices)
        jac *= noise.s
    uref = train.u if u_ref is None else np.asarray(u_ref, dtype=float).ravel()
    return CovarianceBlocks(jac, (noise.s_u * uref) ** 2)


def _wtls_denominator(blocks: CovarianceBlocks):
    """The function c -> a' Lambda_q a + tau_q a'a over the rows q, for
    a = (c', -1)': ||J_q' c||^2 + v_q + tau_q (||c||^2 + 1), with the
    regularizer tau_q = 1e-12 trace Lambda_q = 1e-12 (||J_q||_F^2 + v_q),
    floored at 1e-14 of its largest entry."""
    jac, v = blocks.jac, blocks.value_var
    nq, p, card = jac.shape
    tau = 1e-12 * (np.einsum("qai,qai->q", jac, jac) + v)
    # rows (q, i) hold column i of J_q, so one GEMV gives every J_q' c
    jt = np.ascontiguousarray(jac.transpose(0, 2, 1)).reshape(nq * card, p)

    def denom(c):
        jc = jt @ c
        d = (jc * jc).reshape(nq, card).sum(axis=1) + v + tau * (float(c @ c) + 1.0)
        return np.maximum(d, 1e-14 * d.max())

    return denom


def wtls_solve(psi, r, blocks: CovarianceBlocks, c0=None) -> np.ndarray:
    """Weighted total least squares via iteratively reweighted projections.

    Minimizes rho^2 = sum_q (psi_q c - r_q)^2 / (a' Lambda_q a) with
    a = (c', -1)'. Each iteration freezes the denominators at the current c,
    solves the induced weighted least-squares problem, and backtracks the
    step until the full objective does not increase. Returns the iterate
    with the smallest objective seen.
    """
    psi = np.asarray(psi, dtype=float)
    r = np.asarray(r, dtype=float).ravel()
    jac, v = blocks.jac, blocks.value_var
    if jac.shape[:2] != psi.shape or v.shape != (psi.shape[0],):
        raise ValueError(
            f"covariance factors shaped {jac.shape} and {v.shape} do not match "
            f"design {psi.shape}"
        )
    if not (np.any(jac) or np.any(v)):
        return ls_solve(psi, r, 0.0)

    denom = _wtls_denominator(blocks)

    def rho2(c):
        # the objective and the denominators it divides by, which the next
        # iteration's weights reuse if c is accepted
        d = denom(c)
        e = psi @ c - r
        return float(np.sum(e * e / d)), d

    c = ls_solve(psi, r, 0.0) if c0 is None else np.asarray(c0, dtype=float).ravel()
    prev, d = rho2(c)
    best_c, best_rho = c.copy(), prev
    converged = False
    for _ in range(_WTLS_MAX_ITER):
        sw = 1.0 / np.sqrt(d)
        c_prop = ls_solve(psi * sw[:, None], r * sw, 0.0)
        step = 1.0
        for _ in range(30):
            cand = c + step * (c_prop - c)
            rho_new, d_new = rho2(cand)
            if rho_new <= prev * (1.0 + 1e-12):
                break
            step *= 0.5
        else:
            cand, rho_new, d_new = c, prev, d
        c, d = cand, d_new
        if rho_new < best_rho:
            best_c, best_rho = c.copy(), rho_new
        if abs(prev - rho_new) <= _WTLS_TOL * max(prev, _TINY):
            converged = True
            break
        prev = rho_new
    if not converged:
        warnings.warn("weighted TLS did not converge; returning best iterate")
    return best_c
