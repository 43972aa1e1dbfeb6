"""Coefficient estimation for sparse HDMR surrogates.

Covers ordinary least squares, dense-mode fits, separated-rank (CP) mode
fits by alternating least squares, the multi-pass driver with
cross-validation stopping, and a weighted total least squares (WTLS) refit
for data with noisy stochastic coordinates. Every pass fits by least
squares; a robust fit then refits all dense modes' coefficients together,
once, by weighted TLS on the rows of the final fit; the noise covariance
is built for that whole block of modes.

Every fit targets the u of its SampleSet. All fits accept optional per-row
weights w_q: the surrogate then predicts w_q * model(xi_q) at the sample
rows, which is what the separated representation driver needs when a
stochastic mode is fitted to its deflated residual under a fixed spatial
profile. Weighted TLS covers plain rows only: a robust fit with row weights
raises ValueError.

One ``_fit_passes`` call (the driver behind ``fit_hdmr``) owns everything its
refits reuse, for the life of that call and no longer: the univariate
tables, one per dim, each evaluated when the first group on that dim enters
(``_Tables``; a path is read one group per pass, so the dims of groups that
never enter are never evaluated), one ``_ActiveMode`` per mode that holds
the train and validation designs (dense) or factor blocks (CP), and one
``_DenseBlock`` that fits ``f0`` and every dense mode together as one
least-squares problem, through an orthonormal basis of its columns that
grows as modes enter (``model._grow_basis``: Cholesky-QR2 of each entering
mode's remainder, with a thin SVD as the rank-revealing fallback). The
small tall subproblems, an ALS step here and the spatial fits of the
separated driver, are solved through the Cholesky factor of their
unit-scaled Gram (``_gram_solve``); ``ls_solve``, the plain lstsq, is the
fallback and the reference. Every CP fit is made of joint-rank ALS sweeps
(``_cp_sweep``; Kolda & Bader 2009, 3.4), whose step for one dimension
solves one small Gram system for that dimension's factors of all ranks; a
rank whose other factors vanish has all-zero columns there and gets exactly
zero factors (``_gram_solve`` falls back to lstsq's minimum-norm solution
at beta = 0, and their right-hand side is zero at beta > 0). A CP mode
enters greedily: each rank, from seeded draws, is fitted by repeating the
sweep on that one rank against what the earlier ranks leave.
Each later refit of the mode is one sweep over all its ranks. A pass with
no CP mode is one solve of the block; with CP modes, update sweeps
alternate a block solve with a refit of each CP mode, each an exact
minimum over its own coefficients, so the training residual does not
rise. Nothing is cached between ``fit_hdmr`` calls; ``fit_dense_mode`` and
``fit_cp_mode`` build what one fit needs. The one owner that outlives a
pass loop is ``_Skeleton``: a separated rank's frozen skeleton keeps its
modes' tables and designs on its rows, and each of the rank's refits reruns
the passes over them with new row weights.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .basis import BasisConfig, univariate_deriv_table, univariate_table
from .data import NoiseModel, SampleSet, _check_row_weights, rng_stream
from .model import (
    _GRAM_MIN_PIVOT_RATIO,
    CPMode,
    DenseMode,
    Group,
    HdmrModel,
    _cp_blocks,
    _cp_values,
    _grow_basis,
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
_UPDATE_SWEEPS_TOL = 1e-6       # alternating refits of a pass with CP modes
_MAX_UPDATE_SWEEPS = 20
_WTLS_TOL = 1e-10               # reweighting iterations of wtls_solve
_WTLS_MAX_ITER = 50


@dataclass(frozen=True)
class FitConfig:
    """Structural choices of the coefficient stage; robust with a NoiseModel
    adds a weighted total least squares refit of the dense modes."""

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


def _check_finite(*arrays) -> None:
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("non-finite entries in the least-squares system")


def ls_solve(psi, r, beta: float = 0.0) -> np.ndarray:
    """Minimize ||r - psi c||^2 + beta^2 ||c||^2.

    Rank-deficient systems get the minimum-norm solution when beta = 0.
    """
    psi = np.asarray(psi, dtype=float)
    r = np.asarray(r, dtype=float).ravel()
    _check_finite(psi, r)
    if psi.ndim != 2 or psi.shape[1] < 1:
        raise ValueError(f"bad design shape {psi.shape}")
    if beta > 0:
        psi = np.vstack([psi, beta * np.eye(psi.shape[1])])
        r = np.concatenate([r, np.zeros(psi.shape[1])])
    c, *_ = np.linalg.lstsq(psi, r, rcond=None)
    return c


def fit_dense_mode(gamma, train: SampleSet, cfg: FitConfig, basis: BasisConfig,
                   row_weights=None) -> DenseMode:
    """Least-squares fit of one dense mode to train.u, refitted by weighted
    TLS when ``cfg`` is robust.

    The least-squares fit is one ``_DenseBlock`` of this mode alone (no
    ``f0``), built and solved once for this call. A robust ``cfg``
    then runs ``fit_hdmr``'s weighted TLS refit on a block of this one mode,
    whose value-noise variance comes from the least-squares prediction. The
    errors-in-variables path applies to plain rows only, so a robust ``cfg``
    with row weights raises ValueError.
    """
    gamma = tuple(int(d) for d in gamma)
    if len(gamma) > cfg.npc:
        raise ValueError(f"group {gamma} exceeds the dense cutoff npc={cfg.npc}")
    _check_plain_rows(cfg, row_weights)
    mode = _fit_one(gamma, train, cfg, basis, row_weights)
    if not cfg.robust:
        return mode
    card = len(gamma)
    block = HdmrModel(f0=0.0, basis=fit_basis(basis, cfg), nd=train.nd, no=cfg.no,
                      ninter=card, npc=card, nr=cfg.nr, dense=[mode])
    return _wtls_refit(block, train, cfg.noise).dense[0]


def fit_cp_mode(gamma, train: SampleSet, cfg: FitConfig, basis: BasisConfig,
                row_weights=None) -> CPMode:
    """Greedy rank-by-rank ALS fit of a separated mode to train.u.

    Each rank starts from seeded uniform draws in [-1, 1], then repeats the
    joint-rank sweep on that one rank, which cycles the dimensions solving
    the exact least-squares subproblem for one factor block at a time. This
    is the entry fit of a CP mode in ``_fit_passes``, on its own.
    """
    gamma = tuple(int(d) for d in gamma)
    _check_cp_range(gamma, cfg)
    return _fit_one(gamma, train, cfg, basis, row_weights)


def _fit_one(gamma, train, cfg, basis, row_weights):
    w = _vector(_check_row_weights(row_weights, train.nq), np.ones(train.nq))
    am = _enter(gamma, cfg, _Tables(fit_basis(basis, cfg), [train.xi]))
    if am.kind == "dense":
        block = _DenseBlock(w, cfg.beta, with_f0=False)
        block.add(am)
        block.solve(train.u)
    else:
        am.refit(train.u, cfg, w)
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


def _cp_factors(gamma, residual, blocks_t, cfg: FitConfig, w) -> np.ndarray:
    # greedy: each rank from seeded draws, fitted by one-rank joint sweeps
    # to what the earlier ranks leave; a rank the sweeps leave all zero (its
    # factor values vanished) is skipped
    card = len(gamma)
    factors = np.zeros((cfg.nr, card, cfg.no - 1))
    target = residual.copy()
    for rank in range(cfg.nr):
        if float(np.linalg.norm(target)) == 0.0:
            break
        g = rng_stream(cfg.seed, 4, *gamma, rank, 0)
        fac = g.uniform(-1.0, 1.0, size=(1,) + factors.shape[1:])
        prev = np.inf
        for _ in range(_ALS_MAX_SWEEPS):
            fac = _cp_sweep(target, blocks_t, fac, w, cfg.beta)
            contr = w * _cp_values(blocks_t, fac)
            res = float(np.linalg.norm(target - contr))
            if abs(prev - res) <= _ALS_TOL * max(res, _TINY):
                break
            prev = res
        if not fac.any():
            warnings.warn(f"CP rank {rank + 1} on {gamma}: factor values vanished, "
                          "skipping this rank")
            continue
        factors[rank] = fac[0]
        target = target - contr
    return factors


def _cp_sweep(target, blocks_t, factors, w, beta: float) -> np.ndarray:
    """One joint-rank ALS sweep of a CP mode, or of one rank of it: for each
    dimension in turn, the factors of all ranks by one ``_gram_solve``, the
    other dimensions' factors held. A rank whose other factors vanish has
    all-zero columns and gets exactly zero factors: at beta = 0 those
    columns fail the Gram's pivot test and lstsq's minimum-norm solution
    leaves them zero; at beta > 0 the ridge keeps the Cholesky path, and
    their right-hand side is zero."""
    nr, card, nord = factors.shape
    factors = factors.copy()
    vals = [blocks_t[i] @ factors[:, i].T for i in range(card)]
    for i in range(card):
        partial = np.repeat(w[:, None], nr, axis=1)
        for j in range(card):
            if j != i:
                partial *= vals[j]
        # columns rank by rank: block i scaled by that rank's partial product
        psi = blocks_t[i][:, None, :] * partial[:, :, None]
        c = _gram_solve(psi.reshape(target.shape[0], -1), target, beta)
        factors[:, i] = c.reshape(nr, nord)
        vals[i] = blocks_t[i] @ factors[:, i].T
    return factors


def _gram_solve(psi, r, beta: float) -> np.ndarray:
    """ls_solve(psi, r, beta) for a tall design with few columns, through
    the Cholesky factor of psi'psi + beta^2 I with its columns scaled to unit
    norm; ls_solve itself when that Gram is not numerically positive
    definite. The scaling keeps columns of very different norms, such as
    the factors of a strong and a weak rank, from failing the pivot test.
    The ALS steps and the separated driver's spatial fits solve this way."""
    g = psi.T @ psi
    d = np.sqrt(g.diagonal())
    d[d == 0.0] = 1.0
    g /= np.outer(d, d)
    if beta > 0:
        g[np.diag_indices_from(g)] += (beta / d) ** 2
    # LAPACK potrf flags a non-positive or NaN pivot with info > 0; a NaN
    # pivot also fails the ratio test, so non-finite systems reach ls_solve
    low, info = dpotrf(g, lower=1, clean=0)
    if info == 0:
        piv = low.diagonal()
        if piv.min() > _GRAM_MIN_PIVOT_RATIO * piv.max():
            c, info = dpotrs(low, (psi.T @ r) / d, lower=1)
            if info == 0:
                return c / d
    return ls_solve(psi, r, beta)


@dataclass(frozen=True)
class PassRecord:
    """One driver pass: the group added, training residual norm after the
    update sweeps, the validation error (nan without a validation set), the
    number of update sweeps the pass ran (0 without a CP mode, where the
    pass is one solve of the dense block) and whether they stopped at the
    sweep cap rather than at their tolerance."""

    s: int
    dims: Group | None
    train_residual_norm: float
    cv_eps: float
    update_sweeps: int
    capped: bool = False


@dataclass
class FitDiagnostics:
    """``records`` are the passes of the (cross-validated) pass loop and
    ``retained`` the number of groups the model keeps. With validation rows,
    ``refit_records`` are the passes of the final refit on train plus
    validation (empty without them). ``cv_seconds`` times the pass loop
    (with the steps of a path computed as the passes read it),
    ``refit_seconds`` the final refit (0 without validation rows) and
    ``wtls_seconds`` the weighted TLS refit of a robust fit (0 for a plain
    one)."""

    records: list[PassRecord] = field(default_factory=list)
    retained: int = 0
    refit_records: list[PassRecord] = field(default_factory=list)
    cv_seconds: float = 0.0
    refit_seconds: float = 0.0
    wtls_seconds: float = 0.0


def save_diagnostics(diag: FitDiagnostics, path) -> None:
    """CSV export: pass, dims (semicolon-joined), train residual norm, CVeps,
    update sweeps, capped (0 or 1)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass,dims,train_residual_norm,cv_eps,update_sweeps,capped\n")
        for rec in diag.records:
            dims = ";".join(str(d) for d in rec.dims) if rec.dims else ""
            fh.write(f"{rec.s},{dims},{rec.train_residual_norm!r},{rec.cv_eps!r},"
                     f"{rec.update_sweeps},{int(rec.capped)}\n")


class _ActiveMode:
    """One mode of a ``_fit_passes`` call with what its refits reuse.

    Built when its group enters a pass and kept for the rest of the call;
    ``at`` gives the group's columns in the call's tables (``vtable`` is the
    validation rows' table, or None). A dense mode holds its train and
    validation designs, and the call's ``_DenseBlock`` sets its
    coefficients; a CP mode holds its train and validation factor blocks and
    refits itself. ``params`` are the current coefficients (dense) or
    factors (CP), and ``values`` the mode's unweighted values at the
    training rows.
    """

    __slots__ = ("dims", "kind", "indices", "design", "vdesign",
                 "blocks", "vblocks", "params", "values")

    def __init__(self, dims, at, cfg: FitConfig, table, vtable):
        self.dims = dims
        self.kind = "dense" if len(dims) <= cfg.npc else "cp"
        self.params = None
        self.values = None
        if self.kind == "dense":
            self.indices = enumerate_dense_indices(dims, cfg.no)
            self.design = dense_design(table, at, self.indices)
            self.vdesign = None if vtable is None else dense_design(vtable, at,
                                                                    self.indices)
        else:
            _check_cp_range(dims, cfg)
            self.blocks = [np.ascontiguousarray(b) for b in _cp_blocks(table, at, cfg.no)]
            self.vblocks = None if vtable is None else _cp_blocks(vtable, at, cfg.no)

    def refit(self, r, cfg, w) -> None:
        # a CP mode's refit: greedy one-rank sweeps on entry, one joint-rank
        # sweep after
        if self.params is None:
            self.params = _cp_factors(self.dims, r, self.blocks, cfg, w)
        else:
            self.params = _cp_sweep(r, self.blocks, self.params, w, cfg.beta)
        self.values = _cp_values(self.blocks, self.params)

    def val_values(self) -> np.ndarray:
        if self.kind == "dense":
            return self.vdesign @ self.params
        return _cp_values(self.vblocks, self.params)

    def mode(self):
        if self.kind == "dense":
            return DenseMode(self.dims, tuple(self.indices), self.params)
        return CPMode(self.dims, self.params)


class _Tables:
    """Univariate tables of one or more row sets (the training rows, and
    the validation rows of a cross-validated call), grown dim by dim.

    The tables live in one dim-major store, one (rows, max_order) slab per
    dim, that is allocated once and never copied; ``views`` are its
    (rows, nd, max_order) views, one per row set, in which a group's
    columns are its dims. A dim is evaluated when the first group on it
    enters (``evaluate``), or up front for ``dims``: one evaluation covers
    every row set and every dim not seen before, so no dim is evaluated
    twice, and a dim that no group touches is never evaluated (nor its
    slab's memory written).
    """

    __slots__ = ("basis", "xi", "store", "views", "done")

    def __init__(self, basis: BasisConfig, xis, dims=()):
        self.basis = basis
        self.xi = np.concatenate(xis) if len(xis) > 1 else xis[0]
        self.store = np.empty((self.xi.shape[1], self.xi.shape[0], basis.max_order))
        ends = np.cumsum([0] + [x.shape[0] for x in xis]).tolist()
        self.views = [self.store[:, a:b].transpose(1, 0, 2)
                      for a, b in zip(ends, ends[1:])]
        self.done: set[int] = set()
        self.evaluate(dims)

    def evaluate(self, dims) -> None:
        new = sorted(set(dims) - self.done)
        if new:
            cols = [d - 1 for d in new]
            self.store[cols] = univariate_table(self.basis,
                                                self.xi[:, cols]).transpose(1, 0, 2)
            self.done.update(new)


def _enter(dims, cfg: FitConfig, tables: _Tables) -> _ActiveMode:
    # the mode of an entering group, with the validation rows' table when
    # ``tables`` has them
    tables.evaluate(dims)
    views = tables.views
    return _ActiveMode(dims, dims, cfg, views[0], views[1] if len(views) > 1 else None)


class _DenseBlock:
    """``f0`` (when ``with_f0``) and the dense modes of one fit as one
    least-squares problem: minimize ||r - w * (f0 + sum_m psi_m c_m)||^2 +
    beta^2 sum_m ||c_m||^2, with ``f0`` unridged.

    ``q`` is an orthonormal basis of the block's row-weighted columns,
    stacked over beta * I rows for the dense columns when beta > 0, and
    ``cmap`` maps coordinates in ``q`` to coefficients, so a solve is the two
    matrix-vector products cmap @ (q' r). Both grow as modes enter: new
    columns A = q h + u t (``_grow_basis``, which returns a right inverse
    t^+ of t) add u to ``q`` and the columns [-cmap h t^+ ; t^+] to
    ``cmap``, the inverse of the block-triangular factor. For well-separated
    columns t is the triangular factor of Cholesky-QR2 and t^+ its inverse;
    otherwise t = s v' from a thin SVD, t^+ = v s^-1, and directions
    dependent on earlier columns, or within a mode, are dropped and get no
    coefficient; for a mode alone that is lstsq's minimum-norm solution.
    """

    def __init__(self, w, beta: float, with_f0: bool):
        self.w = w
        self.beta = beta
        self.q = np.empty((w.shape[0], 0))
        self.cmap = np.empty((0, 0))
        self.modes: list[_ActiveMode] = []
        self.with_f0 = with_f0
        self.f0 = 0.0
        if with_f0:
            self._extend(w[:, None], 0.0)

    def add(self, mode: _ActiveMode) -> None:
        self._extend(mode.design * self.w[:, None], self.beta)
        self.modes.append(mode)

    def _extend(self, cols, beta: float) -> None:
        _check_finite(cols)
        nq, p = cols.shape
        if beta > 0:
            # the new columns' ridge rows go below every earlier row
            pad = self.q.shape[0] - nq
            self.q = np.vstack([self.q, np.zeros((p, self.q.shape[1]))])
            cols = np.vstack([cols, np.zeros((pad, p)), beta * np.eye(p)])
        # lstsq's cutoff eps * max(n, P) * sigma_max, with the largest column
        # norm standing in for sigma_max
        scale = float(np.sqrt((cols * cols).sum(axis=0).max()))
        u, h, inv = _grow_basis(self.q, cols,
                                np.finfo(float).eps * max(cols.shape) * scale)
        k = self.q.shape[1]
        self.cmap = np.block([[self.cmap, -self.cmap @ (h @ inv)],
                              [np.zeros((p, k)), inv]])
        self.q = np.concatenate((self.q, u), axis=1)

    def solve(self, r) -> None:
        """Fit ``f0`` and every dense mode's coefficients to r."""
        c = self.cmap @ (self.q[: r.shape[0]].T @ r)
        start = 0
        if self.with_f0:
            self.f0 = float(c[0])
            start = 1
        for m in self.modes:
            end = start + len(m.indices)
            m.params = c[start:end]
            m.values = m.design @ m.params
            start = end

    def values(self) -> np.ndarray:
        # f0 plus the dense modes' values at the training rows, unweighted
        return self.f0 + _total(self.modes, self.w.shape[0])


def _vector(v, default):
    return default if v is None else np.asarray(v, dtype=float).ravel()


def _total(modes, n: int) -> np.ndarray:
    # sum of the modes' values at the training rows
    tot = np.zeros(n)
    for m in modes:
        tot += m.values
    return tot


def _residual_norm(u, w, fitted) -> float:
    # training residual norm of unweighted model values ``fitted``
    return float(np.linalg.norm(u - w * fitted))


def _check_matching_rows(train: SampleSet, validation: SampleSet) -> None:
    """ValueError unless the validation rows have the training rows' columns."""
    if validation.x.shape[1:] != train.x.shape[1:] or \
            validation.xi.shape[1:] != train.xi.shape[1:]:
        raise ValueError(
            f"validation rows (x {validation.x.shape}, xi {validation.xi.shape}) "
            f"do not have the columns of the training rows (x {train.x.shape}, "
            f"xi {train.xi.shape})"
        )


def merge_train_validation(train: SampleSet, validation: SampleSet,
                           row_weights=None, val_row_weights=None):
    """Stack the validation rows under the training rows for a final refit.

    Returns (combined SampleSet, row weights); the combined u stacks both
    parts' u. The weights are None when neither part has them; otherwise a
    missing part is filled with ones. Each part's weights are checked
    against its own row count.
    """
    row_weights = _check_row_weights(row_weights, train.nq)
    val_row_weights = _check_row_weights(val_row_weights, validation.nq)
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

    ``path`` is a SelectionPath or any iterable of groups, such as a
    generator over ``selection.glars_steps``; its groups are added one per
    pass in order. Each pass fits the new mode on the current
    residual, cyclically re-fits all active modes (update sweeps), and
    evaluates the error on the validation set. Growth stops once the
    validation error has increased over two consecutive passes; the
    returned model keeps the pass with the smallest validation error and is
    refitted on train plus validation. With validation rows the path is
    read lazily, one group per pass, and never past the pass at which
    growth stops, so a generator computes only the steps the passes use.
    With ``validation=None`` every group is fitted, with no early stopping
    (as for refits on a fixed skeleton); ``val_row_weights`` then raises
    ValueError. Validation rows whose x or xi column count differs from the
    training rows' raise ValueError before any pass.

    Every pass fits by least squares (dense modes) and ALS (CP modes). A
    robust ``cfg`` then refits all dense modes' coefficients together, once,
    by weighted TLS on the rows the model was last fitted to: train plus
    validation, or train with ``validation=None`` (see ``_wtls_refit``).
    Weighted TLS covers plain rows only: a robust ``cfg`` with row weights
    raises ValueError.

    Returns (HdmrModel, FitDiagnostics).
    """
    if validation is None:
        if val_row_weights is not None:
            raise ValueError("val_row_weights given without validation rows")
    else:
        _check_matching_rows(train, validation)
    _check_plain_rows(cfg, row_weights, val_row_weights)
    t0 = time.perf_counter()
    model, diag = _fit_passes(train, validation, path, cfg, basis, row_weights,
                              val_row_weights)
    diag.cv_seconds = time.perf_counter() - t0
    rows = train
    if validation is not None:
        rows, w_c = merge_train_validation(train, validation, row_weights,
                                           val_row_weights)
        kept = [rec.dims for rec in diag.records[1: diag.retained + 1]]
        t0 = time.perf_counter()
        model, refit = _fit_passes(rows, None, kept, cfg, basis, w_c, None)
        diag.refit_seconds = time.perf_counter() - t0
        diag.refit_records = refit.records
    if cfg.robust:
        t0 = time.perf_counter()
        model = _wtls_refit(model, rows, cfg.noise)
        diag.wtls_seconds = time.perf_counter() - t0
    return model, diag


def _wtls_refit(model: HdmrModel, rows: SampleSet, noise: NoiseModel) -> HdmrModel:
    """Weighted TLS refit of all dense modes' coefficients together.

    The block's design stacks the dense modes' designs on ``rows``, and its
    start point is their least-squares coefficients. ``f0`` and the CP
    modes' values are held fixed and subtracted from ``rows.u``. The row
    covariances are those of the whole block, from one ``covariance_blocks``
    call whose u_ref is the least-squares model's prediction. With
    s = s_u = 0 the model is returned untouched.
    """
    if not model.dense or (noise.s == 0 and noise.s_u == 0):
        return model
    table = univariate_table(model.basis, rows.xi)
    psi = np.hstack([dense_design(table, m.dims, m.indices) for m in model.dense])
    c0 = np.concatenate([m.coeffs for m in model.dense])
    fixed = np.full(rows.nq, model.f0)
    for m in model.cp:
        fixed += _cp_values(_cp_blocks(table, m.dims, model.no), m.factors)
    blocks = covariance_blocks(rows, [(m.dims, m.indices) for m in model.dense],
                               noise, model.basis, fixed + psi @ c0)
    c = wtls_solve(psi, rows.u - fixed, blocks, c0=c0)
    ends = np.cumsum([len(m.indices) for m in model.dense])
    dense = [DenseMode(m.dims, m.indices, part)
             for m, part in zip(model.dense, np.split(c, ends[:-1]))]
    return replace(model, dense=dense)


def _passes(block, cps, modes, u, cfg, w):
    """The coefficient passes: solve ``block`` for f0 alone, then add the
    ``modes`` one per pass, each fitted to the current residual and
    followed by the update sweeps. ``cps`` collects the CP modes that
    entered. Yields (mode, update sweeps, capped) after every pass, with
    (None, 0, False) for f0 alone; the next mode is read only when the next
    pass is asked for."""
    nq = u.shape[0]
    block.solve(u)
    yield None, 0, False
    for am in modes:
        if am.kind == "dense":
            block.add(am)
            block.solve(u - w * _total(cps, nq))
        else:
            # a CP mode enters from its seeded draws, also when it is reused
            am.params = None
            am.refit(u - w * (block.values() + _total(cps, nq)), cfg, w)
            cps.append(am)
        yield (am, *_update_sweeps(block, cps, u, cfg, w))


def _hdmr_model(block, cps, fbasis, nd, cfg) -> HdmrModel:
    return HdmrModel(
        f0=block.f0, basis=fbasis, nd=nd, no=cfg.no, ninter=cfg.ninter,
        npc=cfg.npc, nr=cfg.nr,
        dense=[m.mode() for m in block.modes],
        cp=[m.mode() for m in cps],
    )


def _fit_passes(train, validation, groups, cfg, basis, row_weights,
                val_row_weights):
    # the pass loop; with validation rows the groups are read one per pass
    # and stop where the loop stops, and the tables hold only the dims of
    # the groups that entered
    fbasis = fit_basis(basis, cfg)
    u = train.u
    w = _vector(_check_row_weights(row_weights, train.nq), np.ones(train.nq))

    have_val = validation is not None
    if have_val:
        uval = validation.u
        wv = _vector(_check_row_weights(val_row_weights, validation.nq),
                     np.ones(validation.nq))
        val_norm = float(np.linalg.norm(uval))
        if val_norm == 0.0:
            warnings.warn("validation values are identically zero: no early stopping")
            have_val = False
    if have_val:
        tables = _Tables(fbasis, [train.xi, validation.xi])
    else:
        # every group enters: their dims are evaluated together
        groups = [tuple(int(d) for d in g) for g in groups]
        tables = _Tables(fbasis, [train.xi], [d for g in groups for d in g])

    block = _DenseBlock(w, cfg.beta, with_f0=True)
    cps: list[_ActiveMode] = []

    def cv_eps():
        if not have_val:
            return float("nan")
        tot = np.zeros(validation.nq)
        for m in block.modes + cps:
            tot += m.val_values()
        return float(np.linalg.norm(uval - wv * (block.f0 + tot)) / val_norm)

    unique = set()

    def enter(dims):
        dims = tuple(int(d) for d in dims)
        if dims in unique:
            raise ValueError(f"group {dims} appears twice in the path")
        unique.add(dims)
        return _enter(dims, cfg, tables)

    records = []
    # without validation rows best_s follows the passes: every group is kept
    best_eps, best_s, prev_eps, inc = np.inf, 0, np.inf, 0
    for s, (am, sweeps, capped) in enumerate(
            _passes(block, cps, map(enter, groups), u, cfg, w)):
        rnorm = _residual_norm(u, w, block.values() + _total(cps, train.nq))
        eps = cv_eps()
        records.append(PassRecord(s, None if am is None else am.dims, rnorm, eps,
                                  sweeps, capped))
        if not have_val:
            best_s = s
            continue
        inc = inc + 1 if eps > prev_eps else 0
        if eps < best_eps:
            best_eps, best_s = eps, s
        prev_eps = eps
        if inc >= 2:
            break

    model = _hdmr_model(block, cps, fbasis, train.nd, cfg)
    return model, FitDiagnostics(records=records, retained=best_s)


class _Skeleton:
    """The modes of a frozen group skeleton on fixed rows, for refits that
    change only the row weights (the inner alternations of a separated
    rank). Tables and designs are built once, here; each ``fit`` reruns
    the coefficient passes over these modes, so its model is the one
    ``fit_hdmr(rows, None, groups, cfg, basis, row_weights=w)`` returns for
    a plain ``cfg``, with no PassRecords."""

    def __init__(self, rows: SampleSet, groups, cfg: FitConfig, basis: BasisConfig):
        self.rows = rows
        self.cfg = cfg
        self.basis = fit_basis(basis, cfg)
        groups = [tuple(g) for g in groups]
        tables = _Tables(self.basis, [rows.xi], [d for g in groups for d in g])
        self.modes = [_enter(g, cfg, tables) for g in groups]

    def fit(self, row_weights) -> HdmrModel:
        """Refit every mode's coefficients to rows.u under these row weights."""
        nq = self.rows.nq
        w = _vector(_check_row_weights(row_weights, nq), np.ones(nq))
        block = _DenseBlock(w, self.cfg.beta, with_f0=True)
        cps: list[_ActiveMode] = []
        for _ in _passes(block, cps, self.modes, self.rows.u, self.cfg, w):
            pass
        return _hdmr_model(block, cps, self.basis, self.rows.nd, self.cfg)

    def values(self, model: HdmrModel, rows: slice) -> np.ndarray:
        """``model``, fitted on this skeleton, at a slice of the rows: the
        values ``evaluate_model`` gives there, from this skeleton's designs
        and with its arithmetic (a product per row slice, f0 first, then the
        dense and the CP modes in order)."""
        dense = [m for m in self.modes if m.kind == "dense"]
        cp = [m for m in self.modes if m.kind == "cp"]
        out = np.full(self.rows.nq, model.f0)[rows]
        for m, mode in zip(dense, model.dense, strict=True):
            out += m.design[rows] @ mode.coeffs
        for m, mode in zip(cp, model.cp, strict=True):
            out += _cp_values([b[rows] for b in m.blocks], mode.factors)
        return out


def _update_sweeps(block, cps, u, cfg, w):
    """Alternate a solve of the dense block with a joint-rank ALS sweep of
    each CP mode until the training residual settles; returns (sweeps run,
    whether they stopped at the cap). Without a CP mode the block is solved
    already and no sweep runs."""
    if not cps:
        return 0, False
    nq = u.shape[0]
    prev = _residual_norm(u, w, block.values() + _total(cps, nq))
    for sweeps in range(1, _MAX_UPDATE_SWEEPS + 1):
        block.solve(u - w * _total(cps, nq))
        dense = block.values()
        for m in cps:
            m.refit(u - w * (dense + _total(cps, nq) - m.values), cfg, w)
        cur = _residual_norm(u, w, dense + _total(cps, nq))
        if abs(prev - cur) <= _UPDATE_SWEEPS_TOL * max(cur, _TINY):
            return sweeps, False
        prev = cur
    return _MAX_UPDATE_SWEEPS, True


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
    """First-order noise covariance of a (design row, response) pair, for
    every row, in factored form, built for a whole block of dense groups.

    Row q's (p+1)x(p+1) covariance is Lambda_q = J_q J_q' (+) v_q: ``jac``
    (Nq, p, n_dims) holds J_q = s * dpsi_a/dxi_i over the dimensions i the
    block touches, zero where predictor a's group does not touch i, and
    ``value_var`` (Nq,) holds v_q = (s_u * u_ref_q)^2. Cross terms between
    the predictors and the response vanish because coordinate and value
    noise are independent, and the form is symmetric by construction.
    """

    jac: np.ndarray
    value_var: np.ndarray


def covariance_blocks(rows: SampleSet, groups, noise: NoiseModel,
                      basis: BasisConfig, u_ref) -> CovarianceBlocks:
    """First-order noise covariance of dense groups side by side, for every
    row; ``groups`` is a list of (dims, indices).

    J_q spans the sorted union of the groups' dims, so groups that share a
    dim get cross terms. u_ref gives the response values of the value-noise
    variance: a denoised estimate, such as a least-squares prediction, keeps
    the value noise out of its own weights, which would otherwise favour
    rows the noise pulled toward zero.
    """
    block = sorted({d for dims, _ in groups for d in dims})
    nb = len(block)
    jac = np.zeros((rows.nq, sum(len(indices) for _, indices in groups), nb))
    if noise.s > 0:
        sub = rows.xi[:, [d - 1 for d in block]]
        # dim block[k]'s values sit in table column k, its derivatives in
        # column nb + k
        table = np.concatenate([univariate_table(basis, sub),
                                univariate_deriv_table(basis, sub)], axis=1)
        start = 0
        for dims, indices in groups:
            at = [block.index(d) for d in dims]
            end = start + len(indices)
            for i, k in enumerate(at):
                # d psi_a / d xi_i is the tensor product with dimension i's
                # values replaced by its derivatives
                slots = [a + 1 + nb * (j == i) for j, a in enumerate(at)]
                jac[:, start:end, k] = dense_design(table, slots, indices)
            start = end
        jac *= noise.s
    u_ref = np.asarray(u_ref, dtype=float).ravel()
    return CovarianceBlocks(jac, (noise.s_u * u_ref) ** 2)


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
    solves the induced weighted least-squares problem, and halves the step
    (at most 30 times) until the full objective does not increase. An
    iteration whose step can no longer move c beyond rounding (by more than
    eps ||c||) leaves c where it is, and so ends the solve. Returns the
    iterate with the smallest objective seen.
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
        delta = ls_solve(psi * sw[:, None], r * sw, 0.0) - c
        move = float(np.linalg.norm(delta))
        floor = np.finfo(float).eps * float(np.linalg.norm(c))
        cand, rho_new, d_new = c, prev, d
        step = 1.0
        for _ in range(30):
            if step * move <= floor:
                break
            trial = c + step * delta
            rho_t, d_t = rho2(trial)
            if rho_t <= prev * (1.0 + 1e-12):
                cand, rho_new, d_new = trial, rho_t, d_t
                break
            step *= 0.5
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
