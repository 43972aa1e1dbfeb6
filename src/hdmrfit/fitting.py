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

One ``_Skeleton`` owns what a fit reuses, for that fit and no longer: its
rows (train, then validation), one univariate table over all of them in
``basis``' layout, each dim evaluated when the first group on it enters, and
one ``_ActiveMode`` per entered group, whose design (dense) or factor blocks
(CP, views of the table) cover every row. Its one pass loop
(``_Skeleton.passes``) fits the training rows pass by pass and reads the
validation error off the rest to stop, or fits every row of a fit without
validation rows. Its one continuation (``_Skeleton.refit``) takes the kept
modes on all rows as the passes left them, solves once and runs one round
of update sweeps, building nothing again: the final refit of a
cross-validated fit, and each later alternation of a separated rank. One
``_Block`` owns the fit of a pass loop or a continuation: its row weights,
``f0``, the dense modes, one least-squares problem solved through an
orthonormal basis that grows as modes enter (``model._grow_basis``), and
the CP modes. The robust refit reads the final block and writes its dense
coefficients back, and ``_Skeleton.model`` turns a block into an
``HdmrModel``. The small tall subproblems, an ALS or a weighted TLS step
here and the spatial fits of the separated driver, are solved through
their unit-scaled Gram (``_gram_solve``), with ``ls_solve``, the plain
lstsq, as the fallback and the reference. Every CP fit is made of
joint-rank ALS sweeps (``_cp_sweep``; Kolda & Bader 2009, 3.4). A CP mode
enters greedily, rank by rank from seeded draws (``_cp_factors``); each
later refit of the mode is one sweep over all its ranks. A pass with no CP
mode is one solve of the block; with CP modes, ``_MAX_UPDATE_SWEEPS`` update
sweeps alternate a block solve with a refit of each CP mode, each an exact
minimum over its own coefficients, so the training residual does not rise.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import BasisConfig, _deriv_table, _empty_table, univariate_table
from .data import (_NORM_FLOOR, NoiseModel, SampleSet, _check_finite_fields,
                   _check_row_weights, rng_stream)
from .model import (
    CPMode,
    DenseMode,
    Group,
    HdmrModel,
    _check_dims,
    _cp_values,
    _dense_scatter,
    _dense_values,
    _gram_cholesky,
    _grow_basis,
    _order_blocks,
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
# tol (relative), or at its cap; the update sweeps always run their count
_ALS_TOL = 1e-8                 # ALS sweeps of one CP rank
_ALS_MAX_SWEEPS = 100
_MAX_UPDATE_SWEEPS = 20         # alternating refits of a pass with CP modes
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
        _check_finite_fields(self, "beta")
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

    The least-squares fit is one ``_Block`` of this mode alone (no ``f0``),
    built and solved once for this call. A robust ``cfg`` then runs
    ``fit_hdmr``'s weighted TLS refit on that block, whose value-noise
    variance comes from the least-squares prediction. The errors-in-variables
    path applies to plain rows only, so a robust ``cfg`` with row weights
    raises ValueError.
    """
    gamma = tuple(int(d) for d in gamma)
    if len(gamma) > cfg.npc:
        raise ValueError(f"group {gamma} exceeds the dense cutoff npc={cfg.npc}")
    _check_plain_rows(cfg, row_weights)
    block = _fit_one(gamma, train, cfg, basis, row_weights)
    if cfg.robust:
        _wtls_refit(block, train, cfg.noise, fit_basis(basis, cfg))
    return block.dense[0].mode()


def fit_cp_mode(gamma, train: SampleSet, cfg: FitConfig, basis: BasisConfig,
                row_weights=None) -> CPMode:
    """Greedy rank-by-rank ALS fit of a separated mode to train.u.

    Each rank starts from seeded uniform draws in [-1, 1], then repeats the
    joint-rank sweep on that one rank, which cycles the dimensions solving
    the exact least-squares subproblem for one factor block at a time. This
    is the entry fit of a CP mode in the pass loop, on its own.
    """
    gamma = tuple(int(d) for d in gamma)
    _check_cp_range(gamma, cfg)
    return _fit_one(gamma, train, cfg, basis, row_weights).cps[0].mode()


def _fit_one(gamma, train, cfg, basis, row_weights) -> _Block:
    # the block (no f0) of the one mode of a skeleton on train, entered
    skeleton = _Skeleton(train, cfg, basis)
    block = _Block(skeleton._weights(row_weights), cfg.beta, with_f0=False)
    block.enter(skeleton.enter(gamma), train.u, cfg)
    return block


def _check_plain_rows(cfg: FitConfig, *row_weights) -> None:
    if cfg.robust and any(w is not None for w in row_weights):
        raise ValueError("robust fitting (weighted TLS) covers plain rows only: "
                         "it does not apply to row-weighted fits")


def _check_cp_range(gamma, cfg: FitConfig) -> None:
    if len(gamma) <= cfg.npc or len(gamma) > cfg.ninter:
        raise ValueError(
            f"group {gamma} is not in the separated range ({cfg.npc}, {cfg.ninter}]"
        )


def _cp_factors(gamma, residual, blocks, cfg: FitConfig, w):
    # greedy: each rank from seeded draws, fitted by one-rank joint sweeps
    # to what the earlier ranks leave; a rank the sweeps leave all zero (its
    # factor values vanished) is skipped. Returns (factors, the mode's values)
    card = len(gamma)
    factors = np.zeros((cfg.nr, card, cfg.no - 1))
    target = residual.copy()
    for rank in range(cfg.nr):
        if not target.any():
            break
        g = rng_stream(cfg.seed, 4, *gamma, rank, 0)
        fac = g.uniform(-1.0, 1.0, size=(1,) + factors.shape[1:])
        prev = np.inf
        for _ in range(_ALS_MAX_SWEEPS):
            fac, vals = _cp_sweep(target, blocks, fac, w, cfg.beta)
            contr = w * vals
            res = _norm(target - contr)
            if abs(prev - res) <= _ALS_TOL * max(res, _TINY):
                break
            prev = res
        if not fac.any():
            warnings.warn(f"CP rank {rank + 1} on {gamma}: factor values vanished, "
                          "skipping this rank")
            continue
        factors[rank] = fac[0]
        target = target - contr
    return factors, _cp_values(blocks, factors)


def _cp_sweep(target, blocks, factors, w, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """One joint-rank ALS sweep of a CP mode, or of one rank of it: for each
    dimension in turn, the factors of all ranks by one ``_gram_solve``, the
    other dimensions' factors held. ``blocks`` are each dimension's
    (orders, rows) ``_order_blocks`` of the table, and the factor values and
    partial products are (ranks, rows), so every product runs along
    contiguous rows. A rank whose other factors vanish has all-zero columns
    and gets exactly zero factors: at beta = 0 those columns fail the Gram's
    pivot test and lstsq's minimum-norm solution leaves them zero; at
    beta > 0 the ridge keeps the Cholesky path, and their right-hand side is
    zero. Returns (factors, the mode's values by ``_cp_values``' arithmetic)."""
    nr, card, nord = factors.shape
    factors = factors.copy()
    vals = [factors[:, i] @ blocks[i] for i in range(card)]
    for i in range(card):
        partial = np.repeat(w[None, :], nr, axis=0)
        for j in range(card):
            if j != i:
                partial *= vals[j]
        # design rows rank by rank: block i scaled by that rank's partial
        # product; the solve reads its transpose, one column per row here
        psi = partial[:, None, :] * blocks[i]
        c = _gram_solve(psi.reshape(nr * nord, -1).T, target, beta)
        factors[:, i] = c.reshape(nr, nord)
        vals[i] = factors[:, i] @ blocks[i]
    values = np.ones_like(vals[0])
    for v in vals:
        values *= v
    return factors, values.sum(axis=0)


def _gram_solve(psi, r, beta: float) -> np.ndarray:
    """ls_solve(psi, r, beta) for a tall design with few columns, through
    psi'psi + beta^2 I with its columns scaled to unit norm: its Cholesky
    pivots (``_gram_cholesky``) decide whether it is numerically positive
    definite, and it is then solved by np.linalg.solve; ls_solve itself when
    it is not, non-finite systems included. The scaling keeps columns of
    very different norms, such as the factors of a strong and a weak rank,
    from failing the pivot test. The ALS steps, the weighted TLS steps and
    the separated driver's spatial fits solve this way."""
    g = psi.T @ psi
    d = np.sqrt(g.diagonal())
    d[d == 0.0] = 1.0
    g /= d[:, None] * d
    if beta > 0:
        g[np.diag_indices_from(g)] += (beta / d) ** 2
    if _gram_cholesky(g) is not None:
        return np.linalg.solve(g, (psi.T @ r) / d) / d
    return ls_solve(psi, r, beta)


@dataclass(frozen=True)
class PassRecord:
    """One driver pass: the group added, training residual norm after the
    update sweeps, the validation error (nan without a validation set) and
    the number of update sweeps the pass ran (``_MAX_UPDATE_SWEEPS`` with a
    CP mode, 0 without, where the pass is one solve of the dense block).
    The final refit's record has the kept pass count as ``s`` and no
    ``dims`` or ``cv_eps``."""

    s: int
    dims: Group | None
    train_residual_norm: float
    cv_eps: float
    update_sweeps: int


@dataclass
class FitDiagnostics:
    """``records`` are the passes of the (cross-validated) pass loop and
    ``retained`` the number of groups the model keeps. ``refit`` is the
    record of the final refit on train plus validation (None without
    validation rows, or for identically zero validation values, whose
    passes fit train plus validation). ``cv_seconds`` times the pass loop
    (with the steps of a path computed as the passes read it),
    ``refit_seconds`` the final refit (0 without it) and ``wtls_seconds``
    the weighted TLS refit of a robust fit (0 for a plain one)."""

    records: list[PassRecord] = field(default_factory=list)
    retained: int = 0
    refit: PassRecord | None = None
    cv_seconds: float = 0.0
    refit_seconds: float = 0.0
    wtls_seconds: float = 0.0


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
    """One entered group of a ``_Skeleton`` over every row of the fit, of
    which a pass over the first n rows reads the first n: its ``blocks``,
    the table's (orders, rows) views that ``_cp_sweep`` and
    ``_Skeleton.values`` read, and for a dense mode its design (rows, P)
    and the positions ``flat`` of its coefficients (``_dense_scatter``).
    The pass's ``_Block`` sets a dense mode's coefficients; a CP mode
    refits itself. ``params`` are the current coefficients (dense) or
    factors (CP), and ``values`` a CP mode's unweighted values at the rows
    of the current block."""

    __slots__ = ("dims", "kind", "indices", "design", "flat", "blocks", "params",
                 "values")

    def __init__(self, dims, cfg: FitConfig, table):
        self.dims = dims
        self.kind = "dense" if len(dims) <= cfg.npc else "cp"
        self.params = None
        self.values = None
        if self.kind == "dense":
            self.indices = enumerate_dense_indices(dims, cfg.no)
            self.design = dense_design(table, dims, self.indices)
            top, self.flat = _dense_scatter(dims, self.indices)
            self.blocks = _order_blocks(table, dims, top)
        else:
            _check_cp_range(dims, cfg)
            self.blocks = _order_blocks(table, dims, cfg.no)

    def refit(self, r, cfg, w) -> None:
        # a CP mode's refit on the first len(r) rows: greedy one-rank sweeps
        # on entry, one joint-rank sweep after
        blocks = [b[:, : r.shape[0]] for b in self.blocks]
        if self.params is None:
            self.params, self.values = _cp_factors(self.dims, r, blocks, cfg, w)
        else:
            self.params, self.values = _cp_sweep(r, blocks, self.params, w, cfg.beta)

    def mode(self):
        if self.kind == "dense":
            return DenseMode(self.dims, tuple(self.indices), self.params)
        return CPMode(self.dims, self.params)


class _Block:
    """The fit of a pass loop or a continuation on its rows (the first
    len(w) rows of the modes' designs): ``f0`` (when ``with_f0``), the
    dense modes and the CP modes, each fitted by ``enter`` or taken by ``add``.

    ``f0`` and the dense modes are one least-squares problem: minimize
    ||r - w * (f0 + sum_m psi_m c_m)||^2 + beta^2 sum_m ||c_m||^2, with
    ``f0`` unridged, where r is what the CP modes leave. ``q`` is an
    orthonormal basis of its row-weighted columns, stacked over beta * I
    rows for the dense columns when beta > 0, and ``cmap`` maps coordinates
    in ``q`` to coefficients, so a solve is the two matrix-vector products
    cmap @ (q' r). Both grow as modes enter: new columns A = q h + u t
    (``_grow_basis``, which returns a right inverse t^+ of t) add u to ``q``
    and the columns [-cmap h t^+ ; t^+] to ``cmap``, the inverse of the
    block-triangular factor. For well-separated columns t is the triangular
    factor of Cholesky-QR2 and t^+ its inverse; otherwise t = s v' from a
    thin SVD, t^+ = v s^-1, and directions dependent on earlier columns, or
    within a mode, are dropped and get no coefficient; for a mode alone that
    is lstsq's minimum-norm solution. ``fitted`` is f0 plus the dense modes'
    values at the rows, unweighted, as the last solve left them.
    """

    def __init__(self, w, beta: float, with_f0: bool):
        self.w = w
        self.beta = beta
        self.q = np.empty((w.shape[0], 0))
        self.cmap = np.empty((0, 0))
        self.dense: list[_ActiveMode] = []
        self.cps: list[_ActiveMode] = []
        self.with_f0 = with_f0
        self.f0 = 0.0
        self.fitted = np.zeros(w.shape[0])
        if with_f0:
            self._extend(w[:, None], 0.0)

    def enter(self, mode: _ActiveMode, u, cfg: FitConfig) -> None:
        """Fit an entering mode to what the block leaves of u: a dense mode
        extends the basis and the block is solved again; a CP mode enters
        from its seeded draws."""
        w = self.w
        if mode.kind == "dense":
            self.add(mode)
            self.solve(u - w * self.cp_values())
        else:
            mode.refit(u - w * (self.fitted + self.cp_values()), cfg, w)
            self.cps.append(mode)

    def add(self, mode: _ActiveMode) -> None:
        """Take a mode as it stands, a CP mode's values recomputed at the rows."""
        n = self.w.shape[0]
        if mode.kind == "dense":
            self._extend(mode.design[:n] * self.w[:, None], self.beta)
            self.dense.append(mode)
        else:
            mode.values = _cp_values([b[:, :n] for b in mode.blocks], mode.params)
            self.cps.append(mode)

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
        scale = float(np.sqrt(np.einsum("ij,ij->j", cols, cols).max()))
        u, h, inv = _grow_basis(self.q, cols,
                                np.finfo(float).eps * max(cols.shape) * scale)
        n, k = self.cmap.shape
        cmap = np.zeros((n + p, k + inv.shape[1]))
        cmap[:n, :k] = self.cmap
        cmap[:n, k:] = -self.cmap @ (h @ inv)
        cmap[n:, k:] = inv
        self.cmap = cmap
        self.q = np.concatenate((self.q, u), axis=1)

    def solve(self, r) -> None:
        """Fit ``f0`` and every dense mode's coefficients to r, and leave
        their values in ``fitted``."""
        c = self.cmap @ (self.q[: r.shape[0]].T @ r)
        start = 0
        if self.with_f0:
            self.f0 = float(c[0])
            start = 1
        tot = np.zeros(r.shape[0])
        for m in self.dense:
            end = start + len(m.indices)
            m.params = c[start:end]
            tot += m.design[: r.shape[0]] @ m.params
            start = end
        self.fitted = self.f0 + tot

    def cp_values(self) -> np.ndarray:
        # the CP modes' values at the block's rows, unweighted
        tot = np.zeros(self.w.shape[0])
        for m in self.cps:
            tot += m.values
        return tot


def _vector(v, default):
    return default if v is None else np.asarray(v, dtype=float).ravel()


def _residual_norm(block: _Block, u) -> float:
    # training residual norm of the block's values
    return _norm(u - block.w * (block.fitted + block.cp_values()))


def _norm(v) -> float:
    """||v||, also where ||v||^2 falls below the normal range (20 values of
    1e-170 have np.linalg.norm 0.0): there v is first scaled by the power of
    two that brings its largest magnitude near 1, and the norm scaled back,
    exactly. Ordinary vectors get np.linalg.norm's bits."""
    n = float(np.linalg.norm(v))
    if n < _NORM_FLOOR and np.any(v):
        shift = -int(np.frexp(np.max(np.abs(v)))[1])
        n = float(np.ldexp(np.linalg.norm(np.ldexp(v, shift)), -shift))
    return n


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
    pass in order. Each pass fits the new mode on the current residual,
    cyclically re-fits all active modes (update sweeps), and evaluates the
    error on the validation set. Growth stops once the validation error has
    increased over two consecutive passes; the returned model keeps the
    pass with the smallest validation error, and its modes are refitted on
    train plus validation from where the passes left them (with no CP mode
    kept, the model of a ``validation=None`` fit of the kept groups on
    those rows). The path is read lazily, one group per pass, and never
    past the pass at which growth stops, so a generator computes only the
    steps the passes use. One ``_Skeleton`` on train plus validation serves
    the passes and the final refit. With ``validation=None`` every group is
    fitted, with no early stopping; ``val_row_weights`` then raises
    ValueError. Validation values that are identically zero give no early
    stopping either: the call warns and fits every group on train plus
    validation. Validation rows whose x or xi column count differs from the
    training rows', and a ``cfg.ninter`` above the rows' dimension count
    Nd, raise ValueError before the path is read; a group with a dim
    outside 1..Nd raises it when its pass starts.

    Every pass fits by least squares (dense modes) and ALS (CP modes). A
    robust ``cfg`` then refits all dense modes' coefficients together, once,
    by weighted TLS on the rows the model was last fitted to: train plus
    validation, or train with ``validation=None`` (see ``_wtls_refit``).
    Weighted TLS covers plain rows only: a robust ``cfg`` with row weights
    raises ValueError.

    Returns (HdmrModel, FitDiagnostics).
    """
    skeleton, block, diag = _fit_hdmr(train, validation, path, cfg, basis,
                                      row_weights, val_row_weights)
    return skeleton.model(block), diag


def _fit_hdmr(train, validation, path, cfg, basis, row_weights, val_row_weights):
    # fit_hdmr's fit, as (_Skeleton, its final _Block, FitDiagnostics)
    if validation is None:
        if val_row_weights is not None:
            raise ValueError("val_row_weights given without validation rows")
    else:
        _check_matching_rows(train, validation)
    if cfg.ninter > train.nd:
        raise ValueError(f"ninter={cfg.ninter} exceeds the rows' stochastic "
                         f"dimension count Nd={train.nd}")
    _check_plain_rows(cfg, row_weights, val_row_weights)
    rows, w, n = train, row_weights, train.nq
    if validation is not None:
        rows, w = merge_train_validation(train, validation, row_weights, val_row_weights)
        if not np.any(validation.u):
            warnings.warn("validation values are identically zero: no early stopping")
            n = rows.nq
    diag = FitDiagnostics()
    t0 = time.perf_counter()
    skeleton = _Skeleton(rows, cfg, basis)
    block, diag.records, diag.retained = skeleton.passes(path, n, w)
    diag.cv_seconds = time.perf_counter() - t0
    if n < rows.nq:
        t0 = time.perf_counter()
        block, diag.refit = skeleton.refit(w, diag.retained)
        diag.refit_seconds = time.perf_counter() - t0
    if cfg.robust:
        t0 = time.perf_counter()
        _wtls_refit(block, rows, cfg.noise, skeleton.basis)
        diag.wtls_seconds = time.perf_counter() - t0
    return skeleton, block, diag


def _wtls_refit(block: _Block, rows: SampleSet, noise: NoiseModel,
                basis: BasisConfig) -> None:
    """Weighted TLS refit of all the block's dense coefficients together;
    ``rows`` are the block's rows and ``basis`` its modes' basis.

    The refit's design stacks the dense modes' designs, and its start point
    is their least-squares coefficients. ``f0`` and the CP modes' values are
    held fixed and subtracted from ``rows.u``. The row covariances are those
    of the whole block, from one ``covariance_blocks`` call whose u_ref is
    the least-squares prediction. The new coefficients go back into the
    block's dense modes (``fitted`` keeps the least-squares values); with
    s = s_u = 0 they are left untouched.
    """
    if not block.dense or (noise.s == 0 and noise.s_u == 0):
        return
    psi = np.hstack([m.design for m in block.dense])
    c0 = np.concatenate([m.params for m in block.dense])
    fixed = np.full(rows.nq, block.f0)
    for m in block.cps:
        fixed += m.values
    cov = covariance_blocks(rows, [(m.dims, m.indices) for m in block.dense],
                            noise, basis, fixed + psi @ c0)
    c = wtls_solve(psi, rows.u - fixed, cov, c0=c0)
    ends = np.cumsum([len(m.indices) for m in block.dense])
    for m, part in zip(block.dense, np.split(c, ends[:-1])):
        m.params = part


class _Skeleton:
    """The one owner of a fit's tables and modes, for the life of that fit.

    ``rows`` are every row the fit reads: train, then the validation rows of
    a cross-validated fit, in ``merge_train_validation``'s order. Their one
    univariate ``table`` is allocated once, in ``basis``' layout; a dim is
    evaluated when the first group on it enters (``enter``), and a dim no
    group touches is never evaluated. Each entered group gets one
    ``_ActiveMode`` over all rows, which the one pass loop (``passes``) and
    the one continuation (``refit``) read. For a plain ``cfg`` and no CP
    mode among the first k, ``refit(w, k)`` gives the bytes of
    ``fit_hdmr(rows, None, groups[:k], cfg, basis, row_weights=w)`` for the
    entered ``groups``: its one solve follows that fit's basis extensions.
    """

    def __init__(self, rows: SampleSet, cfg: FitConfig, basis: BasisConfig):
        self.rows = rows
        self.cfg = cfg
        self.basis = fit_basis(basis, cfg)
        self.table = _empty_table((rows.nq, rows.nd), self.basis.max_order)
        self.done: set[int] = set()     # the table columns evaluated
        self.modes: list[_ActiveMode] = []

    def enter(self, dims) -> _ActiveMode:
        """The mode of a group entering the fit, over all the rows; a group
        with a dim outside 1..Nd raises ValueError before any table column
        is evaluated."""
        dims = _check_dims(tuple(int(d) for d in dims), self.rows.nd)
        if any(m.dims == dims for m in self.modes):
            raise ValueError(f"group {dims} appears twice in the path")
        new = sorted({d - 1 for d in dims} - self.done)
        if new:
            self.table[:, new] = univariate_table(self.basis, self.rows.xi[:, new])
            self.done.update(new)
        self.modes.append(_ActiveMode(dims, self.cfg, self.table))
        return self.modes[-1]

    def _weights(self, row_weights) -> np.ndarray:
        nq = self.rows.nq
        return _vector(_check_row_weights(row_weights, nq), np.ones(nq))

    def passes(self, groups, n: int, row_weights):
        """The coefficient passes on the first ``n`` rows: f0 alone, then one
        group entered per pass, fitted to the current residual and followed
        by the update sweeps; a group is read only when its pass starts.
        While rows remain past ``n``, each pass reads the validation error
        off them, and the passes stop once it has risen over two consecutive
        passes. Returns (the block, the PassRecords, the passes kept: the
        one with the smallest validation error, or all)."""
        cv = n < self.rows.nq
        w = self._weights(row_weights)
        u, uval, wv = self.rows.u[:n], self.rows.u[n:], w[n:]
        block = _Block(w[:n], self.cfg.beta, with_f0=True)
        block.solve(u)
        rec = PassRecord(0, None, _residual_norm(block, u), float("nan"), 0)
        groups = iter(groups)
        records = []
        while True:
            if cv:
                eps = _norm(uval - wv * self.values(block, slice(n, None))) / _norm(uval)
                rec = replace(rec, cv_eps=eps)
            records.append(rec)
            rose = cv and len(records) > 2 and eps > records[-2].cv_eps > records[-3].cv_eps
            dims = None if rose else next(groups, None)
            if dims is None:
                kept = min(records, key=lambda r: r.cv_eps) if cv else rec
                return block, records, kept.s
            mode = self.enter(dims)
            block.enter(mode, u, self.cfg)
            rnorm, sweeps = _update_sweeps(block, u, self.cfg)
            rec = PassRecord(rec.s + 1, mode.dims, rnorm, float("nan"), sweeps)

    def refit(self, row_weights, kept: int):
        """The continuation: the first ``kept`` modes on all rows under these
        row weights, from where they were left (dense modes in entry order,
        CP modes with their factors), solved once and then swept by
        ``_update_sweeps``. Returns (_Block, its PassRecord)."""
        u = self.rows.u
        block = _Block(self._weights(row_weights), self.cfg.beta, with_f0=True)
        for m in self.modes[:kept]:
            block.add(m)
        block.solve(u - block.w * block.cp_values())
        rnorm, sweeps = _update_sweeps(block, u, self.cfg)
        return block, PassRecord(kept, None, rnorm, float("nan"), sweeps)

    def model(self, block: _Block) -> HdmrModel:
        """The HdmrModel of a block that ``passes`` or ``refit`` returned."""
        cfg = self.cfg
        return HdmrModel(f0=block.f0, basis=self.basis, nd=self.rows.nd, no=cfg.no,
                         ninter=cfg.ninter, npc=cfg.npc, nr=cfg.nr,
                         dense=[m.mode() for m in block.dense],
                         cp=[m.mode() for m in block.cps])

    def values(self, block: _Block, rows: slice) -> np.ndarray:
        """The values at a slice of the rows of a block's model, as
        ``evaluate_model`` gives them: f0, then the dense modes by
        ``_dense_values`` on the table's (orders, rows) blocks and the CP
        modes by ``_cp_values`` on theirs, in entry order. The validation
        error and a separated rank's lambda read them."""
        out = np.full(self.rows.nq, block.f0)[rows]
        for m in block.dense:
            out += _dense_values([b[:, rows] for b in m.blocks], m.flat, m.params)
        for m in block.cps:
            out += _cp_values([b[:, rows] for b in m.blocks], m.params)
        return out


def _update_sweeps(block: _Block, u, cfg):
    """``_MAX_UPDATE_SWEEPS`` sweeps when the block holds a CP mode, each a
    solve of the dense block and then a joint-rank ALS sweep of each CP mode;
    none without one, where the block is solved already. Returns (training
    residual norm after them, sweeps run)."""
    sweeps = _MAX_UPDATE_SWEEPS if block.cps else 0
    w = block.w
    for _ in range(sweeps):
        block.solve(u - w * block.cp_values())
        for m in block.cps:
            m.refit(u - w * (block.fitted + block.cp_values() - m.values), cfg, w)
    return _residual_norm(block, u), sweeps


def relative_error(model, test: SampleSet) -> float:
    """Relative L2 error ||u - u_hat|| / ||u|| over a test set."""
    if not np.any(test.u):
        raise ValueError("identically zero reference values: relative error undefined")
    if isinstance(model, HdmrModel):
        pred = evaluate_model(model, test.xi)
    else:
        from .separated import evaluate_separated
        pred = evaluate_separated(model, test.x, test.xi)
    return _norm(test.u - pred) / _norm(test.u)


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
    rows the noise pulled toward zero. Dims not sorted in 1..Nd, multi-indices
    without one order in 2..max_order per dim and a u_ref without one value
    per row raise ValueError.
    """
    groups = [(_check_dims(dims, rows.nd), indices) for dims, indices in groups]
    for dims, indices in groups:
        for idx in indices:
            if len(idx) != len(dims) or not all(2 <= a <= basis.max_order for a in idx):
                raise ValueError(f"group {dims} has multi-index {tuple(idx)}, not "
                                 f"{len(dims)} orders in 2..{basis.max_order}")
    u_ref = np.asarray(u_ref, dtype=float).ravel()
    if u_ref.shape != (rows.nq,):
        raise ValueError(f"u_ref has {u_ref.size} values for {rows.nq} rows")
    block = sorted({d for dims, _ in groups for d in dims})
    nb = len(block)
    jac = np.zeros((rows.nq, sum(len(indices) for _, indices in groups), nb))
    if noise.s > 0:
        vals = univariate_table(basis, rows.xi[:, [d - 1 for d in block]])
        # dim block[k]'s values sit in table column k, its derivatives in
        # column nb + k
        table = np.concatenate([vals, _deriv_table(basis, vals)], axis=1)
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
    solves the induced weighted least-squares problem (``_gram_solve``, with
    lstsq as its fallback), and halves the step
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
        delta = _gram_solve(psi * sw[:, None], r * sw, 0.0) - c
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
