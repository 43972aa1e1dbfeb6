"""Rank-separated representation of a random field from scattered samples.

u(x, xi) is approximated by w_0(x) + sum_n w_n(x) lambda_n(xi): spatial
profiles times stochastic modes, built one rank at a time by deflation.
Each rank alternates a spatial least-squares fit (rows weighted by the
current lambda values) with a stochastic surrogate fit (design rows weighted
by the current spatial profile) until the stochastic-mode norm settles.
A rank selects its skeleton only as far as its cross-validated passes read
the path (``selection.glars_steps``). The ``fitting._Skeleton`` that fit
built on train plus validation then serves every later alternation, a
``_Skeleton.refit`` continuing it under new row weights, and every value of
lambda needed.

The spatial least-squares fits (rank 0, the start profile, each rank's
profile, the joint re-solve) are solved through their unit-scaled Gram
(``fitting._gram_solve``), and by lstsq when that Gram is not numerically
positive definite, as when lambda vanishes on a hat function's whole
support; that hat gets the minimum-norm coefficient, zero.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import BasisConfig, univariate_table
from .data import SampleSet, _check_finite_fields
# perfbench/spans.py wraps ls_solve, glars_select and fit_hdmr here by name; the
# driver itself calls _gram_solve, glars_steps and _fit_hdmr
from .fitting import (FitConfig, _check_matching_rows, _fit_hdmr,  # noqa: F401
                      _gram_solve, _norm, fit_hdmr, ls_solve)
from .model import (_SCHEMA, HdmrModel, _model_from_document, _model_payload,
                    _read_document, _write_document, evaluate_model)
from .selection import SelectionConfig, glars_select, glars_steps  # noqa: F401

__all__ = [
    "SpatialBasis",
    "SeparatedConfig",
    "SeparatedModel",
    "spatial_design",
    "fit_spatial_mode",
    "fit_separated",
    "evaluate_separated",
    "save_separated",
    "load_separated",
    "load_any_model",
]

# inner alternation of one rank: it stops once ||lambda_n|| changes by at most
# _OUTER_TOL relative, or after _MAX_OUTER_ITERS alternations
_OUTER_TOL = 1e-4
_MAX_OUTER_ITERS = 50
# rank growth stops once ||lambda_n|| falls below this fraction of ||u||
_STOP_NORM_FRAC = 1e-3


@dataclass(frozen=True)
class SpatialBasis:
    """Deterministic basis {phi_l} over the spatial coordinate.

    kind "nodal-piecewise-linear": hat functions on a uniform grid of cardx
    nodes. kind "legendre-tensor": orthonormal Legendre polynomials of
    degree < cardx. One spatial dimension is supported.
    """

    kind: str = "nodal-piecewise-linear"
    cardx: int = 16
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if self.kind not in ("nodal-piecewise-linear", "legendre-tensor"):
            raise ValueError(f"unknown spatial basis kind {self.kind!r}")
        if self.cardx < 1:
            raise ValueError("cardx must be >= 1")
        _check_finite_fields(self, "domain")
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError(f"empty spatial domain [{lo}, {hi}]")
        if self.kind == "nodal-piecewise-linear" and self.cardx < 2:
            raise ValueError("nodal basis needs at least 2 nodes")


def spatial_design(sb: SpatialBasis, x) -> np.ndarray:
    """Evaluate the cardx basis functions at x, shape (len(x), cardx),
    C-contiguous (the spatial fits' bits depend on it)."""
    x = np.asarray(x, dtype=float).ravel()
    lo, hi = sb.domain
    if np.any(x < lo) or np.any(x > hi):
        raise ValueError(f"spatial basis undefined outside [{lo}, {hi}]")
    if sb.kind == "legendre-tensor":
        return univariate_table(BasisConfig(lo=lo, hi=hi, max_order=sb.cardx), x).copy()
    nodes = np.linspace(lo, hi, sb.cardx)
    h = nodes[1] - nodes[0]
    cell = np.clip(((x - lo) / h).astype(int), 0, sb.cardx - 2)
    t = (x - nodes[cell]) / h
    phi = np.zeros((x.shape[0], sb.cardx))
    rows = np.arange(x.shape[0])
    phi[rows, cell] = 1.0 - t
    phi[rows, cell + 1] = t
    return phi


@dataclass(frozen=True)
class SeparatedConfig:
    """Rank growth: lmax caps the stochastic ranks; update_spatial_joint
    re-solves every spatial profile jointly after each accepted rank."""

    lmax: int = 2
    update_spatial_joint: bool = False

    def __post_init__(self):
        if self.lmax < 0:
            raise ValueError("lmax must be >= 0")


@dataclass
class SeparatedModel:
    """Ordered (spatial coefficients, stochastic mode) pairs.

    pairs[0] is the rank-0 profile with lambda_0 identically 1 (stored as
    None); later lambdas are fitted surrogates. Pair order is deflation
    order; for n >= 1 the spatial profile had unit empirical norm at fit
    time.
    """

    spatial_basis: SpatialBasis
    pairs: list[tuple[np.ndarray, HdmrModel | None]] = field(default_factory=list)

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("a separated model needs at least the rank-0 pair")
        if self.pairs[0][1] is not None:
            raise ValueError("lambda_0 must be the unit function")
        fixed = []
        for c, lam in self.pairs:
            c = np.asarray(c, dtype=float).ravel()
            if c.shape[0] != self.spatial_basis.cardx:
                raise ValueError(
                    f"spatial coefficients have length {c.shape[0]}, "
                    f"expected {self.spatial_basis.cardx}"
                )
            if not np.all(np.isfinite(c)):
                raise ValueError(f"spatial coefficients must be finite, got {c!r}")
            fixed.append((c, lam))
        self.pairs = fixed

    @property
    def rank(self) -> int:
        return len(self.pairs) - 1


def fit_spatial_mode(residual, lam_values, phi):
    """Solve min_c ||residual - (phi c) * lam_values|| and normalize.

    ``phi`` is the spatial design at the sample locations
    (``spatial_design``). Returns (coefficients with unit empirical norm
    over the sample locations, scale). The scale is meant to be absorbed
    into the stochastic mode; it is 0 for an identically zero fit.
    """
    lam = np.asarray(lam_values, dtype=float).ravel()
    if not np.all(np.isfinite(lam)):
        raise ValueError("non-finite stochastic-mode values")
    if not np.any(lam):
        raise ValueError("stochastic-mode values are identically zero")
    c = _gram_solve(phi * lam[:, None], residual, 0.0)
    wvals = phi @ c
    if not np.any(wvals):
        return np.zeros(phi.shape[1]), 0.0
    scale = _norm(wvals)
    return c / scale, scale


def fit_separated(train: SampleSet, sel_cfg: SelectionConfig, fit_cfg: FitConfig,
                  sep_cfg: SeparatedConfig, sb: SpatialBasis,
                  basis: BasisConfig, validation: SampleSet | None = None
                  ) -> SeparatedModel:
    """Build the separated representation by rank-wise deflation.

    Rank 0 is the plain spatial least-squares fit (lambda_0 = 1). For every
    later rank the selection and the stochastic fits target copies of
    ``train`` and ``validation`` whose u is the deflated residual. The group
    skeleton of lambda_n is selected once, on the first inner alternation:
    its cross-validated fit (``fitting._fit_hdmr``) reads the steps of
    ``glars_steps`` as its passes ask for them, so the path stops where
    those passes stop. Every later alternation continues the kept modes of
    that fit (``fitting._Skeleton.refit``, its modes built once on train
    plus validation) with the new spatial profile as row weights, until
    ||lambda_n|| settles; lambda_n's values at the training and validation
    rows come from ``fitting._Skeleton.values``, which reads the skeleton's
    table and builds no design. Ranks stop at sep_cfg.lmax or once
    ||lambda_n|| falls below _STOP_NORM_FRAC * ||u||; a rank whose pair
    fails to reduce the training residual is discarded. Weighted TLS
    (fit_cfg.robust) is rejected: it covers plain rows only, and every
    stochastic fit here is row-weighted. Validation rows whose column
    counts differ from the training rows' raise ValueError.
    """
    if fit_cfg.robust:
        raise ValueError("robust fitting does not apply to the separated "
                         "representation: its stochastic fits are row-weighted")
    if train.ndx != 1:
        raise ValueError("separated fitting needs one spatial column")
    have_val = validation is not None
    if have_val:
        _check_matching_rows(train, validation)

    phi = spatial_design(sb, train.x[:, 0])
    u = train.u
    nq = train.nq
    unorm = _norm(u)
    c0 = _gram_solve(phi, u, 0.0)
    pairs: list[tuple[np.ndarray, HdmrModel | None]] = [(c0, None)]
    # each pair's lambda at the training (and validation) rows; None for 1
    lam_train: list[np.ndarray | None] = [None]
    lam_val: list[np.ndarray | None] = [None]
    res = u - phi @ c0
    if have_val:
        phi_val = spatial_design(sb, validation.x[:, 0])
        res_val = validation.u - phi_val @ c0
    # every rank starts from the constant unit-norm profile and fits the
    # stochastic mode first: after deflation the residual has ~zero
    # conditional mean in x, so a spatial fit against lambda = 1 is pure noise
    w_start = _gram_solve(phi, np.ones(nq), 0.0)
    w_start = w_start / _norm(phi @ w_start)

    for _ in range(sep_cfg.lmax):
        if not np.any(res):
            break
        # the stochastic fits of this rank target the deflated residual
        r_train = replace(train, u=res)
        r_val = replace(validation, u=res_val) if have_val else None
        w_c = w_start
        prev_norm = None
        for it in range(_MAX_OUTER_ITERS):
            w_train = phi @ w_c
            w_val = phi_val @ w_c if have_val else None
            if it == 0:
                # the path generator, which holds the factored dictionary,
                # lives only as long as the call that reads it
                skeleton, block, diag = _fit_hdmr(
                    r_train, r_val, (st.dims for st in glars_steps(
                        r_train, sel_cfg, basis, row_weights=w_train)),
                    fit_cfg, basis, w_train, w_val)
            else:
                block = skeleton.refit(np.concatenate([w_train, w_val]) if have_val
                                       else w_train, diag.retained)[0]
            lam_vals = skeleton.values(block, slice(0, nq))
            if not np.any(lam_vals):
                return SeparatedModel(spatial_basis=sb, pairs=pairs)
            lam_norm = _norm(lam_vals)
            if prev_norm is not None and \
                    abs(lam_norm - prev_norm) <= _OUTER_TOL * lam_norm:
                break
            prev_norm = lam_norm
            w_c, scale = fit_spatial_mode(res, lam_vals, phi)
            if scale == 0.0:
                return SeparatedModel(spatial_basis=sb, pairs=pairs)
        if lam_norm < _STOP_NORM_FRAC * unorm:
            break  # negligible stochastic content left; drop this rank

        w_train = phi @ w_c
        pair_vals = w_train * lam_vals
        new_res = res - pair_vals
        if _norm(new_res) > _norm(res):
            warnings.warn(
                "separated rank did not reduce the training residual; stopping"
            )
            break
        pairs.append((w_c, skeleton.model(block)))
        lam_train.append(lam_vals)
        res = new_res
        if have_val:
            lam_val.append(skeleton.values(block, slice(nq, None)))
            res_val = res_val - (phi_val @ w_c) * lam_val[-1]

        if sep_cfg.update_spatial_joint:
            res = _joint_spatial_update(pairs, lam_train, phi, u)
            if have_val:
                res_val = validation.u - _predict_pairs(pairs, lam_val, phi_val)

    return SeparatedModel(spatial_basis=sb, pairs=pairs)


def _predict_pairs(pairs, lam_values, phi):
    # sum of w_n(x) lambda_n over the pairs, from each pair's lambda values
    # at the rows of phi (None for lambda_0 = 1)
    out = np.zeros(phi.shape[0])
    for (c, _), lam in zip(pairs, lam_values):
        w = phi @ c
        out += w if lam is None else w * lam
    return out


def _joint_spatial_update(pairs, lam_values, phi, u):
    """Re-solve every spatial coefficient vector at fixed stochastic modes.

    A single least-squares problem over the concatenated blocks
    [phi * lam_n], with each pair's lambda values at the training rows in
    ``lam_values`` (None for lambda_0 = 1); it can only reduce the training
    residual.
    """
    blocks = [phi if lam is None else phi * lam[:, None] for lam in lam_values]
    design = np.hstack(blocks)
    coeffs = _gram_solve(design, u, 0.0)
    cardx = phi.shape[1]
    for n in range(len(pairs)):
        pairs[n] = (coeffs[n * cardx:(n + 1) * cardx], pairs[n][1])
    return u - design @ coeffs


def evaluate_separated(m: SeparatedModel, x, xi) -> np.ndarray:
    """Evaluate sum_n w_n(x) lambda_n(xi) at paired rows of (x, xi)."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    squeeze = xi.ndim == 1
    if squeeze:
        xi = xi[None, :]
    xflat = x.ravel()
    if xflat.shape[0] != xi.shape[0]:
        raise ValueError(
            f"{xflat.shape[0]} spatial points for {xi.shape[0]} stochastic rows"
        )
    phi = spatial_design(m.spatial_basis, xflat)
    lam = [None if lam is None else evaluate_model(lam, xi) for _, lam in m.pairs]
    out = _predict_pairs(m.pairs, lam, phi)
    return float(out[0]) if squeeze else out


def save_separated(m: SeparatedModel, path) -> None:
    """JSON export mirroring the plain model schema (sorted keys, repr floats)."""
    _write_document({
        "schema": _SCHEMA,
        "kind": "separated",
        "spatial_basis": {
            "kind": m.spatial_basis.kind,
            "cardx": m.spatial_basis.cardx,
            "domain": list(m.spatial_basis.domain),
        },
        "pairs": [
            {
                "w": c.tolist(),
                "lambda": "unit" if lam is None else _model_payload(lam),
            }
            for c, lam in m.pairs
        ],
    }, path)


def load_separated(path) -> SeparatedModel:
    return _separated_from_document(_read_document(path), path)


def load_any_model(path) -> HdmrModel | SeparatedModel:
    """Load a plain or a separated model file, whichever its "kind" names;
    ValueError naming ``path`` for any malformed file."""
    doc = _read_document(path)
    if doc.get("kind") == "separated":
        return _separated_from_document(doc, path)
    return _model_from_document(doc, path)


def _separated_from_document(doc: dict, path) -> SeparatedModel:
    if doc.get("schema") != _SCHEMA or doc.get("kind") != "separated":
        raise ValueError(f"{path}: not a separated model file")
    try:
        spec = doc["spatial_basis"]
        sb = SpatialBasis(
            kind=spec["kind"],
            cardx=operator.index(spec["cardx"]),
            domain=tuple(float(v) for v in spec["domain"]),
        )
        pairs = [
            (np.asarray(pair["w"], dtype=float),
             None if pair["lambda"] == "unit"
             else _model_from_document(pair["lambda"], path))
            for pair in doc["pairs"]
        ]
        return SeparatedModel(spatial_basis=sb, pairs=pairs)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed separated model document ({exc!r})") from exc
