"""Rank-separated representation of a random field from scattered samples.

u(x, xi) is approximated by w_0(x) + sum_n w_n(x) lambda_n(xi): spatial
profiles times stochastic modes, built one rank at a time by deflation.
Each rank alternates a spatial least-squares fit (rows weighted by the
current lambda values) with a stochastic surrogate fit (design rows weighted
by the current spatial profile) until the stochastic-mode norm settles.
"""

from __future__ import annotations

import json
import operator
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import BasisConfig, univariate_table
from .data import SampleSet
from .fitting import FitConfig, fit_hdmr, ls_solve, merge_train_validation
from .model import (HdmrModel, _model_from_document, _model_payload, _read_document,
                    evaluate_model)
from .selection import SelectionConfig, glars_select

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
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError(f"empty spatial domain [{lo}, {hi}]")
        if self.kind == "nodal-piecewise-linear" and self.cardx < 2:
            raise ValueError("nodal basis needs at least 2 nodes")


def spatial_design(sb: SpatialBasis, x) -> np.ndarray:
    """Evaluate the cardx basis functions at x, shape (len(x), cardx)."""
    x = np.asarray(x, dtype=float).ravel()
    lo, hi = sb.domain
    if np.any(x < lo) or np.any(x > hi):
        raise ValueError(f"spatial basis undefined outside [{lo}, {hi}]")
    if sb.kind == "legendre-tensor":
        return univariate_table(
            BasisConfig(lo=lo, hi=hi, max_order=sb.cardx), x)
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
    c = ls_solve(phi * lam[:, None], residual, 0.0)
    wvals = phi @ c
    scale = float(np.linalg.norm(wvals))
    if scale == 0.0:
        return np.zeros(phi.shape[1]), 0.0
    return c / scale, scale


def fit_separated(train: SampleSet, sel_cfg: SelectionConfig, fit_cfg: FitConfig,
                  sep_cfg: SeparatedConfig, sb: SpatialBasis,
                  basis: BasisConfig, validation: SampleSet | None = None
                  ) -> SeparatedModel:
    """Build the separated representation by rank-wise deflation.

    Rank 0 is the plain spatial least-squares fit (lambda_0 = 1). For every
    later rank the selection and the stochastic fits target copies of
    ``train`` and ``validation`` whose u is the deflated residual. The group
    skeleton of lambda_n is selected once, on the first inner alternation,
    and kept fixed while the spatial and stochastic coefficients are
    alternated to convergence of ||lambda_n||. Ranks stop
    at sep_cfg.lmax or once ||lambda_n|| falls below
    _STOP_NORM_FRAC * ||u||; a rank whose pair fails to reduce the training
    residual is discarded. Weighted TLS (fit_cfg.robust) is rejected: it
    covers plain rows only, and every stochastic fit here is row-weighted.
    """
    if fit_cfg.robust:
        raise ValueError("robust fitting does not apply to the separated "
                         "representation: its stochastic fits are row-weighted")
    if train.ndx != 1:
        raise ValueError("separated fitting needs one spatial column")
    have_val = validation is not None

    phi = spatial_design(sb, train.x[:, 0])
    u = train.u
    unorm = float(np.linalg.norm(u))
    c0 = ls_solve(phi, u, 0.0)
    pairs: list[tuple[np.ndarray, HdmrModel | None]] = [(c0, None)]
    res = u - phi @ c0
    if have_val:
        phi_val = spatial_design(sb, validation.x[:, 0])
        res_val = validation.u - phi_val @ c0
    # every rank starts from the constant unit-norm profile and fits the
    # stochastic mode first: after deflation the residual has ~zero
    # conditional mean in x, so a spatial fit against lambda = 1 is pure noise
    w_start = ls_solve(phi, np.ones(train.nq), 0.0)
    w_start = w_start / float(np.linalg.norm(phi @ w_start))

    for _ in range(sep_cfg.lmax):
        if float(np.linalg.norm(res)) == 0.0:
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
                path = glars_select(r_train, sel_cfg, basis, row_weights=w_train)
                lam_model, diag = fit_hdmr(r_train, r_val, path, fit_cfg, basis,
                                           row_weights=w_train, val_row_weights=w_val)
                groups = path.groups()[: diag.retained]
            else:
                # coefficient-only refit on the frozen skeleton, on train plus
                # validation like the first alternation's final refit
                fit_set, w_fit = r_train, w_train
                if have_val:
                    fit_set, w_fit = merge_train_validation(r_train, r_val,
                                                            w_train, w_val)
                lam_model, _ = fit_hdmr(fit_set, None, groups, fit_cfg, basis,
                                        row_weights=w_fit)
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
        if float(np.linalg.norm(lam_vals)) < _STOP_NORM_FRAC * unorm:
            break  # negligible stochastic content left; drop this rank

        w_train = phi @ w_c
        pair_vals = w_train * lam_vals
        new_res = res - pair_vals
        if float(np.linalg.norm(new_res)) > float(np.linalg.norm(res)):
            warnings.warn(
                "separated rank did not reduce the training residual; stopping"
            )
            break
        pairs.append((w_c, lam_model))
        res = new_res
        if have_val:
            res_val = res_val - (phi_val @ w_c) * evaluate_model(
                lam_model, validation.xi)

        if sep_cfg.update_spatial_joint:
            res = _joint_spatial_update(pairs, phi, train, u)
            if have_val:
                res_val = validation.u - _predict_pairs(pairs, phi_val,
                                                        validation.xi)

    return SeparatedModel(spatial_basis=sb, pairs=pairs)


def _predict_pairs(pairs, phi, xi):
    out = np.zeros(phi.shape[0])
    for c, lam in pairs:
        w = phi @ c
        out += w if lam is None else w * evaluate_model(lam, xi)
    return out


def _joint_spatial_update(pairs, phi, train, u):
    """Re-solve every spatial coefficient vector at fixed stochastic modes.

    A single least-squares problem over the concatenated blocks
    [phi * lam_n]; it can only reduce the training residual.
    """
    lam_cols = []
    for _, lam in pairs:
        lam_cols.append(np.ones(train.nq) if lam is None
                        else evaluate_model(lam, train.xi))
    blocks = [phi * lam[:, None] for lam in lam_cols]
    design = np.hstack(blocks)
    coeffs = ls_solve(design, u, 0.0)
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
    out = _predict_pairs(m.pairs, phi, xi)
    return float(out[0]) if squeeze else out


def save_separated(m: SeparatedModel, path) -> None:
    """JSON export mirroring the plain model schema (sorted keys, repr floats)."""
    doc = {
        "schema": 1,
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
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


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
    if doc.get("schema") != 1 or doc.get("kind") != "separated":
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
