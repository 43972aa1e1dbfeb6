"""Sparse HDMR surrogates: component modes, evaluation, and statistics.

A surrogate is u(xi) ~ f0 + sum_gamma f_gamma(xi_gamma) where each gamma is a
sorted tuple of 1-based stochastic dimensions. Low-cardinality modes carry a
dense tensor-product polynomial expansion; higher-cardinality modes carry a
rank-nr separated (CP) expansion whose univariate factors exclude the
constant, so every mode has zero mean under the uniform measure.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisConfig, univariate_table
from .data import _check_finite_fields

__all__ = [
    "Group",
    "DenseMode",
    "CPMode",
    "HdmrModel",
    "enumerate_dense_indices",
    "dense_design",
    "evaluate_model",
    "model_mean",
    "model_variance",
    "sobol_indices",
    "total_sobol",
    "save_model",
    "load_model",
]

Group = tuple[int, ...]


def _check_dims(dims: Group, nd: int | None = None) -> Group:
    dims = tuple(operator.index(d) for d in dims)
    if not dims:
        raise ValueError("a mode needs at least one dimension")
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError(f"dims must be sorted, strictly increasing: {dims}")
    if dims[0] < 1 or (nd is not None and dims[-1] > nd):
        bad = dims[0] if dims[0] < 1 else dims[-1]
        span = "1-based" if nd is None else f"in 1..Nd={nd}"
        raise ValueError(f"dim {bad} of {dims} is not {span}")
    return dims


def enumerate_dense_indices(gamma: Group, no: int) -> list[tuple[int, ...]]:
    """Multi-indices of a dense mode on ``gamma`` at interaction order ``no``.

    All alpha with alpha_i >= 2 for every i in gamma and
    sum_i (alpha_i - 1) <= no, in lexicographic order. The count is
    comb(no, len(gamma)).
    """
    gamma = _check_dims(gamma)
    card = len(gamma)
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], budget: int):
        pos = len(prefix)
        if pos == card:
            out.append(prefix)
            return
        remaining = card - pos - 1
        # each later entry consumes at least 1 of the budget
        for a in range(2, budget - remaining + 2):
            rec(prefix + (a,), budget - (a - 1))

    rec((), no)
    return out


@dataclass(frozen=True)
class DenseMode:
    """Mode with an explicit coefficient per retained multi-index."""

    dims: Group
    indices: tuple[tuple[int, ...], ...]
    coeffs: np.ndarray

    def __post_init__(self):
        dims = _check_dims(self.dims)
        indices = tuple(tuple(operator.index(a) for a in idx) for idx in self.indices)
        coeffs = np.asarray(self.coeffs, dtype=float).ravel()
        if len(indices) != coeffs.shape[0]:
            raise ValueError(
                f"{len(indices)} indices but {coeffs.shape[0]} coefficients"
            )
        for idx in indices:
            if len(idx) != len(dims):
                raise ValueError(f"index {idx} does not match dims {dims}")
            if min(idx) < 2:
                raise ValueError(f"index {idx} touches the constant")
        coeffs.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "coeffs", coeffs)
        _check_finite_fields(self, "coeffs")

    @property
    def variance(self) -> float:
        # orthonormal basis: the mode variance is the squared coefficient norm
        return float(np.dot(self.coeffs, self.coeffs))


@dataclass(frozen=True)
class CPMode:
    """Rank-separated mode: sum_r prod_i (factor_{r,i} . psi_{2..No}).

    ``factors`` has shape (rank, len(dims), no - 1); entry [r, i, j] multiplies
    psi_{j+2} in dimension dims[i].
    """

    dims: Group
    factors: np.ndarray

    def __post_init__(self):
        dims = _check_dims(self.dims)
        factors = np.asarray(self.factors, dtype=float)
        if factors.ndim != 3 or factors.shape[1] != len(dims):
            raise ValueError(
                f"factors must be (rank, {len(dims)}, No-1), got {factors.shape}"
            )
        if factors.shape[0] < 1 or factors.shape[2] < 1:
            raise ValueError(f"degenerate factor shape {factors.shape}")
        factors.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "factors", factors)
        _check_finite_fields(self, "factors")

    @property
    def variance(self) -> float:
        # E[f^2] = sum_{r,r'} prod_i <c_{r,i}, c_{r',i}>
        grams = np.einsum("rij,sij->rsi", self.factors, self.factors)
        return float(np.sum(np.prod(grams, axis=2)))


@dataclass
class HdmrModel:
    """Fitted surrogate with its basis and structural metadata."""

    f0: float
    basis: BasisConfig
    nd: int
    no: int
    ninter: int
    npc: int
    nr: int
    dense: list[DenseMode] = field(default_factory=list)
    cp: list[CPMode] = field(default_factory=list)

    def __post_init__(self):
        _check_finite_fields(self, "f0")
        if self.nd < 1 or self.no < 1:
            raise ValueError("need Nd >= 1 and No >= 1")
        if not 0 <= self.npc <= self.ninter <= self.nd:
            raise ValueError(
                f"need 0 <= N_PC <= Ninter <= Nd, got {self.npc}, {self.ninter}, {self.nd}"
            )
        if self.basis.max_order < self.no + 1:
            raise ValueError(
                f"basis max_order {self.basis.max_order} < No + 1 = {self.no + 1}"
            )
        for m in self.dense:
            _check_dims(m.dims, self.nd)
            top = max((max(idx) for idx in m.indices), default=1)
            if top > self.basis.max_order:
                raise ValueError(
                    f"dense mode on {m.dims} uses basis function {top}, "
                    f"beyond the basis max_order {self.basis.max_order}"
                )
        for m in self.cp:
            _check_dims(m.dims, self.nd)
            if m.factors.shape[2] != self.no - 1:
                raise ValueError(
                    f"CP factors on {m.dims} carry {m.factors.shape[2]} orders, "
                    f"expected No - 1 = {self.no - 1}"
                )
        seen = set()
        for m in list(self.dense) + list(self.cp):
            if m.dims in seen:
                raise ValueError(f"duplicate mode on dims {m.dims}")
            seen.add(m.dims)


def dense_design(table: np.ndarray, dims, indices) -> np.ndarray:
    """Design columns prod_i psi_{alpha_i}(xi_{dims_i}) from a univariate table.

    ``table`` is univariate_table(cfg, xi) with shape (Nq, Nd, max_order);
    returns (Nq, len(indices)) in C order, each factor read as a contiguous
    table row. With G groups of one cardinality stacked in ``dims``, shape
    (G, card), it returns their designs, (G, Nq, len(indices)).
    """
    dims = np.asarray(dims).T - 1
    cols = np.ones(dims.shape[1:] + (table.shape[0], len(indices)))
    for k, idx in enumerate(indices):
        for d, a in zip(dims, idx):
            cols[..., k] *= table[:, d, a - 1].T
    return cols


# a Gram matrix, its columns scaled to unit norm, is factored by Cholesky
# while the pivots stay within this ratio of each other; below it the SVD
# (``_grow_basis``, also for the dense block's bordering) or lstsq
# (``fitting._gram_solve``) takes over, since the Gram squares the condition
# number. On ALS-shaped probes the Gram solution stayed within 1e-9 of
# lstsq above the ratio (1e-7 at 1e-3).
_GRAM_MIN_PIVOT_RATIO = 1e-2


def _gram_cholesky(g):
    """Lower Cholesky factor of g, a Gram of unit-scaled columns, or None on
    LinAlgError, a NaN pivot or one below _GRAM_MIN_PIVOT_RATIO of the largest."""
    try:
        low = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return None
    piv = low.diagonal()
    return low if piv.min() > _GRAM_MIN_PIVOT_RATIO * piv.max() else None


def _grow_basis(q, cols, cutoff: float):
    """Extend q, an orthonormal basis, by the span of ``cols``.

    Classical Gram-Schmidt with one reorthogonalization leaves the remainder
    cols - q h, h = q' cols, factored as u t with u orthonormal: by
    Cholesky-QR2 of the unit-scaled remainder while each remainder column
    keeps more than _GRAM_MIN_PIVOT_RATIO of its norm and exceeds
    ``cutoff``, and while the Cholesky pivots pass; otherwise by a thin SVD
    u diag(s) vt that keeps the directions whose singular value exceeds
    ``cutoff`` (Golub & Van Loan, Matrix Computations, 4th ed., 5.4, 6.5).
    Returns (u, h, inv) with inv a right inverse of t, so (cols - q h) inv
    = u: the triangular inverse, or vt' / s over the kept directions.
    """
    h = np.zeros((q.shape[1], cols.shape[1]))
    rem = cols
    for _ in range(2):
        step = q.T @ rem
        rem = rem - q @ step
        h += step
    norm = np.sqrt(np.einsum("ij,ij->j", rem, rem))
    kept = norm > np.maximum(_GRAM_MIN_PIVOT_RATIO
                             * np.sqrt(np.einsum("ij,ij->j", cols, cols)), cutoff)
    if kept.all():
        fast = _cholesky_qr2(rem / norm)
        if fast is not None:
            u, inv = fast
            return u, h, inv / norm[:, None]
    u, s, vt = np.linalg.svd(rem, full_matrices=False)
    keep = s > cutoff
    return u[:, keep], h, vt[keep].T / s[keep]


def _bordered_inverse(s, norm2, cutoff: float):
    """Inverse factor of remainder columns whose Gram is s: with L L' the
    Cholesky factor of s scaled to unit diagonal, s = t't for t = L' diag(d),
    d = sqrt(diag s), and this returns t^-1 = diag(1/d) L'^-1. None unless
    every diagonal entry keeps more than _GRAM_MIN_PIVOT_RATIO^2 of its
    column's squared norm ``norm2`` and exceeds cutoff^2, and
    ``_gram_cholesky`` takes the scaled s: the tests ``_grow_basis`` puts to
    a remainder's norms and to the first Gram of its Cholesky-QR2."""
    d2 = s.diagonal()
    if not np.all(d2 > np.maximum(_GRAM_MIN_PIVOT_RATIO ** 2 * norm2, cutoff ** 2)):
        return None
    d = np.sqrt(d2)
    low = _gram_cholesky(s / (d[:, None] * d))
    return None if low is None else np.linalg.inv(low).T / d[:, None]


def _cholesky_qr2(a):
    """(u, inv) with a = u t, u orthonormal and inv = t^-1 upper triangular,
    by Cholesky-QR2 (Fukaya et al. 2014): twice, L L' = a'a and a <- a L'^-1;
    None when a'a fails ``_gram_cholesky``. Two passes are accurate while a's
    condition number stays far below eps^-1/2 (Yamamoto et al. 2015)."""
    inv = None
    for _ in range(2):
        low = _gram_cholesky(a.T @ a)
        if low is None:
            return None
        lt = np.linalg.inv(low).T
        a = a @ lt
        inv = lt if inv is None else inv @ lt
    return a, inv


def _order_blocks(table: np.ndarray, dims: Group, top: int) -> list[np.ndarray]:
    # per dimension, the rows alpha = 2..top (table slots 1..top-1) that a CP
    # factor or a dense mode's coefficients multiply: C-contiguous (orders,
    # rows) views of the table
    return [table[:, d - 1, 1:top].T for d in dims]


def _cp_values(blocks: list[np.ndarray], factors: np.ndarray) -> np.ndarray:
    # per-rank products of factor evaluations on (orders, rows) blocks, summed
    vals = np.ones((factors.shape[0], blocks[0].shape[1]))
    for i, block in enumerate(blocks):
        vals *= factors[:, i, :] @ block
    return vals.sum(axis=0)


def _dense_scatter(dims: Group, indices) -> tuple[int, np.ndarray]:
    # (top, flat): a dense mode's coefficients are the entries ``flat`` of a
    # tensor over the orders alpha = 2..top of each of its dims, the rows of
    # its ``_order_blocks(table, dims, top)``
    idx = np.asarray(indices, dtype=np.intp).reshape(-1, len(dims)).T - 2
    top = 2 + int(idx.max(initial=0))
    return top, np.ravel_multi_index(tuple(idx), (top - 1,) * len(dims))


def _dense_values(blocks: list[np.ndarray], flat: np.ndarray, coeffs) -> np.ndarray:
    """A dense mode's values sum_k c_k prod_i psi_{alpha_ki}(xi_{dims_i}) from
    its dims' (orders, rows) blocks and the positions ``_dense_scatter``
    gives its coefficients.

    The coefficients are placed in a tensor over the blocks' orders by
    ``np.add.at``, so repeated multi-indices add up, and the tensor is
    contracted with one block at a time, last dim first (an n-mode product,
    Kolda & Bader 2009, 2.5): one GEMM, then per dim a product with the
    block summed over its orders. No design is built, and no intermediate
    holds more than orders^(card-1) values per row.
    """
    orders = blocks[0].shape[0]
    coef = np.zeros(orders ** len(blocks))
    np.add.at(coef, flat, coeffs)
    vals = coef.reshape(-1, orders) @ blocks[-1]
    for b in blocks[-2::-1]:
        vals = (vals.reshape((-1,) + b.shape) * b).sum(axis=1)
    return vals[0]


def evaluate_model(model: HdmrModel, xi) -> np.ndarray:
    """Evaluate the surrogate at rows of ``xi`` (shape (Nq, Nd) or (Nd,)).

    The univariate table covers only the dims some mode touches, in sorted
    order; a dense mode's values come from ``_dense_values`` and a CP mode's
    from ``_cp_values``, both on that table's (orders, rows) blocks.
    """
    xi = np.asarray(xi, dtype=float)
    squeeze = xi.ndim == 1
    if squeeze:
        xi = xi[None, :]
    if xi.shape[1] != model.nd:
        raise ValueError(f"xi has {xi.shape[1]} columns, model has Nd={model.nd}")
    used = sorted({d for m in model.dense + model.cp for d in m.dims})
    # a model that uses every dim reads xi itself, not a copy of it
    cols = xi if len(used) == model.nd else xi[:, [d - 1 for d in used]]
    table = univariate_table(model.basis, cols)
    block = {d: table[:, k].T for k, d in enumerate(used)}
    out = np.full(xi.shape[0], model.f0)
    for m in model.dense:
        top, flat = _dense_scatter(m.dims, m.indices)
        out += _dense_values([block[d][1:top] for d in m.dims], flat, m.coeffs)
    for m in model.cp:
        out += _cp_values([block[d][1:model.no] for d in m.dims], m.factors)
    return out[0] if squeeze else out


def model_mean(model: HdmrModel) -> float:
    """Mean under the product uniform measure: every mode integrates to zero."""
    return float(model.f0)


def variance_by_group(model: HdmrModel) -> dict[Group, float]:
    out: dict[Group, float] = {}
    for m in model.dense:
        out[m.dims] = m.variance
    for m in model.cp:
        out[m.dims] = m.variance
    return out


def model_variance(model: HdmrModel) -> float:
    return float(sum(variance_by_group(model).values()))


def sobol_indices(model: HdmrModel) -> dict[Group, float]:
    """First- and higher-order Sobol indices S_gamma = Var_gamma / Var.

    They sum to 1 over the retained groups (the surrogate has no unresolved
    interactions by construction).
    """
    per = variance_by_group(model)
    total = sum(per.values())
    if total <= 0:
        return {g: 0.0 for g in per}
    return {g: v / total for g, v in per.items()}

def total_sobol(model: HdmrModel, dim: int) -> float:
    """Total-effect index of dimension ``dim``: sum of S_gamma over gamma containing it."""
    if not 1 <= dim <= model.nd:
        raise ValueError(f"dim {dim} outside 1..{model.nd}")
    return float(sum(s for g, s in sobol_indices(model).items() if dim in g))


_SCHEMA = 1


def _model_payload(model: HdmrModel) -> dict:
    return {
        "schema": _SCHEMA,
        "kind": "hdmr",
        "f0": model.f0,
        "nd": model.nd,
        "no": model.no,
        "ninter": model.ninter,
        "npc": model.npc,
        "nr": model.nr,
        "basis": {
            "family": "legendre",
            "lo": model.basis.lo,
            "hi": model.basis.hi,
            "max_order": model.basis.max_order,
        },
        "dense": [
            {
                "dims": list(m.dims),
                "indices": [list(idx) for idx in m.indices],
                "coeffs": m.coeffs.tolist(),
            }
            for m in model.dense
        ],
        "cp": [
            {"dims": list(m.dims), "factors": m.factors.tolist()}
            for m in model.cp
        ],
    }


def save_model(model: HdmrModel, path) -> None:
    """Serialize to JSON. Keys are sorted and floats use shortest round-trip
    repr, so identical models produce byte-identical files."""
    _write_document(_model_payload(model), path)


def _write_document(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _read_document(path) -> dict:
    """The JSON object stored in a model file.

    Raises ValueError naming the file when it is not JSON or holds anything
    but an object.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a JSON model file ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(
            f"{path}: a model file holds a JSON object, not a {type(doc).__name__}")
    return doc


def load_model(path) -> HdmrModel:
    return _model_from_document(_read_document(path), path)


def _model_from_document(doc, path) -> HdmrModel:
    """Rebuild a model from its document (a whole file, or a payload nested
    in a separated model file); ValueError naming ``path`` when the schema,
    kind or basis family is wrong or any field is missing or of the wrong
    type. Only the Legendre family exists, so the family is checked, not
    stored."""
    if doc.get("schema") != _SCHEMA:
        raise ValueError(f"{path}: unsupported model schema {doc.get('schema')!r}")
    if doc.get("kind", "hdmr") != "hdmr":
        raise ValueError(
            f"{path}: model file holds a {doc.get('kind')!r} model; "
            "use the matching loader"
        )
    integer = operator.index
    try:
        if doc["basis"]["family"] != "legendre":
            raise ValueError(f"unsupported basis family {doc['basis']['family']!r}")
        basis = BasisConfig(
            lo=float(doc["basis"]["lo"]),
            hi=float(doc["basis"]["hi"]),
            max_order=integer(doc["basis"]["max_order"]),
        )
        dense = [
            DenseMode(tuple(m["dims"]), tuple(tuple(i) for i in m["indices"]),
                      np.asarray(m["coeffs"], dtype=float))
            for m in doc["dense"]
        ]
        cp = [CPMode(tuple(m["dims"]), np.asarray(m["factors"], dtype=float))
              for m in doc["cp"]]
        return HdmrModel(
            f0=float(doc["f0"]), basis=basis, nd=integer(doc["nd"]),
            no=integer(doc["no"]), ninter=integer(doc["ninter"]),
            npc=integer(doc["npc"]), nr=integer(doc["nr"]),
            dense=dense, cp=cp,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed model document ({exc!r})") from exc
