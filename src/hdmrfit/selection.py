"""Group least angle regression over the interaction-group dictionary.

Candidate groups gamma (all subsets of stochastic dimensions up to a chosen
interaction order) compete through the score ||Q_g' r||^2 / p_g, where Q_g
holds the group's design columns orthonormalized under the empirical inner
product and p_g counts its predictors. Groups enter one at a time; after each
entry the residual moves along the least-squares direction of the active
columns by the smallest step at which an inactive group ties the active
score. The output is the ordered entry sequence: a skeleton of groups whose
coefficients are discarded and re-estimated downstream.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .basis import BasisConfig, univariate_table
from .data import SampleSet
from .model import Group, enumerate_dense_indices

__all__ = [
    "SelectionConfig",
    "PathStep",
    "SelectionPath",
    "glars_select",
    "save_path",
]

log = logging.getLogger(__name__)

# scan chunks are sized from (Nq, p) only, never from the worker count, so
# per-chunk reductions happen in a fixed order and results are bit-identical
# for any HDMR_THREADS setting
_CHUNK_FLOATS = 4_000_000
_ROOT_FLOOR = 1e-10
# the path stops once the residual norm falls to this fraction of the
# centered response's norm
_RESIDUAL_TOL = 1e-10
# predictor columns the active set leaves free below the sample count
_DOF_BUFFER = 1


def worker_count() -> int:
    try:
        return max(1, int(os.environ.get("HDMR_THREADS", "1")))
    except ValueError:
        return 1


@dataclass(frozen=True)
class SelectionConfig:
    """Knobs of the selection stage.

    nolars is the max total polynomial degree of the selection dictionary
    (distinct from the fitting degree); ninter caps the interaction order.
    """

    nolars: int = 3
    ninter: int = 2
    max_groups: int = 64
    hierarchical: bool = False

    def __post_init__(self):
        if self.nolars < 1:
            raise ValueError("nolars must be >= 1")
        if self.max_groups < 1:
            raise ValueError("max_groups must be >= 1")
        if self.ninter < 1:
            raise ValueError("ninter must be >= 1")


@dataclass(frozen=True)
class PathStep:
    dims: Group
    entry_score: float
    step_size: float
    residual_norm_after: float


@dataclass
class SelectionPath:
    """Ordered entry sequence with per-step diagnostics."""

    steps: list[PathStep]
    scan_seconds: float = 0.0

    def __post_init__(self):
        seen = set()
        for st in self.steps:
            if st.dims in seen:
                raise ValueError(f"group {st.dims} enters the path twice")
            seen.add(st.dims)
        norms = [st.residual_norm_after for st in self.steps]
        if any(b > a * (1 + 1e-12) for a, b in zip(norms, norms[1:])):
            raise ValueError("residual norm increases along the path")

    def groups(self) -> list[Group]:
        return [st.dims for st in self.steps]

    def __iter__(self):
        # a path reads as its groups in entry order, like a plain group list
        return iter(self.groups())

    def __len__(self) -> int:
        return len(self.steps)


def save_path(path: SelectionPath, file) -> None:
    """Export the path as CSV: step, dims (semicolon-joined), entry_score,
    residual_norm."""
    with open(file, "w", encoding="utf-8") as fh:
        fh.write("step,dims,entry_score,residual_norm\n")
        for s, st in enumerate(path.steps, start=1):
            dims = ";".join(str(d) for d in st.dims)
            fh.write(f"{s},{dims},{st.entry_score!r},{st.residual_norm_after!r}\n")


def _group_classes(nd: int, cfg: SelectionConfig):
    """Yield (predictor multi-indices, groups) for each cardinality class of
    the selection dictionary, in increasing cardinality. Classes with no
    predictor at degree nolars are skipped."""
    for card in range(1, min(cfg.ninter, nd) + 1):
        indices = enumerate_dense_indices(tuple(range(1, card + 1)), cfg.nolars)
        if indices:
            yield indices, list(combinations(range(1, nd + 1), card))


def _parents_active(dims: Group, active: set[Group]) -> bool:
    """Hierarchy rule: a group of cardinality l > 1 is admissible once all of
    its cardinality-(l-1) subsets are active; singletons always are."""
    return len(dims) == 1 or all(
        dims[:i] + dims[i + 1:] in active for i in range(len(dims)))


class _Scan:
    """Batched score machinery for the whole selection dictionary.

    ``groups`` and ``pcount`` are flat in dictionary order. The dictionary is
    cut into chunks that never span a cardinality class, so the groups of a
    chunk share one predictor multi-index set. Per chunk it holds the map
    W = S^-1 V' of each group's thin SVD D = U S V', with zero rows past the
    group's rank, so W D' v are the coordinates of v in the orthonormal basis
    U of the group's span. The rank cutoff is lstsq's
    (eps * max(nq, p) * sigma_max). Design tensors are rebuilt per scan so
    memory stays bounded by the chunk size regardless of the dictionary
    cardinality.
    """

    def __init__(self, table, classes, weights):
        self.table = table
        self.w = weights
        self.nq = table.shape[0]
        self.groups: list[Group] = []
        # (first group, zero-based dims (g, l), zero-based indices (p, l))
        self.chunks = []
        for indices, groups in classes:
            idx = np.asarray(indices, dtype=int) - 1
            dims = np.asarray(groups, dtype=int) - 1
            size = max(1, min(256, _CHUNK_FLOATS // max(1, self.nq * idx.shape[0])))
            self.chunks += [(len(self.groups) + lo, dims[lo:lo + size], idx)
                            for lo in range(0, len(groups), size)]
            self.groups += groups
        # chunk_of[g] is the chunk holding dictionary group g
        self.chunk_of = np.repeat(np.arange(len(self.chunks)),
                                  [len(dims) for _, dims, _ in self.chunks])
        self.pcount = np.empty(len(self.groups), dtype=int)
        self.wmap = [self._factorize(c) for c in range(len(self.chunks))]

    def _design(self, dims, idx):
        d = np.ones((dims.shape[0], self.nq, idx.shape[0]))
        for i in range(idx.shape[1]):
            cols = self.table[:, dims[:, i], :][:, :, idx[:, i]]
            d *= cols.transpose(1, 0, 2)
        if self.w is not None:
            d *= self.w[None, :, None]
        return d

    def _factorize(self, c):
        lo, dims, idx = self.chunks[c]
        p = idx.shape[0]
        _, s, vt = np.linalg.svd(self._design(dims, idx), full_matrices=False)
        keep = s > np.finfo(float).eps * max(self.nq, p) * s[:, :1]
        rank = keep.sum(axis=1)
        self.pcount[lo:lo + len(dims)] = rank
        for g in np.flatnonzero(rank < p):
            log.warning("group %s: dropped %d dependent predictor column(s)",
                        self.groups[lo + g], int(p - rank[g]))
        inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
        return inv[:, :, None] * vt

    def columns(self, g):
        """Orthonormal basis of dictionary group ``g``'s span, shape
        (nq, pcount[g])."""
        c = self.chunk_of[g]
        lo, dims, idx = self.chunks[c]
        wg = self.wmap[c][g - lo]
        return self._design(dims[g - lo:g - lo + 1], idx)[0] @ wg[: self.pcount[g]].T

    def project(self, v, c):
        """Orthonormal-coordinate projections W D' v of the vector ``v``
        (nq,) for chunk ``c``: shape (g, min(nq, p)), zero past each group's
        rank."""
        _, dims, idx = self.chunks[c]
        dv = np.einsum("gqi,q->gi", self._design(dims, idx), v)
        return (self.wmap[c] @ dv[:, :, None])[:, :, 0]


def _quadratic_step(uu, uw, ww, c_score):
    """Smallest alpha in (0,1] where an inactive score ties the active one.

    Along r - alpha*v the active score is (1-alpha)^2 * c_score while an
    inactive group's is a quadratic in alpha; the tie condition is
    a*alpha^2 + b*alpha + c = 0 with the coefficients below.
    """
    a = ww - c_score
    b = 2.0 * (c_score - uw)
    c = uu - c_score
    best = np.inf
    lin = np.abs(a) <= 1e-14 * max(abs(c_score), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        roots_lin = -c / b
        disc = b * b - 4.0 * a * c
        sq = np.sqrt(np.maximum(disc, 0.0))
        r1 = (-b - sq) / (2.0 * a)
        r2 = (-b + sq) / (2.0 * a)
    for roots, valid in (
        (roots_lin, lin & (np.abs(b) > 0)),
        (r1, ~lin & (disc >= 0)),
        (r2, ~lin & (disc >= 0)),
    ):
        good = valid & (roots > _ROOT_FLOOR) & (roots <= 1.0)
        if np.any(good):
            best = min(best, float(roots[good].min()))
    return best


def glars_select(train: SampleSet, cfg: SelectionConfig, basis: BasisConfig,
                 response=None, row_weights=None) -> SelectionPath:
    """Run the group selection path on a training set.

    ``response`` overrides train.u and ``row_weights`` scales every design
    row (both used by the separated-representation driver); the response is
    first centered by its (weighted) constant projection. A non-finite
    response or row weight, or row weights that are identically zero, raise
    ValueError.
    """
    u = np.asarray(train.u if response is None else response, dtype=float).ravel()
    if u.shape[0] != train.nq:
        raise ValueError("response length does not match the sample set")
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite response values")
    if train.nq < 2:
        raise ValueError("selection needs at least two samples")

    if row_weights is None:
        w = None
        r = u - u.mean()
    else:
        w = np.asarray(row_weights, dtype=float).ravel()
        if w.shape[0] != train.nq:
            raise ValueError("row_weights length does not match the sample set")
        if not np.all(np.isfinite(w)):
            raise ValueError("non-finite row weights")
        wsq = float(w @ w)
        if wsq <= 0:
            raise ValueError("row weights are identically zero")
        r = u - w * (float(w @ u) / wsq)
    unorm = float(np.linalg.norm(r))
    if unorm == 0.0:
        return SelectionPath(steps=[])

    need = max(basis.max_order, cfg.nolars + 1)
    table = univariate_table(replace(basis, max_order=need), train.xi)

    scan = _Scan(table, _group_classes(train.nd, cfg), w)
    if not scan.groups:
        return SelectionPath(steps=[])
    usable = scan.pcount > 0
    pk = np.maximum(scan.pcount, 1)

    chunks = range(len(scan.chunks))
    pool = ThreadPoolExecutor(max_workers=worker_count()) if worker_count() > 1 else None
    scan_seconds = 0.0

    def projections(v):
        # fixed chunk order; the pool only reorders execution, not reduction
        nonlocal scan_seconds
        t0 = time.perf_counter()
        if pool is None:
            out = [scan.project(v, c) for c in chunks]
        else:
            out = list(pool.map(lambda c: scan.project(v, c), chunks))
        scan_seconds += time.perf_counter() - t0
        return out

    active: list[int] = []
    active_set: set[Group] = set()
    active_cols: list[np.ndarray] = []
    steps: list[PathStep] = []
    pred_count = 0
    dof_cap = train.nq - _DOF_BUFFER

    try:
        while len(active) < cfg.max_groups:
            proj_r = projections(r)
            uu = np.concatenate([(pr ** 2).sum(axis=1) for pr in proj_r]) / pk
            cand = usable.copy()
            if cfg.hierarchical:
                cand &= [_parents_active(dims, active_set) for dims in scan.groups]
            cand[active] = False
            if not np.any(cand):
                break
            masked = np.where(cand, uu, -np.inf)
            best_score = float(masked.max())
            if not best_score > 0.0:
                break
            ties = np.flatnonzero(masked == best_score)
            gi = int(min(ties, key=lambda t: scan.groups[t]))
            p_gi = int(scan.pcount[gi])
            if pred_count + p_gi > dof_cap:
                break

            # materialize the entering group's columns for the direction solve
            active.append(gi)
            active_set.add(scan.groups[gi])
            active_cols.append(scan.columns(gi))
            pred_count += p_gi

            x = np.hstack(active_cols)
            coef, *_ = np.linalg.lstsq(x, r, rcond=None)
            v = x @ coef

            proj_v = projections(v)
            uw = np.concatenate([(pr * pv).sum(axis=1)
                                 for pr, pv in zip(proj_r, proj_v)]) / pk
            ww = np.concatenate([(pv ** 2).sum(axis=1) for pv in proj_v]) / pk
            cand[gi] = False
            alpha = min(1.0, _quadratic_step(uu[cand], uw[cand], ww[cand], best_score))

            r = r - alpha * v
            rnorm = float(np.linalg.norm(r))
            steps.append(PathStep(scan.groups[gi], float(best_score), float(alpha), rnorm))
            if rnorm <= _RESIDUAL_TOL * unorm:
                break
            if pred_count >= dof_cap:
                break
    finally:
        if pool is not None:
            pool.shutdown(wait=False)

    return SelectionPath(steps=steps, scan_seconds=scan_seconds)
