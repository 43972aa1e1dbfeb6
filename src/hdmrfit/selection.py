"""Group least angle regression over the interaction-group dictionary.

Candidate groups gamma (all subsets of stochastic dimensions up to a chosen
interaction order) compete through the score ||Q_g' r||^2 / p_g, where Q_g
holds the group's design columns orthonormalized under the empirical inner
product and p_g counts its predictors. Groups enter one at a time; after each
entry the residual moves along the least-squares direction of the active
columns by the smallest step at which an inactive group ties the active
score. The output is the ordered entry sequence: a skeleton of groups whose
coefficients are discarded and re-estimated downstream. ``glars_steps``
computes it one step at a time, as a caller asks for steps;
``glars_select`` collects every step into a SelectionPath.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .basis import BasisConfig, univariate_table
from .data import _NORM_FLOOR, SampleSet, _check_row_weights
from .model import Group, _grow_basis, dense_design, enumerate_dense_indices

__all__ = [
    "SelectionConfig",
    "PathStep",
    "SelectionPath",
    "glars_select",
    "glars_steps",
    "save_path",
]

log = logging.getLogger(__name__)

# floats of one factorization chunk's design tensor: bounds the SVD's scratch
# memory, not the stacked basis it fills
_CHUNK_FLOATS = 4_000_000
_ROOT_FLOOR = 1e-10
# the path stops once the residual norm falls to this fraction of the
# centered response's norm
_RESIDUAL_TOL = 1e-10
# predictor columns the active set leaves free below the sample count
_DOF_BUFFER = 1
# a group whose projection of the residual off the active span is below
# this fraction of its score has its span inside the active span
_INSIDE_TOL = 1e-20


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
    direction_seconds: float = 0.0

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
    """Orthonormal bases of every group of the selection dictionary, stacked.

    ``groups`` and ``pcount`` are flat in dictionary order. Group g owns the
    rows ``start[g]:start[g] + min(nq, p_g)`` of ``basis``: there it holds
    U_g' of its design's thin SVD D = U S V', zeroed past the group's rank,
    so ``basis @ v`` holds the coordinates of v in every group's span. The
    rank cutoff is lstsq's (eps * max(nq, p) * sigma_max). ``dense_design``
    stacks the designs of a chunk of groups, and a chunk never spans a
    cardinality class, so its groups share one predictor multi-index set.
    """

    def __init__(self, table, classes, weights):
        nq = table.shape[0]
        self.groups: list[Group] = []
        # (first group, its groups, their predictor multi-indices)
        chunks = []
        rows = []
        for indices, groups in classes:
            size = max(1, min(256, _CHUNK_FLOATS // max(1, nq * len(indices))))
            chunks += [(len(self.groups) + lo, groups[lo:lo + size], indices)
                       for lo in range(0, len(groups), size)]
            self.groups += groups
            rows += [min(nq, len(indices))] * len(groups)
        self.start = np.cumsum([0] + rows[:-1])
        self.pcount = np.empty(len(self.groups), dtype=int)
        self.basis = np.empty((sum(rows), nq))
        for lo, dims, indices in chunks:
            self._factorize(table, weights, lo, dims, indices)

    def _factorize(self, table, weights, lo, dims, indices):
        d = dense_design(table, dims, indices)
        if weights is not None:
            d *= weights[None, :, None]
        u, s, _ = np.linalg.svd(d, full_matrices=False)
        nq, p = d.shape[1:]
        keep = s > np.finfo(float).eps * max(nq, p) * s[:, :1]
        rank = keep.sum(axis=1)
        self.pcount[lo:lo + len(dims)] = rank
        for g in np.flatnonzero(rank < p):
            log.warning("group %s: dropped %d dependent predictor column(s)",
                        self.groups[lo + g], int(p - rank[g]))
        first = self.start[lo]
        block = self.basis[first:first + s.size].reshape(s.shape + (nq,))
        np.multiply(u.transpose(0, 2, 1), keep[:, :, None], out=block)

    def columns(self, g):
        """Orthonormal basis of dictionary group ``g``'s span, shape
        (nq, pcount[g])."""
        return self.basis[self.start[g]:self.start[g] + self.pcount[g]].T


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


def _direction(q, cols, r):
    """Extend q, an orthonormal basis of the active span, by a group's
    orthonormal columns (``_grow_basis``); return it and v = q q' r, lstsq's
    fit of r. Columns well outside the active span join q by Cholesky-QR2;
    otherwise a direction of the remainder's thin SVD joins q if its
    singular value clears eps * nq, lstsq's cutoff eps * max(nq, P) *
    sigma_max for unit columns and P < nq."""
    u, *_ = _grow_basis(q, cols, np.finfo(float).eps * q.shape[0])
    q = np.concatenate((q, u), axis=1)
    return q, q @ (q.T @ r)


def glars_select(train: SampleSet, cfg: SelectionConfig, basis: BasisConfig,
                 row_weights=None) -> SelectionPath:
    """Run the group selection path on a training set, targeting train.u:
    every step of ``glars_steps``, collected with its timings."""
    steps = []
    walk = glars_steps(train, cfg, basis, row_weights)
    while True:
        try:
            steps.append(next(walk))
        except StopIteration as done:
            return SelectionPath(steps, *done.value)


def glars_steps(train: SampleSet, cfg: SelectionConfig, basis: BasisConfig,
                row_weights=None):
    """Generate the group selection path on a training set, one PathStep per
    entering group, targeting train.u.

    A step is computed when it is asked for, so a caller that stops early
    (the cross-validated passes of ``fitting.fit_hdmr``) pays for the steps
    it reads only; the dictionary is factored on the first. On exhaustion
    the generator returns (scan seconds, direction seconds), which
    ``glars_select`` keeps in its SelectionPath. ``row_weights`` scales
    every design row (the separated-representation driver passes its
    spatial profile, with its deflated residual as train.u); the response is
    first centered by its (weighted) constant projection. A centered
    response whose norm is below sqrt(float tiny) (twenty values of 1e-170
    have norm 0.0) is first multiplied by a power of two, which scales every
    step exactly: the steps are those at unit scale, with ``entry_score``
    and ``residual_norm_after`` reported at train.u's scale. Fewer than two
    samples, or row weights of the wrong length, with a non-finite entry, or
    identically zero raise ValueError when the first step is asked for.
    """
    u = train.u
    if train.nq < 2:
        raise ValueError("selection needs at least two samples")

    w = _check_row_weights(row_weights, train.nq)
    if w is None:
        r = u - u.mean()
    else:
        r = u - w * (float(w @ u) / float(w @ w))
    if not np.any(r):
        return 0.0, 0.0
    unorm = float(np.linalg.norm(r))
    shift = 0
    if unorm < _NORM_FLOOR:
        shift = -int(np.frexp(np.max(np.abs(r)))[1])
        r = np.ldexp(r, shift)
        unorm = float(np.linalg.norm(r))

    need = max(basis.max_order, cfg.nolars + 1)
    # the table is not kept: the generator's frame lives as long as its caller
    # reads steps
    scan = _Scan(univariate_table(replace(basis, max_order=need), train.xi),
                 _group_classes(train.nd, cfg), w)
    usable = scan.pcount > 0
    pk = np.maximum(scan.pcount, 1)
    scan_seconds = 0.0

    def project(v):
        nonlocal scan_seconds
        t0 = time.perf_counter()
        out = scan.basis @ v
        scan_seconds += time.perf_counter() - t0
        return out

    def group_sums(a, b):
        # per-group inner products of two projections, divided by p_g
        return np.add.reduceat(a * b, scan.start) / pk

    active: list[int] = []
    active_set: set[Group] = set()
    q = np.empty((train.nq, 0))
    direction_seconds = 0.0
    pred_count = 0
    dof_cap = train.nq - _DOF_BUFFER

    while len(active) < cfg.max_groups:
        proj_r = project(r)
        uu = group_sums(proj_r, proj_r)
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

        active.append(gi)
        active_set.add(scan.groups[gi])
        pred_count += p_gi

        t0 = time.perf_counter()
        q, v = _direction(q, scan.columns(gi), r)
        direction_seconds += time.perf_counter() - t0

        proj_v = project(v)
        uw = group_sums(proj_r, proj_v)
        ww = group_sums(proj_v, proj_v)
        # a group whose span lies inside the active span ties the active
        # score identically, so its tie roots are rounding: it leaves the
        # candidates for the rest of the path
        off = proj_r - proj_v
        usable &= group_sums(off, off) >= _INSIDE_TOL * uu
        cand &= usable
        cand[gi] = False
        alpha = min(1.0, _quadratic_step(uu[cand], uw[cand], ww[cand], best_score))

        r = r - alpha * v
        rnorm = float(np.linalg.norm(r))
        yield PathStep(scan.groups[gi], float(np.ldexp(best_score, -2 * shift)),
                       float(alpha), float(np.ldexp(rnorm, -shift)))
        if rnorm <= _RESIDUAL_TOL * unorm:
            break
        if pred_count >= dof_cap:
            break

    return scan_seconds, direction_seconds
