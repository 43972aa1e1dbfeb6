"""Sample collections {x_q, xi_q, u_q}: CSV ingestion, splitting, noise.

CSV contract: UTF-8, comma-separated, mandatory header row with columns
``x1..x{Ndx}, xi1..xi{Nd}, u`` in that order (``Ndx`` may be 0).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "SampleSet",
    "NoiseModel",
    "load_csv",
    "save_csv",
    "split",
    "inject_noise",
    "rng_stream",
]

_TAGS = ("train", "validation", "test", "unsplit")


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for the stream identified by (seed, *key).

    Streams with distinct keys are independent and their draws do not depend
    on the order in which other streams are consumed, which keeps every
    randomized stage reproducible under any degree of parallelism.
    """
    ss = np.random.SeedSequence(
        entropy=int(seed) & 0xFFFFFFFFFFFFFFFF,
        spawn_key=tuple(int(k) & 0xFFFFFFFFFFFFFFFF for k in key),
    )
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class SampleSet:
    """Immutable collection of samples.

    Attributes
    ----------
    x : numpy.ndarray
        Spatial coordinates, shape (Nq, Ndx). Ndx may be 0.
    xi : numpy.ndarray
        Stochastic coordinates, shape (Nq, Nd), Nd >= 1.
    u : numpy.ndarray
        Observed values, shape (Nq,).
    tag : str
        One of "train", "validation", "test", "unsplit".
    """

    x: np.ndarray
    xi: np.ndarray
    u: np.ndarray
    tag: str = "unsplit"

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        xi = np.atleast_2d(np.asarray(self.xi, dtype=float))
        u = np.asarray(self.u, dtype=float).ravel()
        nq = u.shape[0]
        if xi.shape[0] != nq and xi.shape == (1, nq):
            xi = xi.T
        if x.size == 0:
            x = np.empty((nq, 0))
        elif x.shape[0] != nq and x.shape == (1, nq):
            x = x.T
        if nq < 1:
            raise ValueError("a SampleSet needs at least one row")
        if xi.shape[0] != nq or x.shape[0] != nq:
            raise ValueError(
                f"row mismatch: {x.shape[0]} spatial, {xi.shape[0]} stochastic, {nq} values"
            )
        if xi.shape[1] < 1:
            raise ValueError("Nd must be >= 1")
        if self.tag not in _TAGS:
            raise ValueError(f"unknown tag {self.tag!r}")
        for name, arr in (("x", x), ("xi", xi), ("u", u)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "u", u)

    @property
    def nq(self) -> int:
        return self.u.shape[0]

    @property
    def ndx(self) -> int:
        return self.x.shape[1]

    @property
    def nd(self) -> int:
        return self.xi.shape[1]

    def retag(self, tag: str) -> "SampleSet":
        return replace(self, tag=tag)

    def take(self, idx, tag: str | None = None) -> "SampleSet":
        idx = np.asarray(idx, dtype=int)
        return SampleSet(self.x[idx], self.xi[idx], self.u[idx], tag or self.tag)


@dataclass(frozen=True)
class NoiseModel:
    """Coordinate and value noise scales.

    xi = xi* + s*zeta with zeta standard normal, reflected into ``box`` at the
    faces; u = u*(1 + s_u*zeta_u). s = s_u = 0 is the identity.
    """

    s: float = 0.0
    s_u: float = 0.0
    box: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self):
        if not (np.isfinite(self.s) and np.isfinite(self.s_u)):
            raise ValueError("noise scales must be finite")
        if self.s < 0 or self.s_u < 0:
            raise ValueError("noise scales must be >= 0")
        lo, hi = self.box
        if not lo < hi:
            raise ValueError(f"empty noise box [{lo}, {hi}]")


def load_csv(path) -> SampleSet:
    """Read a SampleSet from ``path``.

    Raises ValueError naming the offending data row (1-based, blank lines
    not counted, so row q is sample q) on non-numeric or non-finite cells,
    and on width mismatches.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        ndx = 0
        while ndx < len(header) and header[ndx] == f"x{ndx + 1}":
            ndx += 1
        nd = 0
        while ndx + nd < len(header) and header[ndx + nd] == f"xi{nd + 1}":
            nd += 1
        expected = [f"x{i}" for i in range(1, ndx + 1)]
        expected += [f"xi{i}" for i in range(1, nd + 1)] + ["u"]
        if nd < 1 or header != expected:
            raise ValueError(
                f"{path}: header must be x1..x(Ndx), xi1..xi(Nd), u; got {header}"
            )
        width = len(header)
        rows = []
        for row in reader:
            if not row:
                continue
            lineno = len(rows) + 1
            if len(row) != width:
                raise ValueError(
                    f"{path}: row {lineno} has {len(row)} cells, expected {width}"
                )
            try:
                vals = [float(c) for c in row]
            except ValueError:
                raise ValueError(f"{path}: row {lineno} has a non-numeric cell") from None
            if not all(np.isfinite(v) for v in vals):
                raise ValueError(f"{path}: row {lineno} has a non-finite cell")
            rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    return SampleSet(arr[:, :ndx], arr[:, ndx:ndx + nd], arr[:, -1])


def save_csv(sset: SampleSet, path) -> None:
    """Write ``sset`` to ``path`` under the CSV column contract."""
    header = [f"x{i}" for i in range(1, sset.ndx + 1)]
    header += [f"xi{i}" for i in range(1, sset.nd + 1)] + ["u"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for q in range(sset.nq):
            row = [repr(float(v)) for v in sset.x[q]]
            row += [repr(float(v)) for v in sset.xi[q]]
            row.append(repr(float(sset.u[q])))
            writer.writerow(row)


def split(sset: SampleSet, n_train: int, n_val: int, n_test: int, seed: int):
    """Disjoint random partition into (train, validation, test).

    Deterministic for a fixed seed via a seeded shuffle. A part whose
    requested size is 0 is returned as None.
    """
    if n_train < 1:
        raise ValueError("n_train must be >= 1")
    if min(n_val, n_test) < 0:
        raise ValueError("split sizes must be >= 0")
    total = n_train + n_val + n_test
    if total > sset.nq:
        raise ValueError(f"requested {total} rows from a set of {sset.nq}")
    perm = rng_stream(seed, 1, 0).permutation(sset.nq)
    a, b = n_train, n_train + n_val
    return (
        sset.take(perm[:a], "train"),
        sset.take(perm[a:b], "validation") if n_val else None,
        sset.take(perm[b:total], "test") if n_test else None,
    )


def _reflect(vals: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # fold into [lo, hi] by reflecting at the faces, any number of times
    period = 2.0 * (hi - lo)
    y = np.mod(vals - lo, period)
    return lo + np.minimum(y, period - y)


def inject_noise(sset: SampleSet, noise: NoiseModel, seed: int) -> SampleSet:
    """Perturb coordinates and values per ``noise``; identity when scales are 0.

    One counter-based stream per (seed, row) keeps the draws independent of
    evaluation order.
    """
    xi = np.array(sset.xi)
    u = np.array(sset.u)
    lo, hi = noise.box
    for q in range(sset.nq):
        g = rng_stream(seed, 2, q)
        zeta = g.standard_normal(sset.nd)
        zeta_u = g.standard_normal()
        if noise.s > 0:
            xi[q] = _reflect(xi[q] + noise.s * zeta, lo, hi)
        if noise.s_u > 0:
            u[q] = u[q] * (1.0 + noise.s_u * zeta_u)
    return SampleSet(sset.x, xi, u, sset.tag)
