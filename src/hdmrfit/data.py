"""Sample collections {x_q, xi_q, u_q}: CSV ingestion, splitting, noise.

CSV contract: UTF-8, comma-separated, mandatory header row with columns
``x1..x{Ndx}, xi1..xi{Nd}, u`` in that order (``Ndx`` may be 0).
"""

from __future__ import annotations

import csv
import math
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
# the smallest norm whose square is a normal float
_NORM_FLOOR = float(np.sqrt(np.finfo(float).tiny))


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


# numpy's SeedSequence hash constants, and Philox4x64-10's multipliers and
# key bumps (Random123's PHILOX_M4x64_* and PHILOX_W64_*)
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_M32 = 0xFFFFFFFF


def _stream_uniforms(seed: int, key: int, rows: np.ndarray, count: int) -> np.ndarray:
    """Row i holds the first ``count`` values of
    ``rng_stream(seed, key, rows[i]).uniform(0.0, 1.0, count)``, bit for bit,
    computed for all rows at once. ``key`` and the ``rows`` are below 2**32.

    Philox is counter-based: a stream is set by its 128-bit key, and its
    j-th block of four 64-bit words is the cipher of the counter j + 1
    (numpy starts the counter at 0 and increments it before each block).
    The steps, in numpy's arithmetic on uint32 and uint64 arrays:

    - Key: SeedSequence (pool size 4) over the uint32 entropy words
      [seed & 0xFFFFFFFF, seed >> 32, 0, 0, key, row]; the run entropy is
      padded to 4 words because a spawn key is present. hashmix(v) xors v
      with the running constant (INIT_A 0x43b0d7e5), multiplies the
      constant by MULT_A 0x931e8875, multiplies v by it and xor-shifts v by
      16; mix(x, y) = L x - R y (L 0xca01f9dd, R 0x4973f715), xor-shifted
      by 16. The pool takes hashmix of the first 4 words, then mixes every
      word into every other, then mixes each later word into every pool
      word. generate_state(2, uint64) hashes the 4 pool words the same way
      with INIT_B 0x8b51f9dd and MULT_B 0x58f38ded, and joins them
      little-endian into two uint64 words.
    - Philox4x64-10: each round maps the counter (c0, c1, c2, c3) to
      (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)) with
      M0 0xD2E7470EE14C6C93 and M1 0xCA5A826395121157; the key gains
      0x9E3779B97F4A7C15 and 0xBB67AE8584CAA73B before each round after the
      first.
    - Doubles: (word >> 11) * 2**-53, which uniform(0.0, 1.0) returns as
      0.0 + 1.0 times it.
    """
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    rows = np.asarray(rows, dtype=np.uint32).ravel()
    words = np.empty((6, rows.size), dtype=np.uint32)
    words[:5] = np.array([seed & _M32, seed >> 32, 0, 0, key], dtype=np.uint32)[:, None]
    words[5] = rows
    hashmix = _hasher(_SS_INIT_A, _SS_MULT_A)

    def mix(x, y):
        r = np.uint32(_SS_MIX_L) * x - np.uint32(_SS_MIX_R) * y
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    state = [v.astype(np.uint64) for v in map(_hasher(_SS_INIT_B, _SS_MULT_B), pool)]
    k0 = (state[0] | state[1] << np.uint64(32))[:, None]
    k1 = (state[2] | state[3] << np.uint64(32))[:, None]
    blocks = -(-count // 4)
    zero = np.zeros((rows.size, blocks), dtype=np.uint64)
    c0 = zero + np.arange(1, blocks + 1, dtype=np.uint64)
    c1, c2, c3 = zero, zero, zero
    for r in range(10):
        if r:
            k0, k1 = k0 + np.uint64(_PHILOX_W[0]), k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    out = np.stack((c0, c1, c2, c3), axis=-1).reshape(rows.size, 4 * blocks)[:, :count]
    return (out >> np.uint64(11)) * 2.0**-53


def _hasher(const: int, mult: int):
    # SeedSequence's hashmix on uint32 arrays, with its running constant:
    # each call xors the words with it, multiplies it by mult, multiplies
    # the words by it and xor-shifts them by 16
    def hashmix(v):
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * mult & _M32
        v = v * np.uint32(const)
        return v ^ (v >> np.uint32(16))
    return hashmix


def _mulhilo(m: int, x: np.ndarray):
    # high and low 64-bit words of the 128-bit products m * x
    m_lo, m_hi = np.uint64(m & _M32), np.uint64(m >> 32)
    x_lo, x_hi = x & np.uint64(_M32), x >> np.uint64(32)
    p00, p01, p10 = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    mid = (p00 >> np.uint64(32)) + (p01 & np.uint64(_M32)) + (p10 & np.uint64(_M32))
    hi = x_hi * m_hi + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))
    return hi, x * np.uint64(m)


def _check_finite_fields(cfg, *names) -> None:
    # ValueError naming the first of the fields ``names`` of cfg not finite
    for name in names:
        value = getattr(cfg, name)
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _check_row_weights(row_weights, nq: int) -> np.ndarray | None:
    """Row weights for ``nq`` rows as a float vector (None for plain rows);
    ValueError on another count, a non-finite entry, or a zero squared norm."""
    if row_weights is None:
        return None
    w = np.asarray(row_weights, dtype=float).ravel()
    if w.shape[0] != nq:
        raise ValueError(f"row weights: {w.shape[0]} for {nq} rows")
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite row weights")
    if float(w @ w) <= 0:
        raise ValueError("row weights are identically zero")
    return w


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
        _check_finite_fields(self, "s", "s_u", "box")
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
            if not all(map(math.isfinite, vals)):
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
        for x, xi, u in zip(sset.x.tolist(), sset.xi.tolist(), sset.u.tolist()):
            writer.writerow([*map(repr, x), *map(repr, xi), repr(u)])


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
    evaluation order; the draws are made row by row, the arithmetic on the
    whole array.
    """
    zeta = np.empty((sset.nq, sset.nd))
    zeta_u = np.empty(sset.nq)
    for q in range(sset.nq):
        g = rng_stream(seed, 2, q)
        zeta[q] = g.standard_normal(sset.nd)
        zeta_u[q] = g.standard_normal()
    xi, u = sset.xi, sset.u
    if noise.s > 0:
        xi = _reflect(xi + noise.s * zeta, *noise.box)
    if noise.s_u > 0:
        u = u * (1.0 + noise.s_u * zeta_u)
    return SampleSet(sset.x, xi, u, sset.tag)
