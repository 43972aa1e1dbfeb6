"""The benchmark's workloads: inputs, the surrogate fit, its queries and checks.

Every workload fits one fixed training instance: its train and validation
rows come from the constant stream TRAIN_SEED. On the diffusion benchmark the
fit cost of one training draw against another varied tenfold (1.5 s to
15.4 s over eight draws of 1000 rows), because the validation stopping rule
and the CP modes it admits depend on the draw; no affordable run length makes
a per-seed training draw steady. The held-out test rows are fixed too (stream
TEST_SEED), so the test error of a fit repeats exactly: drawn per seed, 2000
diffusion test rows gave errors whose quartiles over ten seeds lay 0.12 of
the median apart. The run seed draws the prediction batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from hdmrfit.basis import BasisConfig, univariate_table
from hdmrfit.data import (NoiseModel, SampleSet, inject_noise, load_csv,
                          rng_stream, save_csv, split)
from hdmrfit.fitting import FitConfig, fit_hdmr
from hdmrfit.model import evaluate_model, load_model, save_model
from hdmrfit.selection import SelectionConfig, glars_select
from hdmrfit.separated import (SeparatedConfig, SpatialBasis,
                               evaluate_separated, fit_separated,
                               load_separated, save_separated)
from hdmrfit.testbed import DiffusionConfig, generate_dataset

TRAIN_SEED = 2**40
TEST_SEED = 2**40 + 1
BATCH_ROWS = 20_000


@dataclass
class Inputs:
    train: SampleSet
    val: SampleSet
    test: SampleSet
    batch_x: np.ndarray
    batch_xi: np.ndarray


def _blas_warmup() -> None:
    # the first LAPACK calls of a process start the BLAS threads and size
    # their buffers; users pay this once per process, so setup does too
    a = rng_stream(0, 99).standard_normal((256, 64))
    np.linalg.lstsq(a, a[:, 0], rcond=None)
    np.linalg.eigh(a.T @ a)


class Workload:
    name = ""
    error_bar = 0.0          # largest test error a correct fit may have
    separated = False

    def draw(self, seed: int, tr) -> Inputs:
        raise NotImplementedError

    def setup(self, seed: int, tr, tmpdir) -> Inputs:
        """Generate the inputs and pass the fitting rows through the CSV
        reader, as ``hdmrfit fit`` receives them."""
        with tr.span("bench.blas_warmup"):
            _blas_warmup()
        inp = self.draw(seed, tr)
        for part in ("train", "val"):
            orig = getattr(inp, part)
            path = tmpdir / f"{part}.csv"
            tr.call("data.save_csv", save_csv, orig, path)
            back = tr.call("data.load_csv", load_csv, path)
            for a, b in ((orig.x, back.x), (orig.xi, back.xi), (orig.u, back.u)):
                if a.shape != b.shape or a.tobytes() != b.tobytes():
                    raise RuntimeError(f"{part} rows changed in the CSV round trip")
            setattr(inp, part, back.retag(orig.tag))
        return inp

    # the surrogate: fit, evaluate, persist, and the HDMR models inside it
    def fit(self, inp: Inputs, tr):
        """Training rows -> (fitted surrogate, selected groups or None)."""
        path = tr.call("selection.select", glars_select, inp.train, self.sel, self.basis)
        model, _ = tr.call("fitting.fit_hdmr", fit_hdmr, inp.train, inp.val, path,
                           self.fitc, self.basis)
        return model, path.groups()

    def evaluate(self, model, x, xi):
        return evaluate_model(model, xi)

    def save(self, model, path) -> None:
        save_model(model, path)

    def load(self, path):
        return load_model(path)

    def hdmr_models(self, model) -> list:
        return [model]

    def check(self, model, groups) -> list[str]:
        """Workload-specific problems with the fitted surrogate and the
        selected groups (None for separated fits)."""
        return []


def _split(tr, data, n_train, n_val):
    train, val, _ = tr.call("data.split", split, data, n_train, n_val, 0, TRAIN_SEED)
    return train, val


class DiffusionPoint(Workload):
    name = "diffusion-point"
    error_bar = 1e-2
    cfg = DiffusionConfig(nd_nu=5, nd_f=5, m_x=64, m_k=400, x_star=0.5)
    n_train, n_val, n_test = 560, 140, 2000
    basis = BasisConfig(lo=0.0, hi=1.0, max_order=9)
    sel = SelectionConfig(nolars=4, ninter=3, max_groups=32)
    fitc = FitConfig(no=8, npc=2, ninter=3, seed=0)

    def draw(self, seed, tr):
        data = tr.call("testbed.generate", generate_dataset, self.cfg,
                       self.n_train + self.n_val, TRAIN_SEED)
        train, val = _split(tr, data, self.n_train, self.n_val)
        test = tr.call("testbed.generate", generate_dataset, self.cfg, self.n_test,
                       TEST_SEED)
        xi = rng_stream(seed, 50).uniform(0.0, 1.0, (BATCH_ROWS, self.cfg.nd))
        return Inputs(train, val, test, np.empty((BATCH_ROWS, 0)), xi)

    def check(self, model, groups):
        # the training instance is sized so that the fit keeps a CP mode:
        # without one, CP fitting, evaluation and statistics go unmeasured
        if not model.cp:
            return ["the fit kept no CP mode"]
        return []


def _wide_target(xi):
    return (np.sin(xi[:, 0]) + xi[:, 1] * xi[:, 2] + 0.1 * xi[:, 3]
            + 0.5 * xi[:, 4] * xi[:, 5] * xi[:, 6])


class WideScan(Workload):
    name = "wide-scan"
    error_bar = 5e-3
    nd, n_train, n_val, n_test = 30, 200, 50, 2000
    basis = BasisConfig(lo=-1.0, hi=1.0, max_order=7)
    sel = SelectionConfig(nolars=4, ninter=3, max_groups=8)
    fitc = FitConfig(no=6, npc=3, ninter=3, seed=0)
    planted = {(1,), (2, 3), (4,), (5, 6, 7)}

    def draw(self, seed, tr):
        n = self.n_train + self.n_val
        xi = rng_stream(TRAIN_SEED, 20).uniform(-1.0, 1.0, (n, self.nd))
        train, val = _split(tr, SampleSet(np.empty((n, 0)), xi, _wide_target(xi)),
                            self.n_train, self.n_val)
        xt = rng_stream(TEST_SEED, 21).uniform(-1.0, 1.0, (self.n_test, self.nd))
        test = SampleSet(np.empty((self.n_test, 0)), xt, _wide_target(xt), "test")
        xb = rng_stream(seed, 22).uniform(-1.0, 1.0, (BATCH_ROWS, self.nd))
        return Inputs(train, val, test, np.empty((BATCH_ROWS, 0)), xb)

    def check(self, model, groups):
        first = set(groups[:4])
        if first != self.planted:
            return [f"first four path groups {sorted(first)} are not the planted set"]
        return []


NOISY_BASIS = BasisConfig(lo=0.0, hi=1.0, max_order=7)


def _heteroscedastic_target(xi):
    # smooth 5-dim response spanning roughly [0.2, 4], so multiplicative
    # value noise gives per-row variances that differ by orders of magnitude
    tab = univariate_table(NOISY_BASIS, xi)
    return (2.2 + 1.05 * tab[:, 0, 1] + 0.30 * tab[:, 1, 2]
            + 0.20 * tab[:, 2, 1] * tab[:, 3, 1] + 0.15 * tab[:, 4, 3])


class NoisyRobust(Workload):
    name = "noisy-robust"
    error_bar = 0.2
    nd, n_train, n_val, n_test = 5, 400, 100, 2000
    noise = NoiseModel(s=3e-3, s_u=0.2, box=(0.0, 1.0))
    basis = NOISY_BASIS
    sel = SelectionConfig(nolars=4, ninter=2, max_groups=16)
    fitc = FitConfig(no=6, npc=2, ninter=2, seed=0, robust=True, noise=noise)
    plain = FitConfig(no=6, npc=2, ninter=2, seed=0)

    def draw(self, seed, tr):
        n = self.n_train + self.n_val
        xi = rng_stream(TRAIN_SEED, 30).uniform(0.0, 1.0, (n, self.nd))
        train_c, val_c = _split(
            tr, SampleSet(np.empty((n, 0)), xi, _heteroscedastic_target(xi)),
            self.n_train, self.n_val)
        train = tr.call("data.inject_noise", inject_noise, train_c, self.noise,
                        TRAIN_SEED + 1)
        val = tr.call("data.inject_noise", inject_noise, val_c, self.noise,
                      TRAIN_SEED + 2)
        xt = rng_stream(TEST_SEED, 31).uniform(0.0, 1.0, (self.n_test, self.nd))
        test = SampleSet(np.empty((self.n_test, 0)), xt,
                         _heteroscedastic_target(xt), "test")
        xb = rng_stream(seed, 32).uniform(0.0, 1.0, (BATCH_ROWS, self.nd))
        return Inputs(train, val, test, np.empty((BATCH_ROWS, 0)), xb)


class FieldScattered(Workload):
    name = "field-scattered"
    error_bar = 3e-3
    separated = True
    cfg = DiffusionConfig(nd_nu=3, nd_f=3, u_minus=2.5, u_plus=2.5, m_x=64, m_k=400)
    n_train, n_val, n_test = 1200, 300, 2000
    basis = BasisConfig(lo=0.0, hi=1.0, max_order=11)
    sel = SelectionConfig(nolars=3, ninter=3, max_groups=64)
    fitc = FitConfig(no=10, npc=3, ninter=3, seed=0)
    sep = SeparatedConfig(lmax=2, update_spatial_joint=True)
    sb = SpatialBasis(kind="nodal-piecewise-linear", cardx=32)

    def draw(self, seed, tr):
        data = tr.call("testbed.generate", generate_dataset, self.cfg,
                       self.n_train + self.n_val, TRAIN_SEED, mode="scattered")
        train, val = _split(tr, data, self.n_train, self.n_val)
        test = tr.call("testbed.generate", generate_dataset, self.cfg, self.n_test,
                       TEST_SEED, mode="scattered")
        g = rng_stream(seed, 40)
        x = g.uniform(0.0, 1.0, (BATCH_ROWS, 1))
        xi = g.uniform(0.0, 1.0, (BATCH_ROWS, self.cfg.nd))
        return Inputs(train, val, test, x, xi)

    def fit(self, inp, tr):
        model = tr.call("separated.fit", fit_separated, inp.train, self.sel,
                        self.fitc, self.sep, self.sb, self.basis, validation=inp.val)
        return model, None

    def evaluate(self, model, x, xi):
        return evaluate_separated(model, x, xi)

    def save(self, model, path):
        save_separated(model, path)

    def load(self, path):
        return load_separated(path)

    def hdmr_models(self, model):
        return [lam for _, lam in model.pairs if lam is not None]


WORKLOADS = {w.name: w for w in (DiffusionPoint(), WideScan(), NoisyRobust(),
                                 FieldScattered())}


def _dictionary_classes(nd: int, cfg: SelectionConfig) -> list[tuple[int, int]]:
    """(groups, predictors per group) of each cardinality class that
    glars_select scans; a class with no predictor at degree nolars is empty."""
    return [(comb(nd, card), comb(cfg.nolars, card))
            for card in range(1, min(cfg.ninter, nd) + 1) if cfg.nolars >= card]


def _select_hook(tr, path, args, kwargs):
    train, cfg = args[0], args[1]
    classes = _dictionary_classes(train.nd, cfg)
    steps = len(path)
    # a completed step projects r, then (r, v); a path that stops short of
    # max_groups spends one more single-vector scan finding nothing to add
    vectors = 3 * steps + (1 if steps < cfg.max_groups else 0)
    tr.count("selection.calls")
    tr.count("selection.steps", steps)
    tr.count("selection.scan_s", path.scan_seconds)
    counts = tr.counts[tr.op]
    counts["selection.dictionary_groups"] = max(counts["selection.dictionary_groups"],
                                                sum(g for g, _ in classes))
    tr.count("selection.scan_flop", vectors * sum(2 * train.nq * p * g for g, p in classes))


def _fit_hook(tr, result, args, kwargs):
    _, diag = result
    tr.count("fitting.passes", len(diag.records) - 1)
    tr.count("fitting.retained", diag.retained)


HOOKS = {"selection.select": _select_hook, "fitting.fit_hdmr": _fit_hook}
