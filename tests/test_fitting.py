import warnings
from dataclasses import replace

import numpy as np
import pytest

from hdmrfit import fitting
from hdmrfit.basis import BasisConfig, univariate_table
from hdmrfit.data import NoiseModel, SampleSet, inject_noise, rng_stream, split
from hdmrfit.fitting import (
    FitConfig,
    covariance_blocks,
    fit_basis,
    fit_cp_mode,
    fit_dense_mode,
    fit_hdmr,
    ls_solve,
    merge_train_validation,
    relative_error,
    save_diagnostics,
    wtls_solve,
)
from hdmrfit.model import (HdmrModel, _order_blocks, dense_design,
                           enumerate_dense_indices, evaluate_model, save_model)
from hdmrfit.selection import SelectionConfig, glars_select
from hdmrfit.separated import SpatialBasis, spatial_design
from hdmrfit.testbed import DiffusionConfig, generate_dataset
from oracles import (als_factor_lstsq, backfit, block_sample_covariance,
                     build_sample_covariance, cv_fit_reference, dense_mode_lstsq,
                     greedy_cp_refit, legendre_dpsi, stack_block_covariance,
                     stack_sample_covariance, wtls_denominators_dense, wtls_solve_dense)

B = BasisConfig(lo=-1.0, hi=1.0, max_order=5)


def uniform_set(nq, nd, seed=0):
    g = rng_stream(seed, 2000)
    xi = g.uniform(-1, 1, size=(nq, nd))
    return SampleSet(np.empty((nq, 0)), xi, np.zeros(nq)), univariate_table(B, xi)


def with_u(ds, u):
    return SampleSet(ds.x, ds.xi, u, ds.tag)


def test_ls_solve_matches_normal_equations():
    g = rng_stream(1, 2001)
    a = g.standard_normal((30, 4))
    y = g.standard_normal(30)
    c = ls_solve(a, y)
    assert np.allclose(a.T @ a @ c, a.T @ y, atol=1e-10)


def test_ls_solve_ridge_shrinks():
    g = rng_stream(2, 2002)
    a = g.standard_normal((30, 4))
    y = g.standard_normal(30)
    c0 = ls_solve(a, y)
    c1 = ls_solve(a, y, beta=10.0)
    assert np.linalg.norm(c1) < np.linalg.norm(c0)


def test_ls_solve_minimum_norm_on_rank_deficiency():
    a = np.ones((10, 2))  # identical columns
    y = np.full(10, 2.0)
    c = ls_solve(a, y)
    assert np.allclose(c, [1.0, 1.0], atol=1e-12)


def test_ls_solve_rejects_nonfinite():
    with pytest.raises(ValueError):
        ls_solve(np.array([[np.inf]]), np.array([1.0]))


def test_dense_mode_exact_recovery():
    ds, tab = uniform_set(400, 3)
    u = 2.0 * tab[:, 0, 1] * tab[:, 1, 1]
    cfg = FitConfig(no=3, npc=2, ninter=2)
    mode = fit_dense_mode((1, 2), with_u(ds, u), cfg, B)
    k = mode.indices.index((2, 2))
    assert mode.coeffs[k] == pytest.approx(2.0, abs=1e-10)
    others = [c for i, c in enumerate(mode.coeffs) if i != k]
    assert np.max(np.abs(others)) < 1e-10


def test_dense_mode_respects_row_weights():
    ds, tab = uniform_set(500, 2, seed=3)
    g = rng_stream(3, 2003)
    w = 0.5 + g.uniform(0, 1, size=500)
    u = w * (1.5 * tab[:, 0, 1])
    cfg = FitConfig(no=3, npc=1, ninter=1)
    mode = fit_dense_mode((1,), with_u(ds, u), cfg, B, row_weights=w)
    k = mode.indices.index((2,))
    assert mode.coeffs[k] == pytest.approx(1.5, abs=1e-10)


def test_dense_mode_rejects_oversize_group():
    ds, _ = uniform_set(50, 3)
    cfg = FitConfig(no=2, npc=1, ninter=2)
    with pytest.raises(ValueError):
        fit_dense_mode((1, 2), ds, cfg, B)


def test_cp_mode_rank_one_recovery():
    ds, tab = uniform_set(800, 4, seed=5)
    u = tab[:, 0, 1] * tab[:, 1, 1] * tab[:, 2, 1]
    cfg = FitConfig(no=3, npc=2, ninter=3, nr=2, seed=0)
    mode = fit_cp_mode((1, 2, 3), with_u(ds, u), cfg, B)
    m = HdmrModel(f0=0.0, basis=B, nd=4, no=3, ninter=3, npc=2, nr=2,
                  dense=[], cp=[mode])
    pred = evaluate_model(m, ds.xi)
    assert np.linalg.norm(pred - u) / np.linalg.norm(u) < 1e-6


def test_cp_mode_range_check():
    ds, _ = uniform_set(50, 3)
    cfg = FitConfig(no=2, npc=2, ninter=3)
    with pytest.raises(ValueError):
        fit_cp_mode((1, 2), ds, cfg, B)


def test_cp_rank_with_vanishing_factor_values_is_skipped():
    # psi_2 is zero at the midpoint of [0, 1]: with xi3 = 0.5 and no = 2
    # every factor block of dimension 3 is zero, so every rank's partial
    # products vanish; each rank is skipped with a warning and zero factors
    basis = BasisConfig(lo=0.0, hi=1.0, max_order=3)
    g = rng_stream(61, 1)
    xi = g.uniform(0.0, 1.0, size=(200, 3))
    xi[:, 2] = 0.5
    ds = SampleSet(np.empty((200, 0)), xi,
                   xi[:, 0] * xi[:, 1] + 0.1 * g.standard_normal(200))
    cfg = FitConfig(no=2, npc=2, ninter=3, nr=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mode = fit_cp_mode((1, 2, 3), ds, cfg, basis)
    assert [str(w.message).endswith("skipping this rank") for w in caught] == [True] * 2
    assert mode.factors.shape == (2, 3, 1) and not mode.factors.any()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model, _ = fit_hdmr(ds, None, [(1,), (1, 2, 3)], cfg, basis)
    assert len(caught) == 2
    assert [m.dims for m in model.cp] == [(1, 2, 3)] and not model.cp[0].factors.any()
    dense_only, _ = fit_hdmr(ds, None, [(1,)], cfg, basis)
    assert np.array_equal(evaluate_model(model, xi), evaluate_model(dense_only, xi))


@pytest.mark.parametrize("beta", [0.0, 0.05])
def test_cp_sweep_gives_a_vanished_rank_zero_factors(beta):
    # rank 2 is all zero, so its columns in every dimension's solve are zero:
    # it stays exactly zero and rank 1 is swept as if it were alone
    ds, tab = uniform_set(300, 3, seed=62)
    g = rng_stream(62, 1)
    w = g.uniform(0.5, 1.5, 300)
    u = tab[:, 0, 1] * tab[:, 1, 2] * tab[:, 2, 1] + 0.05 * g.standard_normal(300)
    # the sweep reads each dimension's block as (orders, rows)
    blocks = _order_blocks(tab, (1, 2, 3), 4)
    factors = np.zeros((2, 3, 3))
    factors[0] = g.uniform(-1.0, 1.0, (3, 3))
    swept = fitting._cp_sweep(u, blocks, factors, w, beta)[0]
    assert not swept[1].any()
    alone = fitting._cp_sweep(u, blocks, factors[:1], w, beta)[0]
    assert _rel(swept[:1], alone) < 1e-12


def test_cp_mode_on_zero_values_is_zero_without_warnings():
    ds, _ = uniform_set(200, 3, seed=63)
    cfg = FitConfig(no=3, npc=2, ninter=3, nr=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mode = fit_cp_mode((1, 2, 3), ds, cfg, B)
    assert caught == []
    assert mode.factors.shape == (2, 3, 2) and not mode.factors.any()


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("beta", [0.0, 0.05])
def test_cp_mode_matches_greedy_lstsq_oracle(beta, weighted):
    # a CP mode's entry fit is greedy rank-by-rank ALS: each rank's
    # one-rank joint sweeps match the oracle's per-factor lstsq
    ds, tab = uniform_set(400, 4, seed=47)
    g = rng_stream(47, 1)
    w = g.uniform(0.5, 1.5, 400) if weighted else None
    u = (tab[:, 0, 1] * tab[:, 1, 2] * tab[:, 3, 1]
         + 0.5 * tab[:, 0, 2] * tab[:, 1, 1] * tab[:, 3, 3]
         + 0.05 * g.standard_normal(400))
    dims = (1, 2, 4)
    cfg = FitConfig(no=4, npc=2, ninter=3, nr=3, beta=beta, seed=3)
    mode = fit_cp_mode(dims, with_u(ds, u), cfg, B, row_weights=w)
    fit_tab = univariate_table(fit_basis(B, cfg), ds.xi)
    ref = greedy_cp_refit(dims, u, [fit_tab[:, d - 1, 1:cfg.no] for d in dims], cfg, w)
    assert np.all(np.linalg.norm(ref, axis=(1, 2)) > 0)
    assert _rel(mode.factors, ref) < 1e-8


def test_fit_hdmr_sparse_truth_cv_stopping():
    ds, tab = uniform_set(600, 4, seed=7)
    u = 2 * tab[:, 0, 1] + tab[:, 1, 1] * tab[:, 2, 1]
    train = with_u(ds, u)
    vs, vtab = uniform_set(150, 4, seed=8)
    uv = 2 * vtab[:, 0, 1] + vtab[:, 1, 1] * vtab[:, 2, 1]
    val = with_u(vs, uv)
    path = glars_select(train, SelectionConfig(nolars=3, ninter=2, max_groups=8), B)
    cfg = FitConfig(no=3, npc=2, ninter=2, seed=0)
    model, diag = fit_hdmr(train, val, path, cfg, B)
    test = with_u(vs, uv).retag("test")
    assert relative_error(model, test) < 1e-8
    assert diag.retained >= 2
    assert len(diag.records) == len(path) + 1 or diag.records[-1].cv_eps >= 0


def test_fit_hdmr_accepts_plain_group_list():
    ds, tab = uniform_set(300, 3, seed=9)
    u = tab[:, 0, 1]
    model, diag = fit_hdmr(with_u(ds, u), None, [(1,)],
                           FitConfig(no=3, npc=1, ninter=1), B)
    assert relative_error(model, with_u(ds, u).retag("test")) < 1e-10
    assert diag.retained == 1


def test_fit_hdmr_without_validation_fits_every_group():
    ds, tab = uniform_set(200, 3, seed=10)
    u = tab[:, 0, 1] + tab[:, 1, 1]
    model, diag = fit_hdmr(with_u(ds, u), None, [(1,), (2,)],
                           FitConfig(no=3, npc=1, ninter=1), B)
    assert diag.retained == 2


def test_fit_hdmr_rejects_a_path_that_repeats_a_group():
    ds, tab = uniform_set(100, 2, seed=10)
    with pytest.raises(ValueError, match=r"^group \(1,\) appears twice in the path$"):
        fit_hdmr(with_u(ds, tab[:, 0, 1]), None, [(1,), (2,), (1,)],
                 FitConfig(no=3, npc=1, ninter=1), B)


def test_fit_hdmr_rejects_ninter_above_the_dimension_count_before_any_pass():
    # groups of three dims on two: rejected before the path is read
    ds, tab = uniform_set(100, 2, seed=10)
    vs, vtab = uniform_set(30, 2, seed=11)
    read = []

    def path():
        for dims in [(1,), (2,), (1, 2)]:
            read.append(dims)
            yield dims

    cfg = FitConfig(no=3, npc=2, ninter=3)
    for val in (None, with_u(vs, vtab[:, 0, 1])):
        with pytest.raises(ValueError, match=r"^ninter=3 exceeds the rows' stochastic "
                                             r"dimension count Nd=2$"):
            fit_hdmr(with_u(ds, tab[:, 0, 1]), val, path(), cfg, B)
    assert read == []


@pytest.mark.parametrize("groups, cfg, dim", [
    ([(1,), (2, 3, 4)], FitConfig(no=3, npc=1, ninter=3), 4),
    ([(3, 4)], FitConfig(no=3, npc=2, ninter=2), 4),
    ([(0,)], FitConfig(no=3, npc=1, ninter=1), 0),
])
def test_a_group_outside_the_rows_dims_is_rejected_on_entry(monkeypatch, groups, cfg,
                                                            dim):
    # on 3 stochastic columns: the group is rejected before its table
    # columns are evaluated; only the groups before it evaluated theirs
    ds, tab = uniform_set(60, 3, seed=26)
    tables = _counting(monkeypatch, "univariate_table")
    with pytest.raises(ValueError, match=rf"^dim {dim} of .* is not in 1\.\.Nd=3$"):
        fit_hdmr(with_u(ds, tab[:, 0, 1]), None, groups, cfg, B)
    before = {d for g in groups[:-1] for d in g}
    assert sum(args[1].shape[1] for args in tables) == len(before)


def test_final_refit_continues_the_cp_modes_without_a_new_entry(monkeypatch):
    # the kept CP mode keeps the factors the passes left: every greedy
    # entry (_cp_factors) is a pass's, and the final refit is one round of
    # update sweeps, whose record is diag.refit
    train, val, groups, _ = _noisy_cv_instance()
    cfg = FitConfig(no=3, npc=2, ninter=3, seed=0)
    entries = _counting(monkeypatch, "_cp_factors")
    sweeps = []
    update_sweeps = fitting._update_sweeps

    def recording(*args):
        sweeps.append(update_sweeps(*args))
        return sweeps[-1]

    monkeypatch.setattr(fitting, "_update_sweeps", recording)
    model, diag = fit_hdmr(train, val, groups, cfg, B)
    assert [m.dims for m in model.cp] == [(2, 3, 4)]
    assert [args[0] for args in entries] \
        == [rec.dims for rec in diag.records[1:] if len(rec.dims) > cfg.npc]
    assert [s[1] for s in sweeps[:-1]] == [rec.update_sweeps for rec in diag.records[1:]]
    assert sweeps[-1] == (diag.refit.train_residual_norm, diag.refit.update_sweeps)
    assert (diag.refit.s, diag.refit.dims) == (diag.retained, None)


def test_fit_hdmr_with_zero_validation_values_fits_every_group():
    ds, tab = uniform_set(200, 3, seed=10)
    vs, _ = uniform_set(50, 3, seed=11)
    u = tab[:, 0, 1] + tab[:, 1, 1]
    groups = [(1,), (2,), (3,)]
    with pytest.warns(UserWarning, match="validation values are identically zero: "
                                         "no early stopping"):
        _, diag = fit_hdmr(with_u(ds, u), vs, groups, FitConfig(no=3, npc=1, ninter=1), B)
    assert diag.retained == len(groups)
    assert all(np.isnan(rec.cv_eps) for rec in diag.records)


# about 1.5e-170: the squares of such values underflow to 0.0, and a power
# of two scales every least-squares step exactly
_TINY_SCALE = 2.0**-565


def _smooth(tab):
    return 1.0 + tab[:, 0, 1] + 0.5 * tab[:, 1, 2] + 0.1 * tab[:, 2, 1]


def test_tiny_validation_values_stop_the_passes_as_at_unit_scale():
    ds, tab = uniform_set(120, 3, seed=20)
    vs, vtab = uniform_set(20, 3, seed=21)
    groups = [(1,), (2,), (3,), (1, 2), (2, 3), (1, 3)]
    cfg = FitConfig(no=3, npc=2, ninter=2)
    # a fixed component outside every group's span, so that the pair groups
    # fit it and the validation error rises by far more than rounding: the
    # data, not the arithmetic, stop the passes
    u = _smooth(tab) + 0.05 * rng_stream(20, 1).standard_normal(120)
    _, ref = fit_hdmr(with_u(ds, u), with_u(vs, _smooth(vtab)), groups, cfg, B)
    val = with_u(vs, _TINY_SCALE * _smooth(vtab))
    assert np.linalg.norm(val.u) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, diag = fit_hdmr(with_u(ds, _TINY_SCALE * u), val, groups, cfg, B)
    assert diag.retained == ref.retained < len(groups)
    assert len(diag.records) == len(ref.records) < len(groups) + 1
    assert [r.cv_eps for r in diag.records] \
        == pytest.approx([r.cv_eps for r in ref.records], rel=1e-12)


def test_relative_error_of_tiny_values_is_that_at_unit_scale():
    ds, tab = uniform_set(100, 3, seed=22)
    test, ttab = uniform_set(20, 3, seed=23)
    cfg = FitConfig(no=3, npc=1, ninter=1)
    model, _ = fit_hdmr(with_u(ds, _smooth(tab)), None, [(1,)], cfg, B)
    ut = with_u(test, _smooth(ttab))
    eps = relative_error(model, ut)
    # ordinary values keep the plain ratio, bit for bit
    assert eps == float(np.linalg.norm(ut.u - evaluate_model(model, ut.xi))
                        / np.linalg.norm(ut.u))
    tiny, _ = fit_hdmr(with_u(ds, _TINY_SCALE * _smooth(tab)), None, [(1,)], cfg, B)
    tiny_test = with_u(test, _TINY_SCALE * _smooth(ttab))
    assert np.linalg.norm(tiny_test.u) == 0.0
    assert 0.0 < eps == pytest.approx(relative_error(tiny, tiny_test), rel=1e-12)
    with pytest.raises(ValueError, match="identically zero"):
        relative_error(model, with_u(test, np.zeros(20)))


def test_fit_hdmr_on_tiny_rows_keeps_the_unit_scale_groups():
    # a tiny response selects its unit-scale path, and the dense-only passes
    # keep the same groups
    ds, tab = uniform_set(100, 3, seed=24)
    vs, vtab = uniform_set(25, 3, seed=25)
    sel = SelectionConfig(nolars=3, ninter=2, max_groups=8)
    cfg = FitConfig(no=3, npc=2, ninter=2)
    kept = []
    for scale in (1.0, _TINY_SCALE):
        train, val = with_u(ds, scale * _smooth(tab)), with_u(vs, scale * _smooth(vtab))
        path = glars_select(train, sel, B)
        model, diag = fit_hdmr(train, val, path, cfg, B)
        assert diag.retained > 0 and model.cp == []
        kept.append((path.groups(), diag.retained, [m.dims for m in model.dense]))
    assert kept[0] == kept[1]


def test_cp_passes_on_tiny_rows_run_the_unit_scale_sweeps():
    # the rank fits stop on residual norms, whose squares underflow at
    # 1e-170: the passes run the unit-scale fits and record the unit-scale
    # norms, scaled
    ds, tab = uniform_set(300, 4, seed=30)
    u = (1.0 + tab[:, 0, 1] + tab[:, 0, 1] * tab[:, 1, 2] * tab[:, 2, 1]
         + 0.5 * tab[:, 1, 1] * tab[:, 2, 2] * tab[:, 3, 1])
    groups = [(1,), (1, 2, 3), (2, 3, 4)]
    cfg = FitConfig(no=3, npc=2, ninter=3, nr=2)
    runs = []
    for scale in (1.0, _TINY_SCALE):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, diag = fit_hdmr(with_u(ds, scale * u), None, groups, cfg, B)
        runs.append(diag.records)
    unit, tiny = runs
    assert [r.update_sweeps for r in tiny] == [r.update_sweeps for r in unit] \
        == [0, 0, fitting._MAX_UPDATE_SWEEPS, fitting._MAX_UPDATE_SWEEPS]
    # the last pass fits u exactly, to a rounding-level residual
    assert [r.train_residual_norm / _TINY_SCALE for r in tiny[:-1]] \
        == pytest.approx([r.train_residual_norm for r in unit[:-1]], rel=1e-12)
    assert 0.0 < tiny[-1].train_residual_norm


def _weighted_parts(n_train, n_val, seed):
    # train and validation rows of a target with a three-dim interaction,
    # both parts row-weighted
    g = rng_stream(seed, 1)
    parts = []
    for n, key in ((n_train, seed), (n_val, seed + 1)):
        ds, t = uniform_set(n, 4, seed=key)
        w = g.uniform(0.5, 1.5, n)
        u = w * (1.0 + t[:, 0, 1] + 0.5 * t[:, 0, 1] * t[:, 1, 2]
                 + 0.4 * t[:, 1, 1] * t[:, 2, 1] * t[:, 3, 2]) + 0.1 * g.standard_normal(n)
        parts.append((with_u(ds, u), w))
    return parts


def test_each_cv_pass_is_the_validation_free_fit_of_its_prefix():
    (train, w), (val, wv) = _weighted_parts(151, 79, seed=60)
    groups = [(1,), (2, 3, 4), (1, 2), (3,), (2,), (1, 3), (4,), (2, 4), (1, 4), (3, 4)]
    cfg = FitConfig(no=3, npc=2, ninter=3, nr=1, seed=0)
    _, diag = fit_hdmr(train, val, groups, cfg, B, row_weights=w, val_row_weights=wv)
    # validation stopped the passes, after the CP mode entered
    assert (2, 3, 4) in [rec.dims for rec in diag.records] and len(diag.records) < len(groups)
    for rec in diag.records:
        model_s, ref = fit_hdmr(train, None, groups[: rec.s], cfg, B, row_weights=w)
        last = ref.records[-1]
        assert (rec.s, rec.dims, rec.train_residual_norm, rec.update_sweeps) \
            == (last.s, last.dims, last.train_residual_norm, last.update_sweeps)
        eps = (np.linalg.norm(val.u - wv * evaluate_model(model_s, val.xi))
               / np.linalg.norm(val.u))
        assert rec.cv_eps == pytest.approx(eps, rel=1e-12, abs=0.0)


def test_every_pass_with_a_cp_mode_runs_the_full_sweep_count():
    # the CV passes of this instance settle within a few sweeps, and still
    # run all of them; the final refit too, while passes without a CP mode
    # are one solve and run none
    (train, w), (val, wv) = _weighted_parts(151, 79, seed=60)
    groups = [(1,), (2, 3, 4), (1, 2), (3,), (2,), (1, 3), (4,), (2, 4), (1, 4), (3, 4)]
    cfg = FitConfig(no=3, npc=2, ninter=3, nr=1, seed=0)
    _, diag = fit_hdmr(train, val, groups, cfg, B, row_weights=w, val_row_weights=wv)

    full = fitting._MAX_UPDATE_SWEEPS

    def expected(s):
        return full if any(len(g) > cfg.npc for g in groups[:s]) else 0

    assert [r.update_sweeps for r in diag.records] == [expected(r.s) for r in diag.records]
    assert {r.update_sweeps for r in diag.records} == {0, full}
    assert diag.refit.update_sweeps == expected(diag.retained) == full


def test_zero_validation_fallback_is_the_fit_on_merged_rows(tmp_path):
    (train, w), (val, wv) = _weighted_parts(150, 60, seed=46)
    val = with_u(val, np.zeros(60))
    groups = [(1,), (1, 2), (2, 3, 4), (3,)]
    cfg = FitConfig(no=3, npc=2, ninter=3, nr=2, seed=0)
    read = []

    def path():
        for dims in groups:
            read.append(dims)
            yield dims

    with pytest.warns(UserWarning, match="validation values are identically zero"):
        model, diag = fit_hdmr(train, val, path(), cfg, B, row_weights=w,
                               val_row_weights=wv)
    merged, w_c = merge_train_validation(train, val, w, wv)
    ref, ref_diag = fit_hdmr(merged, None, groups, cfg, B, row_weights=w_c)
    assert read == groups and diag.retained == ref_diag.retained == len(groups)
    # its passes are those of the fit on the merged rows, and there is no
    # separate final refit
    assert [(r.s, r.dims, r.train_residual_norm, r.update_sweeps) for r in diag.records] \
        == [(r.s, r.dims, r.train_residual_norm, r.update_sweeps) for r in ref_diag.records]
    assert diag.refit is None
    save_model(model, tmp_path / "fallback.json")
    save_model(ref, tmp_path / "ref.json")
    assert (tmp_path / "fallback.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize("weighted", [False, True])
def test_fit_hdmr_with_validation_is_refit_of_retained_on_merged_rows(tmp_path,
                                                                      weighted):
    # the final refit continues the retained groups on train plus
    # validation from the factors the passes left: with a CP mode kept it is
    # the lstsq continuation oracle's fit up to rounding, and without one
    # (ninter = 2) it is, byte for byte, a fit of the retained groups on the
    # merged rows with no validation rows
    ds, tab = uniform_set(150, 4, seed=22)
    vs, vtab = uniform_set(80, 4, seed=23)
    g = rng_stream(22, 1)

    def truth(t, n):
        return (2 * t[:, 0, 1] + t[:, 1, 1] * t[:, 2, 1]
                + t[:, 0, 1] * t[:, 1, 1] * t[:, 3, 1] + 0.3 * g.standard_normal(n))

    train, val = with_u(ds, truth(tab, 150)), with_u(vs, truth(vtab, 80))
    kw = {}
    if weighted:
        kw = dict(row_weights=g.uniform(0.5, 1.5, 150),
                  val_row_weights=g.uniform(0.5, 1.5, 80))
    groups = [(1,), (2, 3), (1, 2, 4), (4,), (2,), (1, 3), (3, 4), (1, 4), (2, 4), (3,)]
    cfg = FitConfig(no=3, npc=2, ninter=3, nr=2, seed=0)
    model, diag = fit_hdmr(train, val, groups, cfg, B, **kw)
    # CV stopped early, and the kept groups include the CP mode (1, 2, 4)
    assert len(diag.records) <= len(groups) and diag.retained >= 3
    assert [m.dims for m in model.cp] == [(1, 2, 4)]
    ref, _, (rnorm, sweeps) = cv_fit_reference(train, val, groups, cfg, B, **kw)
    assert (diag.refit.s, diag.refit.dims, diag.refit.update_sweeps) \
        == (diag.retained, None, sweeps) and sweeps == fitting._MAX_UPDATE_SWEEPS
    assert diag.refit.train_residual_norm == pytest.approx(rnorm, rel=1e-12)
    assert [m.dims for m in model.dense] == [m.dims for m in ref.dense]
    assert [m.dims for m in model.cp] == [m.dims for m in ref.cp]
    assert model.f0 == pytest.approx(ref.f0, rel=1e-10)
    assert all(_rel(a.coeffs, b.coeffs) < 1e-10 for a, b in zip(model.dense, ref.dense))
    assert all(_rel(a.factors, b.factors) < 1e-10 for a, b in zip(model.cp, ref.cp))

    dense_cfg = replace(cfg, ninter=2)
    dense_groups = [dims for dims in groups if len(dims) <= 2]
    model, diag = fit_hdmr(train, val, dense_groups, dense_cfg, B, **kw)
    assert diag.retained >= 2 and diag.refit.update_sweeps == 0
    merged, w = merge_train_validation(train, val, kw.get("row_weights"),
                                       kw.get("val_row_weights"))
    ref, ref_diag = fit_hdmr(merged, None, dense_groups[: diag.retained], dense_cfg, B,
                             row_weights=w)
    assert diag.refit.train_residual_norm == ref_diag.records[-1].train_residual_norm
    save_model(model, tmp_path / "cv.json")
    save_model(ref, tmp_path / "ref.json")
    assert (tmp_path / "cv.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_fit_hdmr_mean_estimation():
    ds, tab = uniform_set(400, 3, seed=11)
    u = 3.25 + tab[:, 0, 1]
    model, _ = fit_hdmr(with_u(ds, u), None, [(1,)],
                        FitConfig(no=3, npc=1, ninter=1), B)
    assert model.f0 == pytest.approx(3.25, abs=1e-10)


def test_update_sweeps_help_correlated_modes(monkeypatch):
    # a rank-2 CP mode on (1, 2) overlapping the dense mode on (1,): the
    # update sweeps alternate the dense solve with the CP sweeps, and only
    # they untangle the two
    ds, tab = uniform_set(500, 3, seed=12)
    u = tab[:, 0, 1] + tab[:, 0, 1] * tab[:, 1, 1] + 0.3 * tab[:, 0, 2] * tab[:, 1, 2]
    groups = [(1,), (1, 2)]
    cfg = FitConfig(no=3, npc=1, ninter=2)
    m1, diag = fit_hdmr(with_u(ds, u), None, groups, cfg, B)
    assert [m.dims for m in m1.cp] == [(1, 2)]
    sweeps = [rec.update_sweeps for rec in diag.records]
    assert sweeps == [0, 0, fitting._MAX_UPDATE_SWEEPS]
    # baseline without update sweeps: the CP mode keeps its greedy entry fit
    monkeypatch.setattr(fitting, "_MAX_UPDATE_SWEEPS", 0)
    m0, diag0 = fit_hdmr(with_u(ds, u), None, groups, cfg, B)
    assert [rec.update_sweeps for rec in diag0.records] == [0, 0, 0]
    t = with_u(ds, u).retag("test")
    swept, unswept = relative_error(m1, t), relative_error(m0, t)
    assert swept < unswept
    # the swept fit recovers the target to rounding; the entry fit alone is
    # about 0.11 off
    assert swept < 1e-10 and unswept > 0.05


def test_relative_error_zero_truth_rejected():
    ds, _ = uniform_set(50, 2, seed=14)
    m, _ = fit_hdmr(with_u(ds, np.ones(50)), None, [],
                    FitConfig(no=2, npc=1, ninter=1), B)
    with pytest.raises(ValueError):
        relative_error(m, with_u(ds, np.zeros(50)).retag("test"))


def test_diagnostics_csv(tmp_path):
    ds, tab = uniform_set(300, 3, seed=15)
    u = tab[:, 0, 1] + 0.5 * tab[:, 1, 1] + 0.3 * tab[:, 0, 1] * tab[:, 1, 2] * tab[:, 2, 1]
    _, diag = fit_hdmr(with_u(ds, u), None, [(1,), (2,), (1, 2, 3)],
                       FitConfig(no=3, npc=1, ninter=3), B)
    p = tmp_path / "diag.csv"
    save_diagnostics(diag, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "pass,dims,train_residual_norm,cv_eps,update_sweeps"
    assert len(lines) == len(diag.records) + 1
    assert lines[1].split(",")[1] == ""  # pass 0 has no group
    sweeps = [int(ln.split(",")[-1]) for ln in lines[1:]]
    assert sweeps == [rec.update_sweeps for rec in diag.records]
    # passes without a CP mode are one solve of the dense block and run no
    # update sweep; the pass the CP mode enters runs all of them
    assert sweeps == [0, 0, 0, fitting._MAX_UPDATE_SWEEPS]


def test_covariance_block_pinned_example():
    lam = build_sample_covariance(np.array([0.3]), (1,), [(2,)],
                                  NoiseModel(s=0.0, s_u=0.2), 2.0, B)
    assert lam.shape == (2, 2)
    assert lam[1, 1] == pytest.approx(0.16)
    assert np.all(lam[:1, :1] == 0)


def test_covariance_block_coordinate_part():
    # single predictor psi_2 on dim 1: derivative row gives s^2 psi_2'(xi)^2
    xi = np.array([0.4, -0.2])
    lam = build_sample_covariance(xi, (1,), [(2,)],
                                  NoiseModel(s=0.1, s_u=0.0), 1.0, B)
    d = legendre_dpsi(B, 2, 0.4)
    assert lam[0, 0] == pytest.approx(0.01 * d * d, rel=1e-12)
    assert lam[1, 1] == 0.0


def test_covariance_blocks_match_per_sample():
    ds, _ = uniform_set(20, 3, seed=16)
    u = np.linspace(1, 2, 20)
    nm = NoiseModel(s=0.05, s_u=0.1)
    # one group, and a block whose groups (2,) and (1, 2) share dim 2
    for block in ([((2,), [(2,), (3,)])],
                  [((1, 2, 3), enumerate_dense_indices((1, 2, 3), 4))],
                  [((2,), [(2,), (3,)]), ((1, 2), enumerate_dense_indices((1, 2), 4)),
                   ((3,), [(2,)])]):
        blocks = covariance_blocks(ds, block, nm, B, u)
        p = sum(len(idx) for _, idx in block)
        assert blocks.jac.shape == (20, p, len({d for dims, _ in block for d in dims}))
        for q in (0, 7, 19):
            lam = block_sample_covariance(ds.xi[q], block, nm, u[q], B)
            jac = blocks.jac[q]
            dense = np.zeros((p + 1, p + 1))
            dense[:-1, :-1] = jac @ jac.T
            dense[-1, -1] = blocks.value_var[q]
            assert np.max(np.abs(dense - lam)) <= 1e-12 * np.max(np.abs(lam))


@pytest.mark.parametrize("groups,nu,match", [
    ([((0,), [(2,)])], 20, r"dim 0 of \(0,\)"),
    ([((1, 2), [(2,)])], 20, r"group \(1, 2\)"),
    ([((4,), [(2,)])], 20, r"dim 4 of \(4,\)"),
    ([((1,), [(2,), (7,)])], 20, r"group \(1,\)"),
    ([((2,), [(1,)])], 20, r"group \(2,\)"),
    ([((2,), [(2,)])], 5, "u_ref"),
], ids=["dim-0", "short-index", "dim-past-nd", "order-past-max", "order-1", "u_ref"])
def test_covariance_blocks_rejects_bad_groups(groups, nu, match):
    # 20 rows, 3 dims, max_order 5: each group must be sorted dims in 1..3
    # with one order in 2..5 per dim, and u_ref one value per row
    ds, _ = uniform_set(20, 3, seed=16)
    with pytest.raises(ValueError, match=match):
        covariance_blocks(ds, groups, NoiseModel(s=0.05, s_u=0.1), B, np.ones(nu))


@pytest.mark.parametrize("s,s_u", [(0.05, 0.1), (0.0, 0.1), (0.05, 0.0)])
@pytest.mark.parametrize("dims", [(2,), (1, 3)])
def test_factored_denominators_match_dense_oracle(s, s_u, dims):
    ds, _ = uniform_set(40, 3, seed=19)
    u_ref = np.linspace(-1.5, 2.0, 40)
    nm = NoiseModel(s=s, s_u=s_u)
    idx = enumerate_dense_indices(dims, 4)
    blocks = covariance_blocks(ds, [(dims, idx)], nm, B, u_ref)
    assert blocks.jac.shape == (40, len(idx), len(dims))
    lam = stack_sample_covariance(ds, dims, idx, nm, B, u_ref=u_ref)
    g = rng_stream(19, 1)
    for _ in range(3):
        c = g.standard_normal(len(idx))
        ref = wtls_denominators_dense(lam, c)
        assert _rel(fitting._wtls_denominator(blocks)(c), ref) < 1e-12


def test_wtls_solve_matches_dense_oracle_on_pair_group():
    ds, tab = uniform_set(300, 3, seed=20)
    nm = NoiseModel(s=0.02, s_u=0.15)
    idx = enumerate_dense_indices((1, 3), 4)
    clean = 1.0 + tab[:, 0, 1] * tab[:, 2, 2] + 0.3 * tab[:, 0, 2]
    noisy = inject_noise(with_u(ds, clean), nm, seed=6)
    psi = dense_design(univariate_table(B, noisy.xi), (1, 3), idx)
    blocks = covariance_blocks(noisy, [((1, 3), idx)], nm, B, noisy.u)
    lam = stack_sample_covariance(noisy, (1, 3), idx, nm, B)
    c_ls = ls_solve(psi, noisy.u)
    c_ref = wtls_solve_dense(psi, noisy.u, lam, c0=c_ls)
    assert _rel(c_ref, c_ls) > 1e-6   # the weights move the solution
    assert _rel(wtls_solve(psi, noisy.u, blocks, c0=c_ls), c_ref) < 1e-12


def test_robust_dense_mode_weights_by_its_own_prediction():
    # the value-noise variance comes from the least-squares prediction
    # psi c_ls, not from the fitted values train.u, which here carry an
    # offset and a dim-1 term the mode cannot fit
    ds, tab = uniform_set(250, 2, seed=21)
    nm = NoiseModel(s=0.01, s_u=0.2)
    idx = enumerate_dense_indices((2,), 4)
    g = rng_stream(21, 1)
    r = (2.0 + 0.5 * tab[:, 0, 1] + 0.8 * tab[:, 1, 1] - 0.2 * tab[:, 1, 3]
         + 0.05 * g.standard_normal(250))
    train = with_u(ds, r)
    cfg = FitConfig(no=4, npc=2, robust=True, noise=nm)
    mode = fit_dense_mode((2,), train, cfg, B)
    psi = dense_design(tab, (2,), idx)
    c_ls = dense_mode_lstsq(tab, (2,), idx, np.ones(250), r, 0.0)
    lam = stack_sample_covariance(train, (2,), idx, nm, B, u_ref=psi @ c_ls)
    c_ref = wtls_solve_dense(psi, r, lam, c0=c_ls)
    assert _rel(c_ref, c_ls) > 1e-6
    assert _rel(mode.coeffs, c_ref) < 1e-12
    # weighting by train.u instead gives a different fit
    by_u = wtls_solve_dense(psi, r, stack_sample_covariance(train, (2,), idx, nm, B),
                            c0=c_ls)
    assert _rel(mode.coeffs, by_u) > 1e-6


def test_robust_fit_rejects_row_weights():
    # weighted TLS covers plain rows only; a row-weighted fit would silently
    # be least squares
    ds, tab = uniform_set(100, 2, seed=24)
    train = with_u(ds, tab[:, 0, 1] + 0.5 * tab[:, 1, 2])
    vs, vtab = uniform_set(40, 2, seed=25)
    val = with_u(vs, vtab[:, 0, 1] + 0.5 * vtab[:, 1, 2])
    cfg = FitConfig(no=3, npc=2, robust=True, noise=NoiseModel(s=0.01, s_u=0.1))
    w = np.full(100, 0.5)
    with pytest.raises(ValueError, match="row-weighted"):
        fit_hdmr(train, None, [(1,), (2,)], cfg, B, row_weights=w)
    with pytest.raises(ValueError, match="row-weighted"):
        fit_hdmr(train, val, [(1,), (2,)], cfg, B, val_row_weights=np.ones(40))
    with pytest.raises(ValueError, match="row-weighted"):
        fit_dense_mode((1,), train, cfg, B, row_weights=w)
    # the plain-row robust fit itself runs
    fit_dense_mode((1,), train, cfg, B)


@pytest.mark.parametrize("n", [79, 1])
def test_row_weights_of_wrong_length_are_rejected(n):
    # one rule at every row-weighted entry point, whose message names the
    # weight count and the row count
    ds, tab = uniform_set(80, 3, seed=26)
    train = with_u(ds, tab[:, 0, 1] + tab[:, 1, 1] * tab[:, 2, 2])
    vs, vtab = uniform_set(80, 3, seed=27)
    val = with_u(vs, vtab[:, 0, 1] + vtab[:, 1, 1] * vtab[:, 2, 2])
    cfg = FitConfig(no=3, npc=1, ninter=2, nr=1)
    w = np.ones(n)
    calls = [
        lambda: glars_select(train, SelectionConfig(nolars=2, ninter=2), B,
                             row_weights=w),
        lambda: fit_hdmr(train, None, [(1,)], cfg, B, row_weights=w),
        lambda: fit_hdmr(train, val, [(1,)], cfg, B, val_row_weights=w),
        lambda: fit_dense_mode((1,), train, cfg, B, row_weights=w),
        lambda: fit_cp_mode((1, 2), train, cfg, B, row_weights=w),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=rf"^row weights: {n} for 80 rows$"):
            call()


def test_wtls_zero_noise_equals_ls():
    ds, tab = uniform_set(200, 2, seed=17)
    u = 1.2 * tab[:, 0, 1] - 0.4 * tab[:, 0, 2]
    psi = dense_design(tab, (1,), [(2,), (3,)])
    blocks = covariance_blocks(ds, [((1,), [(2,), (3,)])], NoiseModel(), B, u)
    c_ls = ls_solve(psi, u)
    c_w = wtls_solve(psi, u, blocks)
    assert np.max(np.abs(c_ls - c_w)) < 1e-8


def _noisy_wtls_instance():
    """(design, values, covariance blocks, the WTLS objective) of a noisy
    one-dimensional fit, the objective from the dense covariance oracle."""
    ds, tab = uniform_set(300, 2, seed=18)
    nm = NoiseModel(s=0.02, s_u=0.15)
    noisy = inject_noise(with_u(ds, 1.0 + tab[:, 0, 1]), nm, seed=5)
    psi = dense_design(univariate_table(B, noisy.xi), (1,), [(2,), (3,)])
    blocks = covariance_blocks(noisy, [((1,), [(2,), (3,)])], nm, B, noisy.u)
    lam = stack_sample_covariance(noisy, (1,), [(2,), (3,)], nm, B)

    def rho2(c):
        e = psi @ c - noisy.u
        return float(np.sum(e * e / wtls_denominators_dense(lam, c)))

    return psi, noisy.u, blocks, rho2


def test_wtls_objective_not_above_ls_start():
    psi, u, blocks, rho2 = _noisy_wtls_instance()
    c_ls = ls_solve(psi, u)
    c_w = wtls_solve(psi, u, blocks, c0=c_ls)
    assert rho2(c_w) <= rho2(c_ls) * (1 + 1e-10)


def test_wtls_at_its_iteration_cap_warns_and_returns_the_best_iterate(monkeypatch):
    psi, u, blocks, rho2 = _noisy_wtls_instance()
    monkeypatch.setattr(fitting, "_WTLS_MAX_ITER", 1)
    c_ls = ls_solve(psi, u)
    with pytest.warns(UserWarning, match="^weighted TLS did not converge; "
                                         "returning best iterate$"):
        c_w = wtls_solve(psi, u, blocks, c0=c_ls)
    assert rho2(c_w) <= rho2(c_ls) * (1 + 1e-10)


def test_wtls_backtracking_stops_once_the_step_cannot_move_c(monkeypatch):
    # rows fitted to 1e-9 relative by coefficients of size 1e3, and a
    # proposal pointing away from the minimum: every step that moves c
    # raises the objective by more than the 1e-12 acceptance margin. Without
    # a floor the halvings run on to steps that move c only by rounding,
    # where the objective's own rounding (about 1e-8 relative here) decides
    # acceptance. They stop once the step moves c by at most eps ||c||, and
    # c stays where it is.
    g = rng_stream(80, 1)
    psi = g.standard_normal((200, 6))
    c0 = 1e3 * g.standard_normal(6)
    r = psi @ c0 + 1e-6 * g.standard_normal(200)
    blocks = fitting.CovarianceBlocks(np.zeros((200, 6, 1)), np.full(200, 1e-4))
    delta = c0 - ls_solve(psi, r)
    monkeypatch.setattr(fitting, "_gram_solve", lambda *args: c0 + delta)
    made = fitting._wtls_denominator
    seen = []

    def counting(blocks):
        denom = made(blocks)

        def wrapped(c):
            seen.append(c.copy())
            return denom(c)
        return wrapped

    monkeypatch.setattr(fitting, "_wtls_denominator", counting)
    c = wtls_solve(psi, r, blocks, c0=c0)
    assert np.array_equal(c, c0)
    floor = np.finfo(float).eps * np.linalg.norm(c0)
    halvings = sum(0.5 ** k * np.linalg.norm(delta) > floor for k in range(30))
    assert 10 < halvings < 30
    assert len(seen) == 1 + halvings   # the start, then one per halving
    denom = made(blocks)

    def rho2(c):
        return float(np.sum((psi @ c - r) ** 2 / denom(c)))

    assert all(rho2(t) > rho2(c0) * (1 + 1e-12) for t in seen[1:])


def test_wtls_beats_ls_under_coordinate_noise():
    # noisy coordinates hit high-degree columns hardest near the domain
    # edges where their derivatives blow up; the covariance-weighted fit
    # downweights those rows and recovers coefficients far better
    hb = BasisConfig(lo=0.0, hi=1.0, max_order=9)
    idx = [(a,) for a in range(2, 10)]
    truth = np.zeros(8)
    truth[-1] = 1.0
    truth[2] = 0.5
    wins = 0
    for seed in range(10):
        g = rng_stream(seed, 2200)
        xi_star = g.uniform(0, 1, size=(500, 1))
        psi_star = dense_design(univariate_table(hb, xi_star), (1,), idx)
        ds = SampleSet(np.empty((500, 0)), xi_star, psi_star @ truth)
        nm = NoiseModel(s=3e-3, s_u=0.0, box=(0.0, 1.0))
        noisy = inject_noise(ds, nm, seed=seed)
        psi = dense_design(univariate_table(hb, noisy.xi), (1,), idx)
        c_ls = ls_solve(psi, noisy.u)
        blocks = covariance_blocks(noisy, [((1,), idx)], nm, hb, noisy.u)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            c_w = wtls_solve(psi, noisy.u, blocks, c0=c_ls)
        wins += np.linalg.norm(c_w - truth) <= np.linalg.norm(c_ls - truth)
    assert wins >= 8


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(npc=3, ninter=2)
    with pytest.raises(ValueError):
        FitConfig(robust=True)
    with pytest.raises(ValueError):
        FitConfig(nr=0)
    # a dense class of cardinality npc needs comb(no, npc) > 0 predictors,
    # and CP factors (ninter > npc) need orders 2..no
    for no, npc, ninter in ((1, 2, 2), (2, 3, 3), (1, 1, 2)):
        with pytest.raises(ValueError, match="no="):
            FitConfig(no=no, npc=npc, ninter=ninter)
    FitConfig(no=1, npc=1, ninter=1)
    FitConfig(no=2, npc=2, ninter=3)


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _counting(monkeypatch, name):
    """Replace fitting.<name> by a wrapper that records its positional args."""
    calls = []
    orig = getattr(fitting, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(fitting, name, wrapper)
    return calls


def _block_of(tab, dims, w, beta):
    """A block (no f0) of one dense mode on ``dims``, at no = 4, and the mode."""
    cfg = FitConfig(no=4, npc=2, beta=beta)
    mode = fitting._ActiveMode(dims, cfg, tab)
    block = fitting._Block(w, beta, with_f0=False)
    block.enter(mode, np.zeros(w.shape[0]), cfg)
    return block, mode


@pytest.mark.parametrize("beta", [0.0, 0.3])
def test_dense_operator_matches_lstsq_oracle(beta):
    ds, tab = uniform_set(120, 3, seed=30)
    g = rng_stream(30, 1)
    w = g.uniform(0.2, 2.0, 120)
    idx = enumerate_dense_indices((1, 3), 4)
    block, mode = _block_of(tab, (1, 3), w, beta)
    for _ in range(3):
        r = g.standard_normal(120)
        block.solve(r)
        assert _rel(mode.params, dense_mode_lstsq(tab, (1, 3), idx, w, r, beta)) < 1e-10
    # the one-shot form solves the same system
    r = g.standard_normal(120)
    fitted = fit_dense_mode((1, 3), with_u(ds, r), FitConfig(no=4, npc=2, beta=beta), B,
                            row_weights=w)
    assert _rel(fitted.coeffs, dense_mode_lstsq(tab, (1, 3), idx, w, r, beta)) < 1e-10


def test_dense_operator_minimum_norm_on_rank_deficient_group():
    # xi2 == xi1: psi_a(xi1) psi_b(xi2) and psi_b(xi1) psi_a(xi2) coincide
    g = rng_stream(31, 1)
    xi = g.uniform(-1, 1, size=(150, 2))
    xi[:, 1] = xi[:, 0]
    tab = univariate_table(B, xi)
    idx = enumerate_dense_indices((1, 2), 4)
    w = g.uniform(0.5, 1.5, 150)
    psi = dense_design(tab, (1, 2), idx) * w[:, None]
    assert np.linalg.matrix_rank(psi) < len(idx)
    block, mode = _block_of(tab, (1, 2), w, 0.0)
    r = g.standard_normal(150)
    block.solve(r)
    c = mode.params
    c_ref = dense_mode_lstsq(tab, (1, 2), idx, w, r, 0.0)
    assert _rel(c, c_ref) < 1e-10
    # minimum norm: no component in the design's null space
    _, s, vt = np.linalg.svd(psi)
    null = vt[np.sum(s > 1e-10 * s[0]):]
    assert np.linalg.norm(null @ c) < 1e-10 * np.linalg.norm(c)


def _als_subproblem(seed, n=300, nord=5):
    g = rng_stream(seed, 2)
    tab = univariate_table(BasisConfig(lo=-1.0, hi=1.0, max_order=nord + 1),
                           g.uniform(-1, 1, size=(n, 1)))
    block = tab[:, 0, 1:]
    partial = g.uniform(-1, 1, n) * g.uniform(-1, 1, n)
    return g, block, partial, g.standard_normal(n)


@pytest.mark.parametrize("beta", [0.0, 0.05])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gram_solve_matches_lstsq_oracle(monkeypatch, seed, beta):
    g, block, partial, target = _als_subproblem(40 + seed)
    w = g.uniform(0.5, 2.0, partial.shape[0])
    fallbacks = _counting(monkeypatch, "ls_solve")
    for weights in (None, w):
        psi = block * (partial if weights is None else partial * weights)[:, None]
        c = fitting._gram_solve(psi, target, beta)
        assert _rel(c, als_factor_lstsq(block, partial, weights, target, beta)) < 1e-8
    assert not fallbacks


@pytest.mark.parametrize("width,scale,fallback",
                         [(0.4, 1e-2, False), (0.2, 1e-4, True), (0.1, 0.0, True)])
def test_gram_solve_ill_conditioned_matches_lstsq_oracle(monkeypatch, width, scale,
                                                         fallback):
    # partial products near zero except where xi lies in a narrow window at
    # the right end, where the polynomial columns are close to collinear
    g, block, partial, target = _als_subproblem(50)
    xi = block[:, 0] / np.sqrt(3.0)
    partial = np.where(xi > 1.0 - width, partial, scale * partial)
    psi = block * partial[:, None]
    assert np.linalg.cond(psi) > 50.0
    calls = _counting(monkeypatch, "ls_solve")
    c = fitting._gram_solve(psi, target, 0.0)
    assert len(calls) == int(fallback)
    assert _rel(c, als_factor_lstsq(block, partial, None, target, 0.0)) < 1e-8


def test_gram_solve_falls_back_to_ls_solve_on_singular_gram(monkeypatch):
    # partial products vanish on all but 3 rows: the 5-column Gram is singular
    g, block, partial, target = _als_subproblem(60)
    partial[3:] = 0.0
    fallbacks = _counting(monkeypatch, "ls_solve")
    c = fitting._gram_solve(block * partial[:, None], target, 0.0)
    assert len(fallbacks) == 1
    assert _rel(c, als_factor_lstsq(block, partial, None, target, 0.0)) < 1e-10


def test_fit_builds_each_dense_design_once_per_pass_call(monkeypatch):
    ds, tab = uniform_set(400, 4, seed=33)
    u = tab[:, 0, 1] + tab[:, 0, 1] * tab[:, 1, 1] + 0.5 * tab[:, 1, 1] * tab[:, 2, 1] * tab[:, 3, 2]
    vs, vtab = uniform_set(100, 4, seed=34)
    uv = vtab[:, 0, 1] + vtab[:, 0, 1] * vtab[:, 1, 1] + 0.5 * vtab[:, 1, 1] * vtab[:, 2, 1] * vtab[:, 3, 2]
    groups = [(1,), (2,), (1, 2), (2, 3, 4), (3,), (1, 3)]
    cfg = FitConfig(no=3, npc=2, ninter=3, seed=0)
    designs = _counting(monkeypatch, "dense_design")
    blocks = _counting(monkeypatch, "_Block")
    _, diag = fit_hdmr(with_u(ds, u), with_u(vs, uv), groups, cfg, B)
    # the cross-validated passes fit the 400 training rows, the final refit
    # all 500 rows
    assert [args[0].shape[0] for args in blocks] == [400, 500]
    # the cyclic update sweeps refit every mode many times over
    assert sum(rec.update_sweeps for rec in diag.records) > len(diag.records)
    entered = [rec.dims for rec in diag.records[1:] if len(rec.dims) <= cfg.npc]
    kept = [g for g in groups[: diag.retained] if len(g) <= cfg.npc]
    assert kept and set(kept) <= set(entered)
    # one design per dense mode that entered, over the train and validation
    # rows together; the final refit reads the kept modes' and builds none
    assert [args[0].shape[0] for args in designs] == [500] * len(entered)


def _noisy_cv_instance():
    ds, tab = uniform_set(400, 4, seed=36)
    u = 2.0 + tab[:, 0, 1] + tab[:, 0, 1] * tab[:, 1, 1] + 0.5 * tab[:, 2, 2]
    vs, vtab = uniform_set(100, 4, seed=37)
    uv = 2.0 + vtab[:, 0, 1] + vtab[:, 0, 1] * vtab[:, 1, 1] + 0.5 * vtab[:, 2, 2]
    nm = NoiseModel(s=0.01, s_u=0.1)
    train = inject_noise(with_u(ds, u), nm, seed=36)
    groups = [(1,), (1, 2), (2, 3, 4), (3,), (2,)]
    cfg = FitConfig(no=3, npc=2, ninter=3, seed=0, robust=True, noise=nm)
    return train, with_u(vs, uv), groups, cfg


def test_robust_fit_builds_covariances_only_for_the_final_refit(monkeypatch):
    train, val, groups, cfg = _noisy_cv_instance()
    covs = _counting(monkeypatch, "covariance_blocks")
    solves = _counting(monkeypatch, "wtls_solve")
    blocks = _counting(monkeypatch, "_Block")
    model, diag = fit_hdmr(train, val, groups, cfg, B)
    assert [args[0].shape[0] for args in blocks] == [400, 500]
    kept = [g for g in groups[: diag.retained] if len(g) <= cfg.npc]
    assert [m.dims for m in model.dense] == kept
    # every pass fits by least squares; after them one weighted TLS solve on
    # the 500 train + validation rows refits the kept dense modes together,
    # with one covariance for the whole block, weighted by the least-squares
    # model's prediction
    assert len(covs) == 1
    rows, block, _, _, u_ref = covs[0]
    assert rows.nq == 500 and [dims for dims, _ in block] == kept
    ls_model, _ = fit_hdmr(train, val, groups, replace(cfg, robust=False), B)
    np.testing.assert_allclose(u_ref, evaluate_model(ls_model, rows.xi), rtol=1e-12)
    width = sum(len(m.indices) for m in model.dense)
    assert [args[0].shape for args in solves] == [(500, width)]
    assert diag.wtls_seconds > 0


def test_robust_fit_with_validation_is_robust_refit_of_plain_cv_choice():
    # the robust fit keeps what a least-squares CV fit keeps, continues it
    # on train plus validation as that fit does, and its dense coefficients
    # are then the weighted TLS fit of that block, f0 and the CP mode held
    train, val, groups, robust_cfg = _noisy_cv_instance()
    plain_cfg = FitConfig(no=3, npc=2, ninter=3, seed=0)
    plain, plain_diag = fit_hdmr(train, val, groups, plain_cfg, B)
    model, diag = fit_hdmr(train, val, groups, robust_cfg, B)
    assert diag.records == plain_diag.records
    assert replace(diag.refit, cv_eps=0.0) == replace(plain_diag.refit, cv_eps=0.0)
    assert diag.retained == plain_diag.retained >= 2
    # a fit without validation rows has no final refit
    _, ref_diag = fit_hdmr(train, None, groups, robust_cfg, B)
    assert ref_diag.refit is None and ref_diag.refit_seconds == 0.0
    assert diag.cv_seconds > 0 and diag.refit_seconds > 0
    assert model.f0 == plain.f0 and [m.dims for m in model.cp] == [(2, 3, 4)]
    assert all(np.array_equal(a.factors, b.factors) for a, b in zip(model.cp, plain.cp))
    assert [m.dims for m in model.dense] == [m.dims for m in plain.dense]

    merged, _ = merge_train_validation(train, val)
    table = univariate_table(plain.basis, merged.xi)
    psi = np.hstack([dense_design(table, m.dims, m.indices) for m in plain.dense])
    c_ls = np.concatenate([m.coeffs for m in plain.dense])
    fixed = evaluate_model(replace(plain, dense=[]), merged.xi)
    lam = stack_block_covariance(merged, [(m.dims, m.indices) for m in plain.dense],
                                 robust_cfg.noise, plain.basis,
                                 u_ref=evaluate_model(plain, merged.xi))
    c_ref = wtls_solve_dense(psi, merged.u - fixed, lam, c0=c_ls)
    # the final refit is weighted TLS, not the plain fit
    assert _rel(c_ref, c_ls) > 1e-6
    assert _rel(np.concatenate([m.coeffs for m in model.dense]), c_ref) < 1e-12


def test_wtls_refit_matches_dense_block_oracle():
    # groups (1,) and (1, 2) share dim 1, so the block's row covariance has
    # cross terms between them; (3,) shares no dim with either; the CP mode
    # and f0 are held at the plain fit's values
    ds, tab = uniform_set(300, 4, seed=38)
    clean = (2.0 + tab[:, 0, 1] + 0.6 * tab[:, 0, 1] * tab[:, 1, 2] + 0.4 * tab[:, 2, 1]
             + 0.5 * tab[:, 1, 1] * tab[:, 2, 1] * tab[:, 3, 2])
    nm = NoiseModel(s=0.02, s_u=0.15)
    train = inject_noise(with_u(ds, clean), nm, seed=38)
    groups = [(1,), (1, 2), (3,), (2, 3, 4)]
    plain_cfg = FitConfig(no=3, npc=2, ninter=3, seed=0)
    plain, _ = fit_hdmr(train, None, groups, plain_cfg, B)
    robust, diag = fit_hdmr(train, None, groups,
                            FitConfig(no=3, npc=2, ninter=3, seed=0, robust=True,
                                      noise=nm), B)
    assert diag.wtls_seconds > 0
    assert robust.f0 == plain.f0
    assert [m.dims for m in robust.cp] == [(2, 3, 4)]
    assert np.array_equal(robust.cp[0].factors, plain.cp[0].factors)
    assert [m.dims for m in robust.dense] == [m.dims for m in plain.dense] == groups[:3]

    table = univariate_table(plain.basis, train.xi)
    psi = np.hstack([dense_design(table, m.dims, m.indices) for m in plain.dense])
    c_ls = np.concatenate([m.coeffs for m in plain.dense])
    fixed = evaluate_model(replace(plain, dense=[]), train.xi)
    lam = stack_block_covariance(train, [(m.dims, m.indices) for m in plain.dense], nm,
                                 plain.basis, u_ref=evaluate_model(plain, train.xi))
    p1, p12 = len(plain.dense[0].indices), len(plain.dense[1].indices)
    assert np.any(lam[:, :p1, p1:p1 + p12])                  # (1,) with (1, 2)
    assert not np.any(lam[:, :p1 + p12, p1 + p12:-1])        # (3,) with the rest
    c_ref = wtls_solve_dense(psi, train.u - fixed, lam, c0=c_ls)
    assert _rel(c_ref, c_ls) > 1e-6
    assert _rel(np.concatenate([m.coeffs for m in robust.dense]), c_ref) < 1e-12


@pytest.mark.parametrize("with_val", [False, True], ids=["no-val", "val"])
def test_robust_fit_with_zero_noise_is_the_plain_fit(tmp_path, with_val):
    train, val, groups, _ = _noisy_cv_instance()
    val = val if with_val else None
    plain, _ = fit_hdmr(train, val, groups, FitConfig(no=3, npc=2, ninter=3, seed=0), B)
    robust, _ = fit_hdmr(train, val, groups,
                         FitConfig(no=3, npc=2, ninter=3, seed=0, robust=True,
                                   noise=NoiseModel(s=0.0, s_u=0.0)), B)
    save_model(plain, tmp_path / "plain.json")
    save_model(robust, tmp_path / "robust.json")
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "robust.json").read_bytes()


def test_val_row_weights_without_validation_rows_are_rejected():
    ds, tab = uniform_set(80, 3, seed=39)
    train = with_u(ds, tab[:, 0, 1] + tab[:, 1, 2])
    with pytest.raises(ValueError, match="without validation rows"):
        fit_hdmr(train, None, [(1,)], FitConfig(no=3, npc=1, ninter=1), B,
                 val_row_weights=[np.nan])


@pytest.mark.parametrize("n_train,n_val,message", [(79, 101, "79 for 80"),
                                                   (80, 101, "101 for 100"),
                                                   (79, None, "79 for 80"),
                                                   (None, 99, "99 for 100")])
def test_merge_train_validation_checks_each_parts_weights(n_train, n_val, message):
    # 79 + 101 weights add up to the 180 rows, but misaligned
    ds, _ = uniform_set(80, 2, seed=40)
    vs, _ = uniform_set(100, 2, seed=41)
    w = None if n_train is None else np.ones(n_train)
    wv = None if n_val is None else np.ones(n_val)
    with pytest.raises(ValueError, match=rf"^row weights: {message} rows$"):
        merge_train_validation(ds, vs, w, wv)


def test_cp_refit_makes_no_ls_solve_call(monkeypatch):
    ds, tab = uniform_set(500, 3, seed=35)
    g = rng_stream(35, 1)
    u = tab[:, 0, 1] * tab[:, 1, 2] * tab[:, 2, 1] + 0.01 * g.standard_normal(500)
    calls = _counting(monkeypatch, "ls_solve")
    model, diag = fit_hdmr(with_u(ds, u), None, [(1, 2, 3)],
                           FitConfig(no=3, npc=2, ninter=3, nr=2), B)
    assert calls == []
    assert diag.records[1].update_sweeps >= 1
    assert relative_error(model, with_u(ds, u).retag("test")) < 0.05


@pytest.mark.parametrize("beta", [0.0, 0.3])
def test_dense_only_fit_is_the_joint_solution_and_the_backfitting_limit(beta):
    # f0 and every dense mode form one least-squares block: on a dense-only
    # path each pass is one solve, whose result is the hstacked solve of
    # the whole block (f0 unridged, beta * I under the dense columns) and
    # the limit that backfitting mode by mode converges to
    ds, tab = uniform_set(300, 3, seed=42)
    g = rng_stream(42, 1)
    w = g.uniform(0.5, 1.5, 300)
    u = w * (1.0 + tab[:, 0, 1] + 0.5 * tab[:, 0, 1] * tab[:, 1, 2] - 0.3 * tab[:, 2, 3]
             + 0.2 * tab[:, 1, 1] * tab[:, 2, 1]) + 0.1 * g.standard_normal(300)
    train = with_u(ds, u)
    groups = [(1,), (1, 2), (3,), (2, 3)]
    cfg = FitConfig(no=3, npc=2, ninter=2, beta=beta)
    model, diag = fit_hdmr(train, None, groups, cfg, B, row_weights=w)
    assert [r.update_sweeps for r in diag.records] == [0] * 5
    c = np.concatenate([[model.f0]] + [m.coeffs for m in model.dense])

    psi = np.hstack([w[:, None]] + [dense_design(tab, m.dims, m.indices) * w[:, None]
                                    for m in model.dense])
    p = psi.shape[1] - 1
    ridge = np.hstack([np.zeros((p, 1)), beta * np.eye(p)])
    c_ls = ls_solve(np.vstack([psi, ridge]), np.concatenate([u, np.zeros(p)]))
    assert _rel(c, c_ls) < 1e-8

    ref = backfit(train, groups, cfg, B, row_weights=w, max_sweeps=60, tol=0.0)
    assert [m.dims for m in ref.dense] == groups
    c_bf = np.concatenate([[ref.f0]] + [m.coeffs for m in ref.dense])
    assert _rel(c, c_bf) < 1e-8
    if beta > 0:
        assert _rel(c, ls_solve(psi, u)) > 1e-5   # the ridge moves the solution


def test_no_update_sweep_raises_the_training_residual(monkeypatch):
    # every step of the passes is an exact block minimum: the dense block's
    # solve, and each dimension's joint-rank ALS solve of a CP mode; so the
    # training residual norm never rises beyond rounding, pass or sweep.
    # Each update sweep and each dense entry starts with a solve, so the norm
    # taken before every solve is the norm after the previous sweep or entry
    # (unit weights, no validation rows: the block's rows are all of u)
    ds, tab = uniform_set(400, 4, seed=43)
    g = rng_stream(43, 1)
    u = (1.0 + tab[:, 0, 1] + tab[:, 0, 1] * tab[:, 1, 2] * tab[:, 2, 1]
         + 0.5 * tab[:, 1, 1] * tab[:, 2, 2] * tab[:, 3, 1]
         + 0.4 * tab[:, 1, 2] * tab[:, 2, 1] * tab[:, 3, 3]
         + 0.3 * tab[:, 3, 2] + 0.05 * g.standard_normal(400))
    norms = []
    solve = fitting._Block.solve

    def recording(block, r):
        norms.append(fitting._residual_norm(block, u))
        solve(block, r)

    monkeypatch.setattr(fitting._Block, "solve", recording)
    groups = [(1,), (1, 2, 3), (4,), (2, 3, 4), (2, 3)]
    cfg = FitConfig(no=3, npc=2, ninter=3, nr=2, seed=0)
    _, diag = fit_hdmr(with_u(ds, u), None, groups, cfg, B)
    sweeps = sum(r.update_sweeps for r in diag.records)
    assert sweeps >= 10 and len(norms) > sweeps
    norms.append(diag.records[-1].train_residual_norm)
    steps = np.diff(norms)
    assert np.all(steps <= 1e-12 * np.asarray(norms[:-1])), steps.max()
    # backfitting with greedy warm CP refits ends at a higher residual
    ref = backfit(with_u(ds, u), groups, cfg, B)
    assert (np.linalg.norm(u - evaluate_model(ref, ds.xi))
            > diag.records[-1].train_residual_norm * (1 + 1e-4))


def test_diffusion_fit_with_cp_modes_converges():
    # a scaled-down form of a diffusion fit whose greedy warm CP refits once
    # raised the training residual pass after pass (test error 0.15)
    data = generate_dataset(DiffusionConfig(nd_nu=3, nd_f=3), 400, 0)
    train, _, test = split(data, 300, 0, 100, 0)
    basis = BasisConfig(lo=0.0, hi=1.0, max_order=7)
    path = glars_select(train, SelectionConfig(nolars=3, ninter=3, max_groups=24), basis)
    model, diag = fit_hdmr(train, None, path, FitConfig(no=6, npc=2, ninter=3), basis)
    assert len(model.cp) >= 5
    norms = [r.train_residual_norm for r in diag.records]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(norms, norms[1:]))
    assert relative_error(model, test) <= 1e-2


def test_fit_tables_cover_only_the_dims_of_entered_groups(monkeypatch):
    # column j of xi takes values in its own slice of [-1, 1), so every
    # table the fit evaluates tells which columns it read
    nd = 8
    g = rng_stream(38, 1)

    def rows(nq):
        xi = -1.0 + (np.arange(nd) + g.uniform(0.0, 1.0, (nq, nd))) * 2.0 / nd
        tab = univariate_table(B, xi)
        u = tab[:, 0, 1] + 0.5 * tab[:, 1, 1] * tab[:, 2, 1] + 0.01 * g.standard_normal(nq)
        return SampleSet(np.empty((nq, 0)), xi, u)

    train, val = rows(300), rows(100)
    path = [(1,), (2, 3), (2,), (4,), (5, 6), (7,), (8,), (6,)]
    read = []

    def groups():
        for dims in path:
            read.append(dims)
            yield dims

    evaluated = []   # (rows, columns) of each table the fit evaluates
    skeletons = []
    orig_table, orig_init = fitting.univariate_table, fitting._Skeleton.__init__

    def table_spy(cfg, xi):
        cols = np.floor((np.asarray(xi) + 1.0) * nd / 2.0).astype(int) + 1
        evaluated.append((np.shape(xi)[0], set(np.unique(cols).tolist())))
        return orig_table(cfg, xi)

    def init_spy(self, *args):
        skeletons.append(self)
        orig_init(self, *args)

    monkeypatch.setattr(fitting, "univariate_table", table_spy)
    monkeypatch.setattr(fitting._Skeleton, "__init__", init_spy)
    _, diag = fit_hdmr(train, val, groups(), FitConfig(no=3, npc=2, ninter=2), B)
    assert len(read) == len(diag.records) - 1 < len(path)
    entered = {d for dims in read for d in dims}
    kept = {d for rec in diag.records[1: diag.retained + 1] for d in rec.dims}
    assert len(skeletons) == 1 and kept and kept <= entered
    assert set().union(*(c for _, c in evaluated)) == entered
    # every entered dim once, over the train and validation rows together;
    # the final refit of the kept groups evaluates no table
    assert all(n == 400 for n, _ in evaluated)
    assert sum(len(c) for _, c in evaluated) == len(entered)


def test_tables_keep_one_layout_that_blocks_and_designs_read_without_copies():
    # a table's CP blocks, and those of a fit's skeleton, are C-contiguous
    # (orders, rows) views of it; dense and spatial designs are C-contiguous
    # (rows, P)
    ds, tab = uniform_set(40, 4, seed=44)
    skeleton = fitting._Skeleton(ds, FitConfig(no=4, npc=1, ninter=3), B)
    for table, blocks in ((tab, _order_blocks(tab, (1, 2, 4), 4)),
                          (skeleton.table, skeleton.enter((1, 2, 4)).blocks)):
        for b in blocks:
            assert b.shape == (3, 40) and b.flags.c_contiguous
            assert np.shares_memory(b, table)
    designs = [(dense_design(tab, (1, 3), enumerate_dense_indices((1, 3), 4)), 6)]
    designs += [(spatial_design(SpatialBasis(kind=kind, cardx=5), (ds.xi[:, 0] + 1) / 2), 5)
                for kind in ("nodal-piecewise-linear", "legendre-tensor")]
    for design, p in designs:
        assert design.shape == (40, p) and design.flags.c_contiguous


_ALL_DIMS = (4, [(1,), (1, 2, 3), (4,), (2, 3, 4)])
_SKIPS_3_AND_6 = (6, [(1,), (1, 2, 4), (5,), (2, 4, 5)])


@pytest.mark.parametrize("npc, nr, nd, groups", [
    pytest.param(2, 1, *_ALL_DIMS, id="1"),
    pytest.param(2, 3, *_ALL_DIMS, id="3"),
    pytest.param(3, 3, *_ALL_DIMS, id="dense-triples"),
    pytest.param(2, 1, *_SKIPS_3_AND_6, id="untouched-dims-1"),
    pytest.param(2, 3, *_SKIPS_3_AND_6, id="untouched-dims-3"),
    pytest.param(3, 3, *_SKIPS_3_AND_6, id="untouched-dims-dense-triples"),
])
def test_skeleton_values_are_the_bits_of_evaluate_model(npc, nr, nd, groups):
    # the fit reads its values (validation errors, a separated rank's lambda)
    # from the table it holds; they are evaluate_model's values, bit for bit,
    # for CP modes (a one-rank one included) and dense triples alike, and
    # also when the groups leave dims untouched (here 3 and 6), so that
    # evaluate_model's table of the used dims is narrower than the fit's
    ds, tab = uniform_set(500, nd, seed=45)
    (a,), (_, b, c), (d,), _ = [[g - 1 for g in dims] for dims in groups]
    u = tab[:, a, 1] + tab[:, a, 2] * tab[:, b, 1] * tab[:, c, 3] + 0.5 * tab[:, d, 2]
    cfg = FitConfig(no=4, npc=npc, ninter=3, nr=nr)
    skeleton, block, _ = fitting._fit_hdmr(with_u(ds, u), None, groups, cfg, B, None, None)
    model = skeleton.model(block)
    assert (len(model.dense), len(model.cp)) == ((2, 2) if npc == 2 else (4, 0))
    assert (skeleton.values(block, slice(None)).tobytes()
            == evaluate_model(model, ds.xi).tobytes())


def test_fit_hdmr_rejects_validation_rows_of_another_shape():
    ds, tab = uniform_set(120, 3, seed=39)
    train = with_u(SampleSet(ds.x[:100], ds.xi[:100], np.zeros(100)), tab[:100, 0, 1])
    narrow = SampleSet(np.empty((20, 0)), ds.xi[100:, :2], tab[100:, 0, 1], "validation")
    cfg = FitConfig(no=3, npc=1, ninter=1)
    with pytest.raises(ValueError, match=r"xi \(20, 2\).*xi \(100, 3\)"):
        fit_hdmr(train, narrow, [(1,), (3,)], cfg, B)
    spatial = SampleSet(np.zeros((20, 1)), ds.xi[100:], tab[100:, 0, 1], "validation")
    with pytest.raises(ValueError, match=r"x \(20, 1\).*x \(100, 0\)"):
        fit_hdmr(train, spatial, [(1,), (3,)], cfg, B)
