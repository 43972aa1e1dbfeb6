import warnings

import numpy as np
import pytest

from hdmrfit import fitting
from hdmrfit.basis import BasisConfig, univariate_table
from hdmrfit.data import NoiseModel, SampleSet, inject_noise, rng_stream
from hdmrfit.fitting import (
    FitConfig,
    covariance_blocks,
    fit_cp_mode,
    fit_dense_mode,
    fit_hdmr,
    ls_solve,
    merge_train_validation,
    relative_error,
    save_diagnostics,
    wtls_solve,
)
from hdmrfit.model import (HdmrModel, dense_design, enumerate_dense_indices, evaluate_model,
                           save_model)
from hdmrfit.selection import SelectionConfig, glars_select
from oracles import (als_factor_lstsq, build_sample_covariance, dense_mode_lstsq,
                     eval_univariate_deriv, stack_sample_covariance,
                     wtls_denominators_dense, wtls_solve_dense)

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


@pytest.mark.parametrize("weighted", [False, True])
def test_fit_hdmr_with_validation_is_refit_of_retained_on_merged_rows(tmp_path,
                                                                      weighted):
    # the cross-validated fit equals a fit of its retained groups on train
    # plus validation with no validation rows, which the separated driver's
    # refits on a frozen skeleton rely on
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
    merged, w = merge_train_validation(train, val, kw.get("row_weights"),
                                       kw.get("val_row_weights"))
    ref, ref_diag = fit_hdmr(merged, None, groups[: diag.retained], cfg, B,
                             row_weights=w)
    assert ref_diag.retained == diag.retained
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
    # overlapping groups need cyclic refits to untangle
    ds, tab = uniform_set(500, 3, seed=12)
    u = tab[:, 0, 1] + tab[:, 0, 1] * tab[:, 1, 1]
    groups = [(1,), (1, 2)]
    cfg = FitConfig(no=3, npc=2, ninter=2)
    m1, _ = fit_hdmr(with_u(ds, u), None, groups, cfg, B)
    # baseline without update sweeps: a sweep cap of 0 returns f0 unchanged
    monkeypatch.setattr(fitting, "_MAX_UPDATE_SWEEPS", 0)
    m0, _ = fit_hdmr(with_u(ds, u), None, groups, cfg, B)
    t = with_u(ds, u).retag("test")
    assert relative_error(m1, t) <= relative_error(m0, t) + 1e-12


def test_relative_error_zero_truth_rejected():
    ds, _ = uniform_set(50, 2, seed=14)
    m, _ = fit_hdmr(with_u(ds, np.ones(50)), None, [],
                    FitConfig(no=2, npc=1, ninter=1), B)
    with pytest.raises(ValueError):
        relative_error(m, with_u(ds, np.zeros(50)).retag("test"))


def test_diagnostics_csv(tmp_path):
    ds, tab = uniform_set(300, 3, seed=15)
    u = tab[:, 0, 1] + 0.5 * tab[:, 1, 1]
    _, diag = fit_hdmr(with_u(ds, u), None, [(1,), (2,)],
                       FitConfig(no=3, npc=1, ninter=1), B)
    p = tmp_path / "diag.csv"
    save_diagnostics(diag, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "pass,dims,train_residual_norm,cv_eps,update_sweeps"
    assert len(lines) == len(diag.records) + 1
    assert lines[1].split(",")[1] == ""  # pass 0 has no group
    # pass 0 runs no update sweep; every later pass runs at least one
    sweeps = [int(ln.split(",")[-1]) for ln in lines[1:]]
    assert sweeps == [rec.update_sweeps for rec in diag.records]
    assert sweeps[0] == 0 and all(1 <= k <= fitting._MAX_UPDATE_SWEEPS
                                  for k in sweeps[1:])


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
    d = eval_univariate_deriv(B, 2, 0.4)
    assert lam[0, 0] == pytest.approx(0.01 * d * d, rel=1e-12)
    assert lam[1, 1] == 0.0


def test_covariance_blocks_match_per_sample():
    ds, _ = uniform_set(20, 3, seed=16)
    u = np.linspace(1, 2, 20)
    nm = NoiseModel(s=0.05, s_u=0.1)
    for dims, idx in (((2,), [(2,), (3,)]),
                      ((1, 2, 3), enumerate_dense_indices((1, 2, 3), 4))):
        blocks = covariance_blocks(with_u(ds, u), dims, idx, nm, B)
        for q in (0, 7, 19):
            lam = build_sample_covariance(ds.xi[q], dims, idx, nm, u[q], B)
            jac = blocks.jac[q]
            dense = np.zeros((len(idx) + 1, len(idx) + 1))
            dense[:-1, :-1] = jac @ jac.T
            dense[-1, -1] = blocks.value_var[q]
            assert np.max(np.abs(dense - lam)) <= 1e-12 * np.max(np.abs(lam))


@pytest.mark.parametrize("s,s_u", [(0.05, 0.1), (0.0, 0.1), (0.05, 0.0)])
@pytest.mark.parametrize("dims", [(2,), (1, 3)])
def test_factored_denominators_match_dense_oracle(s, s_u, dims):
    ds, _ = uniform_set(40, 3, seed=19)
    u_ref = np.linspace(-1.5, 2.0, 40)
    nm = NoiseModel(s=s, s_u=s_u)
    idx = enumerate_dense_indices(dims, 4)
    blocks = covariance_blocks(with_u(ds, np.ones(40)), dims, idx, nm, B, u_ref=u_ref)
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
    blocks = covariance_blocks(noisy, (1, 3), idx, nm, B)
    lam = stack_sample_covariance(noisy, (1, 3), idx, nm, B)
    c_ls = ls_solve(psi, noisy.u)
    c_ref = wtls_solve_dense(psi, noisy.u, lam, c0=c_ls)
    assert _rel(c_ref, c_ls) > 1e-6   # the weights move the solution
    assert _rel(wtls_solve(psi, noisy.u, blocks, c0=c_ls), c_ref) < 1e-12


def test_robust_dense_mode_weights_by_its_own_prediction():
    # the value-noise variance comes from psi c_ls + u_base, not from the
    # fitted values train.u, which here are far from it
    ds, tab = uniform_set(250, 2, seed=21)
    nm = NoiseModel(s=0.01, s_u=0.2)
    idx = enumerate_dense_indices((2,), 4)
    g = rng_stream(21, 1)
    r = 0.8 * tab[:, 1, 1] - 0.2 * tab[:, 1, 3] + 0.05 * g.standard_normal(250)
    u_base = 2.0 + 0.5 * tab[:, 0, 1]
    train = with_u(ds, r)
    cfg = FitConfig(no=4, npc=2, robust=True, noise=nm)
    mode = fit_dense_mode((2,), train, cfg, B, u_base=u_base)
    psi = dense_design(tab, (2,), idx)
    c_ls = dense_mode_lstsq(tab, (2,), idx, np.ones(250), r, 0.0)
    lam = stack_sample_covariance(train, (2,), idx, nm, B, u_ref=psi @ c_ls + u_base)
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


def test_wtls_zero_noise_equals_ls():
    ds, tab = uniform_set(200, 2, seed=17)
    u = 1.2 * tab[:, 0, 1] - 0.4 * tab[:, 0, 2]
    psi = dense_design(tab, (1,), [(2,), (3,)])
    blocks = covariance_blocks(with_u(ds, u), (1,), [(2,), (3,)],
                               NoiseModel(), B)
    c_ls = ls_solve(psi, u)
    c_w = wtls_solve(psi, u, blocks)
    assert np.max(np.abs(c_ls - c_w)) < 1e-8


def test_wtls_objective_not_above_ls_start():
    ds, tab = uniform_set(300, 2, seed=18)
    nm = NoiseModel(s=0.02, s_u=0.15)
    noisy = inject_noise(with_u(ds, 1.0 + tab[:, 0, 1]), nm, seed=5)
    ntab = univariate_table(B, noisy.xi)
    psi = dense_design(ntab, (1,), [(2,), (3,)])
    blocks = covariance_blocks(noisy, (1,), [(2,), (3,)], nm, B)
    lam = stack_sample_covariance(noisy, (1,), [(2,), (3,)], nm, B)

    def rho2(c):
        e = psi @ c - noisy.u
        return float(np.sum(e * e / wtls_denominators_dense(lam, c)))

    c_ls = ls_solve(psi, noisy.u)
    c_w = wtls_solve(psi, noisy.u, blocks, c0=c_ls)
    assert rho2(c_w) <= rho2(c_ls) * (1 + 1e-10)


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
        blocks = covariance_blocks(noisy, (1,), idx, nm, hb)
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


@pytest.mark.parametrize("beta", [0.0, 0.3])
def test_dense_operator_matches_lstsq_oracle(beta):
    ds, tab = uniform_set(120, 3, seed=30)
    g = rng_stream(30, 1)
    w = g.uniform(0.2, 2.0, 120)
    idx = enumerate_dense_indices((1, 3), 4)
    lsq = fitting._lstsq_operator(dense_design(tab, (1, 3), idx) * w[:, None], beta)
    for _ in range(3):
        r = g.standard_normal(120)
        assert _rel(lsq @ r, dense_mode_lstsq(tab, (1, 3), idx, w, r, beta)) < 1e-10
    # the one-shot form solves the same system
    r = g.standard_normal(120)
    mode = fit_dense_mode((1, 3), with_u(ds, r), FitConfig(no=4, npc=2, beta=beta), B,
                          row_weights=w)
    assert _rel(mode.coeffs, dense_mode_lstsq(tab, (1, 3), idx, w, r, beta)) < 1e-10


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
    lsq = fitting._lstsq_operator(dense_design(tab, (1, 2), idx) * w[:, None], 0.0)
    r = g.standard_normal(150)
    c = lsq @ r
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
    passes = _counting(monkeypatch, "_fit_passes")
    _, diag = fit_hdmr(with_u(ds, u), with_u(vs, uv), groups, cfg, B)
    assert len(passes) == 2
    # the cyclic update sweeps refit every mode many times over
    assert sum(rec.update_sweeps for rec in diag.records) > len(diag.records)
    entered = [rec.dims for rec in diag.records[1:] if len(rec.dims) <= cfg.npc]
    kept = [g for g in groups[: diag.retained] if len(g) <= cfg.npc]
    rows = [args[0].shape[0] for args in designs]
    # first call: one train and one validation design per dense mode that
    # entered; final refit on train + validation: one design per kept mode
    assert rows.count(400) == len(entered)
    assert rows.count(100) == len(entered)
    assert rows.count(500) == len(kept)
    assert len(rows) == 2 * len(entered) + len(kept)


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
    passes = _counting(monkeypatch, "_fit_passes")
    _, diag = fit_hdmr(train, val, groups, cfg, B)
    assert len(passes) == 2
    kept = [g for g in groups[: diag.retained] if len(g) <= cfg.npc]
    # the cross-validated passes fit by least squares; only the final refit
    # on the 500 train + validation rows is weighted TLS, one covariance per
    # kept dense mode
    assert [(args[0].nq, args[1]) for args in covs] == [(500, g) for g in kept]
    assert len(solves) > 2 * len(kept)
    assert all(args[0].shape[0] == 500 for args in solves)


def test_robust_fit_with_validation_is_robust_refit_of_plain_cv_choice():
    # the robust fit keeps what a least-squares CV fit keeps, and its model
    # is the weighted TLS fit of those groups on train plus validation
    train, val, groups, robust_cfg = _noisy_cv_instance()
    plain_cfg = FitConfig(no=3, npc=2, ninter=3, seed=0)
    plain, plain_diag = fit_hdmr(train, val, groups, plain_cfg, B)
    model, diag = fit_hdmr(train, val, groups, robust_cfg, B)
    assert diag.records == plain_diag.records
    assert diag.retained == plain_diag.retained >= 2
    merged, _ = merge_train_validation(train, val)
    ref, ref_diag = fit_hdmr(merged, None, groups[: plain_diag.retained], robust_cfg, B)

    def no_cv(records):
        return [(r.s, r.dims, r.train_residual_norm, r.update_sweeps) for r in records]

    # the diagnostics keep the final refit's passes; a fit without
    # validation rows has no final refit
    assert no_cv(diag.refit_records) == no_cv(ref_diag.records)
    assert ref_diag.refit_records == [] and ref_diag.refit_seconds == 0.0
    assert diag.cv_seconds > 0 and diag.refit_seconds > 0
    assert model.f0 == ref.f0
    assert [m.dims for m in model.dense] == [m.dims for m in ref.dense]
    assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(model.dense, ref.dense))
    assert [m.dims for m in model.cp] == [m.dims for m in ref.cp]
    assert all(np.array_equal(a.factors, b.factors) for a, b in zip(model.cp, ref.cp))
    # and the final refit is weighted TLS, not the plain fit
    assert not np.array_equal(model.dense[0].coeffs, plain.dense[0].coeffs)


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
