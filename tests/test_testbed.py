from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded

from hdmrfit import data, testbed
from hdmrfit.data import rng_stream
from hdmrfit.testbed import (
    DiffusionConfig,
    generate_dataset,
    kl_eigendecompose,
    save_spectrum,
    solve_diffusion,
)
from oracles import generate_rows, kl_field, solve_diffusion_banded


def _same(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_eigenvalues_sorted_and_nonnegative():
    f = kl_eigendecompose(0.7, 0.3, (0.0, 1.0), 200, 12)
    assert np.all(np.diff(f.eigenvalues) <= 1e-15)
    assert np.all(f.eigenvalues >= 0)


def test_eigenvalue_sum_is_total_variance():
    # trace of the covariance operator: integral of sigma^2 over the domain
    f = kl_eigendecompose(0.7, 0.3, (0.0, 1.0), 400, 400)
    assert float(np.sum(f.eigenvalues)) == pytest.approx(0.49, rel=1e-6)


def test_eigenfunctions_unit_l2_norm():
    f = kl_eigendecompose(0.7, 0.3, (0.0, 1.0), 300, 8)
    h = 1.0 / 300
    norms = np.sqrt(h * np.sum(f.eigenfunctions**2, axis=1))
    assert np.allclose(norms, 1.0, atol=1e-10)


def test_eigenfunction_count_vs_grid():
    with pytest.raises(ValueError):
        kl_eigendecompose(0.7, 0.3, (0.0, 1.0), 50, 51)


def test_spectral_decay_with_longer_correlation():
    short = kl_eigendecompose(1.0, 0.1, (0.0, 1.0), 200, 6)
    long_ = kl_eigendecompose(1.0, 1.0, (0.0, 1.0), 200, 6)
    # longer correlation -> more energy in the first mode
    assert long_.eigenvalues[0] / long_.eigenvalues.sum() > \
        short.eigenvalues[0] / short.eigenvalues.sum()


def test_canonical_signs_are_reproducible():
    a = kl_eigendecompose(0.7, 0.3, (0.0, 1.0), 200, 6)
    b = kl_eigendecompose(0.7, 0.3, (0.0, 1.0), 200, 6)
    assert np.array_equal(a.eigenfunctions, b.eigenfunctions)


def test_diffusion_unit_conductivity_parabola():
    # nu = 1, F = -1: u'' = -1 with zero boundaries, u = x(1-x)/2
    m_x = 512
    u = solve_diffusion(np.ones(m_x + 1), -np.ones(m_x + 1), 0.0, 0.0, m_x)
    x = np.linspace(0, 1, m_x + 1)
    assert np.max(np.abs(u - x * (1 - x) / 2)) < 1e-10
    assert u[m_x // 2] == pytest.approx(0.125, abs=1e-10)


def test_diffusion_zero_source_is_linear():
    m_x = 64
    u = solve_diffusion(np.ones(m_x + 1), np.zeros(m_x + 1), 1.0, 3.0, m_x)
    x = np.linspace(0, 1, m_x + 1)
    assert np.max(np.abs(u - (1 + 2 * x))) < 1e-12


def test_diffusion_flux_continuity_variable_coefficient():
    # piecewise constant nu with F = 0: flux nu u' constant across the jump
    m_x = 200
    x = np.linspace(0, 1, m_x + 1)
    nu = np.where(x < 0.5, 1.0, 4.0)
    u = solve_diffusion(nu, np.zeros(m_x + 1), 0.0, 1.0, m_x)
    flux_left = 1.0 * (u[40] - u[39]) * m_x
    flux_right = 4.0 * (u[160] - u[159]) * m_x
    assert flux_left == pytest.approx(flux_right, rel=1e-10)


def test_diffusion_second_order_convergence():
    # manufactured solution u = sin(pi x), nu = 1 + 0.5 sin(2 pi x)
    def err(m_x):
        x = np.linspace(0, 1, m_x + 1)
        nu = 1 + 0.5 * np.sin(2 * np.pi * x)
        f = (np.pi**2 * np.cos(2 * np.pi * x) * np.cos(np.pi * x)
             - np.pi**2 * np.sin(np.pi * x) * nu)
        u = solve_diffusion(nu, f, 0.0, 0.0, m_x)
        return np.max(np.abs(u - np.sin(np.pi * x)))

    e1, e2 = err(64), err(128)
    order = np.log2(e1 / e2)
    assert 1.8 < order < 2.2


def test_diffusion_rejects_nonpositive_conductivity():
    with pytest.raises(ValueError):
        solve_diffusion(np.zeros(65), np.ones(65), 0.0, 0.0, 64)


def test_diffusion_rejects_bad_nodal_arrays():
    with pytest.raises(ValueError, match="nodal values"):
        solve_diffusion(np.ones(64), np.ones(64), 0.0, 0.0, 64)
    with pytest.raises(ValueError, match="nodal values"):
        solve_diffusion(np.ones((3, 65)), np.ones((2, 65)), 0.0, 0.0, 64)
    with pytest.raises(ValueError, match="nodal values"):
        solve_diffusion(np.ones((1, 3, 65)), np.ones((1, 3, 65)), 0.0, 0.0, 64)
    bad = np.ones((3, 65))
    bad[1, 7] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve_diffusion(np.ones((3, 65)), bad, 0.0, 0.0, 64)


def _nodal_rows(m_x, nq, seed):
    # smooth positive coefficients and forcings, one draw per row
    g = rng_stream(seed, 7)
    x = np.linspace(0, 1, m_x + 1)
    a, b, c = (g.uniform(-1, 1, (nq, 1)) for _ in range(3))
    nu = 1.0 + 0.6 * a * np.cos(np.pi * x) + 0.3 * b * np.sin(3 * x)
    f = -1.0 + c * x
    return nu, f


def test_stacked_solve_is_the_banded_solve_of_each_row():
    # the Dirichlet row 0 is interchanged with row 1 where the first face
    # coefficient exceeds 1 (|d_0| = 1 < |dl_0|); both kinds of row occur
    m_x = 40
    nu, f = _nodal_rows(m_x, 60, seed=2)
    face0 = 2.0 * nu[:, 0] * nu[:, 1] / (nu[:, 0] + nu[:, 1])
    assert np.any(face0 > 1.0) and np.any(face0 < 1.0)
    sol = solve_diffusion(nu, f, 0.3, -1.2, m_x, length=2.0)
    assert sol.shape == nu.shape
    for q in range(nu.shape[0]):
        assert _same(sol[q], solve_diffusion_banded(nu[q], f[q], 0.3, -1.2, m_x,
                                                    length=2.0))


def test_one_row_solve_is_the_banded_solve():
    m_x = 33
    nu, f = _nodal_rows(m_x, 2, seed=3)
    for q in range(2):
        sol = solve_diffusion(nu[q], f[q], 1.0, 0.5, m_x)
        assert sol.shape == (m_x + 1,)
        assert _same(sol, solve_diffusion_banded(nu[q], f[q], 1.0, 0.5, m_x))


def test_elimination_sweep_is_dgtsv_with_interior_interchanges():
    # diagonals with no dominance: about half the columns interchange rows
    # at every elimination step, the last one included; each column must
    # get dgtsv's bits
    n, cols = 12, 400
    g = rng_stream(0, 8)
    dl, du = g.uniform(-1, 1, (2, n - 1, cols))
    d, b = g.uniform(-1, 1, (2, n, cols))
    first = np.abs(d[0]) < np.abs(dl[0])
    assert first.any() and not first.all()
    expect = [solve_banded((1, 1), np.stack([np.r_[0.0, du[:, j]], d[:, j],
                                             np.r_[dl[:, j], 0.0]]), b[:, j])
              for j in range(cols)]
    testbed._gtsv(dl.copy(), d.copy(), du.copy(), x := b.copy())
    for j in range(cols):
        assert _same(x[:, j], expect[j])


def test_elimination_sweep_rejects_a_zero_pivot():
    d = np.array([[1.0], [0.0], [1.0]])
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        testbed._gtsv(np.zeros((2, 1)), d, np.zeros((2, 1)), np.ones((3, 1)))


def test_dataset_shapes_point_mode():
    cfg = DiffusionConfig(nd_nu=3, nd_f=2, m_x=32, m_k=100)
    ds = generate_dataset(cfg, 50, seed=1)
    assert (ds.nq, ds.nd, ds.ndx) == (50, 5, 0)
    assert ds.xi.min() >= 0 and ds.xi.max() <= 1


def test_dataset_shapes_scattered_mode():
    cfg = DiffusionConfig(nd_nu=3, nd_f=2, m_x=32, m_k=100)
    ds = generate_dataset(cfg, 50, seed=1, mode="scattered")
    assert (ds.nq, ds.nd, ds.ndx) == (50, 5, 1)
    assert ds.x.min() >= 0 and ds.x.max() <= 1


def test_dataset_deterministic_per_seed():
    cfg = DiffusionConfig(nd_nu=2, nd_f=2, m_x=32, m_k=64)
    a = generate_dataset(cfg, 20, seed=3)
    b = generate_dataset(cfg, 20, seed=3)
    c = generate_dataset(cfg, 20, seed=4)
    assert np.array_equal(a.xi, b.xi) and np.array_equal(a.u, b.u)
    assert not np.array_equal(a.u, c.u)


def test_dataset_prefix_stable_in_nq():
    # row q depends only on (seed, q), not on how many rows are drawn
    cfg = DiffusionConfig(nd_nu=2, nd_f=2, m_x=32, m_k=64)
    a = generate_dataset(cfg, 10, seed=5)
    b = generate_dataset(cfg, 25, seed=5)
    assert np.array_equal(a.xi, b.xi[:10])
    assert np.array_equal(a.u, b.u[:10])


def test_dataset_responses_match_direct_solve():
    cfg = DiffusionConfig(nd_nu=2, nd_f=2, m_x=64, m_k=100)
    ds = generate_dataset(cfg, 5, seed=9)
    nu_f, f_f = cfg.fields()
    x = np.linspace(0, 1, cfg.m_x + 1)
    for q in range(5):
        nu = kl_field(nu_f, ds.xi[q, :2], x)
        ff = kl_field(f_f, ds.xi[q, 2:], x)
        u = solve_diffusion(nu, ff, cfg.u_minus, cfg.u_plus, cfg.m_x)
        assert ds.u[q] == pytest.approx(float(np.interp(0.5, x, u)), abs=1e-12)


@pytest.mark.parametrize("mode", ["point", "scattered"])
def test_dataset_is_the_per_draw_generator_over_several_blocks(mode, monkeypatch):
    cfg = DiffusionConfig(nd_nu=3, nd_f=2, sigma_f=0.5, u_minus=0.5, m_x=17, m_k=60)
    nq = testbed._BLOCK_ROWS + 3
    rows = []
    solve = testbed.solve_diffusion

    def spy(nu, *args, **kwargs):
        rows.append(nu.shape[0])
        return solve(nu, *args, **kwargs)

    streams = []

    def counted(*key):
        streams.append(key)
        return rng_stream(*key)

    monkeypatch.setattr(testbed, "solve_diffusion", spy)
    # the name is looked up in both modules, wherever the generator reads it
    monkeypatch.setattr(data, "rng_stream", counted)
    monkeypatch.setattr(testbed, "rng_stream", counted, raising=False)
    ds = generate_dataset(cfg, nq, seed=12, mode=mode)
    # one stacked solve per block of rows: transient arrays stay bounded
    assert rows == [testbed._BLOCK_ROWS, 3]
    # every draw's stream is computed at once, none through a Generator
    assert streams == []
    ref = generate_rows(cfg, nq, seed=12, mode=mode)
    assert _same(ds.x, ref.x) and _same(ds.xi, ref.xi) and _same(ds.u, ref.u)


@pytest.mark.parametrize("x_star", [0.0, 1.0, 0.3, 1])
def test_point_probe_is_interp_at_ends_and_between_nodes(x_star):
    # x_star 0 and 1 fall on the first and the last node
    cfg = DiffusionConfig(nd_nu=4, nd_f=0, m_x=20, m_k=40, u_minus=1.0,
                          u_plus=2.0, x_star=x_star)
    ds = generate_dataset(cfg, 40, seed=13)
    ref = generate_rows(cfg, 40, seed=13)
    assert _same(ds.u, ref.u) and _same(ds.xi, ref.xi)


def test_probe_is_interp_of_each_row():
    # at a node np.interp returns the node value, also a -0.0 that
    # slope * 0 + y would turn into +0.0
    nodes = np.linspace(0.0, 1.0, 11)
    sol = rng_stream(0, 9).standard_normal((7, 11))
    sol[:, 3], sol[:, 4] = -0.0, 1.0
    x = np.array([0.0, nodes[3], 0.31, nodes[3], 1.0, 0.999, nodes[7]])
    got = testbed._probe(nodes, sol, x)
    for r in range(7):
        assert _same(got[r], np.float64(np.interp(x[r], nodes, sol[r])))


@pytest.mark.parametrize("sigmas, calls", [((0.7, 0.7), 1), ((0.7, 0.4), 2)])
def test_fields_share_one_eigendecomposition_per_sigma(sigmas, calls, monkeypatch):
    cfg = DiffusionConfig(nd_nu=4, nd_f=2, sigma_nu=sigmas[0], sigma_f=sigmas[1],
                          m_k=80)
    made = []

    def spy(*args, **kwargs):
        made.append(args)
        return kl_eigendecompose(*args, **kwargs)

    monkeypatch.setattr(testbed, "kl_eigendecompose", spy)
    nu_f, ff = cfg.fields()
    assert len(made) == calls
    for fld, sigma, nterms, mean in ((nu_f, sigmas[0], 4, 1.0), (ff, sigmas[1], 2, -1.0)):
        ref = kl_eigendecompose(sigma, cfg.lc, (0.0, 1.0), cfg.m_k, nterms,
                                mean_value=mean)
        assert (fld.nterms, fld.mean_value, fld.sigma) == (nterms, mean, sigma)
        assert _same(fld.eigenvalues, ref.eigenvalues)
        assert _same(fld.eigenfunctions, ref.eigenfunctions)
        assert _same(fld.grid, ref.grid)


@pytest.mark.parametrize("sigmas", [(0.7, 0.7), (0.7, 0.4)])
def test_one_eigendecomposition_per_config(sigmas, monkeypatch):
    cfg = DiffusionConfig(nd_nu=3, nd_f=2, sigma_nu=sigmas[0], sigma_f=sigmas[1],
                          m_x=17, m_k=60)
    made = []

    def spy(*args, **kwargs):
        made.append(args[0])
        return kl_eigendecompose(*args, **kwargs)

    monkeypatch.setattr(testbed, "kl_eigendecompose", spy)
    a = generate_dataset(cfg, 9, seed=1)
    b = generate_dataset(cfg, 4, seed=2, mode="scattered")
    fields = cfg.fields()
    assert sorted(made) == sorted(set(sigmas))
    assert cfg.fields() is fields
    # a replaced config is a new object and factors afresh, to the same bits
    again = replace(cfg)
    assert _same(generate_dataset(again, 9, seed=1).u, a.u)
    assert len(made) == 2 * len(set(sigmas))
    assert _same(generate_dataset(cfg, 4, seed=2, mode="scattered").x, b.x)
    assert len(made) == 2 * len(set(sigmas))


def test_conductivity_stays_positive_over_germ_box():
    # worst corners of the germ box must keep nu coercive
    cfg = DiffusionConfig(nd_nu=5, nd_f=2, m_x=64, m_k=200)
    nu_f, _ = cfg.fields()
    x = np.linspace(0, 1, 201)
    g = rng_stream(0, 123)
    worst = np.inf
    for _ in range(200):
        germ = g.integers(0, 2, size=5).astype(float)  # corners
        worst = min(worst, kl_field(nu_f, germ, x).min())
    assert worst > 0


def test_save_spectrum_csv(tmp_path):
    f = kl_eigendecompose(0.7, 0.3, (0.0, 1.0), 100, 5)
    p = tmp_path / "spectrum.csv"
    save_spectrum(f, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "k,eigenvalue"
    assert len(lines) == 6
    k, lam = lines[1].split(",")
    assert int(k) == 1 and float(lam) == pytest.approx(f.eigenvalues[0])


def test_config_validation():
    with pytest.raises(ValueError):
        DiffusionConfig(m_x=8)
    with pytest.raises(ValueError):
        DiffusionConfig(nd_nu=0, nd_f=0)
    for lc in (0.0, -0.3, float("nan")):
        with pytest.raises(ValueError, match="lc"):
            DiffusionConfig(lc=lc)
    for nd_nu, nd_f, m_k in ((5, 5, 2), (0, 1, 0), (2, 6, 5)):
        with pytest.raises(ValueError, match="m_k"):
            DiffusionConfig(nd_nu=nd_nu, nd_f=nd_f, m_k=m_k)
    DiffusionConfig(nd_nu=2, nd_f=6, m_k=6)
