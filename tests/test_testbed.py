import numpy as np
import pytest

from hdmrfit.data import rng_stream
from hdmrfit.testbed import (
    DiffusionConfig,
    generate_dataset,
    kl_eigendecompose,
    sample_field,
    save_spectrum,
    solve_diffusion,
)


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


def test_sample_field_mean_at_zero_germ():
    f = kl_eigendecompose(0.7, 0.3, (0.0, 1.0), 200, 6, mean_value=2.5)
    x = np.linspace(0, 1, 11)
    vals = sample_field(f, np.zeros(6), x)
    assert np.allclose(vals, 2.5, atol=1e-14)


def test_sample_field_linear_in_germ():
    f = kl_eigendecompose(0.7, 0.3, (0.0, 1.0), 200, 6, mean_value=1.0)
    x = np.array([0.25, 0.75])
    g = np.array([1.0, -0.5, 0.0, 0.2, 0.0, 0.0])
    a = sample_field(f, g, x) - sample_field(f, np.zeros(6), x)
    b = sample_field(f, 2 * g, x) - sample_field(f, np.zeros(6), x)
    assert np.allclose(b, 2 * a, atol=1e-12)


def test_sample_field_scalar_point():
    f = kl_eigendecompose(0.7, 0.3, (0.0, 1.0), 200, 4)
    v = sample_field(f, np.zeros(4), 0.5)
    assert isinstance(v, float)
    with pytest.raises(ValueError):
        sample_field(f, np.zeros(4), 1.5)


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
        nu = sample_field(nu_f, ds.xi[q, :2], x)
        ff = sample_field(f_f, ds.xi[q, 2:], x)
        u = solve_diffusion(nu, ff, cfg.u_minus, cfg.u_plus, cfg.m_x)
        assert ds.u[q] == pytest.approx(float(np.interp(0.5, x, u)), abs=1e-12)


def test_conductivity_stays_positive_over_germ_box():
    # worst corners of the germ box must keep nu coercive
    cfg = DiffusionConfig(nd_nu=5, nd_f=2, m_x=64, m_k=200)
    nu_f, _ = cfg.fields()
    x = np.linspace(0, 1, 201)
    g = rng_stream(0, 123)
    worst = np.inf
    for _ in range(200):
        germ = g.integers(0, 2, size=5).astype(float)  # corners
        worst = min(worst, sample_field(nu_f, germ, x).min())
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
