"""Whole-pipeline acceptance checks.

One test per shipped guarantee: basis quality, field spectrum, solver
order, sparse recovery, benchmark error trends, separated-rank accuracy,
noise robustness, statistics consistency, scaling windows, and bit-exact
reproducibility. Tolerances and wall-clock budgets are pinned here and
nowhere else; the unit-test modules cover the same code at finer grain.
"""

import time
import warnings
from math import comb, erf

import numpy as np
import pytest

from hdmrfit.basis import BasisConfig, univariate_table
from hdmrfit.cli import main
from hdmrfit.data import (NoiseModel, SampleSet, inject_noise, rng_stream,
                          split)
from hdmrfit.fitting import (FitConfig, covariance_blocks, fit_hdmr,
                             ls_solve, relative_error, wtls_solve)
from hdmrfit.model import (dense_design, evaluate_model, model_variance,
                           sobol_indices)
from hdmrfit.selection import SelectionConfig, glars_select
from hdmrfit.separated import SeparatedConfig, SpatialBasis, fit_separated
from hdmrfit.testbed import (DiffusionConfig, generate_dataset,
                             kl_eigendecompose, solve_diffusion)


def _gauss_gram(cfg: BasisConfig, n_points: int = 32) -> np.ndarray:
    """Gram matrix of the family under Gauss-Legendre quadrature."""
    t, w = np.polynomial.legendre.leggauss(n_points)
    x = cfg.lo + 0.5 * (cfg.hi - cfg.lo) * (t + 1.0)
    w = 0.5 * w  # uniform probability measure on [lo, hi]
    vals = univariate_table(cfg, x).T
    return (vals * w) @ vals.T


def test_basis_gram_is_identity_under_quadrature():
    t0 = time.perf_counter()
    for cfg in (BasisConfig(lo=-1.0, hi=1.0, max_order=10),
                BasisConfig(lo=0.0, hi=1.0, max_order=10)):
        gram = _gauss_gram(cfg)
        dev = float(np.max(np.abs(gram - np.eye(10))))
        assert dev < 1e-12, f"orthonormality deviation {dev:.2e} on {cfg}"
    assert time.perf_counter() - t0 < 1.0


# Reference spectrum of the covariance sigma^2 exp(-(x-y)^2 / (2 lc^2)) at
# sigma = 0.7, lc = 0.3 on [0, 1]: leading eigenvalues of a 64-node
# Gauss-Legendre Nystrom solve, written with numpy alone (unchanged at 96 and
# 128 nodes), rounded to 5 significant digits.
REFERENCE_SPECTRUM = (0.28916, 0.14218, 0.046028, 0.010523, 0.0018235,
                      0.00025325)


def _rayleigh_lower_bound(sigma: float, lc: float, length: float) -> float:
    """Closed-form (1/|D|) int int C(x, y) dx dy on an interval of ``length``.

    This is the Rayleigh quotient of the constant function, hence a lower
    bound on the leading eigenvalue of the covariance operator.
    """
    a = np.sqrt(2.0) * lc
    r = length / a
    return sigma**2 * (a * np.sqrt(np.pi) * erf(r)
                       - a**2 * (1.0 - np.exp(-r**2)) / length)


def test_field_spectrum_reproduces_reference_values():
    t0 = time.perf_counter()
    # the table itself must be a possible spectrum of the kernel
    trace = 0.49  # sigma^2 |D|
    table_sum = sum(REFERENCE_SPECTRUM)
    assert table_sum < trace, \
        f"reference table sums to {table_sum:.6f}, at or above the trace " \
        f"{trace}; eigenvalues 7 and up of the kernel are positive"
    bound = _rayleigh_lower_bound(0.7, 0.3, 1.0)
    assert REFERENCE_SPECTRUM[0] >= bound, \
        f"reference first eigenvalue {REFERENCE_SPECTRUM[0]} is below the " \
        f"Rayleigh lower bound {bound:.4f} of the constant function"
    field = kl_eigendecompose(0.7, 0.3, (0.0, 1.0), 400, 400)
    lam = np.asarray(field.eigenvalues)
    total = float(lam.sum())
    assert abs(total - 0.49) <= 0.005 * 0.49, \
        f"spectrum sum {total:.4f}, expected 0.49 within 0.5%"
    assert abs(lam[0] - REFERENCE_SPECTRUM[0]) <= 0.02 * REFERENCE_SPECTRUM[0], \
        f"first eigenvalue {lam[0]:.4f}, expected {REFERENCE_SPECTRUM[0]} within 2%"
    for k, ref in enumerate(REFERENCE_SPECTRUM):
        assert abs(lam[k] - ref) <= 0.05 * ref, \
            f"eigenvalue {k + 1}: {lam[k]:.4f}, expected {ref} within 5%"
    assert time.perf_counter() - t0 < 5.0


def test_solver_midpoint_value_and_convergence_order():
    t0 = time.perf_counter()
    # constant data: u(x) = x(1-x)/2, nodally exact, read at the midpoint
    m_x = 512
    sol = solve_diffusion(np.ones(m_x + 1), -np.ones(m_x + 1), 0.0, 0.0, m_x)
    mid = float(np.interp(0.5, np.linspace(0.0, 1.0, m_x + 1), sol))
    assert abs(mid - 0.125) < 1e-5

    # manufactured solution with varying conductivity exposes the
    # second-order truncation error
    def err(m):
        x = np.linspace(0.0, 1.0, m + 1)
        nu = 1.0 + 0.5 * np.sin(2 * np.pi * x)
        f = (np.pi ** 2 * np.cos(2 * np.pi * x) * np.cos(np.pi * x)
             - np.pi ** 2 * np.sin(np.pi * x) * nu)
        u = solve_diffusion(nu, f, 0.0, 0.0, m)
        return float(np.max(np.abs(u - np.sin(np.pi * x))))

    order = float(np.log2(err(64) / err(128)))
    assert 1.8 <= order <= 2.2, f"observed convergence order {order:.2f}"
    assert time.perf_counter() - t0 < 1.0


def _planted_target(seed: int, nd: int, no: int, basis: BasisConfig):
    """Three first-order and two second-order dense modes with positive
    coefficients drawn in [0.5, 2]; groups use 1-based dimension labels."""
    g = rng_stream(88, seed, 0)
    dims = g.choice(nd, size=7, replace=False) + 1
    groups = [(int(dims[0]),), (int(dims[1]),), (int(dims[2]),),
              tuple(sorted((int(dims[3]), int(dims[4])))),
              tuple(sorted((int(dims[5]), int(dims[6]))))]
    coeffs = {}
    for gr in groups:
        if len(gr) == 1:
            idx = [(a,) for a in range(2, no + 2)]
        else:
            idx = [(a, b) for a in range(2, no + 1)
                   for b in range(2, no + 1) if (a - 1) + (b - 1) <= no]
        coeffs[gr] = (idx, g.uniform(0.5, 2.0, len(idx)))

    def evaluate(xi):
        tab = univariate_table(basis, xi)
        u = np.zeros(xi.shape[0])
        for gr in groups:
            for alpha, w in zip(*coeffs[gr]):
                term = np.ones(xi.shape[0])
                for d, a in zip(gr, alpha):
                    term = term * tab[:, d - 1, a - 1]
                u += w * term
        return u

    return groups, evaluate


def test_selection_recovers_planted_sparse_target():
    t0 = time.perf_counter()
    nd, no = 20, 4
    basis = BasisConfig(lo=0.0, hi=1.0, max_order=no + 1)
    sel = SelectionConfig(nolars=no, ninter=2, max_groups=12)
    hits = 0
    errs = []
    for seed in range(10):
        groups, evaluate = _planted_target(seed, nd, no, basis)
        xi = rng_stream(88, seed, 1).uniform(0.0, 1.0, (1000, nd))
        data = SampleSet(np.empty((1000, 0)), xi, evaluate(xi))
        xi_t = rng_stream(88, seed, 2).uniform(0.0, 1.0, (2000, nd))
        test = SampleSet(np.empty((2000, 0)), xi_t, evaluate(xi_t))
        train, val, _ = split(data, 800, 200, 0, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            path = glars_select(train, sel, basis)
            model, _ = fit_hdmr(train, val, path,
                                FitConfig(no=no, npc=2, ninter=2, seed=seed),
                                basis)
        hits += set(map(tuple, path.groups()[:5])) == set(groups)
        errs.append(relative_error(model, test))
    assert hits >= 9, f"true groups ranked first in only {hits}/10 runs"
    assert max(errs) <= 1e-8, f"worst test error {max(errs):.2e}"
    assert time.perf_counter() - t0 < 30.0


def test_benchmark_error_decreases_with_sample_count():
    t0 = time.perf_counter()
    cfg = DiffusionConfig(nd_nu=5, nd_f=5, m_x=64, m_k=400)
    test = generate_dataset(cfg, 10000, 301)
    no = 8
    basis = BasisConfig(lo=0.0, hi=1.0, max_order=no + 1)
    sel = SelectionConfig(nolars=4, ninter=3, max_groups=64)
    medians = []
    for nq in (500, 1000, 3000):
        errs = []
        for seed in range(5):
            data = generate_dataset(cfg, nq, seed)
            ntr = nq * 4 // 5
            train, val, _ = split(data, ntr, nq - ntr, 0, seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                path = glars_select(train, sel, basis)
                model, _ = fit_hdmr(
                    train, val, path,
                    FitConfig(no=no, npc=3, ninter=3, seed=seed), basis)
            errs.append(relative_error(model, test))
        medians.append(float(np.median(errs)))
    assert medians[0] >= medians[1] >= medians[2], \
        f"median errors not non-increasing: {medians}"
    assert medians[2] <= 1e-2, f"error at the largest budget: {medians[2]:.2e}"
    assert time.perf_counter() - t0 < 600.0


def test_separated_rank_error_table():
    t0 = time.perf_counter()
    cfg = DiffusionConfig(nd_nu=3, nd_f=3, u_minus=2.5, u_plus=2.5,
                          m_x=64, m_k=400)
    test = generate_dataset(cfg, 10000, 101, mode="scattered")
    basis = BasisConfig(lo=0.0, hi=1.0, max_order=11)
    sel = SelectionConfig(nolars=3, ninter=3, max_groups=64)
    fitc = FitConfig(no=10, npc=3, ninter=3, seed=0)
    sb = SpatialBasis(kind="nodal-piecewise-linear", cardx=32)
    data = generate_dataset(cfg, 3000, 0, mode="scattered")
    train, val, _ = split(data, 2400, 600, 0, 0)
    eps = []
    for lmax in (0, 1, 2):
        sep = SeparatedConfig(lmax=lmax, update_spatial_joint=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fit_separated(train, sel, fitc, sep, sb, basis,
                                  validation=val)
        eps.append(relative_error(model, test))
    assert 3e-3 <= eps[0] <= 9e-3, f"rank-0 error {eps[0]:.3e}"
    assert eps[0] > eps[1] > eps[2], f"errors not strictly decreasing: {eps}"
    assert eps[2] <= 1.1e-3, f"rank-2 error {eps[2]:.3e}"
    assert time.perf_counter() - t0 < 900.0


NOISY_ND = 5
NOISY_NO = 6
NOISY_BASIS = BasisConfig(lo=0.0, hi=1.0, max_order=NOISY_NO + 1)


def _heteroscedastic_target(xi):
    """Smooth five-dimensional response whose magnitude spans roughly
    [0.2, 4]: under multiplicative value noise the per-sample variance
    then varies by orders of magnitude across the design."""
    tab = univariate_table(NOISY_BASIS, xi)
    return (2.2 + 1.05 * tab[:, 0, 1] + 0.30 * tab[:, 1, 2]
            + 0.20 * tab[:, 2, 1] * tab[:, 3, 1] + 0.15 * tab[:, 4, 3])


def _noisy_set(nq: int, seed: int) -> SampleSet:
    xi = rng_stream(77, seed, 0).uniform(0.0, 1.0, (nq, NOISY_ND))
    return SampleSet(np.empty((nq, 0)), xi, _heteroscedastic_target(xi))


def test_weighted_fit_beats_plain_under_noise_and_matches_it_without():
    test = _noisy_set(5000, 999)
    sel = SelectionConfig(nolars=4, ninter=2, max_groups=16)
    noise = NoiseModel(s=3e-3, s_u=0.2, box=(0.0, 1.0))
    wins = 0
    for seed in range(5):
        data = _noisy_set(500, seed)
        train_c, val_c, _ = split(data, 400, 100, 0, seed)
        train = inject_noise(train_c, noise, seed + 700)
        val = inject_noise(val_c, noise, seed + 900)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            path = glars_select(train, sel, NOISY_BASIS)
            plain, _ = fit_hdmr(
                train, val, path,
                FitConfig(no=NOISY_NO, npc=2, ninter=2, seed=seed),
                NOISY_BASIS)
            robust, _ = fit_hdmr(
                train, val, path,
                FitConfig(no=NOISY_NO, npc=2, ninter=2, seed=seed,
                          robust=True, noise=noise),
                NOISY_BASIS)
        wins += relative_error(robust, test) <= relative_error(plain, test)
    assert wins >= 4, f"weighted fit no worse in only {wins}/5 runs"

    # full driver: a robust fit configured with zero noise scales must
    # reproduce the plain coefficients
    data = _noisy_set(500, 0)
    train, val, _ = split(data, 400, 100, 0, 0)
    sel = SelectionConfig(nolars=4, ninter=2, max_groups=16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        path = glars_select(train, sel, NOISY_BASIS)
        plain, _ = fit_hdmr(
            train, val, path,
            FitConfig(no=NOISY_NO, npc=2, ninter=2, seed=0), NOISY_BASIS)
        robust, _ = fit_hdmr(
            train, val, path,
            FitConfig(no=NOISY_NO, npc=2, ninter=2, seed=0,
                      robust=True, noise=NoiseModel(s=0.0, s_u=0.0)),
            NOISY_BASIS)
    assert robust.f0 == pytest.approx(plain.f0, abs=1e-8)
    assert len(robust.dense) == len(plain.dense)
    for a, b in zip(robust.dense, plain.dense):
        assert a.dims == b.dims and a.indices == b.indices
        np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-8)

    # solver level: with only a constant value-noise variance the weighted
    # iteration must land on the plain least-squares coefficients
    train = _noisy_set(300, 1)
    dims, indices = (1,), ((2,), (3,), (4,))
    psi = dense_design(univariate_table(NOISY_BASIS, train.xi), dims, indices)
    r = train.u - float(train.u.mean())
    blocks = covariance_blocks(
        train, [(dims, indices)], NoiseModel(s=0.0, s_u=0.1), NOISY_BASIS,
        u_ref=np.ones(train.nq))
    c_w = wtls_solve(psi, r, blocks)
    np.testing.assert_allclose(c_w, ls_solve(psi, r), atol=1e-8)


def _mc_variance(model, nd: int, n_draws: int = 1_000_000) -> float:
    vals = np.empty(n_draws)
    chunk = 200_000
    g = rng_stream(1234, 0)
    for start in range(0, n_draws, chunk):
        xi = g.uniform(model.basis.lo, model.basis.hi,
                       (min(chunk, n_draws - start), nd))
        vals[start:start + xi.shape[0]] = evaluate_model(model, xi)
    return float(np.var(vals))


def test_variance_and_sensitivity_are_consistent():
    fitted = []

    data = _noisy_set(600, 4)
    train, val, _ = split(data, 480, 120, 0, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        path = glars_select(train, SelectionConfig(nolars=4, ninter=2,
                                                   max_groups=16), NOISY_BASIS)
        model, _ = fit_hdmr(train, val, path,
                            FitConfig(no=NOISY_NO, npc=2, ninter=2, seed=4),
                            NOISY_BASIS)
    fitted.append((model, NOISY_ND))

    cfg = DiffusionConfig(nd_nu=2, nd_f=2, m_x=32, m_k=64)
    data = generate_dataset(cfg, 500, 11)
    train, val, _ = split(data, 400, 100, 0, 11)
    basis = BasisConfig(lo=0.0, hi=1.0, max_order=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        path = glars_select(train, SelectionConfig(nolars=3, ninter=2,
                                                   max_groups=12), basis)
        model, _ = fit_hdmr(train, val, path,
                            FitConfig(no=4, npc=2, ninter=2, seed=11), basis)
    fitted.append((model, 4))

    for model, nd in fitted:
        indices = sobol_indices(model)
        assert indices, "fitted model retained no interaction modes"
        total = float(sum(indices.values()))
        assert abs(total - 1.0) <= 1e-10, f"sensitivity indices sum {total}"
        mc = _mc_variance(model, nd)
        exact = model_variance(model)
        assert mc == pytest.approx(exact, rel=1e-2), \
            f"closed-form variance {exact:.6e} vs sampled {mc:.6e}"


def _scan_seconds(nd: int, nq: int, sel: SelectionConfig,
                  basis: BasisConfig) -> float:
    g = rng_stream(0, 9, nd)
    xi = g.uniform(-1.0, 1.0, size=(nq, nd))
    u = np.sin(xi[:, 0]) + xi[:, 1] * xi[:, 2] + 0.1 * xi[:, 3]
    ds = SampleSet(np.empty((nq, 0)), xi, u)
    glars_select(ds, sel, basis)  # warm-up
    times = []
    for _ in range(3):
        path = glars_select(ds, sel, basis)
        times.append(path.scan_seconds)
    return float(np.median(times))


def _coeff_seconds(nd: int, nq: int, basis: BasisConfig) -> float:
    g = rng_stream(0, 10, nd)
    xi = g.uniform(-1.0, 1.0, size=(nq, nd))
    u = np.sin(xi[:, 0]) + xi[:, 1] * xi[:, 2] + 0.1 * xi[:, 3]
    ds = SampleSet(np.empty((nq, 0)), xi, u)
    groups = [(1,), (2,), (3,), (1, 2), (2, 3)]
    fitc = FitConfig(no=6, npc=2, ninter=2, seed=0)
    fit_hdmr(ds, None, groups, fitc, basis)  # warm-up
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        fit_hdmr(ds, None, groups, fitc, basis)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def test_scan_and_coefficient_timing_windows():
    nolars = 4
    sel = SelectionConfig(nolars=nolars, ninter=3, max_groups=8)
    basis = BasisConfig(lo=-1.0, hi=1.0, max_order=nolars + 1)

    # dimension pair chosen so the dictionary roughly doubles: comb(nd, l)
    # groups of cardinality l <= 3, each with comb(nolars, l) predictors
    card_small = sum(comb(24, l) * comb(nolars, l) for l in range(4))
    card_large = sum(comb(30, l) * comb(nolars, l) for l in range(4))
    assert 1.8 <= card_large / card_small <= 2.2

    scan_ratio = (_scan_seconds(30, 1000, sel, basis)
                  / _scan_seconds(24, 1000, sel, basis))
    assert 1.5 <= scan_ratio <= 2.8, \
        f"inactive-scan time ratio {scan_ratio:.2f} for a doubled dictionary"

    coeff_ratio = (_coeff_seconds(48, 1000, basis)
                   / _coeff_seconds(24, 1000, basis))
    assert 0.8 <= coeff_ratio <= 1.5, \
        f"coefficient-fit time ratio {coeff_ratio:.2f} when dimension doubles"


def test_identical_fits_write_identical_bytes(tmp_path):
    csv = tmp_path / "data.csv"
    rc = main(["gen-diffusion", "--out", str(csv), "--nq", "260",
               "--nd-nu", "2", "--nd-f", "2", "--mx", "32", "--mk", "48",
               "--seed", "3"])
    assert rc == 0
    blobs = []
    for name in ("m1.json", "m2.json"):
        out = tmp_path / name
        rc = main(["fit", str(csv), "--out", str(out), "--no", "4",
                   "--nolars", "3", "--ninter", "2", "--npc", "2",
                   "--seed", "7"])
        assert rc == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1], "two identical fits wrote different model files"
