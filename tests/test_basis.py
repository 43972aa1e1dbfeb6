import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdmrfit.basis import BasisConfig, univariate_deriv_table, univariate_table
from oracles import eval_tensor, legendre_dpsi, legendre_psi

B = BasisConfig(lo=-1.0, hi=1.0, max_order=10)


def gauss_gram(cfg, n_points=32):
    # Gram under the uniform measure on [lo, hi] by Gauss-Legendre quadrature
    t, w = np.polynomial.legendre.leggauss(n_points)
    x = 0.5 * (cfg.hi - cfg.lo) * t + 0.5 * (cfg.hi + cfg.lo)
    tab = univariate_table(cfg, x)
    return np.einsum("q,qa,qb->ab", w / 2.0, tab, tab)


def test_gram_is_identity_to_1e_12():
    g = gauss_gram(B)
    assert np.max(np.abs(g - np.eye(10))) < 1e-12


def test_gram_identity_on_shifted_interval():
    g = gauss_gram(BasisConfig(lo=0.0, hi=1.0, max_order=10))
    assert np.max(np.abs(g - np.eye(10))) < 1e-12


def test_first_function_is_constant_one():
    x = np.linspace(-1, 1, 7)
    assert np.allclose(univariate_table(B, x)[:, 0], 1.0)


def test_pinned_values_reference_interval():
    assert univariate_table(B, 1.0)[1] == pytest.approx(np.sqrt(3), abs=1e-14)
    assert univariate_table(B, 0.0)[2] == pytest.approx(-np.sqrt(5) / 2, abs=1e-14)
    assert univariate_deriv_table(B, 1.0)[2] == pytest.approx(3 * np.sqrt(5), abs=1e-13)


def test_derivative_matches_finite_differences():
    x = np.linspace(-0.9, 0.9, 41)
    h = 1e-6
    fd = (univariate_table(B, x + h) - univariate_table(B, x - h)) / (2 * h)
    dt = univariate_deriv_table(B, x)
    for k in range(2, 9):
        assert np.max(np.abs(fd[:, k - 1] - dt[:, k - 1])) < 1e-6


def test_interval_map_chain_rule():
    # d/dxi on [0, 1] is 2x the reference derivative at the mapped point
    c = BasisConfig(lo=0.0, hi=1.0, max_order=6)
    x = np.linspace(0.05, 0.95, 11)
    expect = 2.0 * univariate_deriv_table(B, 2 * x - 1)[:, :6]
    assert np.allclose(univariate_deriv_table(c, x), expect, atol=1e-12)


def test_order_out_of_range_raises():
    # a basis has orders 1..max_order, max_order >= 1, and its tables one
    # column per order; the oracles check the index themselves
    with pytest.raises(ValueError, match="max_order"):
        BasisConfig(max_order=0)
    assert univariate_table(B, np.zeros(3)).shape == (3, 10)
    assert univariate_deriv_table(B, np.zeros(3)).shape == (3, 10)
    with pytest.raises(IndexError):
        legendre_psi(B, 0, 0.0)
    with pytest.raises(IndexError):
        legendre_psi(B, 11, 0.0)
    with pytest.raises(IndexError):
        legendre_dpsi(B, 11, 0.0)


def test_table_matches_pointwise_eval():
    g = np.random.default_rng(0)
    x = g.uniform(-1, 1, size=17)
    tab = univariate_table(B, x)
    assert tab.shape == (17, 10)
    for k in range(1, 11):
        assert np.allclose(tab[:, k - 1], legendre_psi(B, k, x), atol=1e-14)
    dt = univariate_deriv_table(B, x)
    for k in range(1, 11):
        assert np.allclose(dt[:, k - 1], legendre_dpsi(B, k, x), atol=1e-13)


@pytest.mark.parametrize("lo,hi", [(-1.0, 1.0), (0.0, 1.0)])
def test_tables_match_numpy_legendre_series(lo, hi):
    # every order up to 12, endpoints included: values to 1e-13 absolute
    # (|psi_12| <= sqrt(23)), derivatives to 1e-13 of each order's largest
    # derivative on the interval, which sits at the endpoints
    cfg = BasisConfig(lo=lo, hi=hi, max_order=12)
    x = np.linspace(lo, hi, 201)
    tab = univariate_table(cfg, x)
    dt = univariate_deriv_table(cfg, x)
    for k in range(1, 13):
        assert np.max(np.abs(tab[:, k - 1] - legendre_psi(cfg, k, x))) <= 1e-13
        d = legendre_dpsi(cfg, k, x)
        assert np.max(np.abs(dt[:, k - 1] - d)) <= 1e-13 * max(np.max(np.abs(d)), 1.0)


def test_tensor_eval_is_product_of_factors():
    g = np.random.default_rng(1)
    xi = g.uniform(-1, 1, size=(5, 3))
    got = eval_tensor(B, (1, 3), (2, 4), xi)
    tab = univariate_table(B, xi)
    assert np.allclose(got, tab[:, 0, 1] * tab[:, 2, 3], atol=1e-14)


@given(st.floats(min_value=-1.0, max_value=1.0),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=200, deadline=None)
def test_bounded_by_norm_factor(x, k):
    # |P_{k-1}| <= 1 on [-1, 1], so |psi_k| <= sqrt(2k - 1)
    assert abs(univariate_table(B, x)[k - 1]) <= np.sqrt(2 * k - 1) + 1e-12


@given(st.integers(min_value=2, max_value=10))
@settings(max_examples=20, deadline=None)
def test_zero_mean_of_nonconstant_functions(k):
    t, w = np.polynomial.legendre.leggauss(24)
    assert abs(np.sum(w / 2 * univariate_table(B, t)[:, k - 1])) < 1e-14
