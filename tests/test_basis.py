import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdmrfit.basis import (
    BasisConfig,
    eval_univariate,
    univariate_deriv_table,
    univariate_table,
)
from oracles import eval_tensor, eval_univariate_deriv

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
    assert np.allclose(eval_univariate(B, 1, x), 1.0)


def test_pinned_values_reference_interval():
    assert eval_univariate(B, 2, 1.0) == pytest.approx(np.sqrt(3), abs=1e-14)
    assert eval_univariate(B, 3, 0.0) == pytest.approx(-np.sqrt(5) / 2, abs=1e-14)
    assert eval_univariate_deriv(B, 3, 1.0) == pytest.approx(3 * np.sqrt(5), abs=1e-13)


def test_derivative_matches_finite_differences():
    x = np.linspace(-0.9, 0.9, 41)
    h = 1e-6
    for k in range(2, 9):
        fd = (eval_univariate(B, k, x + h) - eval_univariate(B, k, x - h)) / (2 * h)
        assert np.max(np.abs(fd - eval_univariate_deriv(B, k, x))) < 1e-6


def test_interval_map_chain_rule():
    # d/dxi on [0, 1] is 2x the reference derivative at the mapped point
    c = BasisConfig(lo=0.0, hi=1.0, max_order=6)
    x = np.linspace(0.05, 0.95, 11)
    t = 2 * x - 1
    for k in range(2, 7):
        expect = 2.0 * eval_univariate_deriv(B, k, t)
        assert np.allclose(eval_univariate_deriv(c, k, x), expect, atol=1e-12)


def test_order_out_of_range_raises():
    with pytest.raises(IndexError):
        eval_univariate(B, 0, 0.0)
    with pytest.raises(IndexError):
        eval_univariate(B, 11, 0.0)
    with pytest.raises(IndexError):
        eval_univariate_deriv(B, 11, 0.0)


def test_table_matches_pointwise_eval():
    g = np.random.default_rng(0)
    x = g.uniform(-1, 1, size=17)
    tab = univariate_table(B, x)
    assert tab.shape == (17, 10)
    for k in range(1, 11):
        assert np.allclose(tab[:, k - 1], eval_univariate(B, k, x), atol=1e-14)
    dt = univariate_deriv_table(B, x)
    for k in range(1, 11):
        assert np.allclose(dt[:, k - 1], eval_univariate_deriv(B, k, x), atol=1e-13)


def test_tensor_eval_is_product_of_factors():
    g = np.random.default_rng(1)
    xi = g.uniform(-1, 1, size=(5, 3))
    got = eval_tensor(B, (1, 3), (2, 4), xi)
    expect = eval_univariate(B, 2, xi[:, 0]) * eval_univariate(B, 4, xi[:, 2])
    assert np.allclose(got, expect, atol=1e-14)


@given(st.floats(min_value=-1.0, max_value=1.0),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=200, deadline=None)
def test_bounded_by_norm_factor(x, k):
    # |P_{k-1}| <= 1 on [-1, 1], so |psi_k| <= sqrt(2k - 1)
    assert abs(eval_univariate(B, k, x)) <= np.sqrt(2 * k - 1) + 1e-12


@given(st.integers(min_value=2, max_value=10))
@settings(max_examples=20, deadline=None)
def test_zero_mean_of_nonconstant_functions(k):
    t, w = np.polynomial.legendre.leggauss(24)
    assert abs(np.sum(w / 2 * eval_univariate(B, k, t))) < 1e-14
