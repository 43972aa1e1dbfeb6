import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hdmrfit.basis import BasisConfig, univariate_table
from hdmrfit.data import rng_stream
from hdmrfit.model import (
    CPMode,
    DenseMode,
    HdmrModel,
    dense_design,
    dictionary_cardinality,
    enumerate_dense_indices,
    evaluate_model,
    load_model,
    model_mean,
    model_variance,
    save_model,
    sobol_indices,
    total_sobol,
    variance_by_group,
)

B = BasisConfig(lo=-1.0, hi=1.0, max_order=6)


def small_model():
    # f = 1.5 + 2 psi_2(x1) + psi_2(x2) psi_2(x3), Nd = 3
    d1 = DenseMode((1,), ((2,),), np.array([2.0]))
    d23 = DenseMode((2, 3), ((2, 2),), np.array([1.0]))
    return HdmrModel(f0=1.5, basis=B, nd=3, no=3, ninter=2, npc=2, nr=2,
                     dense=[d1, d23], cp=[])


def test_enumerate_first_order_runs_to_no_plus_one():
    assert enumerate_dense_indices((1,), 3) == [(2,), (3,), (4,)]


def test_enumerate_second_order_total_degree():
    assert enumerate_dense_indices((1, 2), 3) == [(2, 2), (2, 3), (3, 2)]


def test_enumerate_counts_are_binomial():
    from math import comb
    for no in (2, 3, 5, 8):
        for card in (1, 2, 3):
            dims = tuple(range(1, card + 1))
            assert len(enumerate_dense_indices(dims, no)) == comb(no, card)


def test_enumeration_is_lexicographic():
    idx = enumerate_dense_indices((1, 2), 4)
    assert idx == sorted(idx)


def test_cardinality_pinned_examples():
    assert dictionary_cardinality(2, 2, 1, 1, 1) == 5
    assert dictionary_cardinality(3, 2, 2, 1, 1) == 19
    assert dictionary_cardinality(8, 8, 3, 3, 1) == 3985


def test_cardinality_rejects_bad_thresholds():
    with pytest.raises(ValueError):
        dictionary_cardinality(3, 2, 4, 1, 1)


def test_evaluate_single_and_batch():
    m = small_model()
    g = rng_stream(0, 1)
    xi = g.uniform(-1, 1, size=(40, 3))
    tab = univariate_table(B, xi)
    expect = 1.5 + 2 * tab[:, 0, 1] + tab[:, 1, 1] * tab[:, 2, 1]
    got = evaluate_model(m, xi)
    assert np.allclose(got, expect, atol=1e-13)
    assert evaluate_model(m, xi[0]) == pytest.approx(expect[0])


def test_mean_is_constant_term():
    assert model_mean(small_model()) == 1.5


def test_variance_is_coefficient_energy():
    m = small_model()
    assert model_variance(m) == pytest.approx(5.0, abs=1e-12)
    v = variance_by_group(m)
    assert v[(1,)] == pytest.approx(4.0)
    assert v[(2, 3)] == pytest.approx(1.0)


def test_variance_matches_quadrature():
    # orthonormality makes the closed form exact
    m = small_model()
    t, w = np.polynomial.legendre.leggauss(8)
    pts = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)
    wts = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel() / 8
    vals = evaluate_model(m, pts)
    mean = float(wts @ vals)
    var = float(wts @ (vals - mean) ** 2)
    assert mean == pytest.approx(model_mean(m), abs=1e-12)
    assert var == pytest.approx(model_variance(m), rel=1e-10)


def test_modes_are_orthogonal_and_zero_mean_under_quadrature():
    m = small_model()
    t, w = np.polynomial.legendre.leggauss(8)
    pts = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)
    wts = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel() / 8
    tab = univariate_table(B, pts)
    f1 = 2 * tab[:, 0, 1]
    f23 = tab[:, 1, 1] * tab[:, 2, 1]
    assert abs(wts @ f1) < 1e-12
    assert abs(wts @ f23) < 1e-12
    assert abs(wts @ (f1 * f23)) < 1e-12


def test_sobol_indices_sum_to_one():
    s = sobol_indices(small_model())
    assert sum(s.values()) == pytest.approx(1.0, abs=1e-12)
    assert s[(1,)] == pytest.approx(0.8)
    assert s[(2, 3)] == pytest.approx(0.2)


def test_total_sobol_spec_examples():
    # modes {1} and {1,2} with unit variance each
    d1 = DenseMode((1,), ((2,),), np.array([1.0]))
    d12 = DenseMode((1, 2), ((2, 2),), np.array([1.0]))
    m = HdmrModel(f0=0.0, basis=B, nd=2, no=2, ninter=2, npc=2, nr=1,
                  dense=[d1, d12], cp=[])
    assert total_sobol(m, 1) == pytest.approx(1.0)
    assert total_sobol(m, 2) == pytest.approx(0.5)


def test_total_sobol_absent_dimension_is_zero():
    assert total_sobol(small_model(), 3) == pytest.approx(0.2)
    m = HdmrModel(f0=0.0, basis=B, nd=4, no=2, ninter=1, npc=1, nr=1,
                  dense=[DenseMode((1,), ((2,),), np.array([1.0]))], cp=[])
    assert total_sobol(m, 4) == 0.0


def test_zero_variance_model_has_zero_indices():
    m = HdmrModel(f0=2.0, basis=B, nd=2, no=2, ninter=1, npc=1, nr=1,
                  dense=[], cp=[])
    assert model_variance(m) == 0.0
    assert sobol_indices(m) == {}
    assert total_sobol(m, 1) == 0.0


def test_cp_mode_variance_against_monte_carlo():
    g = rng_stream(2, 5)
    fac = g.uniform(-1, 1, size=(2, 3, 3))  # rank 2, card 3, orders 2..4
    cp = CPMode((1, 2, 3), fac)
    m = HdmrModel(f0=0.0, basis=B, nd=3, no=4, ninter=3, npc=2, nr=2,
                  dense=[], cp=[cp])
    xi = g.uniform(-1, 1, size=(400_000, 3))
    vals = evaluate_model(m, xi)
    mc = float(np.var(vals))
    assert model_variance(m) == pytest.approx(mc, rel=2e-2)
    assert abs(float(np.mean(vals))) < 0.01


def test_dense_design_columns():
    g = rng_stream(3, 6)
    xi = g.uniform(-1, 1, size=(25, 3))
    tab = univariate_table(B, xi)
    idx = [(2, 2), (2, 3)]
    psi = dense_design(tab, (1, 3), idx)
    assert psi.shape == (25, 2)
    assert np.allclose(psi[:, 1], tab[:, 0, 1] * tab[:, 2, 2], atol=1e-14)


def test_linear_in_each_coefficient():
    m = small_model()
    g = rng_stream(4, 7)
    xi = g.uniform(-1, 1, size=(10, 3))
    base = evaluate_model(m, xi)
    bumped = HdmrModel(f0=m.f0, basis=B, nd=3, no=3, ninter=2, npc=2, nr=2,
                       dense=[DenseMode((1,), ((2,),), np.array([3.0])),
                              m.dense[1]], cp=[])
    delta = evaluate_model(bumped, xi) - base
    tab = univariate_table(B, xi)
    assert np.allclose(delta, tab[:, 0, 1], atol=1e-12)


def test_mode_validation():
    with pytest.raises(ValueError):
        DenseMode((2, 1), ((2, 2),), np.array([1.0]))  # unsorted dims
    with pytest.raises(ValueError):
        DenseMode((1,), ((1,),), np.array([1.0]))  # constant factor
    with pytest.raises(ValueError):
        DenseMode((1, 2), ((2,),), np.array([1.0]))  # width mismatch
    with pytest.raises(ValueError):
        HdmrModel(f0=0.0, basis=B, nd=2, no=9, ninter=1, npc=1, nr=1,
                  dense=[], cp=[])  # basis too short for no+1


def test_duplicate_groups_rejected():
    d = DenseMode((1,), ((2,),), np.array([1.0]))
    with pytest.raises(ValueError):
        HdmrModel(f0=0.0, basis=B, nd=2, no=2, ninter=1, npc=1, nr=1,
                  dense=[d, d], cp=[])


def test_save_load_round_trip(tmp_path):
    m = small_model()
    p = tmp_path / "m.json"
    save_model(m, p)
    r = load_model(p)
    g = rng_stream(5, 8)
    xi = g.uniform(-1, 1, size=(100, 3))
    assert np.array_equal(evaluate_model(m, xi), evaluate_model(r, xi))
    assert r.f0 == m.f0 and r.nd == m.nd


def test_save_is_deterministic(tmp_path):
    m = small_model()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(m, a)
    save_model(m, b)
    assert a.read_bytes() == b.read_bytes()


def test_load_rejects_truncated_file(tmp_path):
    m = small_model()
    p = tmp_path / "m.json"
    save_model(m, p)
    q = tmp_path / "broken.json"
    q.write_bytes(p.read_bytes()[:-40])
    with pytest.raises((ValueError, json.JSONDecodeError)):
        load_model(q)


def test_load_rejects_wrong_schema(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"schema": 99, "kind": "hdmr"}')
    with pytest.raises(ValueError):
        load_model(p)


@pytest.mark.parametrize("field, value", [("dims", [2.7]), ("indices", [[2.5]])])
def test_load_rejects_fractional_dims_and_indices(tmp_path, field, value):
    # int() would truncate these to dim 2 and index 2 and load a different
    # model; a model file holds integers only
    p = tmp_path / "m.json"
    save_model(small_model(), p)
    doc = json.loads(p.read_text())
    doc["dense"][0][field] = value
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="malformed model document"):
        load_model(p)


QB = BasisConfig(lo=0.0, hi=1.0, max_order=4)
_COEF = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)


@st.composite
def _stat_models(draw):
    # no = 3: dense modes on singletons and pairs, one CP mode on (1, 2, 3)
    nd = draw(st.integers(1, 3))
    dense = []
    for card in (1, 2):
        for dims in itertools.combinations(range(1, nd + 1), card):
            if draw(st.booleans()):
                idx = enumerate_dense_indices(dims, 3)
                c = draw(st.lists(_COEF, min_size=len(idx), max_size=len(idx)))
                dense.append(DenseMode(dims, tuple(idx), np.array(c)))
    cp = []
    if nd == 3 and draw(st.booleans()):
        nr = draw(st.integers(1, 2))
        c = draw(st.lists(_COEF, min_size=nr * 6, max_size=nr * 6))
        cp.append(CPMode((1, 2, 3), np.reshape(c, (nr, 3, 2))))
    npc = min(2, nd)
    return HdmrModel(f0=draw(_COEF), basis=QB, nd=nd, no=3, ninter=3 if cp else npc,
                     npc=npc, nr=2, dense=dense, cp=cp)


def _relabel(m, perm):
    # dimension d of m becomes dimension perm[d - 1]
    def move(dims):
        new = [perm[d - 1] for d in dims]
        order = np.argsort(new)
        return tuple(new[k] for k in order), order

    dense = []
    for mode in m.dense:
        dims, order = move(mode.dims)
        dense.append(DenseMode(dims, tuple(tuple(idx[k] for k in order)
                                           for idx in mode.indices), mode.coeffs))
    cp = []
    for mode in m.cp:
        dims, order = move(mode.dims)
        cp.append(CPMode(dims, mode.factors[:, order, :]))
    return HdmrModel(f0=m.f0, basis=m.basis, nd=m.nd, no=m.no, ninter=m.ninter,
                     npc=m.npc, nr=m.nr, dense=dense, cp=cp), move


@given(_stat_models(), st.data())
@settings(max_examples=60, deadline=None)
def test_closed_form_statistics_match_tensor_quadrature(m, data):
    # Gauss-Legendre with no + 2 points per dimension integrates f^2 exactly
    t, w = np.polynomial.legendre.leggauss(m.no + 2)
    t, w = 0.5 * (t + 1.0), 0.5 * w      # uniform probability measure on [0, 1]
    grid = np.stack(np.meshgrid(*[t] * m.nd, indexing="ij"), axis=-1).reshape(-1, m.nd)
    f = evaluate_model(m, grid).reshape((t.size,) * m.nd)

    def expect(vals, axes):
        for ax in sorted(axes, reverse=True):
            vals = np.tensordot(vals, w, axes=([ax], [0]))
        return vals

    mean = float(expect(f, range(m.nd)))
    var = float(expect((f - mean) ** 2, range(m.nd)))
    assert model_mean(m) == pytest.approx(mean, abs=1e-12)
    assert model_variance(m) == pytest.approx(var, rel=1e-10, abs=1e-13)
    assume(var > 1e-6)
    for i in range(m.nd):
        # E[Var(f | xi_~i)]: the variance along axis i, averaged over the rest
        cond = np.expand_dims(expect(f, [i]), i)
        total = float(expect(expect((f - cond) ** 2, [i]), range(m.nd - 1))) / var
        assert total_sobol(m, i + 1) == pytest.approx(total, abs=1e-10)

    perm = data.draw(st.permutations(range(1, m.nd + 1)))
    moved, move = _relabel(m, perm)
    # the relabeled model at relabeled points is the same function
    pts = np.empty_like(grid)
    pts[:, [d - 1 for d in perm]] = grid
    assert np.allclose(evaluate_model(moved, pts), f.ravel(), rtol=0, atol=1e-12)
    s, s_moved = sobol_indices(m), sobol_indices(moved)
    assert sum(s.values()) == pytest.approx(1.0, abs=1e-12)
    assert set(s_moved) == {move(g)[0] for g in s}
    for g, v in s.items():
        assert s_moved[move(g)[0]] == pytest.approx(v, abs=1e-14)
