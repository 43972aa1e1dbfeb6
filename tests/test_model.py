import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hdmrfit import model as hmodel
from hdmrfit.basis import BasisConfig, univariate_table
from hdmrfit.data import rng_stream
from hdmrfit.model import (
    CPMode,
    DenseMode,
    HdmrModel,
    dense_design,
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
from hdmrfit.selection import SelectionConfig, _group_classes
from oracles import eval_tensor, evaluate_model_design, grow_basis_svd
from test_selection import degenerate_xi

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
    # coefficients of the selection dictionary: the constant plus, per
    # cardinality l <= ninter, comb(nd, l) groups of comb(no, l) predictors
    def size(nd, no, ninter):
        classes = _group_classes(nd, SelectionConfig(nolars=no, ninter=ninter))
        return 1 + sum(len(idx) * len(groups) for idx, groups in classes)

    assert size(2, 2, 1) == 5
    assert size(3, 2, 2) == 10
    assert size(8, 8, 3) == 3985
    # the acceptance suite's scan-timing pair
    assert (size(24, 4, 3), size(30, 4, 3)) == (9849, 18971)


def test_cardinality_rejects_bad_thresholds():
    # a model needs 0 <= npc <= ninter <= nd
    for npc, ninter in ((1, 4), (2, 1), (-1, 1)):
        with pytest.raises(ValueError, match="N_PC"):
            HdmrModel(f0=0.0, basis=B, nd=3, no=2, ninter=ninter, npc=npc, nr=1)


def test_evaluate_single_and_batch():
    m = small_model()
    g = rng_stream(0, 1)
    xi = g.uniform(-1, 1, size=(40, 3))
    tab = univariate_table(B, xi)
    expect = 1.5 + 2 * tab[:, 0, 1] + tab[:, 1, 1] * tab[:, 2, 1]
    got = evaluate_model(m, xi)
    assert np.allclose(got, expect, atol=1e-13)
    assert evaluate_model(m, xi[0]) == pytest.approx(expect[0])


_COEF = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)


@st.composite
def _eval_models(draw):
    # dense modes of cardinality 1-3 on distinct groups of 1..nd, their
    # multi-indices in any order and with repeats, and at times a CP mode;
    # most draws leave some dims to no mode
    nd = draw(st.integers(1, 6))
    top = draw(st.integers(3, 6))
    group = st.integers(1, min(3, nd)).flatmap(
        lambda c: st.lists(st.integers(1, nd), min_size=c, max_size=c, unique=True))
    groups = draw(st.lists(group.map(lambda g: tuple(sorted(g))), max_size=5,
                           unique=True))
    cp = []
    if len(groups) > 1 and len(groups[-1]) > 1 and draw(st.booleans()):
        nr, card = draw(st.integers(1, 2)), len(groups[-1])
        c = draw(st.lists(_COEF, min_size=nr * card * (top - 2),
                          max_size=nr * card * (top - 2)))
        cp.append(CPMode(groups.pop(), np.reshape(c, (nr, card, top - 2))))
    dense = []
    for dims in groups:
        idx = draw(st.lists(st.tuples(*[st.integers(2, top)] * len(dims)), max_size=8))
        c = draw(st.lists(_COEF, min_size=len(idx), max_size=len(idx)))
        dense.append(DenseMode(dims, tuple(idx), np.array(c)))
    return HdmrModel(f0=draw(_COEF), basis=BasisConfig(max_order=top), nd=nd,
                     no=top - 1, ninter=nd, npc=nd, nr=2, dense=dense, cp=cp)


def _term_scale(m, xi):
    # per row, |f0| plus the absolute value of every term of every mode: it
    # bounds the rounding of any order of the sums, and equals the value's
    # magnitude where no terms cancel
    tab = np.abs(univariate_table(m.basis, np.atleast_2d(xi)))
    out = np.full(tab.shape[0], abs(m.f0))
    for d in m.dense:
        out += dense_design(tab, d.dims, d.indices) @ np.abs(d.coeffs)
    for c in m.cp:
        ranks = np.ones((c.factors.shape[0], tab.shape[0]))
        for i, dim in enumerate(c.dims):
            ranks *= np.abs(c.factors[:, i]) @ tab[:, dim - 1, 1:m.no].T
        out += ranks.sum(axis=0)
    return out


_SKIPPING = HdmrModel(
    f0=0.5, basis=B, nd=6, no=5, ninter=3, npc=3, nr=1,
    dense=[DenseMode((2,), ((4,), (2,), (4,)), np.array([1.0, -0.5, 0.25])),
           DenseMode((2, 5), ((3, 2), (2, 2), (3, 2), (2, 4)),
                     np.array([0.3, 1.0, -0.7, 2.0])),
           DenseMode((1, 2, 5), ((2, 3, 2), (2, 2, 2), (2, 3, 2), (4, 2, 2)),
                     np.array([1.0, 0.5, -1.5, 0.25]))],
    cp=[CPMode((1, 5), np.arange(8.0).reshape(1, 2, 4) / 8)])


@given(_eval_models(), st.integers(1, 65), st.booleans(), st.integers(0, 2**16))
@example(HdmrModel(f0=-1.25, basis=B, nd=3, no=3, ninter=2, npc=2, nr=1), 7, False, 0)
@example(HdmrModel(f0=-1.25, basis=B, nd=3, no=3, ninter=2, npc=2, nr=1), 1, True, 0)
@example(_SKIPPING, 1, False, 1)
@example(_SKIPPING, 1, True, 2)
@example(_SKIPPING, 33, False, 3)
@settings(max_examples=150, deadline=None)
def test_evaluate_model_matches_the_design_form(m, nq, flat, seed):
    # the contraction of each dense mode's coefficients with the table of
    # the dims the model uses, against the full table and one dense_design
    # per mode: cards 1-3, multi-indices unsorted and repeated, dims left to
    # no mode (the f0-only model's table has no column), one row or odd row
    # counts, and a one-row xi given as a vector
    xi = rng_stream(seed, 3).uniform(-1, 1, (nq, m.nd))
    if flat:
        xi = xi[0]
    got, want = evaluate_model(m, xi), evaluate_model_design(m, xi)
    assert np.shape(got) == np.shape(want) == (() if flat else (nq,))
    # rtol 1e-13 of the row's summed term magnitudes
    assert np.all(np.abs(got - want) <= 1e-13 * _term_scale(m, xi))


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


def test_dense_design_matches_tensor_oracle_single_and_stacked():
    # every column is eval_tensor's product, for one group and for a stack of
    # groups that share dimensions; a stacked slice is the single-group call
    xi = rng_stream(3, 8).uniform(-1, 1, size=(30, 4))
    tab = univariate_table(B, xi)
    for card in (1, 2, 3):
        indices = enumerate_dense_indices(tuple(range(1, card + 1)), 3)
        groups = list(itertools.combinations(range(1, 5), card))
        stacked = dense_design(tab, np.array(groups), indices)
        assert stacked.shape == (len(groups), 30, len(indices))
        for g, dims in enumerate(groups):
            single = dense_design(tab, dims, indices)
            assert single.shape == (30, len(indices))
            assert stacked[g].tobytes() == single.tobytes(), dims
            for k, idx in enumerate(indices):
                oracle = eval_tensor(B, dims, idx, xi)
                assert np.max(np.abs(single[:, k] - oracle)) <= 1e-14, (dims, idx)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_model_containers_reject_non_finite_numbers(bad):
    with pytest.raises(ValueError, match="coeffs must be finite"):
        DenseMode((1,), ((2,), (3,)), np.array([1.0, bad]))
    with pytest.raises(ValueError, match="factors must be finite"):
        CPMode((1, 2), np.full((1, 2, 2), bad))
    with pytest.raises(ValueError, match="f0 must be finite"):
        HdmrModel(f0=bad, basis=B, nd=1, no=3, ninter=1, npc=1, nr=1)


def test_dense_index_beyond_basis_order_rejected(tmp_path):
    # evaluation would index past the univariate table, and the statistics
    # would report a basis function the model cannot evaluate
    d = DenseMode((1,), ((2,), (7,)), np.array([1.0, 0.5]))
    with pytest.raises(ValueError, match="basis function 7.*max_order 6"):
        HdmrModel(f0=0.0, basis=B, nd=1, no=3, ninter=1, npc=1, nr=1, dense=[d])
    p = tmp_path / "m.json"
    save_model(small_model(), p)
    doc = json.loads(p.read_text())
    doc["dense"][0]["indices"] = [[7]]
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"m\.json: malformed model document"):
        load_model(p)


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


def test_load_rejects_unknown_basis_family(tmp_path):
    # the family is always written as "legendre" and no other loads
    p = tmp_path / "m.json"
    save_model(small_model(), p)
    doc = json.loads(p.read_text())
    assert doc["basis"]["family"] == "legendre"
    doc["basis"]["family"] = "hermite"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"m\.json.*unsupported basis family 'hermite'"):
        load_model(p)


QB = BasisConfig(lo=0.0, hi=1.0, max_order=4)


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


# span growth: the bordered extension against the thin-SVD oracle
EPS = np.finfo(float).eps


def _svd_calls(monkeypatch):
    """Record the shape of every np.linalg.svd call."""
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def _cutoff(cols):
    # the span's cutoff: eps * max(n, P) * the largest column norm
    return EPS * max(cols.shape) * float(np.linalg.norm(cols, axis=0).max())


def _orthonormal(a):
    q, _ = np.linalg.qr(a)
    return q


def _growth_case(case):
    """(old, new, beta): the columns a span holds, the block that extends
    it, and their ridge."""
    g = rng_stream(71, 1)
    q = _orthonormal(g.standard_normal((300, 20)))
    if case == "random":
        return q, g.standard_normal((300, 15)), 0.0
    if case == "correlated":
        # unit-scaled condition number about 100
        return q, g.standard_normal((300, 1)) + 0.05 * g.standard_normal((300, 15)), 0.0
    xi = g.uniform(-1.0, 1.0, size=(300, 3))
    tab = univariate_table(B, xi)
    w = 10.0 ** g.uniform(-3.0, 0.0, 300)
    old = np.hstack([w[:, None]] + [dense_design(tab, d, enumerate_dense_indices(d, 5))
                                     * w[:, None] for d in [(1,), (2,)]])
    new = np.hstack([dense_design(tab, d, enumerate_dense_indices(d, 5)) * w[:, None]
                     for d in [(3,), (1, 2), (2, 3)]])
    # ridged, as the dense block ridges each mode's columns
    return old, new, 0.05 if case == "ridge" else 0.0


def _stacked(span):
    # the span's columns stacked over their ridge rows, times cmap
    return np.vstack([span.a, np.diag(span.ridge)[span.ridge > 0]]) @ span.cmap


def _extended(old, new, beta):
    """(span, cmap, q, cols): a span of ``old`` extended by ``new``, both at
    ridge beta; its cmap before the extension; q, the orthonormal basis of
    the stacked old columns before the extension, and the new columns, each
    stacked over every ridge row as the span stacks them, the new columns'
    rows below the old ones'."""
    span = hmodel._Span(old.shape[0])
    if old.shape[1]:
        span.extend(old, beta)
    q, cmap = _stacked(span), span.cmap
    span.extend(new, beta)
    p = new.shape[1]
    if beta > 0:
        q = np.vstack([q, np.zeros((p, q.shape[1]))])
        new = np.vstack([new, np.zeros((old.shape[1], p)), beta * np.eye(p)])
    return span, cmap, q, new


def _check_bordered(span, cmap, q, cols, orth=1e-13):
    """A bordered extension against the oracle. cmap gains the columns
    [-cmap h t^-1 ; t^-1], so h comes back from the new block, and the new
    basis columns u = (cols - q h) t^-1 span what the oracle's span; the
    stacked basis is orthonormal to ``orth``."""
    uo, ho, *_ = grow_basis_svd(q, cols, _cutoff(cols))
    k = cmap.shape[1]
    full = _stacked(span)
    u = full[:, k:]
    inv = span.cmap[k:, k:]
    h = np.linalg.solve(inv.T, -np.linalg.solve(cmap, span.cmap[:k, k:]).T).T
    assert u.shape[1] == uo.shape[1] == cols.shape[1]
    assert np.abs(u @ u.T - uo @ uo.T).max() < 1e-12
    assert np.abs(full.T @ full - np.eye(full.shape[1])).max() < orth
    assert np.abs(h - ho).max(initial=0.0) <= 1e-13 * np.abs(cols).max()
    rem = cols - q @ h
    # cols = q h + u t, and t^-1 the inverse of t, so rem t^-1 = u
    assert np.abs(rem - u @ (u.T @ rem)).max() <= 1e-13 * np.abs(cols).max()
    assert np.abs(rem @ inv - u).max() <= 1e-12 * np.abs(cols).max() * np.linalg.norm(inv, 2)


@pytest.mark.parametrize("case", ["random", "correlated", "weighted", "ridge"])
def test_grow_basis_matches_svd_oracle_without_svd(case, monkeypatch):
    # the "correlated" block's remainder has unit-scaled condition number
    # about 100, and its factor comes from the remainder's Gram, whose
    # condition number is the square: the stacked basis is orthonormal to
    # 4.4e-13 there, to 1e-14 on the other cases
    old, new, beta = _growth_case(case)
    orth = 1e-12 if case == "correlated" else 1e-13
    calls = _svd_calls(monkeypatch)
    grown = _extended(old, new, beta)
    # the first block of a span, with nothing to orthogonalize against
    first = _extended(old[:, :0], new, beta)
    assert calls == []
    _check_bordered(*grown, orth=orth)
    _check_bordered(*first, orth=orth)


def _dependent_case(case):
    g = rng_stream(72, 1)
    if case == "duplicated":
        # xi2 = xi1: group (2,) repeats (1,), and the 6 columns of (1, 2)
        # are polynomials of degree <= 4 in xi1, whose remainders against
        # (1,) all lie along one direction, the constant's
        tab = univariate_table(B, degenerate_xi(case, nq=200))
        old = dense_design(tab, (1,), enumerate_dense_indices((1,), 4))
        cols = np.hstack([dense_design(tab, d, enumerate_dense_indices(d, 4))
                          for d in [(2,), (1, 2)]])
        return old, cols
    q = _orthonormal(g.standard_normal((200, 10)))
    inside = q @ g.standard_normal(10)
    other = g.standard_normal(200)
    col = {"in-span": inside,
           "noisy": inside + 1e-10 * g.standard_normal(200),
           "zero": np.zeros(200)}[case]
    return q, np.column_stack([other, col, g.standard_normal(200)])


@pytest.mark.parametrize("case", ["in-span", "noisy", "zero", "duplicated"])
def test_grow_basis_falls_back_to_svd_on_dependent_columns(case, monkeypatch):
    # a remainder column that keeps too little of its norm fails the
    # bordering's pivot tests: that extension takes cmap anew from one thin
    # SVD of all the span's columns, which keeps the directions the oracle
    # keeps, and the fit is lstsq's. The "noisy" column keeps 1e-10 of its
    # norm off the earlier span: the kept columns' condition number is
    # about 1e10, and the basis is orthonormal to 1.0e-7 there, its
    # projector within 1.8e-8 of the oracle's and its fit within 2.9e-7 of
    # lstsq's, which is no more accurate
    old, cols = _dependent_case(case)
    span = hmodel._Span(old.shape[0])
    span.extend(old, 0.0)
    q = _stacked(span)
    calls = _svd_calls(monkeypatch)
    span.extend(cols, 0.0)
    assert calls == [span.a.shape]
    uo, *_ = grow_basis_svd(q, cols, _cutoff(cols))
    dropped = cols.shape[1] - (span.cmap.shape[1] - q.shape[1])
    assert dropped == cols.shape[1] - uo.shape[1]
    assert dropped == {"in-span": 1, "noisy": 0, "zero": 1, "duplicated": 9}[case]
    proj, orth, fit = (1e-7, 1e-6, 1e-6) if case == "noisy" else (1e-12, 1e-13, 1e-12)
    full, oracle = _stacked(span), np.hstack([q, uo])
    assert np.abs(full @ full.T - oracle @ oracle.T).max() < proj
    assert np.abs(full.T @ full - np.eye(full.shape[1])).max() < orth
    r = rng_stream(72, 2).standard_normal(span.a.shape[0])
    ref, *_ = np.linalg.lstsq(span.a, r, rcond=None)
    assert np.linalg.norm(span.a @ (span.solve(r) - ref)) <= fit * np.linalg.norm(r)
