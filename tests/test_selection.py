import numpy as np
import pytest

from hdmrfit import selection
from hdmrfit.basis import BasisConfig, univariate_table
from hdmrfit.data import SampleSet, rng_stream
from hdmrfit.model import dense_design
from hdmrfit.selection import (
    SelectionConfig,
    _group_classes,
    _Scan,
    glars_select,
    save_path,
)
from oracles import lstsq_direction

B = BasisConfig(lo=-1.0, hi=1.0, max_order=4)


def uniform_set(nq, nd, seed=0, lo=-1.0, hi=1.0):
    g = rng_stream(seed, 1000)
    xi = g.uniform(lo, hi, size=(nq, nd))
    return xi, univariate_table(B, xi)


def as_set(xi, u):
    return SampleSet(np.empty((xi.shape[0], 0)), xi, u)


def test_pure_interaction_enters_first():
    xi, tab = uniform_set(500, 4)
    u = tab[:, 0, 1] * tab[:, 1, 1]
    path = glars_select(as_set(xi, u), SelectionConfig(nolars=3, ninter=2), B)
    assert path.steps[0].dims == (1, 2)


def test_additive_target_singletons_lead():
    xi, tab = uniform_set(600, 5)
    u = 3 * tab[:, 0, 1] + tab[:, 1, 1]
    path = glars_select(as_set(xi, u),
                        SelectionConfig(nolars=3, ninter=2, max_groups=4), B)
    assert path.steps[0].dims == (1,)
    assert (2,) in [s.dims for s in path.steps[:2]]


def test_residual_norms_non_increasing():
    xi, tab = uniform_set(400, 5, seed=3)
    g = rng_stream(3, 1001)
    u = tab[:, 0, 1] + 0.5 * tab[:, 2, 1] * tab[:, 3, 1] + 0.05 * g.standard_normal(400)
    path = glars_select(as_set(xi, u),
                        SelectionConfig(nolars=3, ninter=2, max_groups=8), B)
    norms = [s.residual_norm_after for s in path.steps]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_constant_response_gives_empty_path():
    xi, _ = uniform_set(100, 3)
    path = glars_select(as_set(xi, np.full(100, 7.0)),
                        SelectionConfig(nolars=2, ninter=2), B)
    assert len(path) == 0


def test_path_groups_are_distinct():
    xi, tab = uniform_set(500, 4, seed=5)
    g = rng_stream(5, 1002)
    u = tab[:, 0, 1] + tab[:, 1, 2] + 0.1 * g.standard_normal(500)
    path = glars_select(as_set(xi, u),
                        SelectionConfig(nolars=3, ninter=2, max_groups=10), B)
    dims = [s.dims for s in path.steps]
    assert len(dims) == len(set(dims))


def test_permutation_equivariance():
    xi, tab = uniform_set(400, 4, seed=7)
    u = 2 * tab[:, 0, 1] + tab[:, 2, 1] * tab[:, 3, 1]
    cfg = SelectionConfig(nolars=3, ninter=2, max_groups=3)
    path = glars_select(as_set(xi, u), cfg, B)
    # swap dims 1 and 2: same path with labels swapped
    perm = [1, 0, 2, 3]
    path_p = glars_select(as_set(xi[:, perm], u), cfg, B)
    relabel = {1: 2, 2: 1, 3: 3, 4: 4}
    expect = [tuple(sorted(relabel[d] for d in s.dims)) for s in path.steps]
    assert [s.dims for s in path_p.steps] == expect
    for a, b in zip(path.steps, path_p.steps):
        assert a.entry_score == pytest.approx(b.entry_score, rel=1e-10)


def test_equal_scores_at_entry():
    # after the first step the two symmetric groups must tie within 1e-8
    xi, tab = uniform_set(2000, 2, seed=11)
    u = tab[:, 0, 1] + tab[:, 1, 1]
    cfg = SelectionConfig(nolars=1, ninter=1, max_groups=2)
    path = glars_select(as_set(xi, u), cfg, B)
    assert {path.steps[0].dims, path.steps[1].dims} == {(1,), (2,)}
    # entry scores of both singletons agree at the second step by the
    # equal-correlation construction
    assert path.steps[1].entry_score <= path.steps[0].entry_score + 1e-10


def test_lexicographic_tie_break():
    # perfectly symmetric response: dim 1 must enter before dim 2
    g = rng_stream(13, 1003)
    a = g.uniform(-1, 1, size=(800,))
    xi = np.column_stack([a, a])  # identical columns -> exact tie
    tab = univariate_table(B, xi)
    u = tab[:, 0, 1]
    path = glars_select(as_set(xi, u), SelectionConfig(nolars=2, ninter=1), B)
    assert path.steps[0].dims == (1,)


def test_dof_budget_respected():
    xi, tab = uniform_set(25, 6, seed=17)
    g = rng_stream(17, 1004)
    u = tab[:, 0, 1] + 0.3 * g.standard_normal(25)
    cfg = SelectionConfig(nolars=3, ninter=2, max_groups=50)
    path = glars_select(as_set(xi, u), cfg, B)
    pred = sum(len(_indices(s.dims)) for s in path.steps)
    assert pred <= 25 - 1


def _indices(dims):
    from hdmrfit.model import enumerate_dense_indices
    return enumerate_dense_indices(dims, 3)


def test_max_groups_cap():
    xi, _ = uniform_set(900, 6, seed=19)
    g = rng_stream(19, 1005)
    u = g.standard_normal(900)
    path = glars_select(as_set(xi, u),
                        SelectionConfig(nolars=2, ninter=2, max_groups=4), B)
    assert len(path) <= 4


def test_hierarchical_filter():
    xi, tab = uniform_set(600, 4, seed=23)
    u = tab[:, 0, 1] * tab[:, 1, 1]
    cfg = SelectionConfig(nolars=3, ninter=2, max_groups=5, hierarchical=True)
    path = glars_select(as_set(xi, u), cfg, B)
    seen = set()
    for s in path.steps:
        if len(s.dims) == 2:
            assert all((d,) in seen for d in s.dims)
        seen.add(s.dims)


def test_group_dictionary_classes():
    cfg = SelectionConfig(nolars=3, ninter=2)
    classes = list(_group_classes(5, cfg))
    assert [len(groups[0]) for _, groups in classes] == [1, 2]
    # every group of a class shares the class's predictor multi-indices
    assert [len(groups) for _, groups in classes] == [5, 10]
    assert len(classes[0][0]) == 3


def stacked_blocks(scan, v):
    """Each group's block of the stacked projection ``basis @ v``, in
    dictionary order, after checking the block's rows of ``basis``: the first
    pcount[g] orthonormal, the rest zero."""
    ends = list(scan.start[1:]) + [scan.basis.shape[0]]
    proj = scan.basis @ v
    blocks = []
    for g, (lo, hi) in enumerate(zip(scan.start, ends)):
        k = scan.pcount[g]
        assert np.allclose(scan.basis[lo:lo + k] @ scan.basis[lo:lo + k].T,
                           np.eye(k), atol=1e-10), scan.groups[g]
        assert not np.any(scan.basis[lo + k:hi]), scan.groups[g]
        blocks.append(proj[lo:hi])
    return blocks


def chunk_sizes(monkeypatch):
    """Cut every cardinality class into one-group chunks; the returned list
    collects the group count of each factored chunk."""
    monkeypatch.setattr(selection, "_CHUNK_FLOATS", 1)
    sizes = []
    factorize = _Scan._factorize

    def counting(self, table, weights, lo, dims, idx):
        sizes.append(len(dims))
        return factorize(self, table, weights, lo, dims, idx)

    monkeypatch.setattr(_Scan, "_factorize", counting)
    return sizes


def test_scan_builds_every_design_by_dense_design(monkeypatch):
    # the scan has no tensor-product code of its own: each factored chunk
    # stacks its groups' designs by one dense_design call
    chunks, designs = [], []
    factorize, build = _Scan._factorize, selection.dense_design

    def counting_factorize(self, table, weights, lo, dims, indices):
        chunks.append(len(dims))
        return factorize(self, table, weights, lo, dims, indices)

    def counting_build(table, dims, indices):
        designs.append(len(dims))
        return build(table, dims, indices)

    monkeypatch.setattr(_Scan, "_factorize", counting_factorize)
    monkeypatch.setattr(selection, "dense_design", counting_build)
    xi, tab = uniform_set(60, 5, seed=71)
    u = tab[:, 0, 1] + tab[:, 1, 2] * tab[:, 3, 1]
    glars_select(as_set(xi, u), SelectionConfig(nolars=3, ninter=3), B)
    assert chunks == [5, 10, 10]
    assert designs == chunks


def test_entry_score_matches_qr_oracle():
    # the batched scan's score of a group is ||Q' r||^2 / p, with Q the
    # group's design orthonormalized and r the centered response; the first
    # group to enter has the largest score of the whole dictionary
    xi, tab = uniform_set(300, 4, seed=29)
    u = tab[:, 0, 1] + 0.4 * tab[:, 1, 2] * tab[:, 2, 1] + 0.2 * tab[:, 3, 3]
    cfg = SelectionConfig(nolars=3, ninter=2, max_groups=1)
    path = glars_select(as_set(xi, u), cfg, B)
    r = u - u.mean()
    oracle = {}
    for indices, groups in _group_classes(4, cfg):
        for dims in groups:
            q, _ = np.linalg.qr(dense_design(tab, dims, indices))
            oracle[dims] = float(np.sum((q.T @ r) ** 2)) / len(indices)
    first = path.steps[0]
    assert first.dims == max(oracle, key=oracle.get)
    assert first.entry_score == pytest.approx(oracle[first.dims], rel=1e-10)


def test_rank_deficient_group_drops_dependent_column(caplog, monkeypatch):
    # with xi2 = xi1 the pair (1, 2) has columns P1P1, P1P2 and P2P1, and
    # the last two coincide: the scan keeps 2 independent columns and scores
    # the group on their span
    sizes = chunk_sizes(monkeypatch)
    xi, _ = uniform_set(200, 3, seed=43)
    xi[:, 1] = xi[:, 0]
    tab = univariate_table(B, xi)
    cfg = SelectionConfig(nolars=3, ninter=2)
    indices, groups = list(_group_classes(3, cfg))[1]
    assert len(indices) == 3 and groups[0] == (1, 2)
    with caplog.at_level("WARNING", logger="hdmrfit.selection"):
        scan = _Scan(tab, [(indices, groups)], None)
    dropped = [rec.getMessage() for rec in caplog.records if "dropped" in rec.getMessage()]
    assert dropped == ["group (1, 2): dropped 1 dependent predictor column(s)"]
    assert scan.pcount[0] == 2
    assert list(scan.pcount[1:]) == [3, 3]
    assert sizes == [1, 1, 1]

    design = dense_design(tab, (1, 2), indices)
    uu, sv, _ = np.linalg.svd(design, full_matrices=False)
    basis_u = uu[:, sv > 1e-10 * sv[0]]
    assert basis_u.shape[1] == 2
    r = tab[:, 0, 1] * tab[:, 1, 2] + tab[:, 2, 1] - 0.3
    proj = stacked_blocks(scan, r)[0]
    oracle = float(np.sum((basis_u.T @ r) ** 2))
    assert float(proj @ proj) == pytest.approx(oracle, rel=1e-10)

    cols = scan.columns(0)
    assert cols.shape == (200, 2)
    q, _ = np.linalg.qr(cols)
    assert np.allclose(q @ q.T, basis_u @ basis_u.T, atol=1e-10)


def test_flat_scan_matches_svd_oracle_across_chunks(monkeypatch):
    # a tiny chunk budget cuts every cardinality class into several chunks;
    # for every group in dictionary order its block of basis @ v carries the
    # energy of v in the weighted design's span, and columns(g) spans it
    sizes = chunk_sizes(monkeypatch)
    xi, tab = uniform_set(40, 5, seed=67)
    w = rng_stream(67, 1008).uniform(0.5, 2.0, size=40)
    v = tab[:, 0, 1] + tab[:, 1, 2] * tab[:, 3, 1] - 0.4 * tab[:, 4, 3]
    classes = list(_group_classes(5, SelectionConfig(nolars=3, ninter=3)))
    assert [len(groups) for _, groups in classes] == [5, 10, 10]
    scan = _Scan(tab, classes, w)
    assert len(sizes) > len(classes) and max(sizes) < 5
    assert scan.groups == [dims for _, groups in classes for dims in groups]
    proj = stacked_blocks(scan, v)
    assert len(proj) == len(scan.groups)
    index_of = {len(groups[0]): indices for indices, groups in classes}
    for g, dims in enumerate(scan.groups):
        design = w[:, None] * dense_design(tab, dims, index_of[len(dims)])
        uu, sv, _ = np.linalg.svd(design, full_matrices=False)
        basis_u = uu[:, sv > 1e-10 * sv[0]]
        assert scan.pcount[g] == basis_u.shape[1], dims
        oracle = float(np.sum((basis_u.T @ v) ** 2))
        assert abs(float(proj[g] @ proj[g]) - oracle) <= 1e-10, dims
        cols = scan.columns(g)
        assert cols.shape == basis_u.shape, dims
        q, _ = np.linalg.qr(cols)
        assert np.allclose(q @ q.T, basis_u @ basis_u.T, atol=1e-10), dims


def test_save_path_csv(tmp_path):
    xi, tab = uniform_set(300, 3, seed=37)
    u = tab[:, 0, 1] + tab[:, 1, 1]
    path = glars_select(as_set(xi, u),
                        SelectionConfig(nolars=2, ninter=2, max_groups=3), B)
    f = tmp_path / "path.csv"
    save_path(path, f)
    lines = f.read_text().strip().splitlines()
    assert lines[0] == "step,dims,entry_score,residual_norm"
    assert len(lines) == len(path) + 1
    first = lines[1].split(",")
    assert first[1] == ";".join(str(d) for d in path.steps[0].dims)


def test_scan_seconds_populated():
    xi, tab = uniform_set(300, 4, seed=41)
    u = tab[:, 0, 1]
    path = glars_select(as_set(xi, u),
                        SelectionConfig(nolars=2, ninter=2, max_groups=2), B)
    assert path.scan_seconds > 0
    assert path.direction_seconds > 0


def test_grown_basis_direction_matches_lstsq_oracle(monkeypatch):
    # on a 64-group path every direction of the grown basis equals the
    # lstsq fit of the residual on all active columns, and the basis stays
    # orthonormal
    xi, tab = uniform_set(400, 12, seed=71)
    noise = rng_stream(71, 1009).standard_normal(400)
    u = tab[:, 0, 1] + tab[:, 1, 2] * tab[:, 4, 1] + 0.3 * tab[:, 7, 3] + 0.5 * noise
    active, errors, grown = [], [], selection._direction

    def checked(q, cols, r):
        active.append(cols)
        q, v = grown(q, cols, r)
        errors.append(np.linalg.norm(v - lstsq_direction(active, r))
                      / np.linalg.norm(r))
        assert np.allclose(q.T @ q, np.eye(q.shape[1]), rtol=0, atol=1e-12)
        return q, v

    monkeypatch.setattr(selection, "_direction", checked)
    path = glars_select(as_set(xi, u), SelectionConfig(nolars=3, ninter=2), B)
    assert len(path) == len(errors) == 64
    assert max(errors) <= 1e-10


# degenerate data: each case makes some group designs rank-deficient
DEGENERATE = ("duplicated", "negated", "constant", "two-valued", "repeated-rows")
B5 = BasisConfig(lo=-1.0, hi=1.0, max_order=5)


def degenerate_xi(case, nq=120, nd=8, seed=47):
    g = rng_stream(seed, 1007)
    xi = g.uniform(-1.0, 1.0, size=(nq, nd))
    if case == "duplicated":
        xi[:, 1] = xi[:, 0]
    elif case == "negated":
        xi[:, 2] = -xi[:, 0]
    elif case == "constant":
        xi[:, 4] = 0.3
    elif case == "two-valued":
        xi[:, 3] = g.choice([-0.5, 0.5], size=nq)
    elif case == "repeated-rows":
        xi = np.repeat(xi[:5], 6, axis=0)
    return xi


@pytest.mark.parametrize("case", DEGENERATE)
def test_degenerate_group_rank_matches_oracle(case, monkeypatch):
    # every group keeps exactly numpy's rank of its design and is scored on
    # that span: its block of basis @ r has the norm of U' r, with U an SVD
    # basis of the span
    sizes = chunk_sizes(monkeypatch)
    xi = degenerate_xi(case)
    tab = univariate_table(B5, xi)
    r = tab[:, 0, 1] + tab[:, 3, 2] * tab[:, 5, 1] + 0.5 * tab[:, 4, 1] - 0.2
    cfg = SelectionConfig(nolars=4, ninter=3)
    deficient = 0
    classes = list(_group_classes(xi.shape[1], cfg))
    scan = _Scan(tab, classes, None)
    assert len(sizes) == len(scan.groups)
    proj = stacked_blocks(scan, r)
    index_of = {len(groups[0]): indices for indices, groups in classes}
    for g, dims in enumerate(scan.groups):
        indices = index_of[len(dims)]
        design = dense_design(tab, dims, indices)
        rank = np.linalg.matrix_rank(design)
        assert scan.pcount[g] == rank, dims
        deficient += rank < len(indices)
        uu, _, _ = np.linalg.svd(design, full_matrices=False)
        oracle = float(np.sum((uu[:, :rank].T @ r) ** 2))
        assert float(proj[g] @ proj[g]) == pytest.approx(
            oracle, rel=1e-10, abs=1e-12 * float(r @ r)), dims
    assert deficient > 0


def lstsq_step(x, cols, r):
    # the path's direction by the oracle: x stacks the active groups'
    # columns as they entered, not a basis
    x = np.hstack([x, cols])
    return x, lstsq_direction([x], r)


@pytest.mark.parametrize("case", DEGENERATE)
def test_degenerate_path_matches_lstsq_direction(case, monkeypatch):
    # dependent columns enter the active set here: the grown basis keeps only
    # the directions lstsq's rank cutoff keeps, so the path is the oracle's
    # until the residual falls to 1e-6 of the centred response. Past that
    # point both chase rounding noise with steps of about 0.5, and their
    # tails may differ by a group at residuals near 1e-9 relative.
    # With a duplicated or negated dimension, a group whose span lies inside
    # the active span ties the active score identically; it leaves the
    # candidates, so rounding sets no step (see the test below).
    xi = degenerate_xi(case)
    tab = univariate_table(B5, xi)
    u = tab[:, 0, 1] + tab[:, 3, 2] * tab[:, 5, 1] + 0.5 * tab[:, 4, 1] - 0.2
    cfg = SelectionConfig(nolars=4, ninter=3)
    path = glars_select(as_set(xi, u), cfg, B5)
    monkeypatch.setattr(selection, "_direction", lstsq_step)
    oracle = glars_select(as_set(xi, u), cfg, B5)
    unorm = float(np.linalg.norm(u - u.mean()))
    for k, (a, b) in enumerate(zip(path.steps, oracle.steps)):
        assert a.dims == b.dims
        if b.residual_norm_after <= 1e-6 * unorm:
            break
        assert a.entry_score == pytest.approx(b.entry_score, rel=1e-8)
        assert a.step_size == pytest.approx(b.step_size, rel=1e-8)
        assert a.residual_norm_after == pytest.approx(b.residual_norm_after, rel=1e-8)
    else:
        assert len(path) == len(oracle)
    assert k > 0


@pytest.mark.parametrize("case", ["duplicated", "negated"])
def test_group_inside_active_span_sets_no_step(case, monkeypatch):
    # once (1,) is active, the group of the duplicated or negated copy of
    # dimension 1 spans what (1,) spans and ties the active score at every
    # step size, so its tie roots are rounding noise. It leaves the
    # candidates, and the grown-basis path is the lstsq-direction path at
    # every step; with its tie roots kept, the two split at step 2.
    xi = degenerate_xi(case)
    tab = univariate_table(B5, xi)
    u = (tab[:, 0, 1] + tab[:, 3, 2] * tab[:, 5, 1] + 0.5 * tab[:, 4, 1]
         + 0.2 * tab[:, 1, 1] * tab[:, 2, 2] * tab[:, 6, 1])
    cfg = SelectionConfig(nolars=4, ninter=3)
    path = glars_select(as_set(xi, u), cfg, B5)
    monkeypatch.setattr(selection, "_direction", lstsq_step)
    oracle = glars_select(as_set(xi, u), cfg, B5)
    unorm = float(np.linalg.norm(u - u.mean()))
    assert path.groups() == oracle.groups()
    assert len(path) >= 5
    for a, b in zip(path.steps, oracle.steps):
        assert a.entry_score == pytest.approx(b.entry_score, rel=1e-8)
        assert a.step_size == pytest.approx(b.step_size, rel=1e-8)
        assert a.residual_norm_after == pytest.approx(
            b.residual_norm_after, rel=1e-8, abs=1e-12 * unorm)


def test_repeated_rows_scale_entry_scores():
    # repeating every row 3 times multiplies each score by 3 and leaves the
    # path unchanged until the unique-row path hits its predictor budget
    xi = degenerate_xi(None, nq=40, nd=4, seed=53)
    tab = univariate_table(B5, xi)
    u = tab[:, 0, 1] + 0.5 * tab[:, 1, 2] * tab[:, 2, 1] + 0.1 * tab[:, 3, 3]
    cfg = SelectionConfig(nolars=4, ninter=3, max_groups=20)
    uni = glars_select(as_set(xi, u), cfg, B)
    rep = glars_select(as_set(np.repeat(xi, 3, axis=0), np.repeat(u, 3)), cfg, B)
    assert len(uni) > 1 and len(rep) >= len(uni)
    assert [s.dims for s in rep.steps[: len(uni)]] == [s.dims for s in uni.steps]
    for a, b in zip(uni.steps, rep.steps):
        assert b.entry_score == pytest.approx(3 * a.entry_score, rel=1e-10)


@pytest.mark.parametrize("nq", [3, 5, 6])
def test_few_rows_respect_rank_budget(nq):
    # with no more rows than a group has predictors, the entered groups'
    # ranks add up to at most nq - 1
    xi = degenerate_xi(None, nq=nq, nd=4, seed=59)
    tab = univariate_table(B5, xi)
    u = tab[:, 0, 1] + tab[:, 1, 1] * tab[:, 2, 2]
    cfg = SelectionConfig(nolars=4, ninter=3)
    path = glars_select(as_set(xi, u), cfg, B)
    index_of = {len(groups[0]): indices for indices, groups in _group_classes(4, cfg)}
    ranks = [np.linalg.matrix_rank(dense_design(tab, dims, index_of[len(dims)]))
             for dims in path.groups()]
    assert sum(ranks) <= nq - 1
    # a singleton spans min(nq, 4) directions, so with 4 rows or fewer no
    # group fits the budget
    assert (len(path) == 0) == (nq <= 4)


@pytest.mark.parametrize("weights, match", [
    (np.nan, "non-finite row weights"),
    (0.0, "identically zero"),
])
def test_glars_rejects_bad_row_weights(weights, match, caplog):
    xi, tab = uniform_set(50, 3, seed=61)
    u = tab[:, 0, 1] + tab[:, 1, 1]
    w = np.ones(50) if weights != 0.0 else np.zeros(50)
    w[7] = weights
    with caplog.at_level("WARNING", logger="hdmrfit.selection"):
        with pytest.raises(ValueError, match=match):
            glars_select(as_set(xi, u), SelectionConfig(nolars=2, ninter=2), B,
                         row_weights=w)
    assert not caplog.records
