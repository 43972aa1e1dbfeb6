import warnings

import numpy as np
import pytest

from hdmrfit import fitting, separated
from hdmrfit.basis import BasisConfig, univariate_table
from hdmrfit.data import NoiseModel, SampleSet, rng_stream
from hdmrfit.fitting import FitConfig, ls_solve
from hdmrfit.model import DenseMode, HdmrModel, evaluate_model
from hdmrfit.selection import SelectionConfig, glars_select, glars_steps
from hdmrfit.separated import (
    SeparatedConfig,
    SeparatedModel,
    SpatialBasis,
    evaluate_separated,
    fit_separated,
    fit_spatial_mode,
    load_separated,
    save_separated,
    spatial_design,
)
from oracles import fit_separated_reference

B = BasisConfig(lo=0.0, hi=1.0, max_order=4)
SEL = SelectionConfig(nolars=3, ninter=2, max_groups=6)
FIT = FitConfig(no=3, npc=2, ninter=2, seed=0)


def field_set(nq, nd=3, seed=0):
    g = rng_stream(seed, 3000)
    x = g.uniform(0, 1, size=(nq, 1))
    xi = g.uniform(0, 1, size=(nq, nd))
    return x, xi, univariate_table(B, xi)


def fit_quiet(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fit_separated(*args, **kwargs)


def test_nodal_design_partition_of_unity():
    sb = SpatialBasis(kind="nodal-piecewise-linear", cardx=9)
    x = np.linspace(0, 1, 101)
    phi = spatial_design(sb, x)
    assert phi.shape == (101, 9)
    assert np.allclose(phi.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(phi >= 0)


def test_nodal_design_interpolates_nodes():
    sb = SpatialBasis(kind="nodal-piecewise-linear", cardx=5)
    nodes = np.linspace(0, 1, 5)
    phi = spatial_design(sb, nodes)
    assert np.allclose(phi, np.eye(5), atol=1e-12)


def test_legendre_design_orthonormal():
    sb = SpatialBasis(kind="legendre-tensor", cardx=6)
    t, w = np.polynomial.legendre.leggauss(16)
    x = (t + 1) / 2
    phi = spatial_design(sb, x)
    gram = np.einsum("q,qa,qb->ab", w / 2, phi, phi)
    assert np.max(np.abs(gram - np.eye(6))) < 1e-12


def test_design_rejects_out_of_domain():
    sb = SpatialBasis(cardx=4)
    with pytest.raises(ValueError):
        spatial_design(sb, np.array([1.5]))


def test_spatial_mode_unit_norm_and_scale():
    x, xi, _ = field_set(300)
    u = np.cos(np.pi * x[:, 0])
    phi = spatial_design(SpatialBasis(cardx=12), x[:, 0])
    c, scale = fit_spatial_mode(u, np.ones(300), phi)
    assert np.linalg.norm(phi @ c) == pytest.approx(1.0, abs=1e-12)
    assert scale == pytest.approx(float(np.linalg.norm(u)), rel=0.05)


def _ls_calls(monkeypatch):
    """Record every ls_solve call, the Gram solves' fallback included."""
    calls = []
    orig = fitting.ls_solve

    def counting(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(fitting, "ls_solve", counting)
    monkeypatch.setattr(separated, "ls_solve", counting)
    return calls


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.mark.parametrize("kind", ["nodal-piecewise-linear", "legendre-tensor"])
def test_spatial_mode_matches_ls_solve_oracle(kind, monkeypatch):
    x, xi, tab = field_set(400, seed=9)
    g = rng_stream(9, 3002)
    phi = spatial_design(SpatialBasis(kind=kind, cardx=12), x[:, 0])
    lam = 2.0 + tab[:, 0, 1] + 0.5 * tab[:, 1, 2]
    res = np.sin(3.0 * x[:, 0]) * lam + 0.1 * g.standard_normal(400)
    calls = _ls_calls(monkeypatch)
    c, scale = fit_spatial_mode(res, lam, phi)
    assert calls == []
    assert _rel(c * scale, ls_solve(phi * lam[:, None], res)) < 1e-10


def test_joint_spatial_update_matches_ls_solve_oracle(monkeypatch):
    x, xi, tab = field_set(500, seed=10)
    g = rng_stream(10, 3003)
    lam1 = HdmrModel(f0=0.5, basis=B, nd=3, no=3, ninter=1, npc=1, nr=1,
                     dense=[DenseMode((1,), ((2,), (3,)), np.array([1.0, -0.4]))])
    u = (np.cos(np.pi * x[:, 0]) * (1.0 + tab[:, 0, 1])
         + 0.05 * g.standard_normal(500))
    ds = SampleSet(x, xi, u)
    phi = spatial_design(SpatialBasis(cardx=10), x[:, 0])
    pairs = [(np.zeros(10), None), (np.zeros(10), lam1)]
    calls = _ls_calls(monkeypatch)
    res = separated._joint_spatial_update(pairs, [None, evaluate_model(lam1, xi)],
                                          phi, u)
    assert calls == []
    design = np.hstack([phi, phi * evaluate_model(lam1, xi)[:, None]])
    ref = ls_solve(design, u)
    assert _rel(np.concatenate([c for c, _ in pairs]), ref) < 1e-10
    assert np.abs(res - (u - design @ ref)).max() <= 1e-10 * np.abs(u).max()


def test_spatial_mode_falls_back_to_lstsq_where_lambda_vanishes(monkeypatch):
    # lambda is zero on every sample in the support of hat 3, so that hat's
    # column is zero and the Gram singular: lstsq gives it the minimum-norm
    # coefficient, zero
    x, xi, tab = field_set(400, seed=11)
    sb = SpatialBasis(cardx=8)
    phi = spatial_design(sb, x[:, 0])
    nodes = np.linspace(0.0, 1.0, 8)
    lam = np.where(np.abs(x[:, 0] - nodes[3]) < nodes[1], 0.0, 1.5 + tab[:, 0, 1])
    assert not np.any(phi[:, 3] * lam) and np.all(np.any(phi * lam[:, None], axis=0)[[2, 4]])
    res = np.sin(3.0 * x[:, 0]) * lam
    calls = _ls_calls(monkeypatch)
    c, scale = fit_spatial_mode(res, lam, phi)
    assert len(calls) == 1
    ref = ls_solve(phi * lam[:, None], res)
    assert _rel(c * scale, ref) < 1e-10
    assert abs(c[3]) <= 1e-12 * np.abs(c).max()


def test_spatial_mode_rejects_zero_lambda():
    x, _, _ = field_set(50)
    phi = spatial_design(SpatialBasis(cardx=4), x[:, 0])
    with pytest.raises(ValueError):
        fit_spatial_mode(np.ones(50), np.zeros(50), phi)


def test_fit_rejects_robust_config():
    # weighted TLS covers plain rows only; every stochastic fit here is
    # row-weighted, so a robust config would be silently ignored
    x, xi, _ = field_set(50)
    robust = FitConfig(no=3, npc=2, ninter=2, robust=True,
                       noise=NoiseModel(s=0.0, s_u=0.1))
    with pytest.raises(ValueError, match="row-weighted"):
        fit_separated(SampleSet(x, xi, np.ones(50)), SEL, robust,
                      SeparatedConfig(lmax=1), SpatialBasis(cardx=4), B)


def test_first_selection_targets_rank_zero_residual(monkeypatch):
    # the first stochastic rank selects its skeleton on a copy of the
    # training rows whose u is the residual of the rank-0 spatial fit
    x, xi, tab = field_set(400, seed=8)
    u = np.sin(np.pi * x[:, 0]) * (2.0 + tab[:, 0, 1])
    ds = SampleSet(x, xi, u, "train")
    sb = SpatialBasis(kind="legendre-tensor", cardx=6)
    calls = []

    def spy(train, *args, **kwargs):
        calls.append(train)
        return glars_steps(train, *args, **kwargs)

    monkeypatch.setattr(separated, "glars_steps", spy)
    fit_quiet(ds, SEL, FIT, SeparatedConfig(lmax=1), sb, B)
    phi = spatial_design(sb, x[:, 0])
    c0, *_ = np.linalg.lstsq(phi, u, rcond=None)
    first = calls[0]
    assert np.array_equal(first.x, ds.x) and np.array_equal(first.xi, ds.xi)
    assert np.max(np.abs(first.u - (u - phi @ c0))) <= 1e-12 * np.max(np.abs(u))


def test_rank_zero_captures_deterministic_profile():
    x, xi, _ = field_set(400, seed=1)
    u = 1.0 + 2.0 * x[:, 0]  # no stochastic content
    ds = SampleSet(x, xi, u)
    sb = SpatialBasis(kind="legendre-tensor", cardx=4)
    m = fit_quiet(ds, SEL, FIT, SeparatedConfig(lmax=2), sb, B)
    pred = evaluate_separated(m, x, xi)
    assert np.linalg.norm(pred - u) / np.linalg.norm(u) < 1e-10
    assert m.rank == 0  # later ranks collapse on a zero residual


def test_rank_one_separable_target():
    x, xi, tab = field_set(700, seed=2)
    u = np.sin(np.pi * x[:, 0]) * (2.0 + tab[:, 0, 1])
    ds = SampleSet(x, xi, u)
    sb = SpatialBasis(kind="legendre-tensor", cardx=8)
    m = fit_quiet(ds, SEL, FIT, SeparatedConfig(lmax=1), sb, B)
    pred = evaluate_separated(m, x, xi)
    assert m.rank == 1
    assert np.linalg.norm(pred - u) / np.linalg.norm(u) < 0.02


def test_rank_progression_reduces_error():
    x, xi, tab = field_set(900, seed=3)
    u = (np.sin(np.pi * x[:, 0]) * (2.0 + tab[:, 0, 1])
         + 0.4 * x[:, 0] ** 2 * tab[:, 1, 1])
    ds = SampleSet(x, xi, u)
    sb = SpatialBasis(kind="legendre-tensor", cardx=8)
    errs = []
    for lmax in (0, 1, 2):
        m = fit_quiet(ds, SEL, FIT, SeparatedConfig(lmax=lmax), sb, B)
        pred = evaluate_separated(m, x, xi)
        errs.append(np.linalg.norm(pred - u) / np.linalg.norm(u))
    assert errs[1] < errs[0] and errs[2] < errs[1]


def test_validation_split_controls_lambda_growth():
    x, xi, tab = field_set(800, seed=4)
    g = rng_stream(4, 3001)
    u = np.sin(np.pi * x[:, 0]) * (1.0 + tab[:, 0, 1]) + 0.01 * g.standard_normal(800)
    ds = SampleSet(x[:600], xi[:600], u[:600])
    val = SampleSet(x[600:], xi[600:], u[600:], "validation")
    sb = SpatialBasis(kind="legendre-tensor", cardx=8)
    m = fit_quiet(ds, SEL, FIT, SeparatedConfig(lmax=2), sb, B, validation=val)
    pred = evaluate_separated(m, val.x, val.xi)
    assert np.linalg.norm(pred - val.u) / np.linalg.norm(val.u) < 0.05


def test_evaluate_checks_paired_lengths():
    x, xi, _ = field_set(100, seed=5)
    ds = SampleSet(x, xi, np.ones(100))
    sb = SpatialBasis(cardx=4)
    m = fit_quiet(ds, SEL, FIT, SeparatedConfig(lmax=0), sb, B)
    with pytest.raises(ValueError):
        evaluate_separated(m, x[:50], xi)


def test_model_validation():
    sb = SpatialBasis(cardx=4)
    with pytest.raises(ValueError):
        SeparatedModel(spatial_basis=sb, pairs=[])
    with pytest.raises(ValueError):
        SeparatedModel(spatial_basis=sb, pairs=[(np.ones(3), None)])


def test_save_load_round_trip(tmp_path):
    x, xi, tab = field_set(500, seed=6)
    u = np.sin(np.pi * x[:, 0]) * (2.0 + tab[:, 0, 1])
    ds = SampleSet(x, xi, u)
    sb = SpatialBasis(cardx=10)
    m = fit_quiet(ds, SEL, FIT, SeparatedConfig(lmax=1), sb, B)
    p = tmp_path / "sep.json"
    save_separated(m, p)
    r = load_separated(p)
    a = evaluate_separated(m, x, xi)
    b = evaluate_separated(r, x, xi)
    assert np.array_equal(a, b)
    assert r.rank == m.rank


def test_load_rejects_plain_model_file(tmp_path):
    from hdmrfit.model import save_model
    from hdmrfit.model import DenseMode, HdmrModel
    hm = HdmrModel(f0=0.0, basis=B, nd=2, no=3, ninter=1, npc=1, nr=1,
                   dense=[DenseMode((1,), ((2,),), np.array([1.0]))], cp=[])
    p = tmp_path / "m.json"
    save_model(hm, p)
    with pytest.raises(ValueError):
        load_separated(p)


def test_joint_spatial_update_helps_or_ties():
    x, xi, tab = field_set(700, seed=7)
    u = (np.sin(np.pi * x[:, 0]) * (2.0 + tab[:, 0, 1])
         + 0.4 * x[:, 0] ** 2 * tab[:, 1, 1])
    ds = SampleSet(x, xi, u)
    sb = SpatialBasis(kind="legendre-tensor", cardx=8)
    plain = fit_quiet(ds, SEL, FIT, SeparatedConfig(lmax=2), sb, B)
    joint = fit_quiet(ds, SEL, FIT,
                      SeparatedConfig(lmax=2, update_spatial_joint=True), sb, B)
    e_plain = np.linalg.norm(evaluate_separated(plain, x, xi) - u)
    e_joint = np.linalg.norm(evaluate_separated(joint, x, xi) - u)
    assert e_joint <= e_plain * (1 + 1e-8)


def test_tiny_field_keeps_the_unit_scale_pairs():
    # the rank loop tests its residual, lambda and spatial values for zero and
    # compares their norms, whose squares underflow at 1e-170: a tiny field
    # keeps the unit-scale pairs and groups, and its values scaled
    x, xi, tab = field_set(300, nd=4, seed=5)
    g = rng_stream(5, 3004)
    u = (np.sin(np.pi * x[:, 0]) * (2.0 + tab[:, 0, 1] + 0.5 * tab[:, 0, 1] * tab[:, 1, 2])
         + 0.4 * x[:, 0] ** 2 * tab[:, 1, 1] + 0.01 * g.standard_normal(300))
    sb = SpatialBasis(cardx=10)
    fits = []
    for scale in (1.0, 2.0**-565):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = fit_separated(SampleSet(x, xi, scale * u), SEL, FIT,
                              SeparatedConfig(lmax=2), sb, B)
        fits.append((m, evaluate_separated(m, x, xi) / scale))
    (unit, pred), (tiny, tiny_pred) = fits
    assert unit.rank == tiny.rank == 2
    assert [[d.dims for d in lam.dense] for _, lam in tiny.pairs[1:]] \
        == [[d.dims for d in lam.dense] for _, lam in unit.pairs[1:]]
    assert _rel(tiny_pred, pred) < 1e-12


def _two_rank_field(nq, seed, nval=0):
    # two separable terms and a small interaction, with light noise
    x, xi, tab = field_set(nq + nval, seed=seed)
    g = rng_stream(seed, 3004)
    u = (np.sin(np.pi * x[:, 0]) * (2.0 + tab[:, 0, 1] + 0.5 * tab[:, 0, 1] * tab[:, 1, 2])
         + 0.4 * x[:, 0] ** 2 * tab[:, 1, 1] + 0.01 * g.standard_normal(nq + nval))
    train = SampleSet(x[:nq], xi[:nq], u[:nq], "train")
    val = SampleSet(x[nq:], xi[nq:], u[nq:], "validation") if nval else None
    return train, val


# odd row counts and no = 10 give design products whose rounding depends on
# the number of rows they are taken over, so a value of lambda computed over
# other rows than evaluate_model's would change the bytes
@pytest.mark.parametrize("fit_cfg, seed, nval, joint", [
    (FitConfig(no=10, npc=2, ninter=2, seed=0), 16, 199, True),  # dense skeleton
    (FitConfig(no=3, npc=1, ninter=2, nr=2, seed=0), 14, 0, False),  # with CP modes
    (FitConfig(no=10, npc=1, ninter=2, nr=2, seed=0), 14, 199, True),
])
def test_fit_writes_the_bytes_of_the_public_call_reference(fit_cfg, seed, nval, joint,
                                                           tmp_path, monkeypatch):
    train, val = _two_rank_field(501, seed=seed, nval=nval)
    sb = SpatialBasis(cardx=10)
    sep = SeparatedConfig(lmax=2, update_spatial_joint=joint)
    refits = []
    orig = fitting._Skeleton.refit

    def counting(self, *args):
        refits.append(self)
        return orig(self, *args)

    monkeypatch.setattr(fitting._Skeleton, "refit", counting)
    model = fit_quiet(train, SEL, fit_cfg, sep, sb, B, validation=val)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = fit_separated_reference(train, SEL, fit_cfg, sep, sb, B,
                                      lambda a, r: fitting._gram_solve(a, r, 0.0),
                                      validation=val)
    assert model.rank == 2 and refits
    if fit_cfg.ninter == fit_cfg.npc:
        # a dense skeleton's continuation is one solve after the same basis
        # extensions as the reference's fit: the same bytes
        save_separated(model, tmp_path / "lib.json")
        save_separated(ref, tmp_path / "ref.json")
        assert (tmp_path / "lib.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
        return
    # CP modes are continued by the reference's lstsq sweeps: the same
    # model up to their rounding
    assert any(lam.cp for _, lam in model.pairs[1:]) and ref.rank == model.rank
    for (c, lam), (c_ref, lam_ref) in zip(model.pairs, ref.pairs):
        assert _rel(c, c_ref) < 1e-10
        if lam is not None:
            assert [m.dims for m in lam.dense + lam.cp] \
                == [m.dims for m in lam_ref.dense + lam_ref.cp]
            assert lam.f0 == pytest.approx(lam_ref.f0, rel=1e-10)
            assert all(_rel(a.coeffs, b.coeffs) < 1e-10
                       for a, b in zip(lam.dense, lam_ref.dense))
            assert all(_rel(a.factors, b.factors) < 1e-10
                       for a, b in zip(lam.cp, lam_ref.cp))


def test_rank_reads_only_the_path_steps_its_passes_ask_for(monkeypatch):
    train, val = _two_rank_field(500, seed=13, nval=200)
    sel = SelectionConfig(nolars=3, ninter=2, max_groups=20)
    ranks = []   # per rank: [selection inputs, steps read]
    fits = []

    def steps_spy(train, cfg, basis, row_weights=None):
        ranks.append([(train, row_weights), 0])

        def counted():
            for st in glars_steps(train, cfg, basis, row_weights=row_weights):
                ranks[-1][1] += 1
                yield st
        return counted()

    def fit_spy(*args, **kwargs):
        out = fitting._fit_hdmr(*args, **kwargs)
        fits.append(out[2])
        return out

    monkeypatch.setattr(separated, "glars_steps", steps_spy)
    monkeypatch.setattr(separated, "_fit_hdmr", fit_spy)
    fit_quiet(train, sel, FIT, SeparatedConfig(lmax=2), SpatialBasis(cardx=10), B,
              validation=val)
    assert len(ranks) == len(fits) == 2
    shorter = 0
    for ((rows, w), read), diag in zip(ranks, fits):
        assert read == len(diag.records) - 1
        full = glars_select(rows, sel, B, row_weights=w)
        assert read <= len(full)
        shorter += read < len(full)
    assert shorter


@pytest.mark.parametrize("nval", [0, 200])
def test_rank_builds_one_skeleton(nval, monkeypatch):
    # every alternation of a rank refits the skeleton its first,
    # cross-validated fit built
    train, val = _two_rank_field(500, seed=13, nval=nval)
    built = []
    orig = fitting._Skeleton.__init__

    def counting(self, *args):
        built.append(self)
        orig(self, *args)

    monkeypatch.setattr(fitting._Skeleton, "__init__", counting)
    model = fit_quiet(train, SEL, FIT, SeparatedConfig(lmax=2), SpatialBasis(cardx=10),
                      B, validation=val)
    assert model.rank == 2
    assert len(built) == 2


def test_fit_rejects_validation_rows_of_another_shape():
    x, xi, _ = field_set(120, seed=14)
    train = SampleSet(x[:100], xi[:100], np.ones(100))
    no_x = SampleSet(np.empty((20, 0)), xi[100:], np.ones(20), "validation")
    with pytest.raises(ValueError, match=r"x \(20, 0\).*x \(100, 1\)"):
        fit_separated(train, SEL, FIT, SeparatedConfig(lmax=1), SpatialBasis(cardx=4),
                      B, validation=no_x)
    narrow = SampleSet(x[100:], xi[100:, :2], np.ones(20), "validation")
    with pytest.raises(ValueError, match=r"xi \(20, 2\).*xi \(100, 3\)"):
        fit_separated(train, SEL, FIT, SeparatedConfig(lmax=1), SpatialBasis(cardx=4),
                      B, validation=narrow)
