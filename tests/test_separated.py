import warnings

import numpy as np
import pytest

from hdmrfit import separated
from hdmrfit.basis import BasisConfig, univariate_table
from hdmrfit.data import NoiseModel, SampleSet, rng_stream
from hdmrfit.fitting import FitConfig
from hdmrfit.selection import SelectionConfig, glars_select
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
        return glars_select(train, *args, **kwargs)

    monkeypatch.setattr(separated, "glars_select", spy)
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
