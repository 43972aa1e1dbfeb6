import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdmrfit.data import (
    NoiseModel,
    SampleSet,
    inject_noise,
    load_csv,
    rng_stream,
    save_csv,
    split,
)


def make_set(nq=20, nd=3, ndx=1, seed=0):
    g = rng_stream(seed, 77)
    return SampleSet(
        g.uniform(0, 1, size=(nq, ndx)),
        g.uniform(0, 1, size=(nq, nd)),
        g.standard_normal(nq),
    )


def test_shapes_and_counts():
    s = make_set()
    assert (s.nq, s.nd, s.ndx) == (20, 3, 1)
    assert s.tag == "unsplit"


def test_arrays_are_frozen():
    s = make_set()
    with pytest.raises(ValueError):
        s.u[0] = 3.0


def test_rejects_nonfinite():
    s = make_set()
    u = np.array(s.u)
    u[3] = np.nan
    with pytest.raises(ValueError):
        SampleSet(s.x, s.xi, u)


def test_rejects_zero_rows():
    # selection, fitting and the relative error rely on this check instead
    # of testing for an empty set themselves
    with pytest.raises(ValueError, match="at least one row"):
        SampleSet(np.empty((0, 1)), np.empty((0, 3)), np.empty(0))


def test_rejects_row_mismatch():
    s = make_set()
    with pytest.raises(ValueError):
        SampleSet(s.x[:-1], s.xi, s.u)


def test_csv_round_trip_bit_exact(tmp_path):
    s = make_set(nq=31, nd=4, ndx=2)
    p = tmp_path / "d.csv"
    save_csv(s, p)
    r = load_csv(p)
    assert np.array_equal(r.x, s.x)
    assert np.array_equal(r.xi, s.xi)
    assert np.array_equal(r.u, s.u)


def test_csv_no_spatial_columns(tmp_path):
    s = make_set(ndx=0)
    p = tmp_path / "d.csv"
    save_csv(s, p)
    r = load_csv(p)
    assert r.ndx == 0 and r.nd == 3


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,u\n1,2,3\n")
    with pytest.raises(ValueError):
        load_csv(p)


def test_load_reports_offending_row(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("xi1,u\n0.5,1.0\n0.25,oops\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(p)


def test_load_row_numbers_skip_blank_lines(tmp_path):
    # row q is sample q, as the CLI's basis-interval check numbers them
    p = tmp_path / "d.csv"
    p.write_text("xi1,u\n0.5,1.0\n\n0.25,oops\n")
    with pytest.raises(ValueError, match="row 2 "):
        load_csv(p)


def test_load_rejects_ragged_row(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("xi1,xi2,u\n0.5,0.5,1.0\n0.25,3.0\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(p)


def test_split_is_disjoint_and_complete():
    s = make_set(nq=50)
    tr, va, te = split(s, 30, 12, 8, seed=4)
    assert (tr.nq, va.nq, te.nq) == (30, 12, 8)
    assert (tr.tag, va.tag, te.tag) == ("train", "validation", "test")
    stacked = np.vstack([tr.xi, va.xi, te.xi])
    assert np.array_equal(np.sort(stacked, axis=0), np.sort(s.xi, axis=0))


def test_split_deterministic():
    s = make_set(nq=40)
    a = split(s, 20, 10, 10, seed=9)
    b = split(s, 20, 10, 10, seed=9)
    for x, y in zip(a, b):
        assert np.array_equal(x.u, y.u)
    c, *_ = split(s, 20, 10, 10, seed=10)
    assert not np.array_equal(a[0].u, c.u)


def test_split_rejects_oversubscription():
    s = make_set(nq=10)
    with pytest.raises(ValueError):
        split(s, 8, 2, 1, seed=0)


def test_zero_noise_is_identity():
    s = make_set()
    out = inject_noise(s, NoiseModel(), seed=5)
    assert np.array_equal(out.xi, s.xi)
    assert np.array_equal(out.u, s.u)


def test_noise_deterministic_and_seed_sensitive():
    s = make_set(nq=64)
    nm = NoiseModel(s=0.05, s_u=0.1, box=(0.0, 1.0))
    a = inject_noise(s, nm, seed=3)
    b = inject_noise(s, nm, seed=3)
    c = inject_noise(s, nm, seed=4)
    assert np.array_equal(a.xi, b.xi) and np.array_equal(a.u, b.u)
    assert not np.array_equal(a.xi, c.xi)


def test_noisy_coordinates_stay_in_box():
    s = make_set(nq=200, nd=4)
    out = inject_noise(s, NoiseModel(s=0.5, box=(0.0, 1.0)), seed=11)
    assert out.xi.min() >= 0.0 and out.xi.max() <= 1.0


def test_value_noise_is_multiplicative():
    s = make_set(nq=30)
    out = inject_noise(s, NoiseModel(s_u=0.2), seed=2)
    ratio = out.u / s.u
    assert np.all(ratio != 1.0)
    # same stream with s > 0 leaves the value draw unchanged
    out2 = inject_noise(s, NoiseModel(s=0.01, s_u=0.2), seed=2)
    assert np.allclose(out2.u / s.u, ratio, atol=1e-15)


def test_negative_scale_rejected():
    with pytest.raises(ValueError):
        NoiseModel(s=-1.0)


def test_rng_stream_independent_keys():
    a = rng_stream(7, 1, 0).standard_normal(5)
    b = rng_stream(7, 1, 1).standard_normal(5)
    c = rng_stream(7, 1, 0).standard_normal(5)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


@given(st.floats(min_value=-5, max_value=5),
       st.floats(min_value=0, max_value=2))
@settings(max_examples=300, deadline=None)
def test_reflection_always_lands_in_box(xi, s):
    from hdmrfit.data import _reflect
    y = _reflect(np.array([xi]), 0.0, 1.0)
    assert 0.0 <= y[0] <= 1.0
    del s


def test_take_and_retag():
    s = make_set(nq=10)
    sub = s.take(np.array([2, 5, 7]))
    assert sub.nq == 3
    assert np.array_equal(sub.u, s.u[[2, 5, 7]])
    tagged = s.retag("test")
    assert tagged.tag == "test" and np.array_equal(tagged.u, s.u)
