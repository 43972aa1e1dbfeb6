"""End-to-end checks of the command-line driver.

Every invocation goes through main(argv) in-process; the contract under
test is the exit code and the files a command leaves behind.
"""

import json
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from hdmrfit import cli, testbed
from hdmrfit.basis import BasisConfig
from hdmrfit.cli import build_parser, main
from hdmrfit.model import DenseMode, HdmrModel, evaluate_model, load_model, save_model

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace holding a small generated diffusion dataset (no x column)."""
    d = tmp_path_factory.mktemp("cli")
    rc = main(["gen-diffusion", "--out", str(d / "diff.csv"), "--nq", "260",
               "--nd-nu", "2", "--nd-f", "2", "--mx", "32", "--mk", "48",
               "--seed", "3", "--spectrum-f-out", str(d / "spec_f.csv")])
    assert rc == 0
    return d


def _fit_args(ws, out, *extra):
    return ["fit", str(ws / "diff.csv"), "--out", str(out), "--no", "3",
            "--nolars", "2", "--ninter", "2", "--npc", "2", "--seed", "1",
            *extra]


def test_gen_writes_csv_and_manifest(ws):
    csv = ws / "diff.csv"
    assert csv.exists()
    header = csv.read_text().splitlines()[0]
    assert header == "xi1,xi2,xi3,xi4,u"
    doc = json.loads((ws / "diff.csv.manifest.json").read_text())
    assert doc["command"] == "gen-diffusion"
    assert doc["config"]["nq"] == 260
    # the library runs on numpy alone, so no scipy version is reported
    assert set(doc["versions"]) == {"python", "numpy", "artifact"}
    assert doc["timings"]["total"] > 0
    assert str(csv) in doc["outputs"]
    # the forcing-field spectrum is written without --spectrum-out
    spec = ws / "spec_f.csv"
    lines = spec.read_text().splitlines()
    assert lines[0] == "k,eigenvalue" and len(lines) == 1 + 2
    assert doc["outputs"] == [str(csv), str(spec)]


@pytest.mark.parametrize("sigma_f, calls", [("0.7", 1), ("0.4", 2)])
def test_gen_diffusion_factors_each_sigma_once(tmp_path, monkeypatch, sigma_f, calls):
    # the data and both spectra come from the config's one set of fields
    made = []
    kl = testbed.kl_eigendecompose

    def spy(*args, **kwargs):
        made.append(args[0])
        return kl(*args, **kwargs)

    monkeypatch.setattr(testbed, "kl_eigendecompose", spy)
    rc = main(["gen-diffusion", "--out", str(tmp_path / "d.csv"), "--nq", "5",
               "--nd-nu", "2", "--nd-f", "2", "--mx", "16", "--mk", "30",
               "--sigma-f", sigma_f, "--spectrum-out", str(tmp_path / "s.csv"),
               "--spectrum-f-out", str(tmp_path / "sf.csv")])
    assert rc == 0 and len(made) == calls


def test_fit_predict_stats_round_trip(ws, tmp_path, capsys):
    model_path = tmp_path / "m.json"
    rc = main(_fit_args(ws, model_path, "--test", "30"))
    assert rc == 0
    out = capsys.readouterr().out
    assert "test relative error" in out

    pred_path = tmp_path / "p.csv"
    rc = main(["predict", str(model_path), str(ws / "diff.csv"),
               "--out", str(pred_path)])
    assert rc == 0
    lines = pred_path.read_text().splitlines()
    assert lines[0] == "u_hat"
    assert len(lines) == 1 + 260

    # spot-check the written predictions against direct evaluation
    model = load_model(model_path)
    raw = np.loadtxt(ws / "diff.csv", delimiter=",", skiprows=1)
    direct = evaluate_model(model, raw[:3, :4])
    for k in range(3):
        assert float(lines[1 + k]) == pytest.approx(direct[k], rel=1e-15)

    stats_path = tmp_path / "s.csv"
    rc = main(["stats", str(model_path), "--out", str(stats_path)])
    assert rc == 0
    rows = [ln.split(",") for ln in stats_path.read_text().splitlines()[1:]]
    kinds = {r[0] for r in rows}
    assert {"mean", "variance"} <= kinds
    var = float(next(r[2] for r in rows if r[0] == "variance"))
    assert np.isfinite(var) and var >= 0
    if "sobol" in kinds:
        total = sum(float(r[2]) for r in rows if r[0] == "sobol")
        assert total == pytest.approx(1.0, abs=1e-10)


def test_fit_manifest_records_run(ws, tmp_path):
    model_path = tmp_path / "m.json"
    diag_path = tmp_path / "diag.csv"
    rc = main(_fit_args(ws, model_path, "--diagnostics", str(diag_path),
                        "--manifest", str(tmp_path / "mf.json")))
    assert rc == 0
    assert diag_path.read_text().splitlines()[0] \
        == "pass,dims,train_residual_norm,cv_eps,update_sweeps,entry_sweeps"
    doc = json.loads((tmp_path / "mf.json").read_text())
    assert doc["command"] == "fit"
    assert doc["seed"] == 1
    assert doc["config"]["no"] == 3
    assert str(model_path) in doc["outputs"]
    assert str(diag_path) in doc["outputs"]
    assert {"load", "select", "fit", "total"} <= set(doc["timings"])


def test_fit_manifest_splits_selection_time(ws, tmp_path):
    # the selection's dictionary scan and direction solves are timed inside
    # the select stage and recorded next to it
    mf = tmp_path / "mf.json"
    assert main(_fit_args(ws, tmp_path / "m.json", "--manifest", str(mf))) == 0
    timings = json.loads(mf.read_text())["timings"]
    assert timings["select_scan"] > 0 and timings["select_direction"] > 0
    assert timings["select_scan"] + timings["select_direction"] < timings["select"]


@pytest.mark.parametrize("extra", [(), ("--robust", "--noise-su", "0.05")],
                         ids=["plain", "robust"])
def test_fit_manifest_splits_fit_time(ws, tmp_path, extra):
    # the cross-validated passes, the final refit on train + validation and
    # a robust fit's weighted TLS refit are timed inside the fit stage and
    # recorded next to it
    mf = tmp_path / "mf.json"
    assert main(_fit_args(ws, tmp_path / "m.json", "--manifest", str(mf), *extra)) == 0
    timings = json.loads(mf.read_text())["timings"]
    assert timings["fit_cv"] > 0 and timings["fit_refit"] > 0
    assert (timings["fit_wtls"] > 0) == ("--robust" in extra)
    assert timings["fit_cv"] + timings["fit_refit"] + timings["fit_wtls"] <= timings["fit"]


def test_fit_model_bytes_deterministic(ws, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(_fit_args(ws, a)) == 0
    assert main(_fit_args(ws, b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_missing_data_exits_3(tmp_path, capsys):
    rc = main(["fit", str(tmp_path / "nope.csv")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_bad_basis_interval_exits_2(ws, tmp_path):
    rc = main(_fit_args(ws, tmp_path / "m.json",
                        "--basis-lo", "1.0", "--basis-hi", "0.0"))
    assert rc == 2


def test_oversubscribed_split_exits_3(ws, tmp_path):
    rc = main(_fit_args(ws, tmp_path / "m.json", "--train", "10000"))
    assert rc == 3


def _write_rows(path, rows, blank_after=None, ndx=0):
    """Write rows as CSV: ndx spatial columns, then xi columns, then u."""
    with open(path, "w") as fh:
        header = [f"x{j}" for j in range(1, ndx + 1)]
        header += [f"xi{j}" for j in range(1, len(rows[0]) - ndx)]
        fh.write(",".join(header) + ",u\n")
        for q, row in enumerate(rows):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
            if q == blank_after:
                fh.write("\n")


def test_fit_rejects_out_of_interval_row_exits_3(tmp_path, capsys):
    xi = np.random.default_rng(2).uniform(0.0, 1.0, (60, 3))
    xi[0] = [0.0, 1.0, 0.5]          # the endpoints are inside
    xi[40, 2] = 1.25
    xi[50, 0] = -0.5
    csv = tmp_path / "d.csv"
    _write_rows(csv, np.column_stack([xi, xi.sum(axis=1)]))
    out = tmp_path / "m.json"
    rc = main(["fit", str(csv), "--out", str(out), "--no", "3", "--nolars", "2"])
    assert rc == 3
    assert "row 41 has xi3 = 1.25 outside the basis interval [0.0, 1.0]" \
        in capsys.readouterr().err
    assert not out.exists()
    # the same rows fit on an interval that holds them
    assert main(["fit", str(csv), "--out", str(out), "--no", "3", "--nolars", "2",
                 "--basis-lo", "-0.5", "--basis-hi", "1.25"]) == 0


def test_predict_rejects_out_of_interval_row_exits_3(ws, tmp_path, capsys):
    model_path = tmp_path / "m.json"
    assert main(_fit_args(ws, model_path)) == 0
    csv = tmp_path / "q.csv"
    # a blank line is not a data row: the offending row is still row 2
    _write_rows(csv, [[0.0, 1.0, 0.3, 0.7, 0.0], [0.2, 0.4, 5.0, 0.1, 0.0]],
                blank_after=0)
    pred = tmp_path / "p.csv"
    rc = main(["predict", str(model_path), str(csv), "--out", str(pred)])
    assert rc == 3
    assert "row 2 has xi3 = 5.0 outside the basis interval" in capsys.readouterr().err
    assert not pred.exists()
    _write_rows(csv, [[0.0, 1.0, 0.3, 0.7, 0.0]])
    assert main(["predict", str(model_path), str(csv), "--out", str(pred)]) == 0


def test_zero_test_response_exits_3_before_fitting(tmp_path, capsys):
    xi = np.random.default_rng(3).uniform(0.0, 1.0, (60, 2))
    csv = tmp_path / "z.csv"
    _write_rows(csv, np.column_stack([xi, np.zeros(60)]))
    out = tmp_path / "m.json"
    rc = main(["fit", str(csv), "--out", str(out), "--no", "3", "--nolars", "2",
               "--test", "10"])
    assert rc == 3
    assert "identically zero" in capsys.readouterr().err
    assert not out.exists()


def test_tiny_test_response_is_not_zero(tmp_path, capsys):
    # values near 1e-170 have norm 0.0; they are not identically zero, so
    # the fit runs and reports a finite test error
    xi = np.random.default_rng(4).uniform(0.0, 1.0, (60, 2))
    u = 2.0**-565 * (2.0 + xi[:, 0] + 0.5 * xi[:, 1])
    assert np.linalg.norm(u[:10]) == 0.0
    csv = tmp_path / "tiny.csv"
    _write_rows(csv, np.column_stack([xi, u]))
    out = tmp_path / "m.json"
    rc = main(["fit", str(csv), "--out", str(out), "--no", "3", "--nolars", "2",
               "--test", "10"])
    assert rc == 0 and out.exists()
    eps = float(re.search(r"test relative error: (\S+)", capsys.readouterr().out)[1])
    assert 0.0 < eps < 1.0


def test_separated_without_spatial_column_exits_3(ws, tmp_path):
    rc = main(_fit_args(ws, tmp_path / "m.json", "--mode", "separated"))
    assert rc == 3


def test_separated_robust_exits_2(ws, tmp_path, capsys):
    # weighted TLS covers plain rows only, and every stochastic fit of the
    # separated driver is row-weighted: the flag would be silently ignored
    out = tmp_path / "m.json"
    rc = main(_fit_args(ws, out, "--mode", "separated", "--robust",
                        "--noise-su", "0.1"))
    assert rc == 2
    assert "--robust applies to --mode hdmr only" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--diagnostics", "--path-csv"])
def test_separated_hdmr_outputs_exit_2(tmp_path, capsys, flag):
    # the separated driver writes neither file: on a scattered set the fit
    # would exit 0 with the flag silently dropped and the manifest listing
    # only the model
    csv = tmp_path / "field.csv"
    assert main(["gen-diffusion", "--out", str(csv), "--nq", "120", "--nd-nu", "2",
                 "--nd-f", "2", "--mx", "32", "--mk", "48", "--sampling",
                 "scattered", "--seed", "5"]) == 0
    out = tmp_path / "m.json"
    side = tmp_path / "side.csv"
    rc = main(["fit", str(csv), "--mode", "separated", "--out", str(out), "--no", "3",
               "--nolars", "2", "--ninter", "2", "--npc", "2", "--cardx", "8",
               "--rank", "1", flag, str(side)])
    assert rc == 2
    assert f"{flag} applies to --mode hdmr only" in capsys.readouterr().err
    assert not out.exists() and not side.exists()


@pytest.mark.parametrize("flag", ["--val", "--test"])
def test_negative_split_size_exits_2(ws, tmp_path, capsys, flag):
    out = tmp_path / "m.json"
    assert main(_fit_args(ws, out, flag, "-1")) == 2
    assert f"{flag} must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ("--no", "1", "--ninter", "2", "--npc", "2"),
    ("--no", "2", "--ninter", "3", "--npc", "3"),
    ("--no", "1", "--npc", "1", "--ninter", "2"),
])
def test_degree_below_group_classes_exits_2(ws, tmp_path, capsys, flags):
    # rejected by the configuration, before selection runs
    out = tmp_path / "m.json"
    argv = ["fit", str(ws / "diff.csv"), "--out", str(out), "--nolars", "2",
            *flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"no={flags[1]} must be >= " in err and "fit failed" not in err
    assert not out.exists()


def test_ninter_above_the_data_dimension_count_exits_2_before_any_work(tmp_path, capsys,
                                                                      monkeypatch):
    # two stochastic columns hold no group of three: fit is rejected before
    # selection, and bench before it draws its data
    def unreachable(*args, **kwargs):
        raise AssertionError("ran past the configuration checks")

    monkeypatch.setattr(cli, "glars_select", unreachable)
    monkeypatch.setattr(cli, "generate_dataset", unreachable)
    xi = np.random.default_rng(5).uniform(0.0, 1.0, (60, 2))
    csv, out = tmp_path / "d2.csv", tmp_path / "m.json"
    _write_rows(csv, np.column_stack([xi, xi.sum(axis=1)]))
    assert main(["fit", str(csv), "--out", str(out), "--ninter", "3"]) == 2
    err = capsys.readouterr().err
    assert "--ninter 3 exceeds the data's 2 stochastic columns (Nd)" in err
    assert "fit failed" not in err and not out.exists()
    assert main(["bench", "--out", str(tmp_path / "b.csv"), "--nd-nu", "1",
                 "--nd-f", "1"]) == 2
    assert "--nd-nu + --nd-f = 2 is too few" in capsys.readouterr().err


@pytest.mark.parametrize("flags, name", [
    (("--mk", "2", "--nd-nu", "5"), "--mk"),
    (("--lc", "0"), "--lc"),
    (("--lc", "-0.3"), "--lc"),
    (("--mk", "0", "--nd-nu", "0", "--nd-f", "1"), "--mk"),
])
def test_gen_diffusion_bad_config_exits_2(tmp_path, capsys, flags, name):
    out = tmp_path / "d.csv"
    assert main(["gen-diffusion", "--out", str(out), "--nq", "5", *flags]) == 2
    err = capsys.readouterr().err
    assert name in err and "generation failed" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, field", [
    ("fit", ("--beta", "nan"), "beta"),
    ("fit", ("--beta", "inf"), "beta"),
    ("fit", ("--basis-hi", "inf"), "hi"),
    ("fit", ("--mode", "separated", "--x-hi", "inf"), "domain"),
    ("gen-diffusion", ("--sigma-nu", "nan"), "sigma_nu"),
    ("gen-diffusion", ("--sigma-f", "inf"), "sigma_f"),
    ("gen-diffusion", ("--u-minus", "nan"), "u_minus"),
])
def test_non_finite_configuration_number_exits_2(ws, tmp_path, capsys, command,
                                                 flags, field):
    # --beta nan once fitted unridged (nan > 0 is false); the others failed
    # inside the fit or the generation, with exit 4
    out = tmp_path / "out"
    argv = (_fit_args(ws, out, *flags) if command == "fit"
            else ["gen-diffusion", "--out", str(out), "--nq", "5", *flags])
    assert main(argv) == 2
    assert f"error: {field} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_domain_spatial_exits_3(tmp_path, capsys):
    # x runs over [0, 2] but the spatial basis defaults to [0, 1]
    csv = tmp_path / "sp.csv"
    g = np.random.default_rng(0)
    xs = g.uniform(0, 2, 60)
    with open(csv, "w") as fh:
        fh.write("x1,xi1,xi2,u\n")
        for x in xs:
            a, b = (float(v) for v in g.uniform(0, 1, 2))
            fh.write(f"{float(x)!r},{a!r},{b!r},{float(np.sin(x) * (1 + a))!r}\n")
    row = int(np.argmax(xs > 1.0)) + 1
    out = tmp_path / "m.json"
    args = ["fit", str(csv), "--mode", "separated", "--out", str(out), "--no", "2",
            "--nolars", "2", "--ninter", "1", "--npc", "1", "--cardx", "4",
            "--rank", "1"]
    assert main(args) == 3
    assert (f"row {row} has x1 = {float(xs[row - 1])!r} outside the spatial "
            "domain [0.0, 1.0]") in capsys.readouterr().err
    assert not out.exists()
    # the same rows fit on a domain that holds them; predict names the row
    # of a query outside it
    assert main(args + ["--x-hi", "2.0"]) == 0
    query = tmp_path / "q.csv"
    query.write_text("x1,xi1,xi2,u\n0.5,0.2,0.3,0.0\n2.5,0.2,0.3,0.0\n")
    pred = tmp_path / "p.csv"
    assert main(["predict", str(out), str(query), "--out", str(pred)]) == 3
    assert "row 2 has x1 = 2.5 outside the spatial domain [0.0, 2.0]" \
        in capsys.readouterr().err
    assert not pred.exists()


def test_separated_fit_predict_and_stats_rejection(tmp_path):
    csv = tmp_path / "field.csv"
    rc = main(["gen-diffusion", "--out", str(csv), "--nq", "300",
               "--nd-nu", "2", "--nd-f", "2", "--mx", "32", "--mk", "48",
               "--sampling", "scattered", "--seed", "5"])
    assert rc == 0
    header = csv.read_text().splitlines()[0]
    assert header.startswith("x1,xi1")

    model_path = tmp_path / "sep.json"
    rc = main(["fit", str(csv), "--mode", "separated", "--out", str(model_path),
               "--no", "3", "--nolars", "2", "--ninter", "2", "--npc", "2",
               "--cardx", "8", "--rank", "1", "--seed", "1"])
    assert rc == 0

    pred_path = tmp_path / "p.csv"
    rc = main(["predict", str(model_path), str(csv), "--out", str(pred_path)])
    assert rc == 0
    vals = [float(v) for v in pred_path.read_text().splitlines()[1:]]
    assert len(vals) == 300
    assert all(np.isfinite(v) for v in vals)

    # closed-form moments are undefined for the separated format
    assert main(["stats", str(model_path)]) == 2


def test_predict_rejects_bad_model_file(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text('{"schema": 99}\n')
    csv = tmp_path / "d.csv"
    csv.write_text("xi1,u\n0.5,1.0\n")
    assert main(["predict", str(bad), str(csv)]) == 3


def _malformed_list(doc):
    return [doc]


def _malformed_dense(doc):
    return dict(doc, dense=5)


def _malformed_f0(doc):
    return dict(doc, f0="abc")


def _fractional_dims_and_index(doc):
    # int() would read these as dim 1 and index 2
    return dict(doc, dense=[dict(doc["dense"][0], dims=[1.7], indices=[[2.5]])])


def _index_beyond_basis(doc):
    # basis function 9 of a max_order 4 basis: predict would index past the
    # table, and stats would report S[1] = 1 for it
    return dict(doc, dense=[dict(doc["dense"][0], indices=[[9]])])


def _hermite_family(doc):
    # Legendre is the only basis family a model can hold
    return dict(doc, basis=dict(doc["basis"], family="hermite"))


def _nan_f0(doc):
    # json reads NaN and Infinity without complaint: predict would write nan
    # and stats print mean nan
    return dict(doc, f0=float("nan"))


def _infinite_coefficient(doc):
    return dict(doc, dense=[dict(doc["dense"][0], coeffs=[float("inf")])])


def _separated_nan_spatial_coefficient(doc):
    # a separated file whose rank-1 stochastic mode is the plain model
    return {"schema": 1, "kind": "separated",
            "spatial_basis": {"kind": "nodal-piecewise-linear", "cardx": 2,
                              "domain": [0.0, 1.0]},
            "pairs": [{"w": [1.0, 0.5], "lambda": "unit"},
                      {"w": [float("nan"), 0.5], "lambda": doc}]}


@pytest.mark.parametrize("corrupt", [_malformed_list, _malformed_dense, _malformed_f0,
                                     _fractional_dims_and_index, _index_beyond_basis,
                                     _hermite_family, _nan_f0, _infinite_coefficient,
                                     _separated_nan_spatial_coefficient])
def test_malformed_model_file_exits_3(tmp_path, capsys, corrupt):
    good = tmp_path / "good.json"
    save_model(HdmrModel(f0=0.5, basis=BasisConfig(lo=0.0, hi=1.0, max_order=4),
                         nd=1, no=3, ninter=1, npc=1, nr=1,
                         dense=[DenseMode((1,), ((2,),), np.array([1.0]))]), good)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(json.loads(good.read_text()))))
    # the x column is read by a separated model only
    csv = tmp_path / "d.csv"
    csv.write_text("x1,xi1,u\n0.5,0.5,1.0\n")
    assert main(["predict", str(bad), str(csv), "--out", str(tmp_path / "p.csv")]) == 3
    assert main(["stats", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.count(f"error: {bad}") == 2


def test_readme_cli_block_parses():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI.*?```\n(.*?)```", text, re.S).group(1)
    lines = [ln for ln in block.replace("\\\n", " ").splitlines()
             if ln.startswith("hdmrfit ")]
    assert len(lines) >= 5
    parser = build_parser()
    for ln in lines:
        parser.parse_args(shlex.split(ln)[1:])


def test_readme_library_block_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library.*?```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    error = float(capsys.readouterr().out.split()[0])
    assert 0.0 <= error < 0.05


def test_bench_rejects_bad_counts(tmp_path, capsys, monkeypatch):
    # every count is checked before any data is drawn
    def unreachable(*args, **kwargs):
        raise AssertionError("ran past the configuration checks")

    monkeypatch.setattr(cli, "generate_dataset", unreachable)
    out = str(tmp_path / "bench.csv")
    for flags, message in [
        (("--seeds", "0"), "--seeds must be >= 1"),
        (("--ntest", "0"), "--ntest must be >= 1"),
        (("--nq-list", "0"), "--nq-list entries must be >= 2"),
        (("--nq-list", "300,1"), "--nq-list entries must be >= 2"),
        (("--no", "2"), "no=2 must be >= npc=3"),
    ]:
        assert main(["bench", "--out", out, *flags]) == 2
        assert message in capsys.readouterr().err


def test_bench_convergence_writes_rows(tmp_path):
    out = tmp_path / "conv.csv"
    rc = main(["bench", "--out", str(out),
               "--nq-list", "80,160", "--nd-nu", "2", "--nd-f", "2",
               "--mx", "32", "--mk", "48", "--ntest", "200", "--no", "3",
               "--nolars", "3"])
    assert rc == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    # per (nq, seed): the test error, then the selection and fit seconds
    assert [r[0] for r in rows] == ["eps", "select_s", "fit_s"] * 2
    assert [int(r[1]) for r in rows] == [80] * 3 + [160] * 3
    assert all(0 <= float(r[3]) < 1 for r in rows if r[0] == "eps")
    assert all(float(r[3]) > 0 for r in rows if r[0] != "eps")


def test_bench_convergence_test_rows_do_not_depend_on_seeds(tmp_path):
    small = ["--nq-list", "80", "--nd-nu", "2", "--nd-f", "2", "--mx", "32",
             "--mk", "48", "--ntest", "200", "--no", "3", "--nolars", "3"]
    values = []
    for seeds in ("1", "2"):
        out = tmp_path / f"conv{seeds}.csv"
        assert main(["bench", "--out", str(out),
                     "--seeds", seeds] + small) == 0
        values.append([ln.split(",") for ln in out.read_text().splitlines()[1:]
                       if ln.startswith("eps,")])
    # the (nq, seed 0) row is the same fit on the same held-out rows
    assert values[0][0] == values[1][0]
    assert [int(r[2]) for r in values[1]] == [0, 1]


def test_threads_flag_is_rejected(tmp_path):
    # selection runs in one thread; there is no worker count to set
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "predict", str(tmp_path / "no.json"),
              str(tmp_path / "no.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, flag", [
    (["gen-diffusion", "--nq", "10"], "--out"),
    (["fit", "data.csv"], "--out"),
    (["fit", "data.csv", "--out", "model.json"], "--manifest"),
    (["predict", "model.json", "data.csv"], "--out"),
    (["stats", "model.json"], "--out"),
    (["bench"], "--out"),
], ids=["gen-diffusion", "fit-out", "fit-manifest", "predict", "stats", "bench"])
def test_unwritable_output_exits_2(tmp_path, capsys, monkeypatch, command, flag):
    # the run stops before any work, naming the flag and the path; the
    # inputs need not exist, since outputs are checked first
    monkeypatch.chdir(tmp_path)
    bad = str(tmp_path / "missing" / "out.csv")
    assert main(command + [flag, bad]) == 2
    err = capsys.readouterr().err
    assert f"{flag}: cannot write {bad}" in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command, flag", [
    (["gen-diffusion", "--nq", "10"], "--out"),
    (["gen-diffusion", "--nq", "10"], "--spectrum-out"),
    (["gen-diffusion", "--nq", "10"], "--manifest"),
    (["fit", "data.csv"], "--out"),
    (["fit", "data.csv"], "--diagnostics"),
    (["fit", "data.csv"], "--path-csv"),
    (["fit", "data.csv"], "--manifest"),
    (["predict", "model.json", "data.csv"], "--out"),
    (["stats", "model.json"], "--out"),
    (["bench"], "--out"),
], ids=["gen-diffusion", "gen-spectrum", "gen-manifest", "fit-out", "fit-diagnostics",
        "fit-path-csv", "fit-manifest", "predict", "stats", "bench"])
def test_empty_output_path_exits_2(tmp_path, capsys, monkeypatch, command, flag):
    # an empty path is neither written nor silently ignored
    monkeypatch.chdir(tmp_path)
    assert main(command + [flag, ""]) == 2
    assert f"{flag}: empty path" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_fit_without_validation_rows_fits_whole_path(ws, tmp_path, capsys):
    diag, path_csv = tmp_path / "d.csv", tmp_path / "path.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(_fit_args(ws, tmp_path / "m.json", "--val", "0",
                            "--diagnostics", str(diag), "--path-csv", str(path_csv)))
    assert rc == 0
    assert not [w for w in caught if "validation" in str(w.message)]
    assert "validation" not in capsys.readouterr().err
    steps = path_csv.read_text().splitlines()[1:]
    rows = [ln.split(",") for ln in diag.read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(len(steps) + 1))
    assert all(r[3] == "nan" for r in rows)


def _degenerate_rows(case):
    """Columns x1, xi1..xi4 and u; x1 is uniform on [0, 1] and u does not
    depend on it."""
    g = np.random.default_rng(61)
    nq = 40 if case == "40-rows" else 300
    xi = g.uniform(0.0, 1.0, size=(nq, 4))
    if case == "constant":
        xi[:, 3] = 0.3
    elif case == "duplicate":
        xi[:, 3] = xi[:, 0]
    elif case == "mirrored":
        xi[:, 3] = 1.0 - xi[:, 0]
    elif case == "two-valued":
        xi[:, 3] = np.where(g.uniform(size=nq) < 0.5, 0.25, 0.75)
    elif case == "repeated-rows":
        xi = np.tile(xi[:30], (10, 1))
    elif case == "all-constant":
        xi[:] = [0.2, 0.4, 0.6, 0.8]
    u = np.sin(3 * xi[:, 0]) + xi[:, 1] * xi[:, 2]
    x = g.uniform(0.0, 1.0, size=nq)
    if case == "repeated-rows":
        x = np.tile(x[:30], 10)
    return np.column_stack([x, xi, u])


@pytest.mark.parametrize("case", ["constant", "duplicate", "mirrored", "two-valued",
                                  "repeated-rows", "40-rows", "all-constant"])
def test_degenerate_data_fits_and_predicts(tmp_path, case):
    # dependent, constant and repeated columns or rows are handled by the
    # selection's rank cutoff and the fit's minimum-norm solves: in both
    # modes the fit exits 0 and its model predicts finite values at the
    # training rows (the HDMR mode ignores the x1 column)
    data, rows = tmp_path / "data.csv", _degenerate_rows(case)
    _write_rows(data, rows, ndx=1)
    test = "5" if case == "40-rows" else "20"
    for mode, extra in (("hdmr", []), ("separated", ["--cardx", "4"])):
        model, pred = tmp_path / f"{mode}.json", tmp_path / f"{mode}.csv"
        assert main(["fit", str(data), "--mode", mode, "--out", str(model),
                     "--no", "4", "--nolars", "3", "--ninter", "2", "--npc", "2",
                     "--test", test, *extra]) == 0, mode
        assert main(["predict", str(model), str(data), "--out", str(pred)]) == 0, mode
        values = np.loadtxt(pred, skiprows=1)
        assert values.shape == (rows.shape[0],)
        assert np.all(np.isfinite(values)), mode
