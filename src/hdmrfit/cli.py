"""Command-line entry point.

Commands: fit, predict, stats, gen-diffusion, bench. Every run writes a
manifest JSON capturing the command, configuration, seed, paths, library
versions, and stage timings; replaying the same invocation reproduces the
outputs bit for bit. Exit codes: 0 success, 2 configuration error, 3 data
error, 4 fit failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .basis import BasisConfig
from .data import NoiseModel, inject_noise, load_csv, save_csv, split
from .fitting import (
    FitConfig,
    fit_hdmr,
    relative_error,
    save_diagnostics,
)
from .model import (
    HdmrModel,
    evaluate_model,
    model_mean,
    model_variance,
    save_model,
    sobol_indices,
    total_sobol,
)
from .selection import SelectionConfig, glars_select, save_path
from .separated import (
    SeparatedConfig,
    SpatialBasis,
    evaluate_separated,
    fit_separated,
    load_any_model,
    save_separated,
)
from .testbed import DiffusionConfig, generate_dataset, save_spectrum

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_FIT = 4

# bench: seed of the held-out rows. Fixed, so the test set does not change
# with --seed or --seeds, and far above any training seed.
BENCH_TEST_SEED = 2**40 + 1


def _versions() -> dict:
    import scipy
    vers = {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__}
    try:
        from importlib.metadata import version
        vers["artifact"] = version("artifact")
    except Exception:
        vers["artifact"] = "unknown"
    return vers


def _write_manifest(path, command, args, inputs, outputs, timings) -> None:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    doc = {
        "command": command,
        "config": cfg,
        "seed": cfg.get("seed"),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "versions": _versions(),
        "timings": timings,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1, default=str)
        fh.write("\n")


def _manifest_path(args, outputs):
    if args.manifest:
        return args.manifest
    if outputs:
        return str(outputs[0]) + ".manifest.json"
    return "run-manifest.json"


def _check_outputs(args) -> None:
    """Raise ValueError naming the first flag whose file cannot be written,
    before the command does any work. The manifest's default path sits next
    to the first output, or next to the model when stats writes no table."""
    paths = [(f"--{dest.replace('_', '-')}", getattr(args, dest, None))
             for dest in ("out", "diagnostics", "path_csv", "spectrum_out",
                          "spectrum_f_out")]
    paths.append(("--manifest", _manifest_path(args, [args.out or args.model])))
    for flag, path in paths:
        if path is None:
            continue
        parent = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            reason = "it is a directory"
        elif not os.path.isdir(parent):
            reason = f"no directory {parent}"
        elif not os.access(parent, os.W_OK) or (
                os.path.exists(path) and not os.access(path, os.W_OK)):
            reason = "permission denied"
        else:
            continue
        raise ValueError(f"{flag}: cannot write {path}: {reason}")


def _fail(code: int, msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _check_interval(path, values, lo: float, hi: float, column: str = "xi",
                    interval: str = "the basis interval") -> None:
    """Raise ValueError naming the first data row (1-based, header excluded)
    of ``path`` and its ``column`` with a coordinate outside [lo, hi]. The
    stochastic basis is orthonormal on its interval only, and the spatial
    basis is defined on its domain only; the endpoints are inside."""
    bad = (values < lo) | (values > hi)
    if np.any(bad):
        q, j = np.argwhere(bad)[0]
        raise ValueError(f"{path}: row {q + 1} has {column}{j + 1} = "
                         f"{float(values[q, j])!r} outside {interval} [{lo!r}, {hi!r}]")


def cmd_fit(args) -> int:
    timings = {}
    t_all = time.perf_counter()
    t0 = time.perf_counter()
    try:
        data = load_csv(args.data)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_DATA, str(exc))
    timings["load"] = time.perf_counter() - t0

    try:
        if args.val is not None and args.val < 0:
            raise ValueError("--val must be >= 0")
        if args.test < 0:
            raise ValueError("--test must be >= 0")
        n_val = args.val if args.val is not None else max(1, data.nq // 5)
        n_test = args.test
        n_train = args.train if args.train is not None \
            else data.nq - n_val - n_test
        if n_train < 1:
            raise ValueError("no training rows left after the split")
        noise = NoiseModel(s=args.noise_s, s_u=args.noise_su,
                           box=(args.basis_lo, args.basis_hi))
        basis = BasisConfig(lo=args.basis_lo, hi=args.basis_hi,
                            max_order=args.no + 1)
        sel_cfg = SelectionConfig(nolars=args.nolars, ninter=args.ninter,
                                  max_groups=args.max_groups,
                                  hierarchical=args.hierarchical)
        fit_cfg = FitConfig(no=args.no, npc=args.npc, ninter=args.ninter,
                            nr=args.nr, beta=args.beta, seed=args.seed,
                            robust=args.robust,
                            noise=noise if args.robust else None)
        if args.mode == "separated":
            if args.robust:
                raise ValueError("--robust applies to --mode hdmr only: the "
                                 "separated driver fits row-weighted "
                                 "stochastic modes, which weighted TLS does "
                                 "not cover")
            sb = SpatialBasis(kind=args.spatial_kind, cardx=args.cardx,
                              domain=(args.x_lo, args.x_hi))
            sep_cfg = SeparatedConfig(lmax=args.rank)
    except ValueError as exc:
        return _fail(EXIT_CONFIG, str(exc))

    try:
        _check_interval(args.data, data.xi, basis.lo, basis.hi)
        if args.mode == "separated":
            if data.ndx != 1:
                raise ValueError("separated fitting needs exactly one spatial column")
            _check_interval(args.data, data.x, *sb.domain, "x", "the spatial domain")
        train, val, test = split(data, n_train, n_val, n_test, args.seed)
        if test is not None and float(np.linalg.norm(test.u)) == 0.0:
            raise ValueError("the test rows' response is identically zero: "
                             "their relative error is undefined")
    except ValueError as exc:
        return _fail(EXIT_DATA, str(exc))
    if args.noise_s > 0 or args.noise_su > 0:
        train = inject_noise(train, noise, args.seed)

    outputs = [args.out]
    try:
        t0 = time.perf_counter()
        if args.mode == "separated":
            model = fit_separated(train, sel_cfg, fit_cfg, sep_cfg,
                                  sb, basis, validation=val)
            timings["fit"] = time.perf_counter() - t0
            save_separated(model, args.out)
        else:
            path = glars_select(train, sel_cfg, basis)
            timings["select"] = time.perf_counter() - t0
            timings["select_scan"] = path.scan_seconds
            timings["select_direction"] = path.direction_seconds
            if args.path_csv:
                save_path(path, args.path_csv)
                outputs.append(args.path_csv)
            t0 = time.perf_counter()
            model, diag = fit_hdmr(train, val, path, fit_cfg, basis)
            timings["fit"] = time.perf_counter() - t0
            timings["fit_cv"] = diag.cv_seconds
            timings["fit_refit"] = diag.refit_seconds
            save_model(model, args.out)
            if args.diagnostics:
                save_diagnostics(diag, args.diagnostics)
                outputs.append(args.diagnostics)
    except Exception as exc:  # selection/fit breakdowns map to exit 4
        return _fail(EXIT_FIT, f"fit failed: {exc}")

    if n_test > 0:
        eps = relative_error(model, test)
        print(f"test relative error: {eps:.6e}")
    timings["total"] = time.perf_counter() - t_all
    mpath = _manifest_path(args, outputs)
    _write_manifest(mpath, "fit", args, [args.data], outputs, timings)
    print(f"model written to {args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    t_all = time.perf_counter()
    try:
        model = load_any_model(args.model)
        data = load_csv(args.data)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_DATA, str(exc))
    # a separated model's stochastic modes share one basis; rank 0 has none
    basis = model.basis if isinstance(model, HdmrModel) else next(
        (lam.basis for _, lam in model.pairs if lam is not None), None)
    try:
        if basis is not None:
            _check_interval(args.data, data.xi, basis.lo, basis.hi)
        if not isinstance(model, HdmrModel) and data.ndx == 1:
            _check_interval(args.data, data.x, *model.spatial_basis.domain, "x",
                            "the spatial domain")
        if isinstance(model, HdmrModel):
            pred = np.atleast_1d(evaluate_model(model, data.xi))
        else:
            pred = np.atleast_1d(evaluate_separated(model, data.x, data.xi))
    except ValueError as exc:
        return _fail(EXIT_DATA, str(exc))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("u_hat\n")
        for v in pred:
            fh.write(f"{float(v)!r}\n")
    _write_manifest(_manifest_path(args, [args.out]), "predict", args,
                    [args.model, args.data], [args.out],
                    {"total": time.perf_counter() - t_all})
    return EXIT_OK


def cmd_stats(args) -> int:
    t_all = time.perf_counter()
    try:
        model = load_any_model(args.model)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_DATA, str(exc))
    if not isinstance(model, HdmrModel):
        return _fail(EXIT_CONFIG,
                     "closed-form statistics are defined for plain surrogate "
                     "models only")
    mean = model_mean(model)
    var = model_variance(model)
    sob = sobol_indices(model)
    totals = {i: total_sobol(model, i) for i in range(1, model.nd + 1)}
    print(f"mean     {mean!r}")
    print(f"variance {var!r}")
    for dims, s in sorted(sob.items()):
        print(f"S[{';'.join(map(str, dims))}] {s:.6e}")
    for i, s in totals.items():
        print(f"ST[{i}] {s:.6e}")
    outputs = []
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("kind,key,value\n")
            fh.write(f"mean,,{mean!r}\n")
            fh.write(f"variance,,{var!r}\n")
            for dims, s in sorted(sob.items()):
                fh.write(f"sobol,{';'.join(map(str, dims))},{s!r}\n")
            for i, s in totals.items():
                fh.write(f"total,{i},{s!r}\n")
        outputs.append(args.out)
    _write_manifest(_manifest_path(args, outputs or [args.model]), "stats",
                    args, [args.model], outputs,
                    {"total": time.perf_counter() - t_all})
    return EXIT_OK


def cmd_gen_diffusion(args) -> int:
    t_all = time.perf_counter()
    try:
        cfg = DiffusionConfig(
            nd_nu=args.nd_nu, nd_f=args.nd_f, sigma_nu=args.sigma_nu,
            sigma_f=args.sigma_f, lc=args.lc, u_minus=args.u_minus,
            u_plus=args.u_plus, m_x=args.mx, m_k=args.mk, x_star=args.x_star)
        if args.nq < 1:
            raise ValueError("nq must be >= 1")
    except ValueError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    try:
        data = generate_dataset(cfg, args.nq, args.seed, mode=args.sampling)
    except Exception as exc:
        return _fail(EXIT_FIT, f"generation failed: {exc}")
    save_csv(data, args.out)
    outputs = [args.out]
    spectra = (args.spectrum_out, args.spectrum_f_out)
    if any(spectra):
        for fld, out in zip(cfg.fields(), spectra):
            if out:
                save_spectrum(fld, out)
                outputs.append(out)
    print(f"wrote {data.nq} samples (Nd={data.nd}, Ndx={data.ndx}) to {args.out}")
    _write_manifest(_manifest_path(args, outputs), "gen-diffusion", args,
                    [], outputs, {"total": time.perf_counter() - t_all})
    return EXIT_OK


def _bench_convergence(args):
    """Test error of the full pipeline vs training-set size, one row per
    training seed (seed .. seed + seeds - 1), all on the same held-out rows
    (BENCH_TEST_SEED)."""
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    cfg = DiffusionConfig(nd_nu=args.nd_nu, nd_f=args.nd_f, m_x=args.mx,
                          m_k=args.mk)
    test = generate_dataset(cfg, args.ntest, BENCH_TEST_SEED)
    basis = BasisConfig(lo=0.0, hi=1.0, max_order=args.no + 1)
    sel = SelectionConfig(nolars=args.nolars, ninter=3, max_groups=48)
    rows = []
    for nq in args.nq_list:
        errs = []
        for seed in range(args.seed, args.seed + args.seeds):
            data = generate_dataset(cfg, nq + max(1, nq // 5), seed)
            train, val, _ = split(data, nq, max(1, nq // 5), 0, seed)
            path = glars_select(train, sel, basis)
            model, _ = fit_hdmr(train, val, path,
                                FitConfig(no=args.no, npc=3, ninter=3, seed=seed),
                                basis)
            errs.append(relative_error(model, test))
            rows.append(("eps", nq, seed, errs[-1]))
        print(f"nq {nq}: median test error {np.median(errs):.4e} "
              f"over {args.seeds} seed(s)")
    return rows


def cmd_bench(args) -> int:
    t_all = time.perf_counter()
    try:
        rows = _bench_convergence(args)
    except ValueError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("measure,size,detail,value\n")
        for m, a, b, v in rows:
            fh.write(f"{m},{a},{b},{v!r}\n")
            print(f"{m:6s} size={a:<6} detail={b:<8} value={v:.6g}")
    _write_manifest(_manifest_path(args, [args.out]), "bench", args, [],
                    [args.out], {"total": time.perf_counter() - t_all})
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hdmrfit",
        description="Sparse interaction surrogates of random variables and "
                    "fields from scattered samples.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a surrogate to a CSV dataset")
    p.add_argument("data")
    p.add_argument("--out", default="model.json")
    p.add_argument("--mode", choices=("hdmr", "separated"), default="hdmr")
    p.add_argument("--no", type=int, default=4)
    p.add_argument("--ninter", type=int, default=2)
    p.add_argument("--npc", type=int, default=2)
    p.add_argument("--nolars", type=int, default=3)
    p.add_argument("--nr", type=int, default=3)
    p.add_argument("--rank", type=int, default=2,
                   help="separated decomposition rank limit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train", type=int, default=None)
    p.add_argument("--val", type=int, default=None)
    p.add_argument("--test", type=int, default=0)
    p.add_argument("--basis-lo", type=float, default=0.0)
    p.add_argument("--basis-hi", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--max-groups", type=int, default=64)
    p.add_argument("--hierarchical", action="store_true")
    p.add_argument("--robust", action="store_true",
                   help="errors-in-variables (weighted TLS) fitting for dense "
                        "modes: the final refit on train plus validation rows, "
                        "or every pass with --val 0; the cross-validation "
                        "passes fit by least squares")
    p.add_argument("--noise-s", type=float, default=0.0,
                   help="coordinate noise scale: adds synthetic noise to the "
                        "training rows before the fit; with --robust it also "
                        "describes that noise to weighted TLS")
    p.add_argument("--noise-su", type=float, default=0.0,
                   help="relative value noise scale: adds synthetic value "
                        "noise to the training rows before the fit; with "
                        "--robust it also describes that noise to weighted TLS")
    p.add_argument("--cardx", type=int, default=16)
    p.add_argument("--spatial-kind", default="nodal-piecewise-linear",
                   choices=("nodal-piecewise-linear", "legendre-tensor"))
    p.add_argument("--x-lo", type=float, default=0.0)
    p.add_argument("--x-hi", type=float, default=1.0)
    p.add_argument("--diagnostics", default=None)
    p.add_argument("--path-csv", default=None)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="evaluate a model at CSV points")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument("--out", default="predictions.csv")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("stats", help="moments and sensitivity indices")
    p.add_argument("model")
    p.add_argument("--out", default=None)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("gen-diffusion",
                       help="sample the stochastic diffusion test problem")
    p.add_argument("--out", default="diffusion.csv")
    p.add_argument("--nq", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nd-nu", type=int, default=5)
    p.add_argument("--nd-f", type=int, default=5)
    p.add_argument("--sigma-nu", type=float, default=0.7)
    p.add_argument("--sigma-f", type=float, default=0.7)
    p.add_argument("--lc", type=float, default=0.3)
    p.add_argument("--u-minus", type=float, default=0.0)
    p.add_argument("--u-plus", type=float, default=0.0)
    p.add_argument("--mx", type=int, default=64)
    p.add_argument("--mk", type=int, default=400)
    p.add_argument("--x-star", type=float, default=0.5)
    p.add_argument("--sampling", choices=("point", "scattered"),
                   default="point")
    p.add_argument("--spectrum-out", default=None)
    p.add_argument("--spectrum-f-out", default=None)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_gen_diffusion)

    p = sub.add_parser("bench", help="test error against the training budget")
    p.add_argument("--out", default="bench.csv")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nq-list", type=_int_list, default="300,600",
                   help="comma-separated training budgets")
    p.add_argument("--seeds", type=int, default=1,
                   help="training seeds per budget")
    p.add_argument("--no", type=int, default=4)
    p.add_argument("--nolars", type=int, default=4)
    p.add_argument("--nd-nu", type=int, default=5)
    p.add_argument("--nd-f", type=int, default=5)
    p.add_argument("--mx", type=int, default=64)
    p.add_argument("--mk", type=int, default=200)
    p.add_argument("--ntest", type=int, default=2000)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
    except ValueError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
