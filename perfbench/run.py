"""hdmrfit benchmark: closed-loop surrogate fits, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

One process, one operation at a time. An operation turns the training rows
into a fitted surrogate, then evaluates it on the held-out test rows and a
prediction batch, computes its statistics and saves and reloads it; every
operation is checked, and a failed check fails the operation. With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` operations alternate between untraced and
traced, and it carries the per-layer metrics. ``--workload all`` runs all
four workloads (the three BENCHMARK.json lists and wide-scan, run by hand)
untraced, one child process each, and prints a table.

The end-to-end times are reported at a reference machine speed (speed.py);
the measured figures are in the run record.
Run records, and the spans of traced runs, are written to perfbench/out/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("diffusion-point", "wide-scan", "noisy-robust", "field-scattered")
# the workloads BENCHMARK.json lists; wide-scan is run by hand
GATED = ("diffusion-point", "noisy-robust", "field-scattered")
SETUP_CHILDREN = 3
# reference-kernel timings (speed.py) taken after setup and between
# operations
SETUP_KERNEL_SAMPLES = 5
KERNEL_SAMPLES = 2
CHILD_TIMEOUT_S = 170

NPROC = len(os.sched_getaffinity(0))
# the closed loop runs one operation at a time: no selection workers, and
# OpenBLAS's default of one thread per CPU, counting only the CPUs this
# process may run on, whatever the environment says; set before numpy loads.
# The inherited values are kept for the run record only.
HDMR_THREADS_GIVEN = os.environ.pop("HDMR_THREADS", None)
OPENBLAS_GIVEN = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ["OPENBLAS_NUM_THREADS"] = str(NPROC)

END_TO_END = {
    "setup_s": "s",
    "surrogate_s": "s",
    "surrogate_cpu_s": "s",
    "test_error": "1",
    "predict_rows_per_s": "rows/s",
    "peak_rss_mb": "MiB",
}

# per-layer metric -> unit; the span, counter or check each comes from is
# in per_layer() below
PER_LAYER = {
    "testbed.generate_s": "s", "testbed.kl_s": "s", "testbed.solve_calls": "count",
    "data.split_s": "s", "data.inject_noise_s": "s", "data.csv_roundtrip_s": "s",
    "basis.table_calls": "count", "basis.table_s": "s",
    "selection.select_s": "s", "selection.self_s": "s", "selection.scan_s": "s",
    "selection.nonscan_s": "s", "selection.steps": "count",
    "selection.dictionary_groups": "count", "selection.scan_gflop_per_s": "GFLOP/s",
    "selection.dropped_columns": "count",
    "fitting.fit_hdmr_s": "s", "fitting.self_s": "s", "fitting.passes": "count",
    "fitting.retained": "count", "fitting.retained_ratio": "1",
    "fitting.fit_dense_mode_calls": "count", "fitting.fit_dense_mode_s": "s",
    "fitting.fit_cp_mode_calls": "count", "fitting.fit_cp_mode_s": "s",
    "fitting.ls_solve_calls": "count", "fitting.ls_solve_s": "s",
    "fitting.dense_design_calls": "count", "fitting.dense_design_s": "s",
    "fitting.wtls_solve_calls": "count", "fitting.wtls_solve_s": "s",
    "fitting.covariance_blocks_calls": "count", "fitting.covariance_blocks_s": "s",
    "fitting.cp_rank_skipped": "count", "fitting.wtls_nonconverged": "count",
    "fitting.plain_test_error": "1",
    "separated.fit_s": "s", "separated.self_s": "s", "separated.rank": "count",
    "separated.outer_iters": "count", "separated.glars_calls": "count",
    "separated.fit_hdmr_calls": "count", "separated.rank_discarded": "count",
    "model.evaluate_s": "s", "model.self_s": "s", "model.stats_s": "s",
    "model.roundtrip_s": "s", "model.modes_dense": "count", "model.modes_cp": "count",
    "trace.surrogate_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}

# per-layer metrics of the noisy-robust path only
ROBUST_LAYER = ("data.inject_noise_s",
                "fitting.wtls_solve_calls", "fitting.wtls_solve_s",
                "fitting.covariance_blocks_calls", "fitting.covariance_blocks_s",
                "fitting.wtls_nonconverged", "fitting.plain_test_error")

# metrics, or metric prefixes, that do not apply to a workload: they are
# reported as 0 and listed in the run record
NOT_APPLICABLE = {
    "diffusion-point": ROBUST_LAYER + ("separated.",),
    "wide-scan": ROBUST_LAYER + ("testbed.", "separated."),
    "noisy-robust": ("testbed.", "separated."),
    "field-scattered": ROBUST_LAYER,
}


def not_applicable(workload: str) -> list[str]:
    pats = NOT_APPLICABLE[workload]
    return [m for m in PER_LAYER
            if any(m == p or (p.endswith(".") and m.startswith(p)) for p in pats)]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print {\"setup_s\": ...} and exit")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def import_library():
    """Import hdmrfit from this checkout's src/, never from elsewhere."""
    if not (SRC / "hdmrfit" / "__init__.py").is_file():
        raise ImportError(f"no hdmrfit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hdmrfit
    if Path(hdmrfit.__file__).resolve().parent != SRC / "hdmrfit":
        raise ImportError(f"hdmrfit imported from {hdmrfit.__file__}, not {SRC}")
    return hdmrfit


# ---------------------------------------------------------------- run record

def _blas_threads() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy
    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[Path(lib).name] = int(fn())
                    break
    return out


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hdmrfit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_record() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_threads()
    return {
        "nproc": NPROC,
        "hdmr_threads_env": HDMR_THREADS_GIVEN,
        "hdmr_threads_used": 1,
        "openblas_num_threads_env": OPENBLAS_GIVEN,
        "blas_threads": threads,
        "blas_threads_within_nproc": all(t <= NPROC for t in threads.values()),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": _git_commit(),
        "source_sha256_16": _source_digest(),
    }


# ---------------------------------------------------------------- operations

def run_op(wl, inp, tr, tmpdir, ref: dict) -> dict:
    """One fit and its queries. Returns the op's measurements and problems."""
    import numpy as np
    from hdmrfit.fitting import relative_error
    from hdmrfit.model import model_mean, model_variance, sobol_indices, total_sobol

    rec = {"problems": []}
    problems = rec["problems"]
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    cpu0, t0 = time.process_time(), time.perf_counter()
    with tr.span("bench.surrogate"):
        model, groups = wl.fit(inp, tr)
    rec["surrogate_s"] = time.perf_counter() - t0
    rec["surrogate_cpu_s"] = time.process_time() - cpu0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    rec["surrogate_sys_s"] = ru1.ru_stime - ru0.ru_stime
    rec["surrogate_minor_faults"] = ru1.ru_minflt - ru0.ru_minflt

    with tr.span("bench.query"):
        rec["test_error"] = relative_error(model, inp.test)
        if not np.isfinite(rec["test_error"]) or rec["test_error"] > wl.error_bar:
            problems.append(f"test error {rec['test_error']:.3e} above the bar "
                            f"{wl.error_bar:.1e}")
        problems += wl.check(model, groups)

        times = []
        for _ in range(3):
            t = time.perf_counter()
            pred = tr.call("model.evaluate", wl.evaluate, model, inp.batch_x, inp.batch_xi)
            times.append(time.perf_counter() - t)
            if not np.all(np.isfinite(pred)):
                problems.append("non-finite prediction on the batch")
        rec["predict_s"] = times

        with tr.span("model.stats"):
            for m in wl.hdmr_models(model):
                s = sobol_indices(m)
                var = model_variance(m)
                totals = [total_sobol(m, d) for d in range(1, m.nd + 1)]
                if not s or abs(sum(s.values()) - 1.0) > 1e-10:
                    problems.append(f"Sobol indices sum to {sum(s.values())!r}")
                if model_mean(m) != m.f0:
                    problems.append("model_mean differs from f0")
                if not (np.isfinite(var) and all(np.isfinite(totals))):
                    problems.append("non-finite variance or total index")

        path = tmpdir / "model.json"
        tr.call("model.save", wl.save, model, path)
        loaded = tr.call("model.load", wl.load, path)
        blob = path.read_bytes()
        direct = wl.evaluate(model, inp.test.x, inp.test.xi)
        reloaded = wl.evaluate(loaded, inp.test.x, inp.test.xi)
        if direct.tobytes() != reloaded.tobytes():
            problems.append("reloaded model predicts different bits")
        if ref.setdefault("model_json", blob) != blob:
            problems.append("model JSON differs from the first operation's")

    rec["modes_dense"] = sum(len(m.dense) for m in wl.hdmr_models(model))
    rec["modes_cp"] = sum(len(m.cp) for m in wl.hdmr_models(model))
    rec["rank"] = model.rank if wl.separated else 0
    return rec


def median(xs):
    return statistics.median(xs) if xs else None


def setup_samples(args, own: dict) -> list[dict]:
    """Setup time of this process and of SETUP_CHILDREN fresh processes,
    each measured and at the reference speed of its own kernel timings."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_CHILDREN):
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(json.loads(res.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(recs, setup) -> tuple[dict, dict]:
    """The end-to-end metrics, and the same medians as measured.

    Each operation's fit times are reported at the reference machine speed
    (speed.py), scaled by the kernel timings taken right before and right
    after it. Batch evaluations last 15-70 ms, too short to follow the
    kernel: scaled, their rate spread more over ten runs than measured
    (0.18 against 0.10 on noisy-robust), so the rate is reported as measured.
    """
    # operation 1 runs in a cold process: the allocator has not yet grown its
    # heap, so its large arrays are fresh page-faulting mappings. It is
    # checked like the others but timed apart (cold_surrogate_s in the record).
    ok = [r for r in recs if "surrogate_s" in r and r["op"] > 1]
    measured = {
        "setup_s": median([x["measured_s"] for x in setup]),
        "surrogate_s": median([r["surrogate_s"] for r in ok]),
        "surrogate_cpu_s": median([r["surrogate_cpu_s"] for r in ok]),
        "predict_rows_per_s": median([r["rows"] / t for r in ok if "predict_s" in r
                                      for t in r["predict_s"]]),
    }
    vals = {
        "setup_s": median([x["setup_s"] for x in setup]),
        "surrogate_s": median([r["surrogate_s"] * r["wall_scale"] for r in ok]),
        "surrogate_cpu_s": median([r["surrogate_cpu_s"] * r["cpu_scale"] for r in ok]),
        "test_error": median([r["test_error"] for r in ok if "test_error" in r]),
        "predict_rows_per_s": measured["predict_rows_per_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return vals, measured


def per_layer(wl, tr, recs, traced_ops, plain_error) -> dict:
    """Per-layer metrics: medians over the traced operations of span times,
    counters of the last traced operation, setup spans from operation 0."""
    setup = tr.summary(0)
    sums = [tr.summary(op) for op in traced_ops]
    selfs = [tr.layer_self(op) for op in traced_ops]
    counts = tr.counts[traced_ops[-1]] if traced_ops else {}

    def incl(name, rows=sums):
        return median([s.get(name, {}).get("incl_s", 0.0) for s in rows]) or 0.0

    def own(name):
        return median([s.get(name, {}).get("self_s", 0.0) for s in sums]) or 0.0

    def calls(name):
        return sums[-1].get(name, {}).get("calls", 0) if sums else 0

    def layer(name):
        return median([s.get(name, 0.0) for s in selfs]) or 0.0

    scan_s = median([tr.counts[op]["selection.scan_s"] for op in traced_ops]) or 0.0
    traced = [r for r in recs if r.get("traced") and "surrogate_s" in r]
    # operation 1 warms the process up, so untraced operations after it are
    # the base of the tracing overhead
    plain = [r for r in recs if not r.get("traced") and r["op"] > 1 and "surrogate_s" in r]
    last = traced[-1] if traced else {}
    v = {
        "testbed.generate_s": incl("testbed.generate", [setup]),
        "testbed.kl_s": incl("testbed.kl", [setup]),
        "testbed.solve_calls": setup.get("testbed.solve", {}).get("calls", 0),
        "data.split_s": incl("data.split", [setup]),
        "data.inject_noise_s": incl("data.inject_noise", [setup]),
        "data.csv_roundtrip_s": incl("data.save_csv", [setup]) + incl("data.load_csv", [setup]),
        "basis.table_calls": calls("basis.table"),
        "basis.table_s": own("basis.table"),
        "selection.select_s": incl("selection.select"),
        "selection.self_s": layer("selection"),
        "selection.scan_s": scan_s,
        "selection.nonscan_s": own("selection.select") - scan_s,
        "selection.steps": counts.get("selection.steps", 0),
        "selection.dictionary_groups": counts.get("selection.dictionary_groups", 0),
        "selection.scan_gflop_per_s": (counts.get("selection.scan_flop", 0) / scan_s / 1e9
                                       if scan_s > 0 else 0.0),
        "selection.dropped_columns": counts.get("selection.dropped_columns", 0),
        "fitting.fit_hdmr_s": incl("fitting.fit_hdmr"),
        "fitting.self_s": layer("fitting"),
        "fitting.passes": counts.get("fitting.passes", 0),
        "fitting.retained": counts.get("fitting.retained", 0),
        "fitting.retained_ratio": (counts.get("fitting.retained", 0)
                                   / counts["fitting.passes"]
                                   if counts.get("fitting.passes") else 0.0),
        "fitting.wtls_nonconverged": counts.get("fitting.wtls_nonconverged", 0),
        "fitting.cp_rank_skipped": counts.get("fitting.cp_rank_skipped", 0),
        "fitting.plain_test_error": plain_error or 0.0,
        "separated.fit_s": incl("separated.fit"),
        "separated.self_s": layer("separated"),
        "separated.rank": last.get("rank", 0),
        "separated.outer_iters": calls("separated.fit_spatial_mode"),
        "separated.glars_calls": calls("selection.select") if wl.separated else 0,
        "separated.fit_hdmr_calls": calls("fitting.fit_hdmr") if wl.separated else 0,
        "separated.rank_discarded": counts.get("separated.rank_discarded", 0),
        "model.evaluate_s": median([t for r in traced for t in r["predict_s"]]) or 0.0,
        "model.self_s": layer("model"),
        "model.stats_s": incl("model.stats"),
        "model.roundtrip_s": incl("model.save") + incl("model.load"),
        "model.modes_dense": last.get("modes_dense", 0),
        "model.modes_cp": last.get("modes_cp", 0),
        "trace.surrogate_s": median([r["surrogate_s"] for r in traced]) or 0.0,
        "trace.spans": sum(1 for sp in tr.spans if sp is not None and sp[4] in traced_ops)
        // max(1, len(traced_ops)),
    }
    v["trace.overhead_s"] = (v["trace.surrogate_s"] - (median([r["surrogate_s"]
                                                               for r in plain]) or 0.0))
    for fn in ("fit_dense_mode", "fit_cp_mode", "ls_solve", "dense_design",
               "wtls_solve", "covariance_blocks"):
        v[f"fitting.{fn}_calls"] = calls(f"fitting.{fn}")
        v[f"fitting.{fn}_s"] = own(f"fitting.{fn}")
    return v


def plain_fit_error(wl, inp) -> float:
    """Test error of the plain least-squares fit on the robust fit's path."""
    from hdmrfit.fitting import fit_hdmr, relative_error
    from hdmrfit.selection import glars_select
    path = glars_select(inp.train, wl.sel, wl.basis)
    model, _ = fit_hdmr(inp.train, inp.val, path, wl.plain, wl.basis)
    return relative_error(model, inp.test)


# ---------------------------------------------------------------- main

def run_one(args) -> int:
    try:
        import_library()
    except ImportError as exc:
        return fail(f"cannot import the library: {exc}")
    import spans
    import speed
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tr = spans.Tracer(active=bool(args.trace), hooks=workloads.HOOKS)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        tmpdir = Path(tmp)
        with tr.patched(), spans.events(tr):
            inp = wl.setup(args.seed, tr, tmpdir)
        setup_s = time.perf_counter() - T_START
        kernel = speed.Kernel()
        scale = speed.wall_scale(kernel.sample(SETUP_KERNEL_SAMPLES))
        own_setup = {"setup_s": setup_s * scale, "measured_s": setup_s}
        if args.setup_only:
            print(json.dumps(own_setup))
            return 0
        setup = setup_samples(args, own_setup) if not args.trace else [own_setup]

        recs, ref, failures, traced_ops = [], {}, [], []
        t_loop = time.perf_counter()
        min_ops = 3 if args.trace else 2
        before = kernel.sample(KERNEL_SAMPLES)
        while len(recs) < min_ops or time.perf_counter() - t_loop < args.seconds:
            tr.op = len(recs) + 1
            traced = bool(args.trace) and tr.op % 2 == 0
            tr.active = traced
            rec = {"op": tr.op, "traced": traced}
            try:
                with (tr.patched() if traced else nullcontext()), spans.events(tr):
                    rec.update(run_op(wl, inp, tr, tmpdir, ref))
            except Exception as exc:  # a failed operation is counted, not fatal
                rec["problems"] = [f"{type(exc).__name__}: {exc}"]
                traceback.print_exc(file=sys.stderr)
            rec["rows"] = inp.batch_xi.shape[0]
            after = kernel.sample(KERNEL_SAMPLES)
            rec["kernel_s"] = before + after
            rec["wall_scale"] = speed.wall_scale(before + after)
            rec["cpu_scale"] = speed.cpu_scale(before + after)
            before = after
            recs.append(rec)
            if rec["problems"]:
                failures.append(rec)
            if traced:
                traced_ops.append(tr.op)

    if args.trace:
        plain_error = None
        if hasattr(wl, "plain"):
            with spans.events(spans.Tracer(False)):
                plain_error = plain_fit_error(wl, inp)
        metrics = per_layer(wl, tr, recs, traced_ops, plain_error)
        units = PER_LAYER
    else:
        metrics, measured = end_to_end(recs, setup)
        units = END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "run": run_record(), "setup_samples": setup,
        "measured": None if args.trace else measured,
        "cold_surrogate_s": recs[0].get("surrogate_s"),
        "operations": recs,
        "events": {str(op): dict(c) for op, c in tr.counts.items()},
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        record["not_applicable"] = not_applicable(args.workload)
        tr.write(OUT / f"{stem}.spans.csv.gz")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    for rec in failures:
        print(f"perfbench: operation {rec['op']} failed: {'; '.join(rec['problems'])}",
              file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(recs),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced, in its own process; a table, then JSON."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            sys.stderr.write(res.stderr)
            return fail(f"workload {name} exited with {res.returncode}")
        results[name] = json.loads(lines[-1])
    print(f"{'workload':<16} {'metric':<20} {'value':>14}  unit")
    for name, res in results.items():
        for metric, mv in res["metrics"].items():
            print(f"{name:<16} {metric:<20} {mv['value']:>14.6g}  {mv['unit']}")
        print(f"{name:<16} {'failed_frac':<20} {res['failed'] / res['attempted']:>14.6g}"
              f"  1   ({res['failed']} of {res['attempted']} operations)")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
