"""Training-draw panel of the gated benchmark workloads.

    PYTHONPATH=src python tests/workload_panel.py [--seeds A-B] [WORKLOAD ...]

The benchmark fits one fixed training instance per workload (stream
``TRAIN_SEED`` of ``perfbench/workloads.py``), so its test error speaks for
one draw only. For each workload named (the gated ones by default) this
script re-draws the train and validation rows with seed s in place of every
``TRAIN_SEED`` use, for ``TRAIN_SEED`` and s = 1..6 or, with ``--seeds``,
for the draws named there (a range such as 31-60, or a comma list such as
5,8,22), keeps the fixed
``TEST_SEED`` test rows, fits the surrogate once per draw and prints one line
per draw: the test error, the kept groups (one list per rank for a separated
fit), the number of CP modes, the fit seconds (selection and fitting,
wall clock) and ``model=``, the first 12 hex digits of the sha256 of the
saved model JSON, as ``workload_digest.py`` computes it. Two versions of the
code that print the same ``model=`` for a draw fitted the same model, byte
for byte. A last line per workload gives the geometric mean of the test
errors. The ``TRAIN_SEED`` line repeats ``workload_digest.py``'s test error
and ``model=``.
The script reads ``perfbench/workloads.py`` and changes nothing there; it is
not a pytest module and gates nothing.
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile
import time
from pathlib import Path

from workload_digest import _hex, _Recorder, workloads

from hdmrfit.fitting import relative_error

GATED = ("diffusion-point", "noisy-robust", "field-scattered")
SEEDS = (workloads.TRAIN_SEED, 1, 2, 3, 4, 5, 6)


def seed_list(text: str) -> list[int]:
    """Draw seeds from "A-B" (A to B inclusive) or "a,b,c"."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def model_digest(wl, model) -> str:
    """``workload_digest.py``'s ``model=``: the saved model JSON's sha256, cut
    to 12 hex digits."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{wl.name}.json"
        wl.save(model, path)
        return _hex(path.read_bytes())


def panel(wl, seeds=SEEDS) -> list[float]:
    train_seed = workloads.TRAIN_SEED
    errors = []
    try:
        for s in seeds:
            workloads.TRAIN_SEED = s
            rec = _Recorder()
            inp = wl.draw(0, rec)
            t0 = time.perf_counter()
            model, _ = wl.fit(inp, rec)
            seconds = time.perf_counter() - t0
            err = relative_error(model, inp.test)
            errors.append(err)
            lams = wl.hdmr_models(model)
            kept = [[m.dims for m in lam.dense + lam.cp] for lam in lams]
            cp = sum(len(lam.cp) for lam in lams)
            label = "TRAIN_SEED" if s == train_seed else str(s)
            print(f"{wl.name:16s} seed={label:10s} test_error={err!r} "
                  f"kept={[len(k) for k in kept]} cp={cp} fit_s={seconds:.3f} "
                  f"model={model_digest(wl, model)} "
                  f"groups={kept if wl.separated else kept[0]}", flush=True)
    finally:
        workloads.TRAIN_SEED = train_seed
    return errors


def main(argv) -> int:
    ap = argparse.ArgumentParser(description="Training-draw panel of the gated "
                                             "benchmark workloads.")
    ap.add_argument("workloads", nargs="*", default=GATED)
    ap.add_argument("--seeds", type=seed_list, default=SEEDS,
                    help="draw seeds, A-B or a,b,c (default: TRAIN_SEED and 1-6)")
    args = ap.parse_args(argv)
    for name in args.workloads:
        errors = panel(workloads.WORKLOADS[name], args.seeds)
        gmean = math.exp(sum(math.log(e) for e in errors) / len(errors))
        print(f"{name:16s} geometric_mean_test_error={gmean!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
