"""Summarize run records into perfbench/baseline.json.

    python3 perfbench/baseline.py --seeds 301-310 --seeds 311-320 --trace-seed 301

Reads perfbench/out/<workload>-seed<n>-trace0.json for every seed and
<workload>-seed<trace-seed>-trace1.json, both written by run.py, and writes
for each workload and each set of seeds the median, quartiles and spread
(quartile distance over median) of every end-to-end metric, how far each
later set's median is worse than the first set's as a share of it, the
per-layer metrics of the traced run, and the share of surrogate_s each
layer's inclusive time takes.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, GATED, OUT, not_applicable  # noqa: E402

ROOT = HERE.parent

# layer -> (the end-to-end metric it should move, the workloads it should
# move it on); see README.md for the reasoning
LAYERS = {
    "testbed": ("setup_s", ["diffusion-point", "field-scattered"]),
    "data": ("setup_s", list(GATED)),
    "basis": ("predict_rows_per_s", list(GATED)),
    "selection": ("surrogate_s", ["diffusion-point", "field-scattered"]),
    "fitting": ("surrogate_s", list(GATED)),
    "separated": ("surrogate_s", ["field-scattered"]),
    "model": ("predict_rows_per_s", list(GATED)),
}
NOTES = {
    "data": "inject_noise_s on noisy-robust only",
    "basis": "a small share of surrogate_s everywhere",
    "selection": "noisy-robust bypasses it; most of surrogate_s on the "
                 "by-hand wide-scan workload, and its peak_rss_mb if scan "
                 "designs get cached",
    "fitting": "wtls_* and covariance_blocks_* move on noisy-robust only; the "
               "by-hand wide-scan workload bypasses it",
}
# inclusive spans that split surrogate_s
SHARES = {"selection": "selection.select_s", "fitting": "fitting.fit_hdmr_s",
          "separated": "separated.fit_s"}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "runs": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, action="append",
                    help="a set of seeds, first-last, e.g. 301-310; repeatable")
    ap.add_argument("--trace-seed", type=int, required=True)
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()

    doc = {"layers": {name: {"moves": moves, "on": on, **({"note": NOTES[name]}
                                                          if name in NOTES else {})}
                      for name, (moves, on) in LAYERS.items()},
           "workloads": {}}
    better = {m["name"]: m["better"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    sign = {m: 1 if better[m] == "lower" else -1 for m in END_TO_END}
    for name in GATED:
        sets = {}
        for seeds in args.seeds:
            runs = [json.loads((OUT / f"{name}-seed{s}-trace0.json").read_text())
                    for s in seed_range(seeds)]
            sets[seeds] = {
                "failed": sum(1 for r in runs for op in r["operations"] if op["problems"]),
                "attempted": sum(len(r["operations"]) for r in runs),
                "end_to_end": {m: summarize([r["metrics"][m] for r in runs])
                               for m in END_TO_END},
                "measured": {m: summarize([r["measured"][m] for r in runs])
                             for m in runs[0]["measured"]},
                "wall_scale": summarize([statistics.median(op["wall_scale"]
                                                           for op in r["operations"][1:])
                                         for r in runs]),
            }
            doc["run"] = runs[0]["run"]
        first = sets[args.seeds[0]]["end_to_end"]
        for seeds in args.seeds[1:]:
            later = sets[seeds]["end_to_end"]
            sets[seeds]["worse_than_first"] = {
                m: sign[m] * (later[m]["median"] - first[m]["median"]) / first[m]["median"]
                for m in END_TO_END}
        traced = json.loads((OUT / f"{name}-seed{args.trace_seed}-trace1.json").read_text())
        layer = traced["metrics"]
        doc["workloads"][name] = {
            "sets": sets,
            "per_layer_seed": args.trace_seed,
            "per_layer": layer,
            "not_applicable": not_applicable(name),
            "share_of_traced_surrogate_s": {
                k: layer[m] / layer["trace.surrogate_s"] for k, m in SHARES.items()
                if layer[m] > 0},
        }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
