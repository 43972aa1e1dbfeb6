"""Digests of the benchmark workloads' fits, to compare two versions of the code.

    PYTHONPATH=src python tests/workload_digest.py [SEED]

For each perfbench workload, draws its inputs (``Workload.draw(SEED)``,
SEED 11 by default), fits its surrogate once and prints one line: the first
12 hex digits of the sha256 of the saved model JSON, of the repr of every
PassRecord of every ``fit_hdmr`` call the fit made, the separated driver's
``_fit_hdmr`` calls included (their passes and their final refits',
``cv_eps`` included), and of the bytes of the train,
validation and test rows (x, xi and u of each), of the bytes of the
surrogate's predictions on the 20,000-row evaluation batch
(``wl.evaluate(model, batch_x, batch_xi)``, the batch ``predict_rows_per_s``
times), and the test error. Two versions of the code that print the same
lines drew the same inputs, fitted the same models and predicted the same
values, byte for byte, along the same passes. The script reads ``perfbench/workloads.py`` and changes
nothing there; it is not a pytest module.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

from hdmrfit import separated  # noqa: E402
from hdmrfit.fitting import relative_error  # noqa: E402


def _hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


class _Recorder:
    """Stands in for the benchmark's tracer: runs every call untraced and
    keeps the diagnostics of each ``fit_hdmr`` and ``_fit_hdmr`` call."""

    def __init__(self):
        self.records: list = []

    def call(self, name, fn, *args, **kwargs):
        result = fn(*args, **kwargs)
        if name in ("fitting.fit_hdmr", "fitting._fit_hdmr"):
            # fit_hdmr returns (model, diag), _fit_hdmr (skeleton, block, diag)
            diag = result[-1]
            self.records.append((diag.retained, diag.records, diag.refit_records))
        return result

    def span(self, name):
        return nullcontext()


def digest(wl, seed: int, tmpdir: Path) -> str:
    rec = _Recorder()
    inp = wl.draw(seed, rec)
    # the separated driver makes its cross-validated fits itself: record them too
    fit = separated._fit_hdmr
    separated._fit_hdmr = lambda *a, **k: rec.call("fitting._fit_hdmr", fit, *a, **k)
    try:
        model, _ = wl.fit(inp, rec)
    finally:
        separated._fit_hdmr = fit
    path = tmpdir / f"{wl.name}.json"
    wl.save(model, path)
    rows = b"".join(a.tobytes() for part in (inp.train, inp.val, inp.test)
                    for a in (part.x, part.xi, part.u))
    return (f"{wl.name:16s} model={_hex(path.read_bytes())} "
            f"passes={_hex(repr(rec.records).encode())} inputs={_hex(rows)} "
            f"fits={len(rec.records)} "
            f"predict={_hex(wl.evaluate(model, inp.batch_x, inp.batch_xi).tobytes())} "
            f"test_error={relative_error(model, inp.test)!r}")


def main(argv) -> int:
    seed = int(argv[0]) if argv else 11
    with tempfile.TemporaryDirectory() as tmp:
        for wl in workloads.WORKLOADS.values():
            print(digest(wl, seed, Path(tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
