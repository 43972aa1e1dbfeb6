"""Outside-in tracing of the hdmrfit layers.

Spans are recorded in memory by wrappers that replace library functions in
the namespace of the module that calls them, so calls made inside the
library are timed without touching its source. Each span is a tuple
(name, start, end, parent index, operation id); its layer is the name's
prefix before the first dot. Warnings and the selection logger are turned
into per-operation event counts instead of being printed or silenced.
"""

from __future__ import annotations

import gzip
import importlib
import logging
import time
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name): each attribute is looked up as a global by
# the functions of that module, so a wrapper installed there sees every call
PATCHES = (
    ("hdmrfit.selection", "univariate_table", "basis.table"),
    ("hdmrfit.fitting", "univariate_table", "basis.table"),
    ("hdmrfit.model", "univariate_table", "basis.table"),
    ("hdmrfit.separated", "univariate_table", "basis.table"),
    ("hdmrfit.fitting", "ls_solve", "fitting.ls_solve"),
    ("hdmrfit.fitting", "dense_design", "fitting.dense_design"),
    ("hdmrfit.fitting", "fit_dense_mode", "fitting.fit_dense_mode"),
    ("hdmrfit.fitting", "fit_cp_mode", "fitting.fit_cp_mode"),
    ("hdmrfit.fitting", "wtls_solve", "fitting.wtls_solve"),
    ("hdmrfit.fitting", "covariance_blocks", "fitting.covariance_blocks"),
    ("hdmrfit.separated", "ls_solve", "fitting.ls_solve"),
    ("hdmrfit.separated", "glars_select", "selection.select"),
    ("hdmrfit.separated", "fit_hdmr", "fitting.fit_hdmr"),
    ("hdmrfit.separated", "fit_spatial_mode", "separated.fit_spatial_mode"),
    ("hdmrfit.separated", "evaluate_model", "model.evaluate_model"),
    ("hdmrfit.testbed", "kl_eigendecompose", "testbed.kl"),
    ("hdmrfit.testbed", "solve_diffusion", "testbed.solve"),
)

# warning text -> event counter; anything else counts as warnings.other
_WARNING_EVENTS = (
    ("weighted TLS did not converge", "fitting.wtls_nonconverged"),
    ("skipping this rank", "fitting.cp_rank_skipped"),
    ("separated rank did not reduce", "separated.rank_discarded"),
)


class Tracer:
    """Span and counter store for one benchmark process.

    ``active`` is false for end-to-end runs: ``call`` and ``span`` then add
    nothing but the call itself. ``hooks`` maps a span name to a function
    (tracer, result, args, kwargs) that adds counters from a traced call's
    arguments and result.
    """

    def __init__(self, active: bool, hooks=None):
        self.active = active
        self.hooks = dict(hooks or {})
        self.spans: list = []
        self.op = 0
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []

    def count(self, key: str, value=1) -> None:
        self.counts[self.op][key] += value

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, time.perf_counter()

    def _close(self, sid, name, t0):
        t1 = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (name, t0, t1, parent, self.op)

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn``, as a span named ``name`` when tracing."""
        if not self.active:
            return fn(*args, **kwargs)
        sid, t0 = self._open()
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(sid, name, t0)
        hook = self.hooks.get(name)
        if hook is not None:
            hook(self, result, args, kwargs)
        return result

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        sid, t0 = self._open()
        try:
            yield
        finally:
            self._close(sid, name, t0)

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextmanager
    def patched(self):
        """Install the PATCHES wrappers, restoring the originals on exit."""
        if not self.active:
            yield
            return
        saved = []
        try:
            for modname, attr, name in PATCHES:
                mod = importlib.import_module(modname)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrapper(name, orig))
            yield
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def summary(self, op: int) -> dict[str, dict[str, float]]:
        """Per span name of one operation: calls, inclusive and self seconds."""
        child = defaultdict(float)
        for sp in self.spans:
            if sp is not None and sp[3] >= 0:
                child[sp[3]] += sp[2] - sp[1]
        out: dict[str, dict[str, float]] = {}
        for sid, sp in enumerate(self.spans):
            if sp is None or sp[4] != op:
                continue
            name, t0, t1 = sp[0], sp[1], sp[2]
            row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[sid]
        return out

    def layer_self(self, op: int) -> dict[str, float]:
        """Self seconds per layer (span-name prefix) of one operation."""
        out: dict[str, float] = defaultdict(float)
        for name, row in self.summary(op).items():
            out[name.split(".", 1)[0]] += row["self_s"]
        return dict(out)

    def write(self, path) -> None:
        """Write every span as gzipped CSV: id,name,start,end,parent,op."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,op\n")
            for sid, sp in enumerate(self.spans):
                if sp is not None:
                    fh.write(f"{sid},{sp[0]},{sp[1]!r},{sp[2]!r},{sp[3]},{sp[4]}\n")


class _DroppedColumns(logging.Handler):
    def __init__(self, tracer: Tracer):
        super().__init__(level=logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        # "group %s: dropped %d dependent predictor column(s)"
        args = record.args if isinstance(record.args, tuple) else ()
        if "dropped" in record.msg and len(args) == 2:
            self.tracer.count("selection.dropped_columns", int(args[1]))
        else:
            self.tracer.count("selection.other_log_records")


@contextmanager
def events(tracer: Tracer):
    """Count library warnings and selection log records into ``tracer``.

    Every warning is recorded (not only the first per call site) and
    attributed to the operation that is current when the block ends.
    """
    logger = logging.getLogger("hdmrfit.selection")
    handler = _DroppedColumns(tracer)
    propagate = logger.propagate
    logger.addHandler(handler)
    logger.propagate = False
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield
    finally:
        logger.removeHandler(handler)
        logger.propagate = propagate
    for w in caught:
        text = str(w.message)
        key = next((k for pat, k in _WARNING_EVENTS if pat in text), "warnings.other")
        tracer.count(key)
