"""What the traced benchmark run (perfbench/) needs from the library.

perfbench/spans.py replaces library functions by traced wrappers in the
namespace of the module that calls them, and its counter hooks read a few
result attributes. A refactor that renames or removes one of these breaks
the traced run without failing any other test.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

from hdmrfit.basis import BasisConfig
from hdmrfit.data import SampleSet, rng_stream
from hdmrfit.fitting import FitConfig, fit_hdmr
from hdmrfit.selection import SelectionConfig, glars_select

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _patches():
    # read the PATCHES literal without importing the benchmark
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "PATCHES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no PATCHES in {SPANS}")


def test_patched_attributes_are_module_callables():
    patches = _patches()
    assert patches
    for modname, attr, _ in patches:
        mod = importlib.import_module(modname)
        assert callable(getattr(mod, attr, None)), f"{modname}.{attr}"


def test_hook_attributes_exist():
    xi = rng_stream(3, 3000).uniform(-1.0, 1.0, (120, 3))
    u = xi[:, 0] + xi[:, 1] * xi[:, 2]
    train = SampleSet(np.empty((100, 0)), xi[:100], u[:100], "train")
    val = SampleSet(np.empty((20, 0)), xi[100:], u[100:], "validation")
    basis = BasisConfig(lo=-1.0, hi=1.0, max_order=4)
    path = glars_select(train, SelectionConfig(nolars=2, ninter=2, max_groups=3), basis)
    assert isinstance(path.scan_seconds, float)
    assert len(path) == len(path.groups())
    _, diag = fit_hdmr(train, val, path, FitConfig(no=2, npc=2, ninter=2), basis)
    assert len(diag.records) >= 1
    assert isinstance(diag.retained, int)
