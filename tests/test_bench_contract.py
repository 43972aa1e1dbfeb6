"""What the benchmark (perfbench/) needs from the library.

perfbench/spans.py replaces library functions by traced wrappers in the
namespace of the module that calls them, and its counter hooks read a few
result attributes. The workloads build the stage configs by keyword. A
refactor that renames or removes one of these breaks the benchmark without
failing any other test.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np

from hdmrfit.basis import BasisConfig
from hdmrfit.data import SampleSet, rng_stream
from hdmrfit.fitting import FitConfig, fit_hdmr
from hdmrfit.selection import SelectionConfig, glars_select
from hdmrfit.separated import SeparatedConfig

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
CONFIGS = {cls.__name__: cls for cls in (FitConfig, SelectionConfig, SeparatedConfig)}


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


def _config_keywords():
    # (file, line, config name, keyword) of every keyword passed to a stage
    # config constructor, read without importing the benchmark
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in CONFIGS:
                for kw in node.keywords:
                    if kw.arg is not None:
                        yield path.name, node.lineno, name, kw.arg


def test_config_keywords_are_fields():
    used = list(_config_keywords())
    assert {name for _, _, name, _ in used} == set(CONFIGS)
    for fname, line, name, kw in used:
        fields = {f.name for f in dataclasses.fields(CONFIGS[name])}
        assert kw in fields, f"{fname}:{line}: {name}({kw}=...) is not a field"
