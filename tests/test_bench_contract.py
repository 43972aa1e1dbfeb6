"""What the benchmark (perfbench/) needs from the library.

perfbench/spans.py replaces library functions by traced wrappers in the
namespace of the module that calls them, and its counter hooks read a few
result attributes. The workloads build the stage configs by keyword and
call library functions directly or through ``Tracer.call``. A refactor that
renames or removes one of these, or one of their parameters, breaks the
benchmark without failing any other test.
"""

import ast
import dataclasses
import importlib
import inspect
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


def _library_calls():
    # (file, line, module, function, positional count, keywords) of every
    # call of an hdmrfit function imported by name, made directly or through
    # tr.call(span, fn, *args, **kwargs); read without importing the benchmark
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {alias.asname or alias.name: (node.module, alias.name)
                 for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module
                 and node.module.startswith("hdmrfit")
                 for alias in node.names}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if getattr(func, "attr", None) == "call" and len(args) >= 2:
                # tr.call(span name, fn, *args, **kwargs)
                func, args = args[1], args[2:]
            target = names.get(getattr(func, "id", None))
            if target is None:
                continue
            if any(isinstance(a, ast.Starred) for a in args) or \
                    any(kw.arg is None for kw in node.keywords):
                continue
            yield (path.name, node.lineno, *target, len(args),
                   [kw.arg for kw in node.keywords])


def test_library_call_arguments_match_signatures():
    calls = list(_library_calls())
    called = {fn for _, _, _, fn, _, _ in calls}
    assert {"glars_select", "fit_hdmr", "fit_separated", "generate_dataset"} <= called
    for fname, line, modname, fn, npos, keywords in calls:
        sig = inspect.signature(getattr(importlib.import_module(modname), fn))
        try:
            sig.bind_partial(*[None] * npos, **{kw: None for kw in keywords})
        except TypeError as exc:
            raise AssertionError(f"{fname}:{line}: {fn}(...) does not match "
                                 f"{modname}.{fn}{sig}: {exc}") from None
