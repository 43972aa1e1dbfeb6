"""The references of the optimized layers do not call the code they check.

``tests/oracles.py`` may read the public functions of ``hdmrfit.basis``,
``hdmrfit.fitting``, ``hdmrfit.model`` and ``hdmrfit.selection`` and the
private stop-rule constants it mirrors (upper-case names such as
``_WTLS_TOL``), but no other ``_``-prefixed name of those modules, such as
the basis derivatives' ``_deriv_table`` or a CP mode's ``_cp_values``: an
oracle that calls the optimized code checks the library against itself.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"
CHECKED = ("hdmrfit.basis", "hdmrfit.fitting", "hdmrfit.model",
           "hdmrfit.selection")


def _private(name: str) -> bool:
    return name.startswith("_") and not name.isupper()


def private_uses(text: str) -> list[str]:
    """``module.name`` for every private name other than a constant that
    ``text`` imports from, or reads as an attribute of, a checked module."""
    tree = ast.parse(text)
    modules = {}     # local name -> checked module
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name)
                           for a in node.names if a.name in CHECKED)
        elif isinstance(node, ast.ImportFrom) and node.module in CHECKED:
            found.update(f"{node.module}.{a.name}" for a in node.names
                         if _private(a.name))
        elif isinstance(node, ast.ImportFrom) and node.module == "hdmrfit":
            modules.update((a.asname or a.name, f"hdmrfit.{a.name}")
                           for a in node.names if f"hdmrfit.{a.name}" in CHECKED)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            module = modules.get(ast.unparse(node.value))
            if module is not None:
                found.add(f"{module}.{node.attr}")
    return sorted(found)


def test_guard_sees_every_form_of_private_use():
    text = ("from hdmrfit import fitting\n"
            "import hdmrfit.selection as sel\n"
            "from hdmrfit.fitting import _gram_solve, _TINY, ls_solve\n"
            "from hdmrfit.basis import _deriv_table, univariate_table\n"
            "from hdmrfit.model import _cp_values, dense_design\n"
            "fitting._als_rank(1)\n"
            "sel._Scan(2)\n"
            "fitting._WTLS_TOL * fitting._TINY\n")
    assert private_uses(text) == ["hdmrfit.basis._deriv_table",
                                  "hdmrfit.fitting._als_rank",
                                  "hdmrfit.fitting._gram_solve",
                                  "hdmrfit.model._cp_values",
                                  "hdmrfit.selection._Scan"]


def test_oracles_call_no_private_function_of_the_layers_they_check():
    assert private_uses(ORACLES.read_text(encoding="utf-8")) == []
