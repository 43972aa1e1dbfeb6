"""The exported surface is what the pipeline reads.

Every name in a module's ``__all__`` needs a reader outside the tests:
another module of the package, the defining module itself beyond the
definition and the ``__all__`` entry, the benchmark harness
(``perfbench/*.py``) or README.md. A name only tests read belongs in
``tests/oracles.py``, or nowhere. Every top-level private name of the
package (a ``_``-prefixed function, class or constant) needs a reader in
the package beyond its own definition: one only tests read is dead code.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hdmrfit"


def _exports(text: str) -> list[str]:
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def unread_exports(root: Path) -> list[str]:
    """``module.name`` for every export of ``root``'s package with no reader."""
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted((root / "src" / "hdmrfit").glob("*.py"))}
    outside = [p.read_text(encoding="utf-8")
               for p in sorted((root / "perfbench").glob("*.py"))]
    outside.append((root / "README.md").read_text(encoding="utf-8"))
    unread = []
    for stem, text in modules.items():
        for name in _exports(text):
            word = re.compile(rf"\b{re.escape(name)}\b")
            # the definition and the __all__ entry are two mentions
            if len(word.findall(text)) > 2:
                continue
            if any(word.search(t) for s, t in modules.items() if s != stem):
                continue
            if any(word.search(t) for t in outside):
                continue
            unread.append(f"{stem}.{name}")
    return unread


def test_every_export_has_a_reader_outside_tests():
    assert SRC.is_dir()
    assert unread_exports(ROOT) == []


def _defined(stmt) -> list[str]:
    # the names a top-level statement binds
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _reads(stmt) -> set[str]:
    # the names a statement reads, bare or as an attribute (module._name)
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def unread_privates(root: Path) -> list[str]:
    """``module.name`` for every top-level private name of ``root``'s package
    that no statement of the package reads but its own definition."""
    stmts = [(p.stem, stmt) for p in sorted((root / "src" / "hdmrfit").glob("*.py"))
             for stmt in ast.parse(p.read_text(encoding="utf-8")).body]
    reads = [_reads(stmt) for _, stmt in stmts]
    unread = []
    for i, (stem, stmt) in enumerate(stmts):
        for name in _defined(stmt):
            if name.startswith("_") and not name.startswith("__") and not any(
                    name in r for j, r in enumerate(reads) if j != i):
                unread.append(f"{stem}.{name}")
    return unread


def test_guard_sees_an_unread_private_name(tmp_path):
    pkg = tmp_path / "src" / "hdmrfit"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("_LIMIT = 2\n_dead = 1\n\n\ndef _loop(n):\n"
                              "    return _loop(n - 1) if n else _LIMIT\n")
    (pkg / "b.py").write_text("from . import a\nfrom .a import _dead\n\n\n"
                              "class _Used:\n    pass\n\n\nx = a._loop(_Used())\n")
    assert unread_privates(tmp_path) == ["a._dead"]


def test_every_private_name_has_a_reader_in_the_package():
    assert unread_privates(ROOT) == []
