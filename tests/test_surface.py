"""The exported surface is what the pipeline reads.

Every name in a module's ``__all__`` needs a reader outside the tests:
another module of the package, the defining module itself beyond the
definition and the ``__all__`` entry, the benchmark harness
(``perfbench/*.py``) or README.md. A name only tests read belongs in
``tests/oracles.py``, or nowhere.
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
