"""Every imported name in the package and its tests is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def _annotation_names(node):
    """Names inside string annotations such as ``-> "GridScalar"``."""
    for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    expr = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                yield from (n.id for n in ast.walk(expr) if isinstance(n, ast.Name))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
        used.update(_annotation_names(node))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scan_flags_an_unused_import():
    src = "import os\nfrom a import b, c as d\n__all__ = ['b']\n"
    assert unused_imports(src) == ["d (line 2)", "os (line 1)"]
    assert unused_imports("from x import T\ndef f() -> 'T': pass\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
