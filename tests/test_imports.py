"""Import hygiene, checked on the AST: no module of the package keeps an
import it does not use, and every public export resolves."""

import ast
from pathlib import Path

import pytest

import wgauss.algebra

SRC = Path(wgauss.algebra.__file__).resolve().parents[1]
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_level_imports_are_used(path):
    assert _unused_imports(path) == []


def test_algebra_exports_resolve():
    missing = [n for n in wgauss.algebra.__all__ if not hasattr(wgauss.algebra, n)]
    assert missing == []
