"""Source hygiene of src/latsym, read with ast: every import of a module is
used in it, and every module-level private function or class is referenced
somewhere in src/latsym, tests or perfbench.  An import or helper that a
deletion leaves behind fails here instead of staying."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "latsym"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _references(tree):
    """The names a tree reads: bare names and attribute names."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    assert [name for name in bound if name not in names] == []


def test_every_private_helper_is_referenced():
    referenced = set()
    for top in (SRC, ROOT / "tests", ROOT / "perfbench"):
        for path in top.rglob("*.py"):
            referenced |= _references(_tree(path))
    orphans = [
        "%s.%s" % (path.stem, node.name)
        for path in MODULES for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in referenced]
    assert orphans == []
