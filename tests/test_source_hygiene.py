"""Source hygiene of src/latsym, read with ast: every import of a module is
used in it, every module-level private function or class is referenced
in src/latsym itself, no statement follows a return, raise, continue or
break in its block, and Fraction is named only by the few functions that
answer with one.  An import, helper or statement that a change leaves
behind fails here instead of staying."""

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
    # a helper that only tests or perfbench call belongs there, not in src
    referenced = set()
    for path in MODULES:
        referenced |= _references(_tree(path))
    orphans = [
        "%s.%s" % (path.stem, node.name)
        for path in MODULES for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in referenced]
    assert orphans == []


_JUMPS = (ast.Return, ast.Raise, ast.Continue, ast.Break)


def _unreachable(tree):
    """Line numbers of the statements that follow a jump in their block."""
    return [body[i + 1].lineno
            for node in ast.walk(tree)
            for body in (getattr(node, field, None)
                         for field in ("body", "orelse", "finalbody"))
            if isinstance(body, list)
            for i, stmt in enumerate(body[:-1]) if isinstance(stmt, _JUMPS)]


def test_unreachable_statements_are_found():
    tree = ast.parse("def f(x):\n"
                     "    for y in x:\n"
                     "        if y:\n"
                     "            continue\n"
                     "            y += 1\n"
                     "        break\n"
                     "    else:\n"
                     "        raise ValueError\n"
                     "    try:\n"
                     "        return x\n"
                     "        x = 1\n"
                     "    finally:\n"
                     "        pass\n")
    assert sorted(_unreachable(tree)) == [5, 11]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_statement_follows_a_jump(path):
    assert _unreachable(_tree(path)) == []


# the functions that may name Fraction, by module: the engine is integral,
# and a rational value is only ever an answer (a determinant or inverse, or
# a discriminant value that is printed); dual vectors are int vectors over
# a denominator
FRACTION_USERS = {"intmat.py": {"frac_det", "frac_inverse"},
                  "discform.py": {"q", "b"}}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_fractions_stay_at_the_edges(path):
    tree = _tree(path)
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "fractions"
               or isinstance(node, ast.Import)
               and any(alias.name == "fractions" for alias in node.names)]
    users = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             and "Fraction" in _references(fn)}
    allowed = FRACTION_USERS.get(path.name, set())
    assert (bool(imports), users - allowed) == (bool(allowed), set())
