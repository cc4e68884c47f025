"""Source hygiene of the package: no module imports a name it never uses,
and every module-level private function is referenced outside its own def,
so that code a change leaves behind is caught here."""

import ast
import pathlib
from collections import Counter

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "steklov_lab"
MODULES = sorted(SRC.glob("*.py"))
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
         for p in MODULES}


def _references(node) -> Counter:
    """Identifiers under node: names, attribute names and imported names."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def test_the_package_is_parsed():
    assert {"geometry.py", "shapes.py", "cellmetrics.py", "cli.py"} <= set(
        TREES)


# __init__.py imports only to re-export the package's public names
@pytest.mark.parametrize("name", [n for n in TREES if n != "__init__.py"])
def test_no_module_imports_a_name_it_never_uses(name):
    tree = TREES[name]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(bound)
    assert unused == [], f"{name} imports {unused} and never uses them"


def test_every_private_function_is_referenced():
    total = sum((_references(t) for t in TREES.values()), Counter())
    unreferenced = [
        f"{name}:{fn.name}"
        for name, tree in TREES.items() for fn in tree.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and fn.name.startswith("_") and not fn.name.endswith("__")
        and total[fn.name] - _references(fn)[fn.name] == 0]
    assert unreferenced == []
