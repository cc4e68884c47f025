"""Source hygiene of the package: no module imports a name it never uses,
and every module-level function, class and assigned name is referenced
outside its own definition, so that code a change leaves behind is caught
here."""

import ast
import pathlib
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "steklov_lab"
MODULES = sorted(SRC.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


TREES = {p.name: _parse(p) for p in MODULES}
# the code outside the package that may use its public names
OUTSIDE = [_parse(p) for d in ("tests", "perfbench")
           for p in sorted((ROOT / d).rglob("*.py"))]


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


def _definitions(tree):
    """(name, node) of every module-level function, class and assigned
    name, dunder names left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node


def unreferenced_names(trees, outside) -> list:
    """module:name of every definition in trees (file name -> module AST,
    __init__.py left out) that no code references outside its own
    definition: a private name must be used in trees, a public one in trees
    or in the ASTs of outside.  Re-exports in __init__.py are no use."""
    trees = {k: t for k, t in trees.items() if k != "__init__.py"}
    inside = sum((_references(t) for t in trees.values()), Counter())
    public = inside + sum((_references(t) for t in outside), Counter())
    return [f"{module}:{name}"
            for module, tree in trees.items()
            for name, node in _definitions(tree)
            if (inside if name.startswith("_") else public)[name]
            == _references(node)[name]]


def test_every_module_level_name_is_referenced():
    assert unreferenced_names(TREES, OUTSIDE) == []


def test_an_unused_definition_is_reported():
    planted = ast.parse("UNUSED_RULE = 3\n_ORPHAN = 4\n"
                        "def dead_public():\n    return 0\n"
                        "def _recursive():\n    return _recursive()\n")
    # a private name used only outside src/ is still unused
    outside = OUTSIDE + [ast.parse("_ORPHAN\n")]
    assert unreferenced_names(dict(TREES, planted=planted), outside) == [
        "planted:UNUSED_RULE", "planted:_ORPHAN", "planted:dead_public",
        "planted:_recursive"]


def _defaulted(fn):
    """(position or None, name) of each parameter of fn with a default;
    keyword-only ones have no position."""
    params = fn.args.posonlyargs + fn.args.args
    for i in range(len(params) - len(fn.args.defaults), len(params)):
        yield i, params[i].arg
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _sets(call, position, name) -> bool:
    """Whether call passes the parameter by keyword, by position or
    through a starred argument."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(a, ast.Starred) for a in call.args))


def unset_defaults(trees, callers) -> list:
    """module:function.parameter of every defaulted parameter of a
    module-level function in trees that no call in callers (module ASTs)
    sets.  A call is matched by the function's name, bare or as an
    attribute; methods are left out."""
    calls = {}
    for tree in callers:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                f = n.func
                name = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                calls.setdefault(name, []).append(n)
    return [f"{module}:{fn.name}.{name}"
            for module, tree in trees.items()
            for fn in tree.body if isinstance(fn, ast.FunctionDef)
            for position, name in _defaulted(fn)
            if not any(_sets(c, position, name)
                       for c in calls.get(fn.name, []))]


def test_every_defaulted_parameter_is_set_by_some_call():
    assert unset_defaults(TREES, list(TREES.values()) + OUTSIDE) == []


def test_a_default_no_call_sets_is_reported():
    planted = ast.parse("def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n"
                        "def g(x=0):\n    return x\n"
                        "def h(y=0):\n    return y\n"
                        "class K:\n    def method(self, z=0):\n"
                        "        return z\n")
    callers = [ast.parse("f(0, 1)\nmod.f(0, e=5)\ng(*args)\nh(**kw)\n")]
    assert unset_defaults({"planted": planted}, callers) == [
        "planted:f.c", "planted:f.d"]
