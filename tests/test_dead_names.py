"""The package holds no dead names.

Each module of ``src/hermitia`` other than ``__init__.py`` uses every name
it imports, and every private module-level name it defines is referenced
somewhere in the package.  No module imports an underscore name from
another package module: a helper two modules share is public.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hermitia"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def private_imports(tree: ast.Module) -> list[str]:
    """Underscore names a module imports from the package, relatively or by name."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level or (node.module or "").split(".")[0] == "hermitia":
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
    return found


def private_definitions(tree: ast.Module) -> list[str]:
    """Module-level ``_private`` names a module defines; dunders excluded."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    private = [name for name in names if name.startswith("_")]
    return [name for name in private if not (name.startswith("__") and name.endswith("__"))]


def references(trees: list[ast.Module]) -> set[str]:
    """Names read, taken as attributes or imported anywhere in ``trees``."""
    found = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
    return found


def unreferenced_private_names(sources: dict[str, str], checked: list[str]) -> list[str]:
    """``module.name`` for each private definition in the ``checked``
    modules that no module of ``sources`` references."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = references(list(trees.values()))
    return [
        f"{module}.{name}"
        for module in checked
        for name in private_definitions(trees[module])
        if name not in used
    ]


def test_modules_are_found():
    names = {path.name for path in MODULES}
    assert {"classify.py", "switching_twins.py", "suites.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_its_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_no_private_package_name(path):
    assert private_imports(ast.parse(path.read_text())) == []


def test_private_names_are_referenced():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unreferenced_private_names(sources, [path.name for path in MODULES]) == []


def test_guard_sees_dead_names():
    assert unused_imports(ast.parse("from __future__ import annotations\nimport os\nos.sep")) == []
    assert unused_imports(ast.parse("from .numeric import Unit, unit_token\nunit_token(0)")) == ["Unit"]
    assert unused_imports(ast.parse("import numpy as np\nx = 1")) == ["np"]
    assert private_imports(ast.parse("from __future__ import annotations\nfrom .spectra import Grid, _matmul")) == [
        "_matmul"
    ]
    assert private_imports(ast.parse("from hermitia.classify import _split\nfrom os import _exit")) == ["_split"]
    sources = {
        "a.py": "_CAP = 3\n_dead = 4\n__version__ = '1'\ndef _helper():\n    return _CAP\n",
        "b.py": "from .a import _helper\n",
    }
    assert unreferenced_private_names(sources, ["a.py"]) == ["a.py._dead"]
    assert unreferenced_private_names({"a.py": "def _f():\n    pass\n"}, ["a.py"]) == ["a.py._f"]
