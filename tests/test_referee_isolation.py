"""The referees in tests/ take no private code from the package they referee.

A referee that imports a private helper of the fast path shares its
mistakes.  The one exception is ``_ApexShape``, a plain record.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
REFEREES = sorted(TESTS.glob("*_reference.py")) + [TESTS / "fraction_kernel.py"]
ALLOWED = {"_ApexShape"}


def private_names(source: str) -> list[str]:
    """Underscore names taken from ``hermitia`` by import or attribute."""
    tree = ast.parse(source)
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hermitia":
            for alias in node.names:
                bound.add(alias.asname or alias.name)
                found += [alias.name] if alias.name.startswith("_") else []
        elif isinstance(node, ast.Import):
            bound.update(
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
                if alias.name.split(".")[0] == "hermitia"
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(node.attr)
    return [name for name in found if name not in ALLOWED]


def test_referees_are_found():
    names = {path.name for path in REFEREES}
    assert {"thm12_reference.py", "parts_twins_reference.py", "fraction_kernel.py"} <= names


@pytest.mark.parametrize("path", REFEREES, ids=lambda path: path.name)
def test_referee_imports_no_private_package_code(path):
    assert private_names(path.read_text()) == []


def test_guard_sees_private_imports():
    assert private_names("from hermitia.classify import _ApexShape, _split") == ["_split"]
    assert private_names("import hermitia.classify as c\nc._apex_roles(g, s)") == ["_apex_roles"]
    assert private_names("from hermitia import classify\nclassify._p1_tag") == ["_p1_tag"]
    assert private_names("from other import _x\nimport os\nos._exit") == []
