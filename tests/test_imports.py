"""Every module-level import of the package is used in its module.

No linter ships with the project, so this is the one dead-import check:
a deletion that leaves an import behind fails here.  It reads the
sources with the standard-library ``ast`` and imports nothing."""

import ast
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "okubo_e8"
MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module-level imports, with their line numbers."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, plus those it re-exports by
    listing them in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_modules_found():
    assert {p.name for p in MODULES} >= {"orders.py", "catalog.py", "lattice.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{path.name}: unused imports {', '.join(unused)}"


def test_checker_sees_an_unused_import():
    tree = ast.parse("from math import gcd, lcm, pi\nimport json\n"
                     "x = lcm(2, 3)\n__all__ = ['pi']\n")
    used = _referenced_names(tree)
    assert sorted(n for n in _imported_names(tree) if n not in used) == ["gcd", "json"]
