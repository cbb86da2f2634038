"""Every module-level import of the package is used in its module, every
module-level name it assigns is read by one of its modules, and every
field of its dataclasses is read somewhere.

No linter ships with the project, so this is the one dead-name check: a
deletion that leaves an import, a constant or a stored field behind
fails here.  It
reads the sources with the standard-library ``ast`` and imports nothing.
``tests/test_reachability.py`` is its companion for functions."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "okubo_e8"
MODULES = sorted(PACKAGE_DIR.glob("*.py"))

#: the paper's numbers of record: kept whether or not a check reads them
RECORD_MODULE = "claims.py"


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


def _assigned_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module-level assignments, with their line numbers."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                    names[name.id] = node.lineno
    return names


def _read_names(trees) -> set[str]:
    """Names the modules read: loaded names, attributes, and the names
    imported from another module."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def _unread(sources: dict[str, str], exempt_text: str) -> list[str]:
    """``file:line name`` for each module-level assignment of ``sources``
    (file name -> text) that no source reads, leaving out the record
    module and the names that appear as words in ``exempt_text``."""
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    read = _read_names(trees.values())
    return sorted(
        f"{file}:{line} {name}"
        for file, tree in trees.items() if file != RECORD_MODULE
        for name, line in _assigned_names(tree).items()
        if name not in read and not re.search(rf"\b{re.escape(name)}\b", exempt_text)
    )


def test_every_assignment_is_read():
    perfbench = "".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    unread = _unread({p.name: p.read_text() for p in MODULES}, perfbench)
    assert not unread, f"assigned and never read: {', '.join(unread)}"


def test_checker_sees_an_unread_assignment():
    sources = {
        "a.py": "X, Y = 1, 2\nZ: int = 3\nKEPT = 4\nDEAD = X\n",
        "b.py": "from .a import Y\nprint(Y, a.Z)\n",
        RECORD_MODULE: "NUMBER = 5\n",
    }
    assert _unread(sources, "names KEPT, not KEPTX") == ["a.py:4 DEAD"]
    assert _unread(sources, "") == ["a.py:3 KEPT", "a.py:4 DEAD"]


#: dataclass fields nothing reads that a benchmark span still builds:
#: (module file, "Class.field") -> the perfbench name that needs them
FIELD_EXEMPT = {
    ("lattice.py", "NormalForms.hermite"): "hnf_snf",
    ("lattice.py", "NormalForms.hermite_transform"): "hnf_snf",
}


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def _dataclass_fields(tree: ast.Module) -> dict[str, int]:
    """``Class.field`` -> line for each field of the module's dataclasses
    (annotated class-body names, ``ClassVar`` ones left out)."""
    fields = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            for item in node.body:
                if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and "ClassVar" not in ast.unparse(item.annotation)):
                    fields[f"{node.name}.{item.target.id}"] = item.lineno
    return fields


def _unread_fields(sources: dict[str, str], readers: list[str]) -> list[str]:
    """``file:line Class.field`` for each dataclass field of ``sources``
    (file name -> text) that neither they nor ``readers`` read as an
    attribute.  Reads are matched by name, so any ``x.name`` counts for
    every field called ``name``."""
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    read = {node.attr
            for tree in [*trees.values(), *(ast.parse(text) for text in readers)]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(
        f"{file}:{line} {field}"
        for file, tree in trees.items()
        for field, line in _dataclass_fields(tree).items()
        if field.split(".")[1] not in read
    )


def _package_unread_fields() -> list[str]:
    """The unread dataclass fields of the package, the tests and the
    benchmark counting as readers."""
    readers = [p.read_text() for d in ("tests", "perfbench")
               for p in sorted((ROOT / d).glob("*.py"))]
    return _unread_fields({p.name: p.read_text() for p in MODULES}, readers)


def test_every_field_is_read():
    unread = [entry for entry in _package_unread_fields()
              if (entry.split(":")[0], entry.split()[1]) not in FIELD_EXEMPT]
    assert not unread, f"stored and never read: {', '.join(unread)}"


@pytest.mark.parametrize("entry", sorted(FIELD_EXEMPT), ids="{0[0]}:{0[1]}".format)
def test_field_exemption_is_current(entry):
    """An entry names a field that exists, that nothing reads, and whose
    perfbench name a perfbench file still names."""
    file, field = entry
    tree = ast.parse((PACKAGE_DIR / file).read_text())
    assert field in _dataclass_fields(tree), f"{file} has no field {field}"
    assert any(e.startswith(file + ":") and e.endswith(" " + field)
               for e in _package_unread_fields()), f"{field} is read: drop its exemption"
    word = re.compile(rf"\b{re.escape(FIELD_EXEMPT[entry])}\b")
    assert any(word.search(p.read_text()) for p in (ROOT / "perfbench").glob("*.py")), \
        f"no perfbench file names {FIELD_EXEMPT[entry]}"


def test_checker_sees_an_unread_field():
    source = ("@dataclass(frozen=True)\nclass R:\n    x: int\n    y: int\n"
              "    z: ClassVar[int] = 0\n"
              "@dataclasses.dataclass\nclass S:\n    w: int\n"
              "class T:\n    v: int\n")
    assert _unread_fields({"a.py": source}, ["print(r.x, s.w)\nr.y = 1\n"]) == ["a.py:4 R.y"]
    assert _unread_fields({"a.py": source}, []) == ["a.py:3 R.x", "a.py:4 R.y", "a.py:8 S.w"]
