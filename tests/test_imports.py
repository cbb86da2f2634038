"""Every module-level import of the package is used in its module, every
module-level name it assigns is read by one of its modules, every field
of its dataclasses is read somewhere, and only ``checks`` reads claimed
values from ``claims``.

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


#: what a module other than ``checks`` may take from ``claims``: the
#: construction inputs (the convention, the certified scaling exponents
#: that build the scaled order, the catalog's names).  Every other claimed
#: value is an expected value, compared in ``checks`` alone.
CLAIMS_INPUTS = frozenset(
    {"CONVENTION", "SCALING_EXPONENTS", "CLASSICAL_TABLE", "UNSPECIFIED_CLASSICAL"})
CLAIMS_READER = "checks.py"


def _claims_reads(tree: ast.Module) -> set[str]:
    """The names a module takes from ``claims``, anywhere in it: by
    ``from .claims import X``, or as ``c.X`` where ``c`` is ``claims``
    imported as a module."""
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").rpartition(".")[2] == "claims":
                names.update(alias.name for alias in node.names)
            aliases.update(alias.asname or alias.name
                           for alias in node.names if alias.name == "claims")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
            names.add(node.attr)
    return names


def _claims_violations(sources: dict[str, str]) -> list[str]:
    """``file: name`` for each name outside the construction inputs that a
    module other than ``checks`` takes from ``claims``."""
    return sorted(
        f"{file}: {name}"
        for file, text in sources.items() if file != CLAIMS_READER
        for name in _claims_reads(ast.parse(text, filename=file)) - CLAIMS_INPUTS
    )


def test_only_checks_reads_claimed_values():
    bad = _claims_violations({p.name: p.read_text() for p in MODULES})
    assert not bad, f"claimed values read outside {CLAIMS_READER}: {', '.join(bad)}"


def test_checker_sees_a_claimed_value_read():
    sources = {
        "a.py": "from .claims import SCALING_EXPONENTS, TRACE_PATTERN\n",
        "b.py": "from . import claims as c\nx = c.UNIT_COUNT, c.CONVENTION\n",
        "c.py": "def f():\n    from .claims import NORM_CROSS_TERMS\n",
        "d.py": "from okubo_e8.claims import CLASSICAL_TABLE\n",
        CLAIMS_READER: "from . import claims\nx = claims.UNIT_COUNT\n",
    }
    assert _claims_violations(sources) == [
        "a.py: TRACE_PATTERN", "b.py: UNIT_COUNT", "c.py: NORM_CROSS_TERMS"]


#: the callers of the one solve over a field: the one coordinate solve,
#: which every coordinate question goes through, and the inclusion matrix
#: of a sublattice
INVERSE_CALLERS = ["exact.py:SpanSolve.__init__", "lattice.py:_inclusion_matrix"]

#: the callers of the one LDL: the enumeration plan, the one positive
#: definiteness test of a lattice, and the matrix realization's signature
LDL_CALLERS = ["_kernels.py:prepare_enumeration", "okubomatrix.py:gram_pivots"]


def _call_sites(sources: dict[str, str], name: str) -> list[str]:
    """``file:scope`` for each call of ``name`` in ``sources`` (file name
    -> text), as a bare name or as an attribute, with ``scope`` the dotted
    names of the enclosing classes and functions."""
    sites = []

    def visit(node, file, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            elif (isinstance(child, ast.Call) and name
                    in (getattr(child.func, "id", None), getattr(child.func, "attr", None))):
                sites.append(f"{file}:{'.'.join(scope)}")
            visit(child, file, inner)

    for file, text in sources.items():
        visit(ast.parse(text, filename=file), file, [])
    return sorted(sites)


def test_one_coordinate_solve_inverts():
    sources = {p.name: p.read_text() for p in MODULES}
    for name, callers in (("solve", INVERSE_CALLERS), ("ldl", LDL_CALLERS)):
        sites = _call_sites(sources, name)
        assert sites == callers, f"{name} called from {', '.join(sites)}"


def test_exact_imports_nothing_from_lattice():
    """``exact`` sits below ``lattice``: the field solve needs no lattice
    helper, so the two modules form no import cycle."""
    tree = ast.parse((PACKAGE_DIR / "exact.py").read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert not {m for m in imported if m.rpartition(".")[2] == "lattice"}


def test_checker_sees_every_call_site():
    sources = {
        "a.py": "from .exact import solve\nX = solve(1, 2)\n"
                "class C:\n    def f(self):\n        return g(solve(2, 3))\n",
        "b.py": "from . import exact as ex\ndef h():\n    return ex.solve\n"
                "def k():\n    return ex.solve(3, 4)\n",
    }
    assert _call_sites(sources, "solve") == ["a.py:", "a.py:C.f", "b.py:k"]
