"""Every module-level import of the package is used in its module, every
module-level name it assigns is read by one of its modules, every field
of its records is read by the package or the benchmark (not only by a
test), every defaulted parameter is set by some call, and only
``checks`` reads claimed values from ``claims``.

No linter ships with the project, so this is the one dead-name check: a
deletion that leaves an import, a constant, a stored field or an option
no caller turns behind fails here.  It
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


#: the decorators that make a class a record of its annotated fields: the
#: package's own, and the standard library's in the checker's own test
RECORD_DECORATORS = ("record", "dataclass")


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) in RECORD_DECORATORS


def _dataclass_fields(tree: ast.Module) -> dict[str, int]:
    """``Class.field`` -> line for each field of the module's records
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
    """``file:line Class.field`` for each record field of ``sources``
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


def _package_unread_fields(root=ROOT) -> list[str]:
    """The record fields of the package under ``root`` that neither it nor
    the benchmark reads.  The tests do not count as readers: a value that
    only a test reads is not computed for what ships, as a function that
    only a test calls belongs in that test (``test_reachability``).

    Reads are matched by name, so a field is flagged only when no shipped
    code reads any attribute of that name: of the eleven fields that only
    tests read before they were deleted, this check would have flagged
    five, as ``product``, ``name``, ``convention`` and ``norm_values`` are
    also read on other types."""
    readers = [p.read_text() for p in sorted((root / "perfbench").glob("*.py"))]
    modules = sorted((root / "src" / "okubo_e8").glob("*.py"))
    return _unread_fields({p.name: p.read_text() for p in modules}, readers)


def test_every_field_is_read():
    unread = _package_unread_fields()
    assert not unread, f"stored and never read: {', '.join(unread)}"


def test_field_check_covers_every_record():
    """The field check sees the fields of every class the package
    decorates with ``@record``, so it cannot pass by covering none."""
    decorated, covered = set(), set()
    for path in MODULES:
        text = path.read_text()
        decorated |= {f"{path.name}:{name}"
                      for name in re.findall(r"^@record\n(?:@.*\n)*class (\w+)", text, re.M)}
        covered |= {f"{path.name}:{field.split('.')[0]}"
                    for field in _dataclass_fields(ast.parse(text))}
    assert decorated, "no module decorates a class with @record"
    assert covered == decorated


def test_checker_sees_an_unread_field(tmp_path):
    source = ("@record\nclass R:\n    x: int\n    y: int\n"
              "    z: ClassVar[int] = 0\n"
              "@dataclasses.dataclass\nclass S:\n    w: int\n"
              "class T:\n    v: int\n")
    assert _unread_fields({"a.py": source}, ["print(r.x, s.w)\nr.y = 1\n"]) == ["a.py:4 R.y"]
    assert _unread_fields({"a.py": source}, []) == ["a.py:3 R.x", "a.py:4 R.y", "a.py:8 S.w"]
    # a field that only a test reads is reported; one that the package or
    # the benchmark reads is not
    files = {
        "src/okubo_e8/a.py": "@record\nclass R:\n    x: int\n    y: int\n    z: int\n"
                             "def f(r):\n    return r.x\n",
        "perfbench/run.py": "print(r.y)\n",
        "tests/test_a.py": "assert r.x == r.y == r.z\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert _package_unread_fields(tmp_path) == ["a.py:5 R.z"]


#: defaulted parameters that no call sets, and why each stays:
#: (module file, "function.parameter") -> the reason
DEFAULT_EXEMPT = {
    ("okubomatrix.py", "random_matrix.span"):
        "perfbench/micro.py passes span=2 to draw its matrix operands",
    **{("algebras.py", f"random_element.{name}"):
       "goes with the seeded sampling, which is deleted whole"
       for name in ("span", "denominator", "with_irrational")},
}

#: the module whose check groups, and ``run_all``, get the keyword
#: arguments that the ``verify`` flags of ``cli.FLAGS`` set
CHECKS_MODULE = "checks.py"


def _cli_kwargs(cli_source: str) -> set[str]:
    """The group parameters the ``verify`` flags set: the first item of each
    value of the dict display assigned to ``FLAGS``."""
    for node in ast.walk(ast.parse(cli_source)):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(getattr(t, "id", None) == "FLAGS" for t in node.targets)):
            return {value.elts[0].value for value in node.value.values}
    return set()


def _defaults(tree: ast.Module):
    """(name it is called by, leading parameters a call leaves out, def
    node, {parameter: (positional index or None, default source)}) for
    each function of the module that has a defaulted parameter.  A method
    is called without its ``self`` or ``cls``, and ``__init__`` and
    ``__new__`` by the name of their class."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)  # the first defaulted one
                params = {arg.arg: (i, ast.unparse(d)) for i, (arg, d)
                          in enumerate(zip(positional[first:], a.defaults), first)}
                params.update((arg.arg, (None, ast.unparse(d)))
                              for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                name = (cls.name if cls is not None and child.name in ("__init__", "__new__")
                        else child.name)
                if params:
                    out.append((name, int(cls is not None and not static), child, params))
                visit(child, None)
            else:
                visit(child, child if isinstance(child, ast.ClassDef) else None)

    visit(tree, None)
    return out


def _turned(calls, name, skip, param, position, default) -> bool:
    """Whether some call of ``name`` in ``calls`` passes ``param`` a value
    other than the source text of its default."""
    for call in calls.get(name, ()):
        for k, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break
            if k + skip == position and ast.unparse(arg) != default:
                return True
        if any(kw.arg == param and ast.unparse(kw.value) != default for kw in call.keywords):
            return True
    return False


def _unturned_defaults(sources: dict[str, str], callers: list[str]) -> list[str]:
    """``file:line function.parameter`` for each defaulted parameter of a
    function of ``sources`` (file name -> text) that no call in them or in
    ``callers`` sets to a value other than its default, calls being
    matched by name.  In the check groups of ``checks.py`` and its
    ``run_all``, the names ``cli.py`` (one of ``sources``) passes them
    count as set."""
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    calls = {}
    for tree in [*trees.values(), *(ast.parse(text) for text in callers)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    from_cli = _cli_kwargs(sources.get("cli.py", ""))
    out = []
    for file, tree in trees.items():
        for name, skip, node, params in _defaults(tree):
            suite = file == CHECKS_MODULE and (node.name == "run_all" or any(
                getattr(getattr(d, "func", None), "id", None) == "check"
                for d in node.decorator_list))
            out += [f"{file}:{node.lineno} {node.name}.{param}"
                    for param, (position, default) in params.items()
                    if not (suite and param in from_cli)
                    and not _turned(calls, name, skip, param, position, default)]
    return sorted(out)


def _package_unturned_defaults() -> list[str]:
    """The unturned defaulted parameters of the package, the benchmark's
    calls counting as well; a test's call does not turn one."""
    callers = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    return _unturned_defaults({p.name: p.read_text() for p in MODULES}, callers)


def test_every_default_is_turned():
    unturned = [entry for entry in _package_unturned_defaults()
                if (entry.split(":")[0], entry.split()[1]) not in DEFAULT_EXEMPT]
    assert not unturned, f"a default no call changes, make it a constant: {', '.join(unturned)}"


@pytest.mark.parametrize("entry", sorted(DEFAULT_EXEMPT), ids="{0[0]}:{0[1]}".format)
def test_default_exemption_is_current(entry):
    """An entry names a defaulted parameter that exists and that no call
    sets."""
    file, param = entry
    assert any(e.startswith(file + ":") and e.endswith(" " + param)
               for e in _package_unturned_defaults()), \
        f"{file} has no unturned defaulted parameter {param}: drop its exemption"


def test_checker_sees_an_unturned_default():
    sources = {
        "a.py": "def f(x, k=2, *, flag=False):\n    return x\n"
                "def g(y=1):\n    return f(y, 2) + f(y, flag=False)\n"
                "class C:\n    def __init__(self, v=0):\n        self.v = v\n"
                "    @classmethod\n    def make(cls, w=''):\n        return cls(w)\n"
                "    @staticmethod\n    def s(u=None):\n        return u\n"
                "X = C(1), C.make(), C.s(3), g(*[5])\n",
        "cli.py": "FLAGS = {'--seed': ('seed', {}), '--constants': ('constants', {})}\n",
        CHECKS_MODULE: "@check('anchor', 'claim', [])\ndef check_x(seed=0, samples=9):\n"
                       "    return []\ndef run_all(seed=0):\n    return []\n"
                       "def helper(seed=0):\n    return []\n",
    }
    assert _cli_kwargs(sources["cli.py"]) == {"seed", "constants"}
    assert _unturned_defaults(sources, []) == [
        "a.py:1 f.flag", "a.py:1 f.k", "a.py:3 g.y", "a.py:9 make.w",
        "checks.py:2 check_x.samples", "checks.py:6 helper.seed"]
    assert _unturned_defaults(sources, ["f(0, 3)\nC.make('w')\n"]) == [
        "a.py:1 f.flag", "a.py:3 g.y", "checks.py:2 check_x.samples",
        "checks.py:6 helper.seed"]


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
